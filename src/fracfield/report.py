"""Deterministic artifact writing: CSV tables, JSON files, digests.

Tables are given column by column, in the shapes :func:`render_csv`
takes, and every cell holds the bytes of per-cell %d (integers), %.17g
(floats, so values round-trip exactly) or %s (strings).  Tables that
are smaller than one chunk of cells or hold strings are broadcast and
%-formatted cell by cell.

A numeric table of at least one chunk of cells is rendered in numpy.
Each column becomes a block of fixed byte slots per cell, NUL where the
cell has no character; a chunk of rows is its blocks and separators
side by side, and dropping the NULs leaves the text.  A float with
1e-6 < |x| < 1e17 gets its 17 significant digits exactly: Dekker's
two-product gives |x| * 10**k, with 10**k exact for k <= 22, as the
unevaluated sum p + err, so p + rint(err) rounds half to even as
CPython's dtoa does, and the digits are laid out by the %g rules.
Zeros are written directly.  Other float cells (non-finite, or with
0 < |x| <= 1e-6 or |x| >= 1e17) and all integer cells are formatted one
by one with %.  A column of the table's shape is rendered cell by cell;
one of shape (n_blocks, 1) or (1, n_per_block) has its values rendered
once, and row r copies value r // stride % size, stride n_per_block or 1.

Files are UTF-8 with LF line endings regardless of platform, and every
writer returns the SHA-256 of the bytes written so manifests can pin
outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "ARTIFACT_VERSION",
    "render_csv",
    "write_csv",
    "write_json",
]

ARTIFACT_VERSION = 1

# Cell format per numpy dtype kind.
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
# Rows rendered per chunk, which bounds the memory a large table takes.
_CHUNK_ROWS = 1 << 13
# Tables of fewer cells are %-formatted: below this, numpy's fixed cost
# per call outweighs what it saves per cell.
_NUMPY_MIN_CELLS = _CHUNK_ROWS

# 10**0 .. 10**22, each an exact double (5**22 < 2**53).
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])
# The ASCII digits of 0 .. 9999, four to a row.
_DIGIT_ROWS = np.empty((10, 10, 10, 10, 4), np.uint8)
for _j in range(4):
    _DIGIT_ROWS[..., _j] = (48 + np.arange(10, dtype=np.uint8)).reshape(
        (10,) + (1,) * (3 - _j))
_DIGIT_ROWS = _DIGIT_ROWS.reshape(10000, 4)
# '0000' .. '9999' spread over eight bytes each, with a NUL after each
# digit: the slot where a float's point may go.
_SPREAD4 = np.zeros((10000, 8), np.uint8)
_SPREAD4[:, ::2] = _DIGIT_ROWS
_SPREAD4 = _SPREAD4.view("<u8").ravel()
# Trailing zeros of 0 .. 9999 as four digits (4 for 0).
_TRAILING = np.zeros(10000, np.uint8)
for _j in (10, 100, 1000, 10000):
    _TRAILING[::_j] += 1
# A float cell is six little-endian words of slots: the head holds the
# sign, the "0." and zeros of 1e-4 <= |x| < 1, the first digit and its
# point slot; four body words hold 16 digits with their point slots; the
# tail holds the "e-0d" of |x| < 1e-4 in its first four bytes.
_FLOAT_SLOTS = 44
_HEADS = np.zeros((2, 6, 10, 2, 8), np.uint8)  # sign, lead, digit, point
_HEADS[1, ..., 0] = 45
for _j, _lead in ((2, b"0."), (3, b"0.0"), (4, b"0.00"), (5, b"0.000")):
    _HEADS[:, _j, ..., 1:1 + _j] = np.frombuffer(_lead, np.uint8)
_HEADS[..., 6] = _DIGIT_ROWS[:10, 3, None]
_HEADS[..., 1, 7] = 46
_HEADS = _HEADS.view("<u8").ravel()
# Per body word: the digit slots kept when the first k digits of 17
# show, and the point after digit k (none for k = 0, whose point slot is
# in the head, and for k = 16).
_KEEP = np.zeros((18, 32), np.uint8)
_KEEP[:, ::2] = np.where(np.arange(18)[:, None] > np.arange(1, 17), 255, 0)
_KEEP = _KEEP.view("<u8").T.copy()
_POINT = np.zeros((17, 32), np.uint8)
_POINT[np.arange(1, 16), np.arange(1, 31, 2)] = 46
_POINT = _POINT.view("<u8").T.copy()
_TAILS = np.zeros((3, 8), np.uint8)
_TAILS[1:, :4] = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)
_TAILS = _TAILS.view("<u8").ravel()


def _split(a):
    """Veltkamp's split into 26-bit halves: ``a == hi + lo`` exactly."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """Return ``(p, err)`` with ``p + err == a * 10**k`` exactly.

    Dekker's two-product (Numer. Math. 18, 1971): the halves' products
    are exact, so ``err`` is the rounding error of ``p = a * 10**k``.
    """
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mantissas(a):
    """Return ``(m, e)``: ``a`` to 17 digits is ``m * 10**(e - 16)``.

    ``a`` holds floats with 1e-6 < a < 1e17, so ``e`` is in [-6, 16] and
    ``10**16 <= m < 10**17``; ``m`` is rounded half to even.
    """
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    p, err = _times_pow10(a, 16 - e)
    # log10 may put a near a power of ten into the next decade; the
    # exact product p + err tells.
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        e[off] += np.where(above[off], 1, -1)
        p[off], err[off] = _times_pow10(a[off], 16 - e[off])
    # p >= 1e16 > 2**53 is an even integer, so rounding err half to
    # even rounds p + err half to even.  Nothing rounds up to 10**17: a
    # double below 10**(e+1) is at least 1.1e-16 of it below, relatively,
    # and the one double that could come within 5e-18, the nearest, does
    # not for any e in range.
    return p.astype(np.int64) + np.rint(err).astype(np.int64), e


def _groups(m, n):
    """Split ``0 <= m < 10**(4 n)`` into ``n`` four-digit groups, first
    group first."""
    groups = []
    for _ in range(n):
        q = m // 10000
        groups.append(m - 10000 * q)
        m = q
    return groups[::-1]


def _percent(fmt, values, width):
    """Slots of ``fmt % v`` for each value: ASCII, NUL-padded to ``width``."""
    texts = [fmt % v for v in values.tolist()]
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(
        len(texts), width)


def _float_slots(x):
    """Slots of ``'%.17g' % v`` for each cell of a float64 array."""
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    slots = _float_layout(np.signbit(x), *_mantissas(np.where(fast, a, 1.0)))
    if fast.all():
        return slots
    zeros = np.flatnonzero(x == 0)
    slots[zeros] = 0
    slots[zeros, 0] = np.where(np.signbit(x[zeros]), 45, 0)
    slots[zeros, 6] = 48
    rest = np.flatnonzero(~fast & (x != 0))
    slots[rest] = _percent("%.17g", x[rest], _FLOAT_SLOTS)
    return slots


def _float_layout(neg, m, e):
    """Lay out 17-digit mantissas by the %g rules, trailing zeros cut."""
    first = m // 10 ** 16
    groups = _groups(m - first * 10 ** 16, 4)
    # Trailing zeros of the 16 digits after the first: the last group's,
    # and while a group is all zeros, those of the groups before it too.
    zeros = 0
    for g in groups:
        trailing = _TRAILING[g]
        zeros = trailing + (trailing == 4) * zeros
    kept = 17 - zeros
    fixed = e >= -4
    # Digits before the point: none for 1e-4 <= |x| < 1, whose "0." and
    # zeros are in the head, and one in exponent form.
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    shown = np.maximum(kept, whole)
    point = np.where((kept > whole) & (whole > 0), whole - 1, 16)
    lead = np.where(fixed & (e < 0), 1 - e, 0)
    words = np.empty((m.size, 6), "<u8")
    words[:, 0] = _HEADS[((neg * 6 + lead) * 10 + first) * 2 + (point == 0)]
    for j, g in enumerate(groups):
        words[:, 1 + j] = (_SPREAD4[g] & _KEEP[j][shown]) | _POINT[j][point]
    words[:, 5] = _TAILS[np.where(fixed, 0, e + 7)]
    return words.view(np.uint8)[:, :_FLOAT_SLOTS]


def _column_blocks(column, shape):
    """Return ``block(start, stop)``: the slots of a numeric column's rows.

    A column of the table's ``shape`` is rendered chunk by chunk.  A
    column repeated along an axis has its values rendered once, less the
    slots none of them uses, and each block gathers from those.
    """
    if column.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # signalling NaNs stay NaNs
            column = column.astype(np.float64, copy=False)
        render = _float_slots
    else:
        # 20 bytes hold any 64-bit integer, "-9223372036854775808" too.
        render = lambda x: _percent("%d", x, 20)
    values = column.ravel()
    if column.shape == shape:
        return lambda start, stop: render(values[start:stop])
    slots = render(values)
    slots = np.ascontiguousarray(slots[:, slots.any(axis=0)])
    width = slots.shape[1]
    # One void item per value, so that gathering copies a cell whole.
    cells = slots.view(f"V{width}").ravel()
    stride = shape[1] if column.shape[1] == 1 else 1
    return lambda start, stop: cells[
        np.arange(start, stop) // stride % values.size].view(
        np.uint8).reshape(stop - start, width)


def _numpy_chunks(cols, shape):
    """Yield the rows of a numeric table of ``shape`` as bytes, a chunk
    at a time."""
    n_rows = math.prod(shape)
    sources = [_column_blocks(c, shape) for c in cols]
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        blocks = [block(start, stop) for block in sources]
        buf = np.empty((stop - start, sum(b.shape[1] + 1 for b in blocks)),
                       np.uint8)
        at = 0
        for block in blocks:
            buf[:, at:at + block.shape[1]] = block
            at += block.shape[1]
            buf[:, at] = 44  # ','
            at += 1
        buf[:, -1] = 10  # '\n'
        buf = buf.ravel()
        yield np.compress(buf != 0, buf).tobytes()


def _percent_chunks(cols, n_rows):
    """Yield the rows of a table as bytes, %-formatted a chunk at a time."""
    row_format = ",".join(_CELL_FORMATS[c.dtype.kind] for c in cols) + "\n"
    width = len(cols)
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, c in enumerate(cols):
            cells[j::width] = c[start:stop].tolist()
        yield ((row_format * (stop - start)) % tuple(cells)).encode("utf-8")


def _encoded(header, columns):
    """Check a table and return an iterator over its UTF-8 bytes.

    ``columns`` is as :func:`render_csv` takes it.  A malformed table
    raises here, not when the iterator is first advanced.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} "
                         f"columns")
    shapes = {c.shape for c in cols} or {(0,)}
    ndims = {len(s) for s in shapes}
    if ndims != {2} and (ndims != {1} or len(shapes) > 1):
        raise ValueError(f"columns must be all one-dimensional and equally "
                         f"long or all two-dimensional, got {sorted(shapes)}")
    shape = np.broadcast_shapes(*shapes)  # or ValueError: an axis not 1
    if not {c.dtype.kind for c in cols} <= set(_CELL_FORMATS):
        raise TypeError(f"unsupported column dtypes "
                        f"{[str(c.dtype) for c in cols]}")
    numeric = all(c.dtype.kind != "U" and c.dtype.itemsize <= 8
                  for c in cols)
    n_rows = math.prod(shape)
    if numeric and n_rows * len(cols) >= _NUMPY_MIN_CELLS:
        rows = _numpy_chunks(cols, shape)
    else:
        rows = _percent_chunks(
            [np.broadcast_to(c, shape).ravel() for c in cols], n_rows)
    head = (",".join(str(h) for h in header) + "\n").encode("utf-8")
    return itertools.chain((head,), rows)


def render_csv(header, columns):
    """Return an iterator over the text of a CSV table: header, then
    chunks of rows.

    ``columns`` holds one integer, float or string array-like per header
    name: all one-dimensional and equally long, or all two-dimensional,
    each axis the table's ``(n_blocks, n_per_block)`` or 1, broadcast to
    the table's rows in order; ``(n_blocks, 1)`` gives one value per
    block.  A malformed table raises at once.
    """
    return (data.decode("utf-8") for data in _encoded(header, columns))


def write_csv(path, header, columns) -> str:
    """Write a CSV table given by columns; return the SHA-256 of its bytes.

    ``columns`` is as for :func:`render_csv`; a malformed table raises
    before the file is opened.
    """
    chunks = _encoded(header, columns)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in chunks:
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_json(path, obj) -> str:
    """Write a JSON document and return the SHA-256 of its bytes.  A
    nan or an infinity, which strict JSON parsers refuse, raises
    ``ValueError``."""
    data = (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()
