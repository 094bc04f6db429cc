"""Deterministic artifact writing: CSV tables, JSON files, digests.

Tables are given column by column, and each column is rendered by its
dtype: integers via %d, floats via %.17g so values round-trip exactly,
strings via %s.  A numeric column that repeats (at most half as many
distinct values as rows) has each distinct bit pattern formatted once
and its cells copied from those strings, so the bytes are those of
per-cell %d/%.17g/%s; bit patterns keep -0.0 apart from 0.0.  Files are
UTF-8 with LF line endings regardless of platform, and every writer
returns the SHA-256 of the bytes written so manifests can pin outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = [
    "ARTIFACT_VERSION",
    "render_csv",
    "write_csv",
    "write_json",
    "sha256_of",
]

ARTIFACT_VERSION = 1

# Cell format per numpy dtype kind.
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
# Rows rendered per chunk, which bounds the memory a large table takes.
_CHUNK_ROWS = 1 << 13


def _distinct(column):
    """Return ``(first, inverse)`` over a column's distinct bit patterns.

    ``first`` indexes one cell of each distinct pattern and ``inverse``
    maps every cell to its pattern.  Returns None for string and wider
    than 64-bit columns, and for a column where more than half the cells
    are distinct, which is formatted cell by cell.
    """
    if column.dtype.kind == "U" or column.dtype.itemsize > 8:
        return None
    bits = column.view(f"u{column.dtype.itemsize}")
    # Counting on a plain sort first spares the far costlier indexed
    # np.unique on columns that hardly repeat.
    ordered = np.sort(bits)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
        return None
    return np.unique(bits, return_index=True, return_inverse=True)[1:]


def render_csv(header, columns):
    """Yield the text of a CSV table, header first, in chunks of rows.

    ``columns`` holds one one-dimensional sequence per header name, all
    of one length; each becomes a numpy array whose dtype must be an
    integer, float or string type.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} "
                         f"columns")
    n_rows = cols[0].size if cols else 0
    if any(c.shape != (n_rows,) for c in cols):
        raise ValueError("columns must be one-dimensional and equally long")
    kinds = [c.dtype.kind for c in cols]
    if not set(kinds) <= set(_CELL_FORMATS):
        raise TypeError(f"unsupported column dtypes "
                        f"{[str(c.dtype) for c in cols]}")
    # A repeating column becomes its distinct values' strings and the
    # index of each cell into them; the row format pastes it in by %s.
    cell_formats, sources = [], []
    for c, kind in zip(cols, kinds):
        fmt = _CELL_FORMATS[kind]
        found = _distinct(c)
        if found is None:
            cell_formats.append(fmt)
            sources.append((c, None))
        else:
            first, inverse = found
            texts = np.array([fmt % v for v in c[first].tolist()],
                             dtype=object)
            cell_formats.append("%s")
            sources.append((texts, inverse))
    row_format = ",".join(cell_formats) + "\n"
    width = len(cols)
    yield ",".join(str(h) for h in header) + "\n"
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, (values, inverse) in enumerate(sources):
            chunk = (values[start:stop] if inverse is None
                     else values[inverse[start:stop]])
            cells[j::width] = chunk.tolist()
        yield (row_format * (stop - start)) % tuple(cells)


def write_csv(path, header, columns) -> str:
    """Write a CSV table given by columns; return the SHA-256 of its bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in render_csv(header, columns):
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_json(path, obj) -> str:
    """Write a JSON document and return the SHA-256 of its bytes."""
    path = Path(path)
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def sha256_of(path) -> str:
    """SHA-256 hex digest of an existing file."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
