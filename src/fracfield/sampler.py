"""Reproducible Gaussian sampling from covariance matrices.

Replicate i draws from its own stream: the raw 64-bit words of PCG64
seeded by numpy's ``SeedSequence(master_seed, spawn_key=(i,))``.  So it
is the same bit pattern no matter how many replicates are requested or
in what order they are drawn.  Its j-th normal is the inverse normal CDF
of the top 53 bits of its j-th word, taken as an integer m and mapped to
the cell midpoint ``(m + 1/2) 2^-53``: one word per matrix dimension.

:func:`sample_field` is the one route that draws them.  It runs
``SeedSequence``'s hash over a block of 64 replicates at once in uint32
arithmetic, sets one ``PCG64`` to each replicate's seeded state in turn,
and reads its raw words.  Its memory beyond the returned values is a few
arrays of 64 rows, whatever the replicate count.  ``tests/oracle.py``
rebuilds the same streams with numpy's own ``Generator``, one per
replicate.

The package's dense linear algebra runs inside :func:`_one_blas_thread`:
one OpenBLAS thread, so a result has the same bits on any host and no
second core spins after it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64

from .covariance import CovarianceMatrix
from .errors import NumericalError
from .spectral import _polevl

__all__ = [
    "PsdFactor",
    "FieldSample",
    "factor_psd",
    "sample_field",
]

_JITTER_START = 1e-12
_JITTER_CAP = 1e-6
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Replicates per sampling product.  OpenBLAS may sum a row of a product
# in another order at another row count; products of one fixed shape
# sum every row alike.
_BLOCK_ROWS = 64

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx):
# the running hash of the entropy mix (A) and of generate_state (B), and
# the two multipliers of its mix.  PCG64 steps its 128-bit state by the
# multiplier of O'Neill's PCG (HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43b0d7e5, 0x931e8875)
_HASH_B = (0x8b51f9dd, 0x58f38ded)
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645

# Moshier's Cephes ``ndtri`` (Methods and Programs for Mathematical
# Functions, 1989), the routine scipy.special.ndtri compiles.  P0/Q0
# serve |y - 1/2| <= 1/2 - exp(-2); P1/Q1 and P2/Q2 the tails, in
# x = sqrt(-2 ln y) below and above 8.  Q* omit their leading 1.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


@dataclass(frozen=True)
class PsdFactor:
    """Lower-triangular factor of a covariance matrix.

    Attributes
    ----------
    lower : ndarray, shape (k, k)
        Cholesky factor with ``lower @ lower.T`` equal to the covariance
        up to the jitter actually applied; rows and columns of nodes of
        zero variance are zero.
    jitter_used : float
        Diagonal jitter, added at the nodes of positive variance only,
        that made the factorization succeed; zero when none was needed.
    """

    lower: np.ndarray
    jitter_used: float


@dataclass(frozen=True)
class FieldSample:
    """A batch of replicates of a Gaussian field on a fixed point set.

    Attributes
    ----------
    values : ndarray, shape (n_replicates, k)
        One replicate per row; column j is the j-th point of the
        covariance the factor was taken from.
    """

    values: np.ndarray


def factor_psd(cov: CovarianceMatrix) -> PsdFactor:
    """Cholesky-factor a covariance, climbing a jitter ladder if needed.

    Nodes of zero variance (the field at time zero) are deterministic:
    their rows and columns must be zero, and they keep zero rows and
    columns in the factor, so no jitter reaches them.  The block of the
    remaining nodes is factored as is when possible; otherwise jitter
    starts at ``1e-12 * max_diag`` and is multiplied by 10 up to
    ``1e-6 * max_diag``.  :class:`NumericalError` is raised if the block
    still fails, or if a zero-variance node has a nonzero covariance,
    which indicates an inconsistent covariance rather than roundoff.
    """
    a = np.asarray(cov.entries, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("covariance entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("covariance entries must be exactly symmetric")
    fixed = np.diag(a) == 0.0
    if a[fixed].any():
        raise NumericalError("a node of zero variance has nonzero "
                             "covariance with another node")
    live = np.ix_(~fixed, ~fixed)
    with _one_blas_thread():
        block, jitter = _cholesky_ladder(a[live])
    lower = np.zeros_like(a)
    lower[live] = block
    return PsdFactor(lower=lower, jitter_used=jitter)


def _cholesky_ladder(a: np.ndarray) -> tuple:
    """Cholesky factor of ``a`` plus the least ladder jitter it needed."""
    if a.size == 0:
        return a, 0.0
    try:
        return np.linalg.cholesky(a), 0.0
    except np.linalg.LinAlgError:
        pass
    max_diag = float(np.max(np.diag(a)))
    scale = max_diag if max_diag > 0.0 else 1.0
    jitter = _JITTER_START * scale
    cap = _JITTER_CAP * scale
    eye = np.eye(a.shape[0])
    while jitter <= cap * (1.0 + 1e-15):
        try:
            return np.linalg.cholesky(a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        "covariance not positive semidefinite within the jitter ladder "
        f"(max jitter tried {cap:.3e})")


@functools.cache
def _openblas_thread_api() -> tuple | None:
    """OpenBLAS's get and set thread-count functions, looked up on first
    use in the library numpy links, or None under any other BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the calls inside on one OpenBLAS thread, then restore the
    previous count.  The count is process-global, so BLAS calls from
    other Python threads meanwhile run on one thread too."""
    pair = _openblas_thread_api()
    if pair is None:
        yield
        return
    get, set_ = pair
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class _Hash:
    """SeedSequence's running hash of 32-bit words: each hash xors the
    word with the running constant, multiplies the constant by ``mult``
    and the word by the new constant, and folds the high half in."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def rows(self, words: np.ndarray, n: int) -> np.ndarray:
        """The next n hashes at once on uint32 ``words``, one row each:
        ``words`` is one row for all n hashes or n rows, one per hash."""
        consts = [self.const]
        for _ in range(n):
            consts.append(consts[-1] * self.mult & _MASK32)
        self.const = consts[-1]
        consts = np.array(consts, np.uint32)[:, None]
        words = (words ^ consts[:-1]) * consts[1:]
        return words ^ words >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


@functools.lru_cache(maxsize=1)
def _seed_pool(master_seed: int) -> tuple:
    """SeedSequence's pool after the words of ``master_seed >= 0``, as a
    read-only (4, 1) uint32 array, and the running constant of the hash
    that goes on to the spawn key.

    The seed's 32-bit words, least significant first and padded with
    zeros to four, the pool size, are hashed into the pool; each pool
    word is then hashed three times and mixed into the other three, and
    any further seed words are mixed into every pool word.
    """
    words = np.array([master_seed >> shift & _MASK32 for shift in range(
        0, max(master_seed.bit_length(), 128), 32)], np.uint32)[:, None]
    hash_a = _Hash(*_HASH_A)
    pool = hash_a.rows(words[:4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], hash_a.rows(pool[src], 3))
    for word in words[4:]:
        pool = _mix(pool, hash_a.rows(word, 4))
    pool.setflags(write=False)
    return pool, hash_a.const


def _pcg_states(master_seed: int, indices: np.ndarray) -> list:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence(master_seed,
    spawn_key=(i,))`` for each i of the uint64 array ``indices``.

    The seed's part of the pool is the same for every replicate and
    comes from :func:`_seed_pool`.  The spawn key's words are then mixed
    into every pool word, as uint32 arrays over all the indices.  An
    index of 2^32 or more has two words: the second is mixed in and kept
    where the index has it.  ``generate_state(4, uint64)`` then hashes
    the pool twice round into 8 words, read as little-endian pairs ``v0
    .. v3``, and PCG64 seeds with them as ``initstate = v0 2^64 + v1``,
    ``inc = 2 (v2 2^64 + v3) + 1`` and ``state = (inc + initstate) M +
    inc``.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    pool, const = _seed_pool(master_seed)
    hash_a = _Hash(const, _HASH_A[1])
    low = (indices & _MASK32).astype(np.uint32)
    high = (indices >> 32).astype(np.uint32)
    pool = _mix(pool, hash_a.rows(low, 4))
    pool = np.where(high != 0, _mix(pool, hash_a.rows(high, 4)), pool)
    words = _Hash(*_HASH_B).rows(np.tile(pool, (2, 1)), 8).astype(np.uint64)
    v = words[0::2] | words[1::2] << 32
    states = []
    for a, b, c, d in zip(*v.tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((a << 64 | b) + inc) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def _stream_uniforms(master_seed: int, indices: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Fill row j of ``out`` with the first k uniforms of the stream of
    replicate ``indices[j]``, k the row length.

    Each is the top 53 bits m of one raw word, mapped to the cell
    midpoint ``(m + 1/2) 2^-53``.  For m >= 2^52 the half is lost to
    rounding, and m = 2^53 - 1 rounds to exactly 1; that one value is
    clamped to the largest double below 1, so the inverse CDF never
    produces an infinity.
    """
    states = _pcg_states(master_seed, np.asarray(indices, dtype=np.uint64))
    bits = PCG64(0)
    for row, (state, inc) in zip(out, states):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        row[:] = bits.random_raw(row.size) >> 11
    out += 0.5
    out *= 2.0 ** -53
    return np.minimum(out, _BELOW_ONE, out=out)


def _log(v: np.ndarray) -> np.ndarray:
    """Elementwise libm ``log``: numpy's own SIMD log differs from it in
    the last bit at some arguments, and so from Cephes."""
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), elementwise.

    A port of Cephes ``ndtri`` with its operations in the same order, so
    that it returns the bits of ``scipy.special.ndtri``.
    """
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _NDTRI_P0)
                           / _polevl(y2, _NDTRI_Q0, monic=True))) * _SQRT_2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, monic=True)
    deep = x >= 8.0
    if deep.any():
        zd = z[deep]
        x1[deep] = zd * _polevl(zd, _NDTRI_P2) / _polevl(zd, _NDTRI_Q2,
                                                         monic=True)
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)
    return out


def sample_field(factor: PsdFactor, master_seed: int,
                 n_replicates: int) -> FieldSample:
    """Draw replicates of the centered field with the given factor.

    Row i is ``lower @ z_i`` with ``z_i`` the inverse normal CDF of the
    uniforms of replicate i's stream, one per column (see the module
    docstring); doubling ``n_replicates`` reproduces the first half bit
    for bit.
    The streams are seeded in bulk (:func:`_stream_uniforms`), one block
    of a fixed number of replicates at a time, and the block's product
    runs at that fixed shape, the last block zero-padded, so that every
    row is summed in the same order whatever the replicate count.
    Beyond the returned values, which keep that padding behind them,
    sampling holds O(64 k) memory.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    k = factor.lower.shape[0]
    rows = -(-n_replicates // _BLOCK_ROWS) * _BLOCK_ROWS
    values = np.empty((rows, k))
    z = np.empty((_BLOCK_ROWS, k))
    with _one_blas_thread():
        for start in range(0, rows, _BLOCK_ROWS):
            live = min(_BLOCK_ROWS, n_replicates - start)
            _stream_uniforms(master_seed, np.arange(start, start + live,
                                                    dtype=np.uint64),
                             z[:live])
            z[:live] = _ndtri(z[:live])
            z[live:] = 0.0
            np.matmul(z, factor.lower.T,
                      out=values[start:start + _BLOCK_ROWS])
    return FieldSample(values=values[:n_replicates])
