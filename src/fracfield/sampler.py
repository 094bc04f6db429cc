"""Reproducible Gaussian sampling from covariance matrices.

Replicate i draws from its own PCG64 stream, seeded by the
``SeedSequence`` of entropy ``master_seed`` and spawn key ``(i,)``, so it
is the same bit pattern no matter how many replicates are requested or
in what order they are drawn.  Uniform draws are mapped to normals
through the inverse CDF, keeping the stream usage per replicate a fixed,
documented quantity (one 53-bit uniform per matrix dimension).

The package's dense linear algebra, here and in the solver's Gauss
rules, runs inside :func:`_one_blas_thread`: one OpenBLAS thread, so a
result has the same bits on any host and no second core spins after it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .covariance import CovarianceMatrix
from .errors import NotPsdError
from .spectral import _polevl

__all__ = [
    "PsdFactor",
    "FieldSample",
    "factor_psd",
    "replicate_stream",
    "standard_normals",
    "sample_field",
]

_JITTER_START = 1e-12
_JITTER_CAP = 1e-6
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Replicates per sampling product.  OpenBLAS may sum a row of a product
# in another order at another row count; products of one fixed shape
# sum every row alike.
_BLOCK_ROWS = 64

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
    ``1e-6 * max_diag``.  :class:`NotPsdError` is raised if the block
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
        raise NotPsdError("a node of zero variance has nonzero covariance "
                          "with another node", jitter_max=0.0)
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
    raise NotPsdError(
        "covariance not positive semidefinite within the jitter ladder "
        f"(max jitter tried {cap:.3e})", jitter_max=cap)


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


def replicate_stream(master_seed: int, replicate_index: int
                     ) -> Generator:
    """Independent generator for one replicate.

    Derived via ``SeedSequence(master_seed).spawn``-style keying: the
    stream depends only on ``(master_seed, replicate_index)``, making
    replicate i identical across batch sizes and orders.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    if replicate_index < 0:
        raise ValueError(
            f"replicate index must be >= 0, got {replicate_index}")
    ss = SeedSequence(entropy=master_seed, spawn_key=(replicate_index,))
    return default_rng(ss)


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


def _uniforms(rng: Generator, n: int) -> np.ndarray:
    """n uniforms on (0, 1): an integer k drawn from ``[0, 2**53)`` maps
    to the cell midpoint ``(k + 1/2) 2**-53``, rounded to double.

    For k >= 2**52 the half is lost to rounding, and k = 2**53 - 1
    rounds to exactly 1; that one value is clamped to the largest double
    below 1, so the inverse CDF never produces an infinity.
    """
    u = (rng.integers(0, 1 << 53, size=n) + 0.5) * 2.0 ** -53
    return np.minimum(u, _BELOW_ONE, out=u)


def standard_normals(rng: Generator, n: int) -> np.ndarray:
    """n standard normals: the inverse normal CDF of n uniforms from
    :func:`_uniforms`."""
    return _ndtri(_uniforms(rng, n))


def sample_field(factor: PsdFactor, master_seed: int,
                 n_replicates: int) -> FieldSample:
    """Draw replicates of the centered field with the given factor.

    Row i is ``lower @ z_i`` with ``z_i`` from ``replicate_stream(
    master_seed, i)``; doubling ``n_replicates`` reproduces the first
    half bit for bit.  The product runs in blocks of a fixed number of
    replicates, the last one zero-padded, so that every row is summed
    in the same order whatever the replicate count.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    k = factor.lower.shape[0]
    rows = -(-n_replicates // _BLOCK_ROWS) * _BLOCK_ROWS
    z = np.zeros((rows, k))
    for i in range(n_replicates):
        z[i] = _uniforms(replicate_stream(master_seed, i), k)
    # One transform over all replicates: the same normals as
    # standard_normals per replicate, at a fraction of the call overhead.
    z[:n_replicates] = _ndtri(z[:n_replicates])
    with _one_blas_thread():
        values = (z.reshape(rows // _BLOCK_ROWS, _BLOCK_ROWS, k)
                  @ factor.lower.T)
    return FieldSample(values=values.reshape(rows, k)[:n_replicates])
