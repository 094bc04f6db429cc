"""Reproducible Gaussian sampling from covariance matrices.

Replicates are generated from independent counter-derived streams keyed
by ``(master_seed, replicate_index)``, so the i-th replicate is the same
bit pattern no matter how many replicates are requested or in what
order they are drawn.  Uniform draws are mapped to normals through the
inverse CDF, keeping the stream usage per replicate a fixed, documented
quantity (one 53-bit uniform per matrix dimension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import CovarianceMatrix
from .errors import NotPsdError

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


def replicate_stream(master_seed: int, replicate_index: int
                     ) -> np.random.Generator:
    """Independent generator for one replicate.

    Derived via ``SeedSequence(master_seed).spawn``-style keying: the
    stream depends only on ``(master_seed, replicate_index)``, making
    replicate i identical across batch sizes and orders.
    """
    if replicate_index < 0:
        raise ValueError(
            f"replicate index must be >= 0, got {replicate_index}")
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(replicate_index,))
    return np.random.default_rng(ss)


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via the inverse CDF of 53-bit uniforms.

    An integer k drawn from ``[0, 2**53)`` maps to the cell midpoint ``(k
    + 1/2) 2**-53``, rounded to double.  For k >= 2**52 the half is lost
    to rounding, and k = 2**53 - 1 rounds to exactly 1; that one value
    is clamped to the largest double below 1, so the transform never
    produces an infinity.
    """
    u = (rng.integers(0, 1 << 53, size=n) + 0.5) * 2.0 ** -53
    return ndtri(np.minimum(u, _BELOW_ONE, out=u))


def sample_field(factor: PsdFactor, master_seed: int,
                 n_replicates: int) -> FieldSample:
    """Draw replicates of the centered field with the given factor.

    Row i is ``lower @ z_i`` with ``z_i`` from ``replicate_stream(
    master_seed, i)``; doubling ``n_replicates`` reproduces the first
    half bit for bit.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    k = factor.lower.shape[0]
    z = np.empty((n_replicates, k))
    for i in range(n_replicates):
        z[i] = standard_normals(replicate_stream(master_seed, i), k)
    return FieldSample(values=z @ factor.lower.T)
