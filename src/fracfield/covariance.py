"""Second-order structure of the linear stochastic fields.

The centered solution of the linear equation has covariance

``E[u(t1,x1) u(t2,x2)] = noise_constant(H) * int_R cos(xi (x1-x2))
* time_kernel(eqn, t1, t2, xi) * |xi|^(1-2H) dxi``

where :func:`time_kernel` is the time integral of the product of the
propagator's Fourier multipliers.  Covariances are closed forms; the
spectral form is integrated for increment moments and, in the tests, as
the independent route.  Sampling lives in :mod:`fracfield.sampler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import hyp1f1

from .errors import NumericalError
from .quadrature import QuadResult, cos_integral_constant, spectral_integral
from .spectral import (DEFAULT_QUAD, EquationKind, HurstIndex,
                       QuadratureSpec, noise_constant)

__all__ = [
    "SpaceTimePoint",
    "CovarianceMatrix",
    "time_kernel",
    "conv_cov",
    "cov_matrix",
    "increment_moment2",
    "noise_field_cov",
]

# Switch to the Taylor series of the wave kernel once the total phase is
# below this, where the closed form loses digits to cancellation.  The
# series truncation error at the boundary is ~1e-13 relative.
_WAVE_SERIES_PHASE = 0.1


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (t, x) of the space-time domain, t >= 0."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"point coordinates must be finite, got "
                             f"({self.t}, {self.x})")
        if self.t < 0.0:
            raise ValueError(f"time coordinate must be >= 0, got {self.t}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance of the centered linear field on a finite point set.

    Attributes
    ----------
    points : tuple of SpaceTimePoint
    entries : ndarray, shape (k, k)
        Exactly symmetric covariance values, PSD up to roundoff.
    err_estimates : ndarray, shape (k, k)
        Per-entry error estimates; zero for the closed forms.
    """

    points: tuple
    entries: np.ndarray
    err_estimates: np.ndarray

    def __post_init__(self):
        k = len(self.points)
        if self.entries.shape != (k, k):
            raise ValueError("entry matrix shape does not match point count")


def _check_times(t: float, t2: float) -> None:
    if t < 0.0 or t2 < 0.0:
        raise ValueError(f"times must be nonnegative, got {t}, {t2}")
    if t2 < t:
        raise ValueError(
            f"time arguments must be ordered t <= t2, got {t} > {t2}")


def _wave_tk_series(t1: float, t2: float, jmax: int) -> list[float]:
    """Coefficients of xi^(2j) in the wave time kernel, j = 0..jmax."""
    dl = t2 - t1
    s = t2 + t1
    out = []
    for j in range(jmax + 1):
        a = (t1 / 2.0) * dl ** (2 * j + 2) / math.factorial(2 * j + 2)
        bterm = (s ** (2 * j + 3) - dl ** (2 * j + 3)) \
            / (4.0 * math.factorial(2 * j + 3))
        out.append((-1.0) ** (j + 1) * (a - bterm))
    return out


def _heat_tk_series(t1: float, t2: float, jmax: int) -> list[float]:
    """Coefficients of xi^(2j) in the heat time kernel, j = 0..jmax."""
    dl2 = (t2 - t1) / 2.0
    s2 = (t2 + t1) / 2.0
    return [(-1.0) ** j * (s2 ** (j + 1) - dl2 ** (j + 1))
            / math.factorial(j + 1) for j in range(jmax + 1)]


def time_kernel(eqn: EquationKind, t: float, t2: float, xi):
    """Time integral of the two propagator multipliers.

    Computes ``int_0^t fourier_kernel(eqn, t-s, xi) * fourier_kernel(eqn,
    t2-s, xi) ds`` for ``0 <= t <= t2`` in closed form.

    Heat: ``exp(-(t2-t) xi^2 / 2) * (1 - exp(-t xi^2)) / xi^2`` with the
    limit value t at xi = 0.
    Wave: ``(t/2) cos((t2-t) xi) / xi^2 - (sin((t2+t) xi) -
    sin((t2-t) xi)) / (4 xi^3)``, switching to its Taylor series for
    small total phase where the closed form cancels.
    """
    _check_times(t, t2)
    xi_arr = np.asarray(xi, dtype=float)
    ax = np.abs(xi_arr)
    if eqn is EquationKind.HEAT:
        u = ax ** 2
        dl = t2 - t
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(u > 0.0, -np.expm1(-t * u) / np.where(u > 0.0, u, 1.0), t)
        out = np.exp(-dl * u / 2.0) * ratio
    elif eqn is EquationKind.WAVE:
        dl = t2 - t
        s = t2 + t
        phase = s * ax
        small = phase <= _WAVE_SERIES_PHASE
        axs = np.where(small, 1.0, ax)
        with np.errstate(invalid="ignore", divide="ignore"):
            closed = ((t / 2.0) * np.cos(dl * ax) / axs ** 2
                      - (np.sin(s * ax) - np.sin(dl * ax)) / (4.0 * axs ** 3))
        coeffs = _wave_tk_series(t, t2, 4)
        x2 = ax ** 2
        series = np.zeros_like(ax)
        for c in reversed(coeffs):
            series = series * x2 + c
        out = np.where(small, series, closed)
    else:
        raise TypeError(f"expected EquationKind, got {eqn!r}")
    return float(out) if np.ndim(xi) == 0 else out


def _term_weight(eqn: EquationKind, terms):
    """Vectorized xi -> sum of coeff * cos(freq xi) * TK(t1, t2, xi)."""
    def w(x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        for t1, t2, freq, coeff in terms:
            tk = time_kernel(eqn, t1, t2, x)
            if freq != 0.0:
                tk = tk * np.cos(freq * x)
            acc += coeff * tk
        return acc
    return w


def _wave_tail_terms(t1: float, t2: float, freq: float, coeff: float):
    """Product-to-sum expansion of coeff*cos(freq xi)*TK beyond the cutoff."""
    dl = t2 - t1
    s = t2 + t1
    out = []
    # (t1/2) cos(dl xi) cos(freq xi) / xi^2
    out.append(("cos", coeff * t1 / 4.0, -2.0, freq + dl))
    out.append(("cos", coeff * t1 / 4.0, -2.0, abs(freq - dl)))
    # -(sin(s xi) - sin(dl xi)) cos(freq xi) / (4 xi^3)
    for a, sign in ((s, -1.0), (dl, 1.0)):
        out.append(("sin", sign * coeff / 8.0, -3.0, a + freq))
        diff = a - freq
        out.append(("sin", sign * coeff / 8.0 * math.copysign(1.0, diff),
                    -3.0, abs(diff)))
    return out


def _assemble(eqn: EquationKind, alpha: float, terms,
              quad: QuadratureSpec) -> QuadResult:
    """Integrate sum_i coeff_i cos(f_i xi) TK(t1_i, t2_i, xi) xi^alpha."""
    live = [tm for tm in terms if tm[0] > 0.0]
    if not live:
        return QuadResult(0.0, 0.0, 0, True)

    heads = [0.0, 0.0, 0.0, 0.0]
    freqs = []
    tails = []
    gauss = []
    suppressed = 0.0
    for t1, t2, freq, coeff in live:
        if eqn is EquationKind.WAVE:
            tk = _wave_tk_series(t1, t2, 3)
            tails.extend([tt for tt in _wave_tail_terms(t1, t2, freq, coeff)
                          if tt[1] != 0.0])
            freqs.extend([freq, t2 + t1 + freq])
        else:
            tk = _heat_tk_series(t1, t2, 3)
            if t2 > t1:
                gauss.append((t2 - t1) / 2.0)
            else:
                gauss.append(t1)
                tails.append(("cos", coeff, -2.0, freq))
            suppressed += abs(coeff)
            freqs.append(freq)
        cosc = [(-1.0) ** m * freq ** (2 * m) / math.factorial(2 * m)
                for m in range(4)]
        for j in range(4):
            heads[j] += coeff * sum(tk[j - m] * cosc[m] for m in range(j + 1))

    tails = [(kind, coeff, s + alpha, f) for kind, coeff, s, f in tails]
    res = spectral_integral(
        _term_weight(eqn, live), alpha, quad,
        head_coeffs=heads, tail_terms=tails,
        freqs=[f for f in freqs if f > 0.0],
        gauss_scales=gauss, gauss_suppressed_scale=suppressed)
    return res


def _as_point(p) -> SpaceTimePoint:
    if isinstance(p, SpaceTimePoint):
        return p
    t, x = p
    return SpaceTimePoint(float(t), float(x))


def _closed_cov(eqn: EquationKind, hurst: HurstIndex, t1, t2, c):
    """Covariance on broadcast arrays with ``t1 <= t2`` and ``c = |dx|``.

    With ``q = 2H``, ``s = t1 + t2``, ``d = t2 - t1`` and nc =
    :func:`noise_constant`.  Wave: ``nc C(1-2H)/2 * (1/2 [G(s+c) - G(d+c)
    + G(s-c) - G(d-c)] - t1 (|c-d|^q + |c+d|^q))``, ``G(u) = sign(u)
    |u|^(q+1)/(q+1)``, C = :func:`cos_integral_constant`.  Heat: ``nc
    Gamma(-H) [A^H M(-H, 1/2, -c^2/4A) - B^H M(-H, 1/2, -c^2/4B)]``,
    ``A = d/2``, ``B = s/2``, M Kummer's function (DLMF 13.2), with the
    limit ``(c^2/4)^H sqrt(pi) / Gamma(1/2+H)`` of the first term at A = 0.
    Exactly zero at ``t1 == 0``, and for the wave at H = 1/2 outside the
    light cones (``c >= s``), where the formula would leave roundoff.
    """
    h = hurst.value
    t1, t2, c = (np.asarray(v, dtype=float) for v in (t1, t2, c))
    s, d = t1 + t2, t2 - t1
    # Non-finite intermediates are masked below or raise.
    with np.errstate(all="ignore"):
        if eqn is EquationKind.WAVE:
            q = 2.0 * h

            def prim(u):
                return np.sign(u) * np.abs(u) ** (q + 1.0) / (q + 1.0)

            out = cos_integral_constant(hurst.spectral_exponent) / 2.0 * (
                0.5 * (prim(s + c) - prim(d + c) + prim(s - c) - prim(d - c))
                - t1 * (np.abs(c - d) ** q + (c + d) ** q))
            out = np.where((h == 0.5) & (c >= s), 0.0, out)
        elif eqn is EquationKind.HEAT:
            z, a, b = c * c / 4.0, d / 2.0, s / 2.0
            near = np.where(a > 0.0, a ** h * hyp1f1(-h, 0.5, -z / a),
                            z ** h * math.sqrt(math.pi) / _gamma(0.5 + h))
            far = b ** h * hyp1f1(-h, 0.5, -z / b)
            out = _gamma(-h) * (near - far)
        else:
            raise TypeError(f"expected EquationKind, got {eqn!r}")
    out = np.where(t1 == 0.0, 0.0, noise_constant(hurst) * out)
    if not np.all(np.isfinite(out)):
        raise NumericalError("closed-form covariance overflowed: a time or "
                             "separation is too large for double precision")
    return out


def conv_cov(eqn: EquationKind, hurst: HurstIndex | float, p1, p2) -> float:
    """Covariance of the centered linear field at two space-time points.

    Symmetric in its point arguments, stationary in space (depends only
    on |x1 - x2|), and zero whenever either time is zero.  Closed form;
    far outside the wave light cones its absolute error is about
    ``1e-16 |x1-x2|^(2H+1)``, which can exceed the value itself.
    """
    h = hurst if isinstance(hurst, HurstIndex) else HurstIndex(hurst)
    a, b = _as_point(p1), _as_point(p2)
    t1, t2 = sorted((a.t, b.t))
    return float(_closed_cov(eqn, h, t1, t2, abs(a.x - b.x)))


def cov_matrix(eqn: EquationKind, hurst: HurstIndex | float,
               points) -> CovarianceMatrix:
    """Covariance matrix of the centered linear field on a point list.

    One vectorized closed-form evaluation over all ordered time pairs
    and separations; the matrix is exactly symmetric and its error
    estimates are zero.
    """
    h = hurst if isinstance(hurst, HurstIndex) else HurstIndex(hurst)
    pts = tuple(_as_point(p) for p in points)
    if not pts:
        raise ValueError("point list must not be empty")
    t, x = np.array([(p.t, p.x) for p in pts]).T
    entries = _closed_cov(eqn, h, np.minimum.outer(t, t),
                          np.maximum.outer(t, t),
                          np.abs(np.subtract.outer(x, x)))
    return CovarianceMatrix(points=pts, entries=entries,
                            err_estimates=np.zeros_like(entries))


def increment_moment2(eqn: EquationKind, hurst: HurstIndex | float, p1, p2,
                      quad: QuadratureSpec | None = None) -> float:
    """Second moment ``E[(u(p2) - u(p1))^2]`` of a linear-field increment.

    Evaluated as a single fused quadrature of ``[TK(t2,t2) + TK(t1,t1) -
    2 cos(xi dx) TK(t1,t2)] |xi|^alpha`` rather than a difference of
    covariances, which would cancel catastrophically at small lags.
    Slightly negative results above -1e-10 (pure roundoff) are clamped to
    zero; anything below that raises ValueError as an inconsistency.
    """
    h = hurst if isinstance(hurst, HurstIndex) else HurstIndex(hurst)
    q = quad or DEFAULT_QUAD
    a, b = _as_point(p1), _as_point(p2)
    if a == b:
        return 0.0
    t1, t2 = sorted((a.t, b.t))
    c = abs(a.x - b.x)
    terms = [(t1, t1, 0.0, 1.0), (t2, t2, 0.0, 1.0), (t1, t2, c, -2.0)]
    res = _assemble(eqn, h.spectral_exponent, terms, q)
    scale = 2.0 * noise_constant(h)
    value = scale * res.value
    QuadResult(value, scale * res.err_estimate, res.panels_used,
               res.converged).require("increment_moment2")
    if value < -1e-10:
        raise ValueError(
            f"increment second moment came out {value:.3e} < -1e-10; "
            "quadrature inconsistency")
    return max(value, 0.0)


def noise_field_cov(hurst: HurstIndex | float, p1, p2) -> float:
    """Covariance of the integrated noise field itself.

    ``min(t1, t2)`` times the fractional Brownian covariance
    ``(|x1|^2H + |x2|^2H - |x1-x2|^2H) / 2``; vanishes whenever either
    time is zero or either spatial coordinate is at the origin.
    """
    h = hurst if isinstance(hurst, HurstIndex) else HurstIndex(hurst)
    a, b = _as_point(p1), _as_point(p2)
    two_h = 2.0 * h.value
    r = 0.5 * (abs(a.x) ** two_h + abs(b.x) ** two_h
               - abs(a.x - b.x) ** two_h)
    return min(a.t, b.t) * r
