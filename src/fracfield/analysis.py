"""Quantitative checks on the linear solution field.

Regularity: log-log fits of increment moments against lag recover the
Hölder exponents (time and space, both equations).  Stability: solution
covariances are continuous in the roughness index.  Sharp bounds: the
increment estimates behind the regularity theory hold with their stated
constants, verified as lhs/rhs tables over a grid of shifts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .covariance import _closed_cov, _closed_incr, _nodes, _second_diff
from .errors import NumericalError
from .spectral import (EquationKind, HurstIndex, _as_hurst, _gamma,
                       cos_integral_constant, gaussian_abs_moment,
                       noise_constant)

__all__ = [
    "Direction",
    "ShiftKind",
    "ExponentFit",
    "LemmaRow",
    "LemmaReport",
    "HContinuityResult",
    "expected_hoelder_slope",
    "fit_power_law",
    "fit_hoelder",
    "h_convergence",
    "verify_lemma_bound",
    "DEFAULT_H_PAIRS",
]


class Direction(enum.Enum):
    """Axis along which increments are taken."""

    TIME = "time"
    SPACE = "space"

    @classmethod
    def parse(cls, name: str) -> "Direction":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown direction {name!r}; use 'time' or 'space'"
            ) from None


class ShiftKind(enum.Enum):
    """Which sharp increment bound to verify."""

    SPACE_SHIFT = "space_shift"
    TIME_SHIFT = "time_shift"


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit of moments against lags.

    Non-positive moments, which have no logarithm, are reported with
    slope nan and r_squared 0 rather than raised; constant moments fit
    slope 0 exactly, with r_squared 1 and stderr_slope 0.
    """

    slope: float
    intercept: float
    r_squared: float
    stderr_slope: float
    lags: tuple
    moments: tuple

    def __post_init__(self):
        if len(self.lags) < 4:
            raise ValueError(
                f"need at least 4 lags for a fit, got {len(self.lags)}")
        if len(self.moments) != len(self.lags):
            raise ValueError("lags and moments must have equal length")
        if not (math.isnan(self.r_squared)
                or 0.0 <= self.r_squared <= 1.0):
            raise ValueError(
                f"r_squared must lie in [0, 1], got {self.r_squared}")


@dataclass(frozen=True)
class LemmaRow:
    """One shift of a bound table: lhs <= rhs must hold."""

    shift: float
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class LemmaReport:
    """Verification table of a sharp increment bound."""

    alpha: float
    rows: tuple
    max_ratio: float
    lhs_monotone: bool


@dataclass(frozen=True, eq=False)
class HContinuityResult:
    """Sup distance of covariances from a reference roughness index."""

    hursts: tuple
    sups: np.ndarray


_LN2 = math.log(2.0)
_DEFAULT_LAGS = tuple(2.0 ** -k for k in range(8, 2, -1))

DEFAULT_H_PAIRS = (
    ((1.0, 0.0), (1.0, 0.0)),
    ((0.5, 0.3), (0.5, 0.3)),
    ((1.0, -0.7), (1.0, 0.7)),
    ((0.5, 0.0), (1.0, 0.0)),
    ((0.25, -0.5), (0.75, 0.5)),
    ((1.0, 0.0), (1.0, 0.25)),
    ((0.5, -1.0), (1.0, 1.0)),
    ((0.75, 0.2), (0.75, -0.2)),
    ((0.25, 0.0), (0.25, 0.0)),
    ((0.5, 0.5), (1.0, -0.5)),
)


def expected_hoelder_slope(eqn: EquationKind, hurst, direction: Direction,
                           p: float = 2.0) -> float:
    """Theoretical log-log slope of the p-th increment moment.

    The field is Hölder of order H in space for both equations; in time
    the order is H for the wave kernel and H/2 for the heat kernel.  The
    p-th moment of a Gaussian increment then scales with exponent p
    times the Hölder order.
    """
    h = _as_hurst(hurst)
    if direction is Direction.SPACE:
        gamma = h.value
    elif eqn is EquationKind.WAVE:
        gamma = h.value
    else:
        gamma = 0.5 * h.value
    return p * gamma


def fit_power_law(lags, moments) -> ExponentFit:
    """Fit ``moments ~ C * lags**slope`` by least squares in log-log."""
    lag_arr = np.asarray(lags, dtype=float)
    mom_arr = np.asarray(moments, dtype=float)
    if lag_arr.ndim != 1 or lag_arr.size < 4:
        raise ValueError(f"need >= 4 lags, got shape {lag_arr.shape}")
    if mom_arr.shape != lag_arr.shape:
        raise ValueError("lags and moments must have equal length")
    if np.any(lag_arr <= 0.0) or np.any(np.diff(lag_arr) <= 0.0):
        raise ValueError("lags must be positive and strictly increasing")
    lag_t = tuple(float(v) for v in lag_arr)
    mom_t = tuple(float(v) for v in mom_arr)
    if np.any(mom_arr <= 0.0):
        return ExponentFit(slope=math.nan, intercept=math.nan,
                           r_squared=0.0, stderr_slope=math.inf,
                           lags=lag_t, moments=mom_t)
    lx = np.log(lag_arr)
    ly = np.log(mom_arr)
    if np.ptp(ly) == 0.0:
        return ExponentFit(slope=0.0, intercept=float(ly[0]), r_squared=1.0,
                           stderr_slope=0.0, lags=lag_t, moments=mom_t)
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    return ExponentFit(slope=slope, intercept=intercept, r_squared=r2,
                       stderr_slope=stderr, lags=lag_t, moments=mom_t)


def fit_hoelder(eqn: EquationKind, hurst, direction: Direction, *,
                p: float = 2.0, base_time: float = 1.0,
                base_pos: float = 0.0, lags=None) -> ExponentFit:
    """Hölder exponent of the linear field from exact increment moments.

    The increments are Gaussian, so the p-th absolute moment is the
    second moment to the power p/2 times the standard normal p-th
    absolute moment.  The second moments of all lags come from one
    closed-form evaluation, the one :func:`increment_moment2` makes per
    pair.  The fitted slope estimates p times the Hölder order.  A p
    whose moment constant or moments leave double range, such as any
    p > 300, raises ``NumericalError``; moments that underflow to 0 fit
    slope nan.
    """
    if p != int(p) or int(p) % 2 != 0 or p < 2:
        raise ValueError(f"moment order p must be a positive even "
                         f"integer, got {p}")
    h = _as_hurst(hurst)
    (t0, x0), = _nodes([(base_time, base_pos)]).tolist()
    lag_arr = _DEFAULT_LAGS if lags is None else tuple(float(v) for v in lags)
    if not all(0.0 < v < math.inf for v in lag_arr):
        raise ValueError(f"lags must be positive and finite, got {lag_arr}")
    lag_np = np.array(lag_arr)
    dt, dx = (lag_np, 0.0) if direction is Direction.TIME else (0.0, lag_np)
    m2 = _closed_incr(eqn, h, t0, x0, t0 + dt, x0 + dx)
    with np.errstate(over="ignore", invalid="ignore"):
        moments = gaussian_abs_moment(p) * m2 ** (0.5 * p)
    if not np.all(np.isfinite(moments)):
        raise NumericalError(f"p-th moments leave double range at p = {p:g}")
    return fit_power_law(lag_arr, moments)


def h_convergence(eqn: EquationKind, hursts, reference, *,
                  pairs=None) -> HContinuityResult:
    """Sup distance of covariances from those at a reference index.

    For each trial index the covariance is evaluated on a fixed set of
    space-time point pairs, in one closed-form call over all pairs, and
    compared with the reference, evaluated the same way; the sup of the
    absolute differences measures continuity in the index.
    """
    ref = _as_hurst(reference)
    hs = tuple(_as_hurst(h) for h in hursts)
    if not hs:
        raise ValueError("need at least one trial index")
    pair_list = tuple(pairs) if pairs is not None else DEFAULT_H_PAIRS
    if not pair_list:
        raise ValueError("need at least one evaluation pair")
    # One row (ta, xa, tb, xb) per pair, as four coordinate arrays.
    ends = _nodes([q for a, b in pair_list for q in (a, b)]).reshape(-1, 4).T
    ref_vals = _closed_cov(eqn, ref, *ends)
    sups = np.array([np.max(np.abs(_closed_cov(eqn, h, *ends) - ref_vals))
                     for h in hs])
    return HContinuityResult(hursts=hs, sups=sups)


def _heat_smoothing_constant(alpha: float) -> float:
    """Exact value of the defining integral of the heat time-shift bound.

    ``int_0^inf (1 - exp(-u^2/2))^2 u^(alpha-2) du`` evaluates in closed
    form via the one-Gaussian identity, since the square expands into
    Gaussians of scales 1/2 and 1: ``Gamma(d) (2^d - 1) / (1 - alpha)``
    with ``d = (1 + alpha)/2``, where ``2^d - 1`` is taken by ``expm1`` to
    keep its digits as d vanishes.
    """
    d = 0.5 * (1.0 + alpha)
    return _gamma(d) / (1.0 - alpha) * math.expm1(d * _LN2)


def _heat_time_lhs(alpha: float, horizon: float, h: np.ndarray):
    """Doubled spectral integral of the heat smoothing difference.

    The weight ``(1 - e^(-a xi^2))^2 (1 - e^(-b xi^2)) / xi^2``, ``a =
    h/2``, ``b = T``, expands into six Gaussians whose weights sum to
    zero, and so do their weighted scales; ``int_0^inf e^(-c xi^2)
    xi^(alpha-2) dxi = Gamma((alpha-1)/2) c^e / 2``, ``e = (1-alpha)/2``,
    then continues term by term.  The sum is ``Gamma((alpha-1)/2)
    [a^e (2^e - 2) - D2_a(u^e)(a+b)]``.  Near alpha = -1 the bracket is
    of size ``d = (1 + alpha)/2 = 1 - e`` and the Gamma factor has a
    pole, so both are written through the exact d: ``Gamma(1 + d) / ((d
    - 1) d)`` with ``d - 1 = -e``, and ``2^e - 2 = 2 expm1(-d ln 2)``.

    For ``T >= a`` the bracket takes the series of :func:`_second_diff`,
    with ``e - 1 = -d``.  Below, its terms of size ``a^e`` cancel, and it
    is regrouped with ``s = T/a`` as ``a^e [2 r(1) - r(2) - g(s)]``: ``r(u)
    = (u + s)^e - u^e - s = u (exp(l) expm1(-d l) + expm1(-d ln u)
    expm1(e l))``, ``l = log1p(s/u)``, and ``g(s) = s^e - s = s expm1(-d
    ln s)``, ``g(0) = 0``; every term carries d, and none cancels.
    """
    a, d, e = 0.5 * h, 0.5 * (1.0 + alpha), 0.5 * (1.0 - alpha)
    s = horizon / a
    l1, l2 = np.log1p(s), np.log1p(0.5 * s)
    rises = (2.0 * (1.0 + s) * np.expm1(-d * l1)
             - 2.0 * ((1.0 + 0.5 * s) * np.expm1(-d * l2)
                      + math.expm1(-d * _LN2) * np.expm1(e * l2))
             - np.where(s > 0.0, s * np.expm1(-d * np.log(s)), 0.0))
    return _gamma(1.0 + d) / (-e * d) * np.where(
        s < 1.0, a ** e * rises,
        a ** e * 2.0 * math.expm1(-d * _LN2)
        - _second_diff(e, a + horizon, a, pm1=-d))


def _wave_time_lhs(alpha: float, horizon: float, h: np.ndarray):
    """Doubled spectral integral of the wave time-shift term.

    The weight is ``2 (1 - cos(h xi)) / xi^2 (T/2 + (sin(B xi) -
    sin(h xi)) / (4 xi))``, ``B = 2T + h``.  Its first part gives ``2T
    C(alpha) h^(1-alpha)``, C = :func:`cos_integral_constant`.  The
    second is a sum of sines of frequencies k in {B, h, B+h, B-h, 2h}
    with weights {1, -1, -1/2, -1/2, 1/2}, and ``sum w_k k = 0``, so the
    Mellin transform ``int_0^inf sin(k xi) xi^(s-1) dxi = Gamma(s) sin(pi
    s/2) k^(-s)`` (DLMF 1.14) continues to ``s = alpha - 2``.  With ``p =
    2 - alpha`` the sum is ``h^p (2^(p-1) - 1) - D2_h(u^p)(B) / 2``, and
    ``Gamma(s) sin(pi s/2)`` is written by reflection as ``-pi / (2
    Gamma(3-alpha) cos(pi alpha/2))``, finite on all of (-1, 1); the
    cosine is taken as ``sin(pi (1 - |alpha|) / 2)``, which keeps its
    digits near alpha = -1.

    For ``T >= h/2`` the sum takes the series of :func:`_second_diff`.
    Below, its terms of size ``h^p`` cancel, and it is regrouped with ``s
    = 2T/h`` into rises ``(u + s)^p - u^p = u^p expm1(p log1p(s/u))``:
    ``-h^p [2^p expm1(p log1p(s/2)) - 2 expm1(p log1p(s)) + s^p] / 2``.
    There ``h^p`` is written ``h^(1-alpha) h`` and ``h^(1-alpha)`` is
    taken out of both terms, so a row overflows only where its lhs does.
    """
    p = 2.0 - alpha
    mellin = -math.pi / (2.0 * _gamma(3.0 - alpha)
                         * math.sin(0.5 * math.pi * (1.0 - abs(alpha))))
    s = 2.0 * horizon / h
    first = 2.0 * horizon * cos_integral_constant(alpha)
    h_pow = h ** (1.0 - alpha)
    rises = h_pow * (first - 0.5 * mellin * h * (
        2.0 ** p * np.expm1(p * np.log1p(0.5 * s))
        - 2.0 * np.expm1(p * np.log1p(s)) + s ** p))
    return np.where(
        s < 1.0, rises,
        first * h_pow + mellin * (
            h ** p * (2.0 ** (p - 1.0) - 1.0)
            - 0.5 * _second_diff(p, 2.0 * horizon + h, h)))


def verify_lemma_bound(kind: ShiftKind, eqn: EquationKind, alpha: float, *,
                       horizon: float = 1.0, shifts=None) -> LemmaReport:
    """Check a sharp increment bound over a grid of shifts.

    The roughness is given as the spectral exponent ``alpha`` in
    (-1, 1), the native parameter of the bounds.  Rows are normalized by
    the spectral constant: the lhs is the doubled spectral integral of
    the increment term, the rhs the matching constant times the
    predicted power of the shift.  Every lhs is a closed form, evaluated
    once over all shifts: the space-shift rows are increment moments
    (:func:`fracfield.covariance.increment_moment2`), the time-shift rows
    the Gaussian and Mellin-transform sums of :func:`_heat_time_lhs` and
    :func:`_wave_time_lhs`.  Every ratio must stay at or below one (up
    to roundoff), and the lhs must not fall from one shift to the next
    by more than the rounding of its powers, whatever its size.  The
    space-shift lhs is checked for that only up to the horizon's reach,
    shifts at most ``sqrt(horizon)`` (heat) or ``horizon`` (wave):
    beyond it the far-field covariance, of order shift^(2H - 2), pulls
    the lhs down toward twice the variance.
    A row whose lhs is not finite or whose rhs is not a positive double
    raises :class:`NumericalError` naming its shift.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    h_idx = HurstIndex(0.5 * (1.0 - alpha))
    shift_arr = tuple(float(s) for s in (
        shifts if shifts is not None else (2.0 ** -k for k in range(8, 0, -1))))
    if not shift_arr:
        raise ValueError("no shifts given: need at least one shift")
    if any(s <= 0.0 for s in shift_arr):
        raise ValueError("shifts must be positive")
    if any(b <= a for a, b in zip(shift_arr, shift_arr[1:])):
        raise ValueError("shifts must be strictly increasing")
    shift_np = np.array(shift_arr)
    power = 1.0 - alpha
    if kind is ShiftKind.SPACE_SHIFT:
        lhs_all = _closed_incr(eqn, h_idx, horizon, 0.0, horizon,
                               shift_np) / noise_constant(h_idx)
        # The integrand of the constant is even, so it is twice the
        # half-line closed form.  The wave vertex function averages sin^2
        # to 1/2, so its sharp constant is half the heat one.
        const = (2.0 * cos_integral_constant(alpha)
                 * (horizon if eqn is EquationKind.WAVE else 2.0))
    elif eqn is EquationKind.HEAT:
        with np.errstate(all="ignore"):
            lhs_all = _heat_time_lhs(alpha, horizon, shift_np)
        const = 2.0 * _heat_smoothing_constant(alpha)
        power = 0.5 * (1.0 - alpha)
    else:
        with np.errstate(all="ignore"):
            lhs_all = _wave_time_lhs(alpha, horizon, shift_np)
        hurst = h_idx.value
        const = 4.0 * (1.0 / hurst + 1.0 / (1.0 - hurst)) * horizon
    rows = []
    for h, lhs in zip(shift_arr, lhs_all.tolist()):
        try:
            rhs = const * h ** power
        except OverflowError:
            rhs = math.inf
        if not (math.isfinite(lhs) and 0.0 < rhs < math.inf):
            raise NumericalError(
                f"{kind.value}:{eqn.value}:alpha={alpha:g} at shift {h!r} "
                f"has lhs {lhs!r} and rhs {rhs!r}: the shift or horizon "
                f"leaves the range of double precision")
        rows.append(LemmaRow(shift=h, lhs=lhs, rhs=rhs, ratio=lhs / rhs))
    max_ratio = max(r.ratio for r in rows)
    # Each lhs sums powers x^p = exp(p ln x), |p| < 3, of the shift, the
    # horizon and their ratio.  Rounding ln x and then p ln x, each to
    # half an ulp, moves x^p by up to |p ln x| eps < 3 eps |ln x|
    # relative, eps = 2^-52.  A step may fall by the rounding of both
    # its rows.
    slack = [3.0 * 2.0 ** -52 * (1.0 + abs(math.log(h))
                                 + abs(math.log(horizon)))
             for h in shift_arr]
    checked = rows
    if kind is ShiftKind.SPACE_SHIFT:
        reach = horizon if eqn is EquationKind.WAVE else math.sqrt(horizon)
        checked = [r for r in rows if r.shift <= reach]
    monotone = all(b.lhs * (1.0 + sb) >= a.lhs * (1.0 - sa)
                   for a, b, sa, sb in zip(checked, checked[1:],
                                           slack, slack[1:]))
    return LemmaReport(alpha=alpha, rows=tuple(rows), max_ratio=max_ratio,
                       lhs_monotone=monotone)
