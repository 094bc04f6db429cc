"""Independent numeric routes that the tests check the run-time path
against.

Every covariance-type quantity of fracfield reduces to integrals of the
form ``int_0^inf W(xi) xi^alpha dxi`` with ``alpha in (-1, 1)``, where W is
built from Fourier multipliers of the heat or wave propagator and cosine
factors.  The run-time path evaluates all of them in closed form; this
module integrates the spectral forms instead, so the two routes share no
formula.  It owns everything that only this route uses: the engine's
settings (:class:`QuadratureSpec`), its error type, the multipliers
(:func:`fourier_kernel`, :func:`time_kernel`) and the integrated
integrability functional :func:`dalang_integral_quad`.  It also holds
two routes that the grid solver of :mod:`fracfield.det_solver` is checked
against: :func:`ode_oracle`, the scalar Volterra solution for forcing
constant in space, and :func:`picard_oracle`, global Picard iteration of
the whole grid to a tight tolerance instead of the solver's causal
march.  It lives with the tests, outside the installed package.

The engine splits the half line into three zones:

* an analytic head ``[0, eps]`` handled with the even Taylor series of W,
  so the ``xi^alpha`` endpoint singularity never meets a numeric rule;
* an adaptive composite Gauss-Legendre core ``[eps, Xi*]`` with panel
  widths capped by oscillation frequency and Gaussian decay scales;
* analytic tails on ``[Xi*, inf)`` assembled from closed-form power tails
  and oscillatory tail primitives with explicit remainder bounds.

The tails are evaluated, not merely bounded: truncating at the default
cutoff would leave only two to three correct digits for the slowly decaying
integrands that appear at rough spatial regularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracfield.det_solver import DriftSpec, GridFunction, picard_apply
from fracfield.errors import NumericalError
from fracfield.spectral import EquationKind

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "QuadratureError",
    "QuadResult",
    "fourier_kernel",
    "time_kernel",
    "power_tail",
    "osc_power_tail",
    "spectral_integral",
    "dalang_integral_quad",
    "time_shift_lhs",
    "ode_oracle",
    "picard_oracle",
]

# Gauss-Legendre rules reused everywhere; GL8 provides the embedded error
# estimate for GL16 panels.
_NODES16, _WEIGHTS16 = leggauss(16)
_NODES8, _WEIGHTS8 = leggauss(8)

# Panel width caps.  Phase per panel <= pi keeps the GL16 error per panel
# near machine precision while the GL8 comparison still resolves it.
_PHASE_CAP = math.pi
_GAUSS_ARG_STEP = 3.0
_GAUSS_DEAD = 100.0
_GROWTH = 0.6

# Oscillatory tails switch to the integration-by-parts asymptotic series
# only once the phase argument is at least this large; below it the gap to
# the safe region is bridged with a short run of high-order panels.
_OSC_ASYM_MIN_PHASE = 30.0

# Hard ceilings that turn absurd parameter combinations into clean errors
# instead of memory blowups.
_MAX_CORE_PANELS = 2_000_000
_MAX_CUTOFF_EXTENSION = 32768.0

# Switch to the Taylor series of the wave kernel once the total phase is
# below this, where the closed form loses digits to cancellation.  The
# series truncation error at the boundary is ~1e-13 relative.
_WAVE_SERIES_PHASE = 0.1


class QuadratureError(NumericalError):
    """A spectral integral did not converge to the requested tolerance.

    Attributes
    ----------
    value : float
        Best available estimate of the integral.
    err_estimate : float
        Error estimate attached to that value.
    """

    def __init__(self, message: str, value: float = float("nan"),
                 err_estimate: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the spectral quadrature engine.

    Attributes
    ----------
    cutoff : float
        Nominal frequency cutoff; analytic tails take over beyond it.
    rel_tol, abs_tol : float
        Convergence target ``err <= rel_tol * |value| + abs_tol``.
    small_xi_eps : float
        End of the analytic series head at the origin.
    max_panels : int
        Refinement budget for the adaptive core.
    """

    cutoff: float = 200.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    small_xi_eps: float = 1e-4
    max_panels: int = 4000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not 0.0 < self.abs_tol < 1.0:
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if not 0.0 < self.small_xi_eps < self.cutoff:
            raise ValueError(
                "need 0 < small_xi_eps < cutoff, got "
                f"{self.small_xi_eps} vs {self.cutoff}")
        if self.max_panels < 1:
            raise ValueError(f"max_panels must be >= 1, got {self.max_panels}")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one spectral integral.

    Attributes
    ----------
    value : float
        Estimate of the integral.
    err_estimate : float
        Sum of the head, panel and tail error terms.  Conservative for
        smooth integrands.
    panels_used : int
        Total Gauss-Legendre panels evaluated, extensions included.
    converged : bool
        True when ``err_estimate <= rel_tol * |value| + abs_tol``.
    """

    value: float
    err_estimate: float
    panels_used: int
    converged: bool

    def require(self, what: str) -> float:
        """Return ``value`` or raise :class:`QuadratureError`."""
        if not self.converged:
            raise QuadratureError(
                f"{what}: quadrature error estimate {self.err_estimate:.3e} "
                f"exceeds tolerance (value {self.value:.6e}, "
                f"{self.panels_used} panels)",
                value=self.value, err_estimate=self.err_estimate)
        return self.value


def power_tail(s: float, cutoff: float) -> float:
    """Exact value of ``int_cutoff^inf xi^s dxi`` for ``s < -1``."""
    if s >= -1.0:
        raise ValueError(f"power tail requires s < -1, got {s}")
    return cutoff ** (s + 1.0) / (-1.0 - s)


def _gl_eval(f, lo: np.ndarray, hi: np.ndarray, nodes, weights) -> np.ndarray:
    """Gauss-Legendre panel integrals for a vectorized integrand."""
    out = np.empty(lo.shape, dtype=float)
    step = max(1, (1 << 20) // nodes.size)
    for start in range(0, lo.size, step):
        sl = slice(start, min(start + step, lo.size))
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = f(x.ravel()).reshape(x.shape)
        out[sl] = half * (vals @ weights)
    return out


def _osc_asymptotic(s: float, freq: float, cutoff: float,
                    kind: str) -> tuple[float, float]:
    """Tail ``int_cutoff^inf xi^s trig(freq xi) dxi`` by parts.

    Valid once ``freq * cutoff`` is large; terms are taken while the
    rigorous remainder bound ``2 |mult| A^sigma`` keeps shrinking and the
    bound at the stopping point is returned as the error.
    """
    a = freq * cutoff
    scale = freq ** (-s - 1.0)
    sin_a = math.sin(a)
    cos_a = math.cos(a)
    total = 0.0
    mult = 1.0
    sigma = s
    k = kind
    best_total = 0.0
    best_rem = math.inf
    for _ in range(64):
        rem = 2.0 * abs(mult) * a ** sigma
        if rem < best_rem:
            best_rem = rem
            best_total = total
        elif rem > best_rem:
            break
        if rem == 0.0:
            break
        if k == "cos":
            total += mult * (-(a ** sigma) * sin_a)
            mult = -mult * sigma
            k = "sin"
        else:
            total += mult * (a ** sigma) * cos_a
            mult = mult * sigma
            k = "cos"
        sigma -= 1.0
    return scale * best_total, scale * best_rem


def osc_power_tail(s: float, freq: float, cutoff: float,
                   kind: str = "cos") -> tuple[float, float]:
    """Evaluate ``int_cutoff^inf xi^s trig(freq xi) dxi`` with an error bound.

    Parameters
    ----------
    s : float
        Power exponent, ``s < -1`` (cos) or ``s < -1`` with the integral
        understood absolutely convergent (sin); used here for
        ``s in (-4, -1)``.
    freq : float
        Oscillation frequency, ``>= 0``.  Zero frequency degenerates to the
        exact power tail (cos) or zero (sin).
    cutoff : float
        Lower endpoint, ``> 0``.
    kind : str
        Either ``"cos"`` or ``"sin"``.

    Returns
    -------
    (value, err_bound) : tuple of float
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if freq < 0.0:
        raise ValueError("frequency must be nonnegative")
    if freq == 0.0:
        return (power_tail(s, cutoff), 0.0) if kind == "cos" else (0.0, 0.0)
    phase = freq * cutoff
    mid_val = 0.0
    mid_err = 0.0
    start = cutoff
    if phase < _OSC_ASYM_MIN_PHASE:
        # Bridge to the asymptotically safe region with phase-pi/4 panels:
        # the panel count is bounded by a constant regardless of freq.
        start = _OSC_ASYM_MIN_PHASE / freq
        n = max(4, math.ceil((_OSC_ASYM_MIN_PHASE - phase) / (math.pi / 4.0)))
        edges = np.linspace(cutoff, start, n + 1)
        trig = np.cos if kind == "cos" else np.sin

        def g(x: np.ndarray) -> np.ndarray:
            return x ** s * trig(freq * x)

        v16 = _gl_eval(g, edges[:-1], edges[1:], _NODES16, _WEIGHTS16)
        v8 = _gl_eval(g, edges[:-1], edges[1:], _NODES8, _WEIGHTS8)
        mid_val = float(v16.sum())
        mid_err = float(np.abs(v16 - v8).sum())
    tail_val, tail_err = _osc_asymptotic(s, freq, start, kind)
    return mid_val + tail_val, mid_err + tail_err


def _build_edges(lo: float, hi: float, freqs, gauss_scales) -> np.ndarray:
    """Panel edges on [lo, hi] honoring oscillation and decay caps."""
    fmax = max(freqs) if freqs else 0.0
    osc_cap = _PHASE_CAP / fmax if fmax > 0.0 else math.inf
    live = [g for g in gauss_scales if g > 0.0]
    # Point beyond which only the constant oscillation cap binds.
    x_simple = 0.0
    if live:
        x_simple = max(math.sqrt(_GAUSS_DEAD / g) for g in live)
    if osc_cap < math.inf:
        x_simple = max(x_simple, osc_cap / _GROWTH)

    edges = [lo]
    x = lo
    while x < hi and x < x_simple:
        w = _GROWTH * x
        if w > osc_cap:
            w = osc_cap
        for g in live:
            if g * x * x < _GAUSS_DEAD:
                cap = _GAUSS_ARG_STEP / (2.0 * g * max(x, 1e-300))
                if w > cap:
                    w = cap
        w = max(w, 1e-3 * lo, (hi - lo) * 1e-12)
        x = min(x + w, hi)
        edges.append(x)
        if len(edges) > _MAX_CORE_PANELS:
            raise QuadratureError(
                "panel construction exceeded the hard edge budget")
    if x < hi:
        w = min(osc_cap, _GROWTH * max(x, 1.0))
        n = math.ceil((hi - x) / w)
        if len(edges) + n > _MAX_CORE_PANELS:
            raise QuadratureError(
                "panel construction exceeded the hard edge budget")
        edges.extend(np.linspace(x, hi, n + 1)[1:].tolist())
    arr = np.asarray(edges, dtype=float)
    if arr.size < 9:
        arr = np.linspace(lo, hi, 9)
    return arr


def spectral_integral(weight, alpha: float, quad, *,
                      head_coeffs, tail_terms=(), freqs=(),
                      gauss_scales=(), gauss_suppressed_scale=0.0
                      ) -> QuadResult:
    """Integrate ``weight(xi) * xi^alpha`` over the half line.

    Parameters
    ----------
    weight : callable
        Vectorized map xi -> W(xi), smooth and even, defined for xi > 0.
    alpha : float
        Spectral exponent in (-1, 1).
    quad : QuadratureSpec
        Cutoff, tolerances and panel budget.
    head_coeffs : sequence of 4 floats
        Coefficients (b0, b2, b4, b6) of W's even Taylor series at 0; the
        last one only feeds the head error estimate.
    tail_terms : sequence of tuples
        Entries ``(kind, coeff, s, freq)`` with kind in {"pow", "cos",
        "sin"} describing W(xi) * xi^alpha beyond the (possibly extended)
        cutoff, up to Gaussian-suppressed remainders.
    freqs : sequence of float
        Oscillation frequencies present in W, used to cap panel widths.
    gauss_scales : sequence of float
        Decay scales a for factors exp(-a xi^2) present in W.  The cutoff
        is extended until the smallest scale is dead, so suppressed parts
        can be dropped from ``tail_terms``.
    gauss_suppressed_scale : float
        Magnitude of the coefficients whose tails were dropped as
        Gaussian-suppressed; prices the dropped remainder into the error.

    Returns
    -------
    QuadResult
    """
    eps = quad.small_xi_eps
    cutoff = quad.cutoff

    # Shrink the series head when W oscillates fast: the four-term series
    # is accurate only while (freq * eps) stays small.
    fmax = max(freqs) if freqs else 0.0
    if fmax > 0.0:
        eps = min(eps, 0.05 / fmax)

    # Head on [0, eps] from the series of W.
    b = list(head_coeffs)
    head = 0.0
    for j in range(3):
        head += b[j] * eps ** (alpha + 2 * j + 1) / (alpha + 2 * j + 1)
    head_err = abs(b[3]) * eps ** (alpha + 7) / (alpha + 7)

    # Extend the cutoff until every Gaussian factor is negligible.
    live = [g for g in gauss_scales if g > 0.0]
    cut = cutoff
    gauss_err = 0.0
    if live:
        gmin = min(live)
        need = math.sqrt(80.0 / gmin)
        if need > cut:
            cut = min(need, max(_MAX_CUTOFF_EXTENSION, cutoff))
        if gauss_suppressed_scale > 0.0:
            envelope = power_tail(min(alpha - 2.0, -1.5), cut)
            gauss_err = (gauss_suppressed_scale
                         * math.exp(-gmin * cut * cut) * envelope)

    edges = _build_edges(eps, cut, freqs, live)
    lo, hi = edges[:-1], edges[1:]
    v16 = _gl_eval(lambda x: weight(x) * x ** alpha, lo, hi,
                   _NODES16, _WEIGHTS16)
    v8 = _gl_eval(lambda x: weight(x) * x ** alpha, lo, hi,
                  _NODES8, _WEIGHTS8)
    perr = np.abs(v16 - v8)
    panels = lo.size

    # Tails beyond the (extended) cutoff.
    tail_val = 0.0
    tail_err = gauss_err
    for kind, coeff, s, freq in tail_terms:
        if coeff == 0.0:
            continue
        if kind == "pow":
            tail_val += coeff * power_tail(s, cut)
        else:
            tv, te = osc_power_tail(s, freq, cut, kind)
            tail_val += coeff * tv
            tail_err += abs(coeff) * te

    def tol_for(value: float) -> float:
        return quad.rel_tol * abs(value) + quad.abs_tol

    value = head + float(v16.sum()) + tail_val
    err = head_err + float(perr.sum()) + tail_err

    # Adaptive refinement: bisect the worst panels until the target holds
    # or the refinement budget is spent.  Refining cannot reduce the head
    # and tail contributions, so stop once panels are no longer dominant.
    budget = quad.max_panels
    fixed_err = head_err + tail_err
    while (err > tol_for(value) and budget > 0 and perr.size
           and float(perr.sum()) > max(tol_for(value) - fixed_err,
                                       0.25 * tol_for(value))):
        order = np.argsort(perr)[::-1]
        k = max(1, min(order.size // 4, budget, 256))
        idx = order[:k]
        mids = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([np.delete(lo, idx), lo[idx], mids])
        new_hi = np.concatenate([np.delete(hi, idx), mids, hi[idx]])
        keep16 = np.delete(v16, idx)
        keep_err = np.delete(perr, idx)
        ref_lo = np.concatenate([lo[idx], mids])
        ref_hi = np.concatenate([mids, hi[idx]])
        r16 = _gl_eval(lambda x: weight(x) * x ** alpha, ref_lo, ref_hi,
                       _NODES16, _WEIGHTS16)
        r8 = _gl_eval(lambda x: weight(x) * x ** alpha, ref_lo, ref_hi,
                      _NODES8, _WEIGHTS8)
        lo, hi = new_lo, new_hi
        v16 = np.concatenate([keep16, r16])
        perr = np.concatenate([keep_err, np.abs(r16 - r8)])
        panels += ref_lo.size
        budget -= k
        value = head + float(v16.sum()) + tail_val
        err = head_err + float(perr.sum()) + tail_err

    return QuadResult(value=value, err_estimate=err, panels_used=int(panels),
                      converged=bool(err <= tol_for(value)))


# The integrands of the library's quantities in spectral form, with the
# head series and tail models the engine needs for each.


def fourier_kernel(eqn: EquationKind, t: float, xi):
    """Fourier multiplier of the propagator at time t.

    Wave: ``sin(t |xi|) / |xi|`` with the limit value t at xi = 0.
    Heat: ``exp(-t xi^2 / 2)``.

    Accepts scalar or array ``xi``; ``t`` must be nonnegative.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    xi_arr = np.asarray(xi, dtype=float)
    if eqn is EquationKind.HEAT:
        out = np.exp(-t * xi_arr ** 2 / 2.0)
    elif eqn is EquationKind.WAVE:
        ax = np.abs(xi_arr)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(ax > 0.0,
                           np.sin(t * ax) / np.where(ax > 0.0, ax, 1.0), t)
    else:
        raise TypeError(f"expected EquationKind, got {eqn!r}")
    return float(out) if np.ndim(xi) == 0 else out


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
            ratio = np.where(
                u > 0.0, -np.expm1(-t * u) / np.where(u > 0.0, u, 1.0), t)
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


def _wave_inner_time_integral(xi: np.ndarray, T: float) -> np.ndarray:
    """Numeric ``int_0^T sin(t xi)^2 / xi^2 dt`` for an array of xi > 0."""
    out = np.empty_like(xi)
    order = np.argsort(xi)
    xs = xi[order]
    res = np.empty_like(xs)
    start = 0
    while start < xs.size:
        stop = min(start + 1024, xs.size)
        chunk = xs[start:stop]
        ximax = chunk[-1]
        n_panels = max(4, math.ceil(T * ximax / (2.0 * math.pi)) + 2)
        edges = np.linspace(0.0, T, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t_nodes = (mid[:, None] + half[:, None] * _NODES16[None, :]).ravel()
        w_nodes = (half[:, None] * _WEIGHTS16[None, :]).ravel()
        s = np.sin(t_nodes[None, :] * chunk[:, None]) ** 2
        res[start:stop] = (s @ w_nodes) / chunk ** 2
        start = stop
    out[order] = res
    return out


def _heat_inner_time_integral(xi: np.ndarray, T: float) -> np.ndarray:
    """Numeric ``int_0^T exp(-t xi^2) dt`` on geometric time panels."""
    n_oct = max(8, math.ceil(math.log2(max(T * np.max(xi) ** 2, 2.0))) + 4)
    edges = [0.0] + [T * 2.0 ** (-k) for k in range(n_oct, -1, -1)]
    edges = np.asarray(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t_nodes = (mid[:, None] + half[:, None] * _NODES16[None, :]).ravel()
    w_nodes = (half[:, None] * _WEIGHTS16[None, :]).ravel()
    vals = np.exp(-t_nodes[None, :] * (xi ** 2)[:, None])
    return vals @ w_nodes


def dalang_integral_quad(eqn: EquationKind, alpha: float, horizon: float,
                         quad: QuadratureSpec | None = None) -> QuadResult:
    """Iterated numeric evaluation of the squared-multiplier integral.

    The inner time integral is computed by composite Gauss-Legendre
    panels (oscillation-capped for the wave multiplier, geometrically
    graded for the heat one); the outer frequency integral uses the
    panel engine with a series head and analytic tails.  Never consults
    :func:`fracfield.spectral.dalang_integral_closed`, so the two routes
    are independent.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(
            f"spectral exponent must lie in (-1, 1), got {alpha}")
    if not horizon > 0.0:
        raise ValueError(f"time horizon must be positive, got {horizon}")
    q = quad or DEFAULT_QUAD
    T = horizon
    if eqn is EquationKind.WAVE:
        head = (T ** 3 / 3.0, -T ** 5 / 15.0, 2.0 * T ** 7 / 315.0,
                -T ** 9 / 2835.0)
        res = spectral_integral(
            lambda x: _wave_inner_time_integral(x, T), alpha, q,
            head_coeffs=head,
            tail_terms=(("pow", T / 2.0, alpha - 2.0, 0.0),
                        ("sin", -0.25, alpha - 3.0, 2.0 * T)),
            freqs=(2.0 * T,))
    elif eqn is EquationKind.HEAT:
        head = (T, -T ** 2 / 2.0, T ** 3 / 6.0, -T ** 4 / 24.0)
        res = spectral_integral(
            lambda x: _heat_inner_time_integral(x, T), alpha, q,
            head_coeffs=head,
            tail_terms=(("pow", 1.0, alpha - 2.0, 0.0),),
            gauss_scales=(T,), gauss_suppressed_scale=1.0)
    else:
        raise TypeError(f"expected EquationKind, got {eqn!r}")
    # Both halves of the real line contribute equally.
    return QuadResult(value=2.0 * res.value,
                      err_estimate=2.0 * res.err_estimate,
                      panels_used=res.panels_used, converged=res.converged)


def _heat_tk_series(t1: float, t2: float, jmax: int) -> list[float]:
    """Coefficients of xi^(2j) in the heat time kernel, j = 0..jmax."""
    dl2 = (t2 - t1) / 2.0
    s2 = (t2 + t1) / 2.0
    return [(-1.0) ** j * (s2 ** (j + 1) - dl2 ** (j + 1))
            / math.factorial(j + 1) for j in range(jmax + 1)]


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


def _heat_time_shift(alpha: float, horizon: float, h: float,
                     quad: QuadratureSpec) -> QuadResult:
    """Spectral integral of the heat smoothing difference."""
    hw, tw = h, horizon

    def weight(xi: np.ndarray) -> np.ndarray:
        smooth = -np.expm1(-0.5 * hw * xi * xi)
        build = -np.expm1(-tw * xi * xi)
        return smooth * smooth * build / (xi * xi)

    b4 = hw * hw * tw / 4.0
    b6 = -(hw * hw * tw * tw + hw ** 3 * tw) / 8.0
    return spectral_integral(
        weight, alpha, quad, head_coeffs=(0.0, 0.0, b4, b6),
        tail_terms=(("pow", 1.0, alpha - 2.0, 0.0),),
        gauss_scales=(0.5 * hw, hw, tw, tw + 0.5 * hw, tw + hw),
        gauss_suppressed_scale=7.0)


def _wave_time_shift(alpha: float, horizon: float, h: float,
                     quad: QuadratureSpec) -> QuadResult:
    """Spectral integral of the wave time-shift term."""
    big = 2.0 * horizon + h

    def weight(xi: np.ndarray) -> np.ndarray:
        osc = 2.0 * (1.0 - np.cos(h * xi)) / (xi * xi)
        bracket = (0.5 * horizon
                   + (np.sin(big * xi) - np.sin(h * xi)) / (4.0 * xi))
        return osc * bracket

    b0 = h * h * horizon
    b2 = -(h * h * (big ** 3 - h ** 3) / 24.0
           + h ** 4 * horizon / 12.0)
    b4 = (h * h * (big ** 5 - h ** 5) / 480.0
          + h ** 4 * (big ** 3 - h ** 3) / 288.0
          + h ** 6 * horizon / 360.0)
    b6 = (h * h * (big ** 7 - h ** 7) / 20160.0
          + h ** 4 * (big ** 5 - h ** 5) / 5760.0
          + h ** 6 * (big ** 3 - h ** 3) / 8640.0
          + h ** 8 * horizon / 20160.0)
    tails = (("pow", horizon, alpha - 2.0, 0.0),
             ("cos", -horizon, alpha - 2.0, h),
             ("sin", 0.5, alpha - 3.0, big),
             ("sin", -0.5, alpha - 3.0, h),
             ("sin", -0.25, alpha - 3.0, big + h),
             ("sin", -0.25, alpha - 3.0, big - h),
             ("sin", 0.25, alpha - 3.0, 2.0 * h))
    return spectral_integral(
        weight, alpha, quad, head_coeffs=(b0, b2, b4, b6),
        tail_terms=tails, freqs=(h, big, big + h))


def time_shift_lhs(eqn: EquationKind, alpha: float, horizon: float,
                   h: float, quad: QuadratureSpec) -> QuadResult:
    """Engine route of the lhs of a time-shift row of
    :func:`fracfield.analysis.verify_lemma_bound`: the doubled half-line
    integral of the kernel's time-shift term at shift ``h``."""
    route = _heat_time_shift if eqn is EquationKind.HEAT else _wave_time_shift
    res = route(alpha, horizon, h, quad)
    return QuadResult(value=2.0 * res.value,
                      err_estimate=2.0 * res.err_estimate,
                      panels_used=res.panels_used, converged=res.converged)


def ode_oracle(eqn: EquationKind, drift: DriftSpec, eta, horizon: float,
               n_steps: int = 2000) -> np.ndarray:
    """Spatially constant reference solution of the integral equation.

    For forcing eta(t) constant in space the equation collapses to a
    scalar Volterra equation with kernel 1 (heat) or ``t - s`` (wave);
    solved by trapezoid discretization and global fixed-point iteration.
    Returns the solution on the uniform time grid, endpoint included.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if n_steps < 100:
        raise ValueError(f"need at least 100 steps, got {n_steps}")
    ts = np.linspace(0.0, horizon, n_steps + 1)
    dt = ts[1] - ts[0]
    eta_vals = np.asarray([float(eta(t)) for t in ts]) \
        if callable(eta) else np.full(ts.shape, float(eta))

    def cum_trap(vals: np.ndarray) -> np.ndarray:
        # Trapezoid of vals over [0, t_i] per i, via one cumulative sum.
        return np.cumsum(vals) - 0.5 * (vals[0] + vals)

    z = eta_vals.copy()
    for _ in range(400):
        fb = np.asarray(drift(z), dtype=float)
        if eqn is EquationKind.WAVE:
            conv = ts * cum_trap(fb) - cum_trap(ts * fb)
        else:
            conv = cum_trap(fb)
        z_new = eta_vals + dt * conv
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        if delta < 1e-13:
            break
    return z


def picard_oracle(eqn: EquationKind, drift: DriftSpec, eta: GridFunction,
                  tol: float = 1e-14, max_iter: int = 200) -> tuple:
    """Fixed point of ``z = eta + G * b(z)`` by global Picard iteration of
    :func:`fracfield.det_solver.picard_apply` from eta, to a sup-norm
    increment below tol; returns the field and the increments."""
    z, increments = eta, []
    while len(increments) < max_iter:
        z, last = picard_apply(eqn, drift, z, eta), z
        increments.append(float(np.max(np.abs(z.values - last.values))))
        if increments[-1] < tol:
            return z, tuple(increments)
    raise NumericalError(
        f"Picard iteration did not reach tol={tol} within {max_iter} "
        f"iterations (last increment {increments[-1]:.3e})")
