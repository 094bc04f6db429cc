"""Deterministic solver for the quasi-linear integral equation.

Given a forcing field eta on a space-time grid, the solver finds the
fixed point of ``z = eta + G * b(z)``, where ``G *`` is space-time
convolution with the fundamental solution, discretized by trapezoid
rules on the grid.  The discrete system is lower triangular in time, so
:func:`solve_replicates` solves it in one causal march over the time
rows, for a stack of forcings each solved as if alone.  The march and
:func:`picard_apply`, one application of the map, share one row sweep
per kernel: the heat's semigroup recursion of spatial stencil
convolutions, one dot product per output over its edge-padded window,
and the wave's running sums along the light cone's diagonals.  Neither
mixes replicates.

The forcing is only known on the reported grid ``[0, T] x [-L, L]``; the
convolution needs values on the wider strip ``[-L - T, L + T]``, which is
filled once by constant edge extension.  For the wave equation the light
cone makes reported values exact for truthfully extended data; for the heat
equation the Gaussian tails reach farther, a documented approximation.
"""

from __future__ import annotations

import functools
import inspect
import math
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import MaxIterExceededError, NumericalError
from .sampler import _one_blas_thread
from .spectral import EquationKind

__all__ = [
    "DriftSpec",
    "InitialData",
    "PointGrid",
    "GridFunction",
    "MarchRecord",
    "initial_term",
    "initial_term_grid",
    "drift_truncate",
    "solve_replicates",
    "picard_apply",
    "make_drift",
    "make_initial_data",
    "DRIFT_KINDS",
]

_PROBE_Z = np.linspace(-8.0, 8.0, 321)
_PROBE_X = np.linspace(-5.0, 5.0, 161)
_HERMITE_NODES, _HERMITE_WEIGHTS = hermgauss(64)


def _vec_eval(fn, x: np.ndarray, what: str) -> np.ndarray:
    """``fn(x)``, or a ``ValueError`` naming ``what`` unless fn maps the
    array x to an array of its shape, as the solver applies it."""
    try:
        out = np.asarray(fn(x), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be vectorized; on an array it "
                         f"raised {exc!r}") from exc
    if out.shape != x.shape:
        raise ValueError(f"{what} must be vectorized; shape {x.shape} "
                         f"gave {out.shape}")
    return out


@dataclass(frozen=True)
class DriftSpec:
    """A drift nonlinearity with its analytic metadata.

    Attributes
    ----------
    func : callable
        Vectorized z -> b(z), acting elementwise, as the drift b of the
        equation acts pointwise on the solution.  The solver applies it
        on the reported window and edge-extends the result, which is
        the drift of the edge-extended field only for such a func.
    lipschitz_constant : float
        Global Lipschitz bound of b, the only property of b the solvers
        assume; validated on a probe grid.
    name : str
        Display name for configs and manifests.
    """

    func: object
    lipschitz_constant: float
    name: str = "custom"

    def __post_init__(self):
        if self.lipschitz_constant < 0.0:
            raise ValueError("Lipschitz constant must be >= 0, got "
                             f"{self.lipschitz_constant}")
        vals = _vec_eval(self.func, _PROBE_Z, "drift")
        if not np.all(np.isfinite(vals)):
            raise ValueError("drift produced non-finite values on the probe")
        dz = _PROBE_Z[1] - _PROBE_Z[0]
        slopes = np.abs(np.diff(vals)) / dz
        limit = 1.01 * self.lipschitz_constant + 1e-12
        worst = float(slopes.max())
        if worst > limit:
            raise ValueError(
                f"drift violates the declared Lipschitz constant: probe "
                f"slope {worst:.6g} > {limit:.6g}")

    def __call__(self, z):
        return self.func(z)


@dataclass(frozen=True)
class InitialData:
    """Initial condition: position u0 and, for the wave equation, speed v0.

    Both must be vectorized and are checked to be finite on a reference
    window.
    """

    u0: object
    v0: object | None = None

    def __post_init__(self):
        vals = _vec_eval(self.u0, _PROBE_X, "u0")
        if not np.all(np.isfinite(vals)):
            raise ValueError("u0 produced non-finite values on the probe")
        if self.v0 is not None:
            vvals = _vec_eval(self.v0, _PROBE_X, "v0")
            if not np.all(np.isfinite(vvals)):
                raise ValueError("v0 produced non-finite values on the probe")


@dataclass(frozen=True)
class PointGrid:
    """Uniform reported grid on ``[0, horizon] x [-half_width, half_width]``.

    Both extents must be finite and positive.  ``n_t`` and ``n_x`` count
    cells, so the grid carries ``(n_t + 1) * (n_x + 1)`` nodes.  The wave
    solver additionally requires the light-cone alignment ``dx == dt``.
    """

    horizon: float
    half_width: float
    n_t: int
    n_x: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be finite and > 0, got {self.horizon}")
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(
                f"half_width must be finite and > 0, got {self.half_width}")
        if self.n_t < 2 or self.n_x < 2:
            raise ValueError(
                f"need n_t, n_x >= 2, got {self.n_t}, {self.n_x}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_x

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)

    def positions(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_x + 1)

    def nodes(self) -> tuple:
        """t and x of every reported node, time-major: ``t`` holds each
        time ``n_x + 1`` times over, ``x`` the positions ``n_t + 1``
        times over."""
        return (np.repeat(self.times(), self.n_x + 1),
                np.tile(self.positions(), self.n_t + 1))

    @property
    def is_aligned(self) -> bool:
        return math.isclose(self.dx, self.dt, rel_tol=1e-12, abs_tol=0.0)


@dataclass(frozen=True)
class GridFunction:
    """Real field sampled on the nodes of a :class:`PointGrid`."""

    grid: PointGrid
    values: np.ndarray

    def __post_init__(self):
        want = (self.grid.n_t + 1, self.grid.n_x + 1)
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != want:
            raise ValueError(
                f"values shape {arr.shape} does not match grid {want}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function carries non-finite values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MarchRecord:
    """What one march of :func:`solve_replicates` did: ``method`` is
    ``"explicit_march"`` (wave) or ``"pointwise_march"`` (heat), and for
    the heat ``pointwise_iterations[k]`` counts the nodes, over all
    replicates and rows after the first, that took k evaluations."""

    method: str
    pointwise_iterations: tuple = ()


@functools.cache
def _legendre_rules() -> tuple:
    """The 32- and 64-point Gauss-Legendre rules, built on first use:
    most runs integrate no callable v0."""
    return leggauss(32), leggauss(64)


def _v0_span(v0, t: float, x: np.ndarray) -> np.ndarray:
    """Integral of a callable v0 over ``[x - t, x + t]`` at every x, by the
    64-point Gauss-Legendre rule on all nodes at once.

    A node where the 32-point rule differs from it by more than ``1e-12
    + 1e-10 |I|``, or where either is not finite, raises
    :class:`NumericalError` naming its (t, x).
    """
    with _one_blas_thread():
        low, high = (t * (_vec_eval(v0, x[:, None] + t * nodes[None, :],
                                    "v0") @ weights)
                     for nodes, weights in _legendre_rules())
    bad = ~(np.abs(high - low) <= 1e-12 + 1e-10 * np.abs(high))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"the integral of v0 over [x - t, x + t] is not resolved at "
            f"(t, x) = ({t:.17g}, {x[i]:.17g}): the 64- and 32-point "
            f"Gauss-Legendre rules give {high[i]:.17g} and {low[i]:.17g}, "
            f"apart by more than 1e-12 + 1e-10 |I|; a kinked or strongly "
            f"oscillating v0 needs a registry profile")
    return high


def initial_term(eqn: EquationKind, data: InitialData, t: float, x):
    """Deterministic part of the mild solution from the initial data.

    Heat: Gaussian average ``E[u0(x + sqrt(t) Z)]`` via Gauss-Hermite.
    Wave: traveling-wave average ``(u0(x+t) + u0(x-t))/2`` plus half the
    integral of v0 over ``[x-t, x+t]``: in closed form for a registry
    profile, and for any other callable by a 64-point Gauss-Legendre
    rule checked against the 32-point rule (:func:`_v0_span`).  The heat
    equation is first order in time, so initial data with a v0 is
    refused for it.
    """
    if eqn is EquationKind.HEAT and data.v0 is not None:
        raise ValueError("the heat equation takes no initial speed; "
                         "remove v0 or use the wave equation")
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        out = _vec_eval(data.u0, x_arr, "u0")
    elif eqn is EquationKind.HEAT:
        pts = x_arr[:, None] + math.sqrt(2.0 * t) * _HERMITE_NODES[None, :]
        vals = _vec_eval(data.u0, pts, "u0")
        with _one_blas_thread():
            out = (vals @ _HERMITE_WEIGHTS) / math.sqrt(math.pi)
    elif eqn is EquationKind.WAVE:
        out = 0.5 * (_vec_eval(data.u0, x_arr + t, "u0")
                     + _vec_eval(data.u0, x_arr - t, "u0"))
        if isinstance(data.v0, _Profile):
            out = out + 0.5 * data.v0.span(x_arr, t)
        elif data.v0 is not None:
            out = out + 0.5 * _v0_span(data.v0, t, x_arr)
    else:
        raise TypeError(f"expected EquationKind, got {eqn!r}")
    return float(out[0]) if np.ndim(x) == 0 else out


def initial_term_grid(eqn: EquationKind, data: InitialData,
                      grid: PointGrid) -> GridFunction:
    """Evaluate :func:`initial_term` on every node of a grid."""
    xs = grid.positions()
    rows = [initial_term(eqn, data, float(t), xs) for t in grid.times()]
    return GridFunction(grid=grid, values=np.vstack(rows))


def drift_truncate(spec: DriftSpec, level: float) -> DriftSpec:
    """Clip a drift to ``[-level, level]``, preserving its Lipschitz bound.

    ``min(b(z), level)`` for nonnegative values and ``max(b(z), -level)``
    for negative ones, which is exactly ``clip``: the result keeps the
    Lipschitz constant, and a level at or above ``sup |b|`` keeps b.
    """
    if not level > 0.0:
        raise ValueError(f"truncation level must be > 0, got {level}")
    inner = spec.func
    lvl = float(level)

    def clipped(z):
        return np.clip(inner(z), -lvl, lvl)

    return DriftSpec(func=clipped,
                     lipschitz_constant=spec.lipschitz_constant,
                     name=f"{spec.name}|clip{lvl:g}")


def _margin_cells(grid: PointGrid) -> int:
    return max(1, math.ceil(grid.horizon / grid.dx - 1e-9))


def _heat_kernel_weights(dt: float, dx: float) -> np.ndarray:
    """One-step heat kernel sampled on the grid, unit discrete mass."""
    r = max(1, math.ceil(8.0 * math.sqrt(dt) / dx))
    offsets = np.arange(-r, r + 1) * dx
    w = np.exp(-offsets ** 2 / (2.0 * dt))
    return w / w.sum()


def _heat_sweep(rows, f0: np.ndarray, n_t: int, w: np.ndarray) -> None:
    """The semigroup recursion of the heat kernel's ``G * f``, row by row.

    From row 0 of f, ``f0`` of shape ``(R, width)``, the sweep forms
    ``B_i = K * (B_{i-1} + c_{i-1} f_{i-1})`` (``B_0 = 0``, ``c_0 = 1/2``,
    else 1) for i = 1 .. n_t, and ``rows(i, B_i)`` returns row i of f;
    ``G * f`` at row i is ``dt (B_i + f_i / 2)``.  Each step takes one dot
    product of the symmetric stencil w with each output's window of the
    edge-padded ``B + c f``, so an output depends on its own replicate and
    window alone; above 11 taps the bits are those of ``np.convolve`` of
    the padded row.  ``B_i`` is overwritten after ``rows`` returns.
    """
    n_rep, width = f0.shape
    r = (w.size - 1) // 2
    buf = np.empty((n_rep, width + 2 * r))
    inner = buf[:, r:r + width]
    windows = np.lib.stride_tricks.sliding_window_view(buf, w.size, axis=1)
    b = np.zeros((n_rep, width))
    f_prev = f0
    for i in range(1, n_t + 1):
        np.add(b, (0.5 if i == 1 else 1.0) * f_prev, out=inner)
        buf[:, :r] = inner[:, :1]
        buf[:, r + width:] = inner[:, -1:]
        np.vecdot(windows, w, out=b)
        f_prev = rows(i, b)


def _wave_sweep(rows, f0: np.ndarray, n_t: int, dt: float,
                dx: float) -> None:
    """The wave kernel's ``G * f`` on the window, row by row.

    The kernel is half the indicator of the light cone, so ``G * f`` at
    node (i, l) is half the 2-D trapezoid of f over the cone of width
    ``i - j`` cells, and reads only the rows before i.  ``f0`` is row 0
    of f on the window widened by exactly n_t cells per side, which
    holds every cone; for i = 1 .. n_t, ``rows(i, out_i)`` takes row i of
    ``G * f`` on the window, n_t cells narrower per side, and returns row
    i of f as wide as f0.  The sweep keeps four running sums along the
    cone's two diagonals: of each row's x-prefix sums ``d`` from 0, and
    of the row itself, with row 0 at its trapezoid weight 1/2.  Row j
    enters them shifted by j columns, and output row i reads them, as
    they stand after rows ``0 .. i-1``, through contiguous slices.  The
    work is O(R * n_t * width) and the working set O(R * width).
    """
    n_rep, n_g = f0.shape
    width = n_g - 2 * n_t
    ga = 0.5 * f0
    ad = np.zeros((n_rep, n_g + 1))
    np.cumsum(ga, axis=1, out=ad[:, 1:])
    dg, gd, d = ad.copy(), ga.copy(), np.zeros_like(ad)
    scale = 0.5 * dt * dx
    for i in range(1, n_t + 1):
        # Row i reads the cone's right (hi) and left (lo) edges.
        hi = slice(i + n_t + 1, i + n_t + 1 + width)
        hi_g = slice(i + n_t, i + n_t + width)
        lo = slice(n_t - i, n_t - i + width)
        f_i = rows(i, scale * (ad[:, hi] - dg[:, lo]
                               - 0.5 * (ga[:, hi_g] + gd[:, lo])))
        if i == n_t:
            break
        # Row i enters the diagonal sums shifted by i columns; the
        # columns it does not reach are never read again.
        np.cumsum(f_i, axis=1, out=d[:, 1:])
        ad[:, i:] += d[:, :n_g + 1 - i]
        dg[:, :n_g + 1 - i] += d[:, i:]
        ga[:, i:] += f_i[:, :n_g - i]
        gd[:, :n_g - i] += f_i[:, i:]


def _settle(drift: DriftSpec, e: np.ndarray, b: np.ndarray, dt: float,
            cap: int) -> tuple:
    """Solve ``z = e + dt * (b + 0.5 * drift(z))`` at every node of flat
    arrays, each node on its own.

    The map is written as the heat step writes a row.  From ``z = e + dt
    * b`` a node iterates it until its increment is 0, at most ``eps``
    times its terms' magnitudes, or no smaller than the one before, and
    keeps the iterate of smallest increment; a node whose increment is
    not finite has overflowed and gets NaN.  In exact arithmetic the
    increment shrinks by ``q = dt L / 2 < 1``, so in rounding it stalls
    within ``tiny / (1 - q)`` of 0, ``tiny`` the rounding of the node's
    terms at its iterate (1.64 times that at most, measured on tanh,
    sine, linear and clipped linear drifts for q up to 0.99).  A stall
    above 8 times that bound means the map does not contract there: the
    drift is steeper than its declared L.  Returns z, the increments, the
    flat indices of nodes unsettled after ``cap`` evaluations or with a
    non-finite increment, those of such steep stalls, and the count of
    nodes that took 1, 2, ...
    """
    eps = np.finfo(float).eps
    z = e + dt * b
    bz = np.asarray(drift(z), dtype=float)
    tiny = eps * (np.abs(e) + dt * (np.abs(b) + 0.5 * np.abs(bz)))
    fz = e + dt * (b + 0.5 * bz)
    d = np.abs(fz - z)
    live = ~(d <= tiny)
    reached = [z.size]
    for _ in range(cap - 1):
        reached.append(np.count_nonzero(live))
        if reached[-1] == 0:
            break
        f2 = e + dt * (b + 0.5 * np.asarray(drift(fz), dtype=float))
        d2 = np.abs(f2 - fz)
        better = live & (d2 < d)
        np.copyto(z, fz, where=better)
        np.copyto(fz, f2, where=better)
        np.copyto(d, d2, where=better)
        live = better & ~(d2 <= tiny)
    steep = np.flatnonzero(~live & np.isfinite(d) & (d > tiny))
    if steep.size:
        tiny = eps * (np.abs(e) + dt * (np.abs(b) + 0.5 * np.abs(
            np.asarray(drift(z), dtype=float))))
        q = 0.5 * dt * drift.lipschitz_constant
        steep = steep[d[steep] > 8.0 * tiny[steep] / (1.0 - q)]
    z[~np.isfinite(d)] = np.nan
    bad = np.flatnonzero(live | ~np.isfinite(d))
    return z, d, bad, steep, -np.diff(reached, append=0)


def _sweep(eqn: EquationKind, drift: DriftSpec, grid: PointGrid,
           eta: np.ndarray, z: np.ndarray | None = None) -> tuple:
    """``eta + G * b(z)`` on ``(R, n_t + 1, n_x + 1)`` stacks, row by row.

    The drift is applied on the reported window and edge-extended once
    into a spatial margin, which for an elementwise drift is the drift of
    the edge-extended z.  The wave's margin is exactly n_t cells per
    side, its light cone from the window, and its sweep returns window
    rows; the heat's is :func:`_margin_cells`, and only the window of
    its rows is kept.  Without z the output is z itself: the wave's row
    i is explicit, and each heat node of row i is a fixed point for
    :func:`_settle`.  Returns the rows and, at index k, the count of heat
    nodes that took k evaluations.
    """
    if eqn is EquationKind.WAVE and not grid.is_aligned:
        raise ValueError(
            f"wave solver requires dx == dt (light-cone alignment); "
            f"got dx={grid.dx:.6g}, dt={grid.dt:.6g}")
    dt, q = grid.dt, 0.5 * grid.dt * drift.lipschitz_constant
    if z is None and eqn is EquationKind.HEAT and not q < 1.0:
        raise NumericalError(
            f"the heat march needs dt L / 2 < 1, but the grid's dt = {dt:.6g} "
            f"({grid.n_t} steps over horizon {grid.horizon:g}) and the "
            f"drift's L = {drift.lipschitz_constant:.6g} give {q:.6g}; use "
            f"more time steps")
    cap = 16 + (math.ceil(64.0 * math.log(2.0) / -math.log(q))
                if 0.0 < q < 1.0 else 0)
    counts, stuck = np.zeros(cap + 1, dtype=np.int64), {}
    mc = grid.n_t if eqn is EquationKind.WAVE else _margin_cells(grid)
    win = slice(mc, mc + grid.n_x + 1)
    out = np.empty_like(eta)
    out[:, 0] = eta[:, 0]
    src = out if z is None else z

    def drift_row(i):
        return np.pad(np.asarray(drift(src[:, i]), dtype=float),
                      ((0, 0), (mc, mc)), mode="edge")

    def wave_row(i, conv):
        np.add(eta[:, i], conv, out=out[:, i])
        return drift_row(i)

    def heat_row(i, b):
        if z is not None:
            f = drift_row(i)
            out[:, i] = eta[:, i] + dt * (b[:, win] + 0.5 * f[:, win])
            return f
        zi, d, bad, steep, took = _settle(drift, eta[:, i].ravel(),
                                          b[:, win].ravel(), dt, cap)
        out[:, i] = zi.reshape(out.shape[0], -1)
        counts[1:took.size + 1] += took
        steep = set(steep.tolist())
        for k in sorted([*bad.tolist(), *steep]):
            stuck.setdefault(k // out.shape[2], (i, k % out.shape[2],
                                                 float(d[k]), k in steep))
        return drift_row(i)

    # A field that overflows is reported below, not by numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if eqn is EquationKind.WAVE:
            _wave_sweep(wave_row, drift_row(0), grid.n_t, dt, grid.dx)
        else:
            _heat_sweep(heat_row, drift_row(0), grid.n_t,
                        _heat_kernel_weights(dt, grid.dx))
    blown = ~np.isfinite(out)
    if blown.any():
        r = int(np.flatnonzero(blown.any(axis=(1, 2)))[0])
        i, col = divmod(int(np.argmax(blown[r])), out.shape[2])
        raise NumericalError(
            f"replicate {r}: the field overflowed double precision; its "
            f"first non-finite node is (t, x) = ({grid.times()[i]:.6g}, "
            f"{grid.positions()[col]:.6g})")
    if stuck:
        r = min(stuck)
        i, col, last, steep = stuck[r]
        if steep:
            raise NumericalError(
                f"replicate {r}: the pointwise solve at node (t, x) = "
                f"({grid.times()[i]:.6g}, {grid.positions()[col]:.6g}) "
                f"stalled at increment {last:.3e}, far above its rounding: "
                f"the drift is steeper there than its declared Lipschitz "
                f"constant L = {drift.lipschitz_constant:.6g}")
        raise MaxIterExceededError(
            f"replicate {r}: the pointwise solve at node (t, x) = "
            f"({grid.times()[i]:.6g}, {grid.positions()[col]:.6g}) did not "
            f"settle within {cap} evaluations (last increment {last:.3e})",
            last_increment=last, iterations=cap, replicate_index=r,
            node=(i, col))
    return out, counts


def picard_apply(eqn: EquationKind, drift: DriftSpec, z: GridFunction,
                 eta: GridFunction) -> GridFunction:
    """One fixed-point application ``eta + G * b(z)`` on the grid, through
    the row sweep that :func:`solve_replicates` marches."""
    grid = z.grid
    if eta.grid != grid:
        raise ValueError("z and eta must live on the same grid")
    out, _ = _sweep(eqn, drift, grid, eta.values[None], z.values[None])
    return GridFunction(grid=grid, values=out[0])


def solve_replicates(eqn: EquationKind, drift: DriftSpec, grid: PointGrid,
                     eta_fields: np.ndarray) -> tuple:
    """Solve ``z = eta + G * b(z)`` for a stack ``(R, n_t + 1, n_x + 1)``
    by one forward march, ``z_0 = eta_0`` and row i from the rows before.

    Wave: row i is explicit, and one more :func:`picard_apply` leaves the
    field bit for bit.  Heat: row i is ``eta_i + dt (B_i + b(z_i) / 2)``,
    a scalar fixed point at each node that contracts by ``q = dt L / 2``,
    for any drift of Lipschitz constant L, bounded or not; q >= 1 raises
    :class:`NumericalError`.  Where the drift is steeper than its declared
    L, a node unsettled after ``16 + ceil(64 ln 2 / ln(1/q))`` evaluations
    raises :class:`MaxIterExceededError`, and a node whose increment stops
    shrinking far above rounding raises :class:`NumericalError`; either
    names the lowest replicate with such a node and its first one.  A
    field that overflows double precision raises :class:`NumericalError`
    naming its lowest replicate and first non-finite node.  Returns the
    fields and a :class:`MarchRecord`.
    """
    eta = np.asarray(eta_fields, dtype=float)
    want = (grid.n_t + 1, grid.n_x + 1)
    if eta.ndim != 3 or eta.shape[0] < 1 or eta.shape[1:] != want:
        raise ValueError(f"forcing stack shape {eta.shape} is not "
                         f"(R >= 1, {want[0]}, {want[1]})")
    if not np.all(np.isfinite(eta)):
        raise ValueError("forcing stack carries non-finite values")
    z, counts = _sweep(eqn, drift, grid, eta)
    return z, MarchRecord(
        "explicit_march" if eqn is EquationKind.WAVE else "pointwise_march",
        tuple(np.trim_zeros(counts, "b").tolist()))


# Registries of ready-made drifts and initial data for configs and tests.

def _built(registry: dict, what: str, kind: str, params: dict):
    """Return ``registry[kind](**params)``.  Each key of ``params`` must
    name a parameter of that builder and hold a finite number or a list
    of them; an unknown kind or key, or any other value, raises
    ``ValueError`` naming it."""
    try:
        builder = registry[kind]
    except KeyError:
        raise ValueError(f"unknown {what} kind {kind!r}; available: "
                         f"{sorted(registry)}") from None
    names = list(inspect.signature(builder).parameters)
    for key, value in params.items():
        if key not in names:
            raise ValueError(f"{what} {kind} has no parameter {key} (it "
                             f"takes {', '.join(names) or 'none'})")
        try:
            numbers = np.asarray(value)
        except ValueError:  # a ragged list
            numbers = np.asarray(None)
        if numbers.dtype.kind not in "iuf" or not np.all(
                np.isfinite(numbers)):
            raise ValueError(f"{what} {kind} parameter {key} must be a "
                             f"finite number or a list of them, got "
                             f"{reprlib.repr(value)}")
    return builder(**params)


def _drift_zero():
    return DriftSpec(func=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                     lipschitz_constant=0.0, name="zero")


def _drift_const(c=1.0):
    c = float(c)
    return DriftSpec(
        func=lambda z, _c=c: np.full_like(np.asarray(z, dtype=float), _c),
        lipschitz_constant=0.0, name=f"const({c:g})")


def _drift_linear(a=1.0):
    a = float(a)
    return DriftSpec(func=lambda z, _a=a: _a * np.asarray(z, dtype=float),
                     lipschitz_constant=abs(a), name=f"linear({a:g})")


def _drift_tanh(a=1.0):
    a = float(a)
    return DriftSpec(func=lambda z, _a=a: _a * np.tanh(np.asarray(z, dtype=float)),
                     lipschitz_constant=abs(a), name=f"tanh_scaled({a:g})")


def _drift_table(xs=None, ys=None):
    if xs is None or ys is None:
        raise ValueError("table drift needs xs and ys arrays")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("table drift needs matching 1-D xs, ys of size >= 2")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("table drift xs must be strictly increasing")
    lip = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))

    def interp(z):
        return np.interp(np.asarray(z, dtype=float), xs, ys)

    return DriftSpec(func=interp, lipschitz_constant=lip,
                     name=f"table({xs.size})")


DRIFT_KINDS = {
    "zero": _drift_zero,
    "const": _drift_const,
    "linear": _drift_linear,
    "tanh_scaled": _drift_tanh,
    "table": _drift_table,
}


def make_drift(kind: str, **params) -> DriftSpec:
    """Build a registry drift by name; see ``DRIFT_KINDS``.  A parameter
    the drift does not take, or one that is not finite, raises
    ``ValueError``."""
    return _built(DRIFT_KINDS, "drift", kind, params)


@dataclass(frozen=True)
class _Profile:
    """A registry profile: the vectorized function, and ``span(x, t)``,
    its integral over ``[x-t, x+t]`` in closed form."""

    func: object
    span: object

    def __call__(self, x):
        return self.func(x)


_erf = np.vectorize(math.erf, otypes=[float])


def _profile_zero():
    return _Profile(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x, t: np.zeros_like(x))


def _profile_const(c=1.0):
    c = float(c)
    return _Profile(
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        lambda x, t: np.full_like(x, 2.0 * c * t))


def _profile_sin(a=1.0, k=1.0):
    a, k = float(a), float(k)
    # (a/k) (cos k(x-t) - cos k(x+t)), as a product that does not
    # cancel at small t; the profile is 0 at k = 0.
    return _Profile(
        lambda x: a * np.sin(k * np.asarray(x, dtype=float)),
        lambda x, t: (2.0 * a / k * math.sin(k * t) * np.sin(k * x)
                      if k != 0.0 else np.zeros_like(x)))


def _profile_bump(a=1.0, w=1.0):
    a, w = float(a), float(w)
    if w <= 0.0:
        raise ValueError(f"bump width must be > 0, got {w}")
    s = w * math.sqrt(2.0)
    return _Profile(
        lambda x: a * np.exp(-np.asarray(x, dtype=float) ** 2
                             / (2.0 * w ** 2)),
        lambda x, t: (a * s * math.sqrt(math.pi) / 2.0
                      * (_erf((x + t) / s) - _erf((x - t) / s))))


_PROFILES = {"zero": _profile_zero, "const": _profile_const,
             "sin": _profile_sin, "bump": _profile_bump}


def make_initial_data(u0=("zero", {}), v0=None) -> InitialData:
    """Build initial data from registry profile descriptions.

    Each profile is ``(kind, params)``, kind one of ``zero``, ``const``,
    ``sin`` and ``bump``; ``v0=None`` means zero initial speed (skipped
    entirely).  A parameter the profile does not take, or one that is not
    finite, raises ``ValueError``.
    """
    u = _built(_PROFILES, "initial profile", *u0)
    v = None if v0 is None else _built(_PROFILES, "initial profile", *v0)
    return InitialData(u0=u, v0=v)
