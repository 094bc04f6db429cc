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

Initial data are registry profiles (:func:`make_initial_data`), each with
its heat-semigroup average and its integral over a light-cone interval in
closed form, so :func:`initial_term` is exact in both equations and runs
no quadrature.
"""

from __future__ import annotations

import inspect
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
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
        # The solver applies func to arrays, so it must map the probe
        # array to an array of its shape.
        try:
            vals = np.asarray(self.func(_PROBE_Z), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"drift must be vectorized; on an array it "
                             f"raised {exc!r}") from exc
        if vals.shape != _PROBE_Z.shape:
            raise ValueError(f"drift must be vectorized; shape "
                             f"{_PROBE_Z.shape} gave {vals.shape}")
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
    """Initial condition: position u0 and, for the wave equation, speed v0,
    each a registry profile as :func:`make_initial_data` builds it."""

    u0: object
    v0: object | None = None

    def __post_init__(self):
        for name, profile in (("u0", self.u0), ("v0", self.v0)):
            if not (isinstance(profile, _Profile)
                    or (name == "v0" and profile is None)):
                raise ValueError(
                    f"{name} must be a registry profile built by "
                    f"make_initial_data, got {reprlib.repr(profile)}")


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


def initial_term(eqn: EquationKind, data: InitialData, t: float, x):
    """Deterministic part of the mild solution from the initial data.

    Heat: the Gaussian average ``E[u0(x + sqrt(t) Z)]``.  Wave: the
    traveling-wave average ``(u0(x+t) + u0(x-t))/2`` plus half the
    integral of v0 over ``[x-t, x+t]``.  Both are the profiles' closed
    forms.  The heat equation is first order in time, so initial data
    with a v0 is refused for it.
    """
    if eqn is EquationKind.HEAT and data.v0 is not None:
        raise ValueError("the heat equation takes no initial speed; "
                         "remove v0 or use the wave equation")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be >= 0 and finite, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        out = data.u0(x_arr)
    elif eqn is EquationKind.HEAT:
        out = data.u0.smooth(x_arr, t)
    elif eqn is EquationKind.WAVE:
        out = 0.5 * (data.u0(x_arr + t) + data.u0(x_arr - t))
        if data.v0 is not None:
            out = out + 0.5 * data.v0.span(x_arr, t)
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


# A node's code in the march's failure mask: 0, or why it failed.
_SHRINKING, _STALLED, _OVERFLOWED = 1, 2, 3


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
    drift is steeper than its declared L.  Returns z, the increments,
    each node's failure code (``_SHRINKING`` if still shrinking after
    ``cap`` evaluations, ``_STALLED`` for such a steep stall, else 0)
    and the count of nodes that took 1, 2, ...
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
    finite = np.isfinite(d)
    why = np.where(live & finite, _SHRINKING, 0).astype(np.uint8)
    stall = np.flatnonzero(~live & finite & (d > tiny))
    if stall.size:
        # The rounding of the terms at the kept iterate bounds the stall.
        bz = np.asarray(drift(z[stall]), dtype=float)
        tiny = eps * (np.abs(e[stall])
                      + dt * (np.abs(b[stall]) + 0.5 * np.abs(bz)))
        q = 0.5 * dt * drift.lipschitz_constant
        why[stall[d[stall] > 8.0 * tiny / (1.0 - q)]] = _STALLED
    z[~finite] = np.nan
    return z, d, why, -np.diff(reached, append=0)


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
    :func:`_settle`.  A node fails if it is not finite or its fixed
    point did not settle; the lowest replicate with a failed node raises
    :class:`NumericalError` naming its first one, rows first.  Returns
    the rows and, at index k, the count of heat nodes that took k
    evaluations.
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
    counts = np.zeros(cap + 1, dtype=np.int64)
    mc = grid.n_t if eqn is EquationKind.WAVE else _margin_cells(grid)
    win = slice(mc, mc + grid.n_x + 1)
    out = np.empty_like(eta)
    out[:, 0] = eta[:, 0]
    src = out if z is None else z
    # A failure code per node, and the increments of each heat row
    # with a node that did not settle.
    fail, increments = np.zeros(out.shape, dtype=np.uint8), {}

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
        zi, d, why, took = _settle(drift, eta[:, i].ravel(),
                                   b[:, win].ravel(), dt, cap)
        out[:, i] = zi.reshape(out.shape[0], -1)
        fail[:, i] = why.reshape(out.shape[0], -1)
        counts[1:took.size + 1] += took
        if why.any():
            increments[i] = d.reshape(out.shape[0], -1)
        return drift_row(i)

    # A field that overflows is reported below, not by numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if eqn is EquationKind.WAVE:
            _wave_sweep(wave_row, drift_row(0), grid.n_t, dt, grid.dx)
        else:
            _heat_sweep(heat_row, drift_row(0), grid.n_t,
                        _heat_kernel_weights(dt, grid.dx))
    fail[~np.isfinite(out)] = _OVERFLOWED
    failed = np.flatnonzero(fail)
    if failed.size:
        r, i, col = np.unravel_index(failed[0], fail.shape)
        why = fail[r, i, col]
        if why == _OVERFLOWED:
            what = "overflowed double precision; the drift declares"
        else:
            last = increments[i][r, col]
            what = (f"did not settle within {cap} evaluations (last "
                    f"increment {last:.3e})" if why == _SHRINKING else
                    f"stalled at increment {last:.3e} within {cap} "
                    f"evaluations, far above its rounding")
            what += ": the drift is steeper there than its declared"
        raise NumericalError(
            f"replicate {r}: the node (t, x) = ({grid.times()[i]:.6g}, "
            f"{grid.positions()[col]:.6g}) {what} Lipschitz constant "
            f"L = {drift.lipschitz_constant:.6g}")
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
    :class:`NumericalError`.  A node fails if it overflows double
    precision or, where the drift is steeper than its declared L, if it
    is still shrinking after ``16 + ceil(64 ln 2 / ln(1/q))`` evaluations
    or its increment stops shrinking far above rounding.  The march then
    raises one :class:`NumericalError` that names the lowest replicate
    with a failed node, its first one, rows first, and why it failed.
    Returns the fields and a :class:`MarchRecord`.
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
    name a parameter of that builder and hold a finite number, or a list
    of them for a parameter whose default is not a number; an unknown
    kind or key, or any other value, raises ``ValueError`` naming it."""
    try:
        builder = registry[kind]
    except KeyError:
        raise ValueError(f"unknown {what} kind {kind!r}; available: "
                         f"{sorted(registry)}") from None
    parameters = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in parameters:
            raise ValueError(f"{what} {kind} has no parameter {key} (it "
                             f"takes {', '.join(parameters) or 'none'})")
        # A parameter with a number for its default takes one number.
        scalar = isinstance(parameters[key].default, (int, float))
        try:
            numbers = np.asarray(value)
        except ValueError:  # a ragged list
            numbers = np.asarray(None)
        if (numbers.dtype.kind not in "iuf" or (scalar and numbers.ndim)
                or not np.all(np.isfinite(numbers))):
            raise ValueError(f"{what} {kind} parameter {key} must be a "
                             f"finite number"
                             f"{'' if scalar else ' or a list of them'}, "
                             f"got {reprlib.repr(value)}")
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
    """A registry profile: the vectorized function, and in closed form its
    Gaussian average ``smooth(x, t) = E[func(x + sqrt(t) Z)]`` and
    ``span(x, t)``, its integral over ``[x-t, x+t]``."""

    func: object
    smooth: object
    span: object

    def __call__(self, x):
        return self.func(x)


_erf = np.vectorize(math.erf, otypes=[float])


def _profile_zero():
    return _Profile(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x, t: np.zeros_like(x),
        lambda x, t: np.zeros_like(x))


def _profile_const(c=1.0):
    c = float(c)
    return _Profile(
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        lambda x, t: np.full_like(x, c),
        lambda x, t: np.full_like(x, 2.0 * c * t))


def _profile_sin(a=1.0, k=1.0):
    a, k = float(a), float(k)
    return _Profile(
        lambda x: a * np.sin(k * np.asarray(x, dtype=float)),
        lambda x, t: a * math.exp(-0.5 * k * k * t) * np.sin(k * x),
        # (a/k) (cos k(x-t) - cos k(x+t)), as a product that does not
        # cancel at small t; the profile is 0 at k = 0.
        lambda x, t: (2.0 * a / k * math.sin(k * t) * np.sin(k * x)
                      if k != 0.0 else np.zeros_like(x)))


def _profile_bump(a=1.0, w=1.0):
    a, w = float(a), float(w)
    if w <= 0.0:
        raise ValueError(f"bump width must be > 0, got {w}")
    # Below about 1.5e-154, w^2 underflows and u0(0) is 0/0.
    if w * w < sys.float_info.min:
        raise ValueError(f"bump width must be >= "
                         f"{math.sqrt(sys.float_info.min):.2g}, where its "
                         f"square is a normal double, got {w}")
    s = w * math.sqrt(2.0)
    return _Profile(
        lambda x: a * np.exp(-np.asarray(x, dtype=float) ** 2
                             / (2.0 * w ** 2)),
        # A Gaussian of variance w^2 averaged over N(0, t) is one of
        # variance w^2 + t.
        lambda x, t: (a * w / math.sqrt(w * w + t)
                      * np.exp(-x ** 2 / (2.0 * (w * w + t)))),
        lambda x, t: (a * s * math.sqrt(math.pi) / 2.0
                      * (_erf((x + t) / s) - _erf((x - t) / s))))


_PROFILES = {"zero": _profile_zero, "const": _profile_const,
             "sin": _profile_sin, "bump": _profile_bump}


def make_initial_data(u0=("zero", {}), v0=None) -> InitialData:
    """Build initial data from registry profile descriptions.

    Each profile is ``(kind, params)``, kind one of ``zero``, ``const``,
    ``sin`` and ``bump``; ``v0=None`` means zero initial speed (skipped
    entirely).  A description of another form, a parameter the profile
    does not take, or one that is not finite, raises ``ValueError``.
    """
    def built(name, description):
        if not (isinstance(description, (tuple, list))
                and len(description) == 2 and isinstance(description[0], str)
                and isinstance(description[1], dict)):
            raise ValueError(
                f"{name} must be a (kind, params) pair such as "
                f"('sin', {{'k': 2.0}}), got {reprlib.repr(description)}")
        return _built(_PROFILES, "initial profile", *description)

    return InitialData(u0=built("u0", u0),
                       v0=None if v0 is None else built("v0", v0))
