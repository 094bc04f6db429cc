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
filled by constant edge extension.  For the wave equation the light cone
makes reported values exact for truthfully extended data; for the heat
equation the Gaussian tails reach farther, a documented approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import MaxIterExceededError, NumericalError
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
    "INITIAL_KINDS",
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
        Global Lipschitz bound of b; validated on a probe grid.
    bound : float or None
        ``sup |b|`` when finite, None for unbounded drifts.
    name : str
        Display name for configs and manifests.
    """

    func: object
    lipschitz_constant: float
    bound: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.lipschitz_constant < 0.0:
            raise ValueError("Lipschitz constant must be >= 0, got "
                             f"{self.lipschitz_constant}")
        if self.bound is not None and self.bound < 0.0:
            raise ValueError(f"bound must be >= 0, got {self.bound}")
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
        if self.bound is not None:
            vmax = float(np.abs(vals).max())
            if vmax > self.bound * (1.0 + 1e-12) + 1e-12:
                raise ValueError(
                    f"drift exceeds its declared bound on the probe: "
                    f"{vmax:.6g} > {self.bound:.6g}")

    def __call__(self, z):
        return self.func(z)

    @property
    def is_bounded(self) -> bool:
        return self.bound is not None


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


def initial_term(eqn: EquationKind, data: InitialData, t: float, x):
    """Deterministic part of the mild solution from the initial data.

    Heat: Gaussian average ``E[u0(x + sqrt(t) Z)]`` via Gauss-Hermite.
    Wave: traveling-wave average ``(u0(x+t) + u0(x-t))/2`` plus half the
    integral of v0 over ``[x-t, x+t]``: in closed form for a registry
    profile, by adaptive quadrature for any other callable.
    """
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        out = _vec_eval(data.u0, x_arr, "u0")
    elif eqn is EquationKind.HEAT:
        pts = x_arr[:, None] + math.sqrt(2.0 * t) * _HERMITE_NODES[None, :]
        vals = _vec_eval(data.u0, pts, "u0")
        out = (vals @ _HERMITE_WEIGHTS) / math.sqrt(math.pi)
    elif eqn is EquationKind.WAVE:
        out = 0.5 * (_vec_eval(data.u0, x_arr + t, "u0")
                     + _vec_eval(data.u0, x_arr - t, "u0"))
        if isinstance(data.v0, _Profile):
            out = out + 0.5 * data.v0.span(x_arr, t)
        elif data.v0 is not None:
            # Imported here, its only use: it pulls in scipy.optimize,
            # which costs every process about 0.2 s at start-up.
            from scipy.integrate import quad as _scipy_quad
            integrals = np.empty_like(out)
            for i, xi in enumerate(x_arr):
                val, _ = _scipy_quad(data.v0, xi - t, xi + t,
                                     epsabs=1e-12, epsrel=1e-10, limit=200)
                integrals[i] = val
            out = out + 0.5 * integrals
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
    for negative ones, which is exactly ``clip``; the result is bounded
    by ``level`` and keeps the original Lipschitz constant.
    """
    if not level > 0.0:
        raise ValueError(f"truncation level must be > 0, got {level}")
    inner = spec.func
    lvl = float(level)

    def clipped(z):
        return np.clip(inner(z), -lvl, lvl)

    bound = lvl if spec.bound is None else min(spec.bound, lvl)
    return DriftSpec(func=clipped,
                     lipschitz_constant=spec.lipschitz_constant,
                     bound=bound, name=f"{spec.name}|clip{lvl:g}")


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
    """The wave kernel's ``G * f``, row by row.

    The kernel is half the indicator of the light cone, so ``G * f`` at
    node (i, l) is half the 2-D trapezoid of f over the cone of width
    ``i - j`` cells, and reads only the rows before i.  ``f0`` is row 0,
    ``(R, width)``; for i = 1 .. n_t, ``rows(i, out_i)`` takes row i of
    ``G * f`` and returns row i of f.  The sweep keeps four running sums
    along the cone's two diagonals: of the x-prefix sums ``d`` of the
    edge-padded row ``g``, and of ``g`` itself.  Row j enters them
    shifted by j columns, and output row i reads them, as they stand
    after rows ``0 .. i-1``, through contiguous slices.  The work is
    O(R * n_t * width) and the working set O(R * width).
    """
    n_rep, width = f0.shape
    n_g = width + 2 * n_t
    g = np.empty((n_rep, n_g))
    d = np.zeros((n_rep, n_g + 1))

    def pad_row(row):
        # The row edge-padded by n_t cells on each side, and its x-prefix
        # sums from 0.
        g[:, :n_t] = row[:, :1]
        g[:, n_t:n_t + width] = row
        g[:, n_t + width:] = row[:, -1:]
        np.cumsum(g, axis=1, out=d[:, 1:])

    pad_row(f0)
    g0, d0 = g.copy(), d.copy()
    ad, dg, ga, gd = d.copy(), d.copy(), g.copy(), g.copy()
    scale = 0.5 * dt * dx
    for i in range(1, n_t + 1):
        # Row i reads the cone's right (hi) and left (lo) edges.
        hi = slice(i + n_t + 1, i + n_t + 1 + width)
        hi_g = slice(i + n_t, i + n_t + width)
        lo = slice(n_t - i, n_t - i + width)
        full = ad[:, hi] - dg[:, lo] - 0.5 * (ga[:, hi_g] + gd[:, lo])
        row0 = d0[:, hi] - d0[:, lo] - 0.5 * (g0[:, hi_g] + g0[:, lo])
        f_i = rows(i, scale * (full - 0.5 * row0))
        if i == n_t:
            break
        # Row i enters the diagonal sums shifted by i columns; the
        # columns it does not reach are never read again.
        pad_row(f_i)
        ad[:, i:] += d[:, :n_g + 1 - i]
        dg[:, :n_g + 1 - i] += d[:, i:]
        ga[:, i:] += g[:, :n_g - i]
        gd[:, :n_g - i] += g[:, i:]


def _settle(drift: DriftSpec, e: np.ndarray, b: np.ndarray, dt: float,
            cap: int) -> tuple:
    """Solve ``z = e + dt * (b + 0.5 * drift(z))`` at every node of flat
    arrays, each node on its own.

    The map is written as the heat step writes a row.  From ``z = e + dt
    * b`` a node iterates it until its increment is 0, at most ``eps``
    times its terms' magnitudes, or no smaller than the one before (in
    exact arithmetic it shrinks by ``dt L / 2 < 1``), and keeps the
    iterate of smallest increment; a node whose increment is not finite
    has overflowed and gets NaN.  Returns z, the increments, the flat
    indices of nodes unsettled after ``cap`` evaluations or with a
    non-finite increment, and the count of nodes that took 1, 2, ...
    """
    z = e + dt * b
    bz = np.asarray(drift(z), dtype=float)
    tiny = np.finfo(float).eps * (np.abs(e) + dt * (np.abs(b)
                                                    + 0.5 * np.abs(bz)))
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
    z[~np.isfinite(d)] = np.nan
    bad = np.flatnonzero(live | ~np.isfinite(d))
    return z, d, bad, -np.diff(reached, append=0)


def _sweep(eqn: EquationKind, drift: DriftSpec, grid: PointGrid,
           eta: np.ndarray, z: np.ndarray | None = None) -> tuple:
    """``eta + G * b(z)`` on ``(R, n_t + 1, n_x + 1)`` stacks, row by row.

    The drift is applied on the reported window and edge-extended into a
    spatial margin, which for an elementwise drift is the drift of the
    edge-extended z; only the window is returned.  Without z the output
    is z itself: the wave's row i is explicit, and each heat node of row
    i is a fixed point for :func:`_settle`.  Returns the rows and, at
    index k, the count of heat nodes that took k evaluations.
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
    mc = _margin_cells(grid)
    win = slice(mc, mc + grid.n_x + 1)
    out = np.empty_like(eta)
    out[:, 0] = eta[:, 0]
    src = out if z is None else z

    def drift_row(i):
        return np.pad(np.asarray(drift(src[:, i]), dtype=float),
                      ((0, 0), (mc, mc)), mode="edge")

    def wave_row(i, conv):
        np.add(eta[:, i], conv[:, win], out=out[:, i])
        return drift_row(i)

    def heat_row(i, b):
        if z is not None:
            f = drift_row(i)
            out[:, i] = eta[:, i] + dt * (b[:, win] + 0.5 * f[:, win])
            return f
        zi, d, bad, took = _settle(drift, eta[:, i].ravel(),
                                   b[:, win].ravel(), dt, cap)
        out[:, i] = zi.reshape(out.shape[0], -1)
        counts[1:took.size + 1] += took
        for k in bad.tolist():
            stuck.setdefault(k // out.shape[2],
                             (i, k % out.shape[2], float(d[k])))
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
        i, col, last = stuck[r]
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
    :class:`NumericalError`, and a node unsettled after ``16 + 64 ln 2 /
    ln(1/q)`` evaluations raises :class:`MaxIterExceededError` naming the
    lowest such replicate and its first such node.  A field that
    overflows double precision raises :class:`NumericalError` naming its
    lowest replicate and first non-finite node.  Returns the fields and a
    :class:`MarchRecord`.
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

def _drift_zero(**_):
    return DriftSpec(func=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                     lipschitz_constant=0.0, bound=0.0, name="zero")


def _drift_const(c: float = 1.0, **_):
    c = float(c)
    return DriftSpec(
        func=lambda z, _c=c: np.full_like(np.asarray(z, dtype=float), _c),
        lipschitz_constant=0.0, bound=abs(c), name=f"const({c:g})")


def _drift_linear(a: float = 1.0, **_):
    a = float(a)
    return DriftSpec(func=lambda z, _a=a: _a * np.asarray(z, dtype=float),
                     lipschitz_constant=abs(a), bound=None,
                     name=f"linear({a:g})")


def _drift_tanh(a: float = 1.0, **_):
    a = float(a)
    return DriftSpec(func=lambda z, _a=a: _a * np.tanh(np.asarray(z, dtype=float)),
                     lipschitz_constant=abs(a), bound=abs(a),
                     name=f"tanh_scaled({a:g})")


def _drift_table(xs=None, ys=None, **_):
    if xs is None or ys is None:
        raise ValueError("table drift needs xs and ys arrays")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("table drift needs matching 1-D xs, ys of size >= 2")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("table drift xs must be strictly increasing")
    lip = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))
    bound = float(np.max(np.abs(ys)))

    def interp(z):
        return np.interp(np.asarray(z, dtype=float), xs, ys)

    return DriftSpec(func=interp, lipschitz_constant=lip, bound=bound,
                     name=f"table({xs.size})")


DRIFT_KINDS = {
    "zero": _drift_zero,
    "const": _drift_const,
    "linear": _drift_linear,
    "tanh_scaled": _drift_tanh,
    "table": _drift_table,
}


def make_drift(kind: str, **params) -> DriftSpec:
    """Build a registry drift by name; see ``DRIFT_KINDS``."""
    try:
        builder = DRIFT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown drift kind {kind!r}; available: "
            f"{sorted(DRIFT_KINDS)}") from None
    return builder(**params)


@dataclass(frozen=True)
class _Profile:
    """A registry profile: the vectorized function, and ``span(x, t)``,
    its integral over ``[x-t, x+t]`` in closed form."""

    func: object
    span: object

    def __call__(self, x):
        return self.func(x)


_erf = np.vectorize(math.erf, otypes=[float])


def _profile(kind: str, **params) -> _Profile:
    if kind == "zero":
        return _Profile(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x, t: np.zeros_like(x))
    if kind == "const":
        c = float(params.get("c", 1.0))
        return _Profile(
            lambda x: np.full_like(np.asarray(x, dtype=float), c),
            lambda x, t: np.full_like(x, 2.0 * c * t))
    if kind == "sin":
        a = float(params.get("a", 1.0))
        k = float(params.get("k", 1.0))
        # (a/k) (cos k(x-t) - cos k(x+t)), as a product that does not
        # cancel at small t; the profile is 0 at k = 0.
        return _Profile(
            lambda x: a * np.sin(k * np.asarray(x, dtype=float)),
            lambda x, t: (2.0 * a / k * math.sin(k * t) * np.sin(k * x)
                          if k != 0.0 else np.zeros_like(x)))
    if kind == "bump":
        a = float(params.get("a", 1.0))
        w = float(params.get("w", 1.0))
        if w <= 0.0:
            raise ValueError(f"bump width must be > 0, got {w}")
        s = w * math.sqrt(2.0)
        return _Profile(
            lambda x: a * np.exp(-np.asarray(x, dtype=float) ** 2
                                 / (2.0 * w ** 2)),
            lambda x, t: (a * s * math.sqrt(math.pi) / 2.0
                          * (_erf((x + t) / s) - _erf((x - t) / s))))
    raise ValueError(f"unknown initial profile {kind!r}; available: "
                     f"{sorted(INITIAL_KINDS)}")


INITIAL_KINDS = ("zero", "const", "sin", "bump")


def make_initial_data(u0=("zero", {}), v0=None) -> InitialData:
    """Build initial data from registry profile descriptions.

    Each profile is ``(kind, params)`` with kind in ``INITIAL_KINDS``;
    ``v0=None`` means zero initial speed (skipped entirely).
    """
    kind, params = u0
    u = _profile(kind, **params)
    v = None
    if v0 is not None:
        vkind, vparams = v0
        v = _profile(vkind, **vparams)
    return InitialData(u0=u, v0=v)
