"""Deterministic fixed-point solver for the quasi-linear integral equation.

Given a forcing field eta on a space-time grid, the solver iterates

``z_{n+1} = eta + G * b(z_n)``

where ``G *`` is space-time convolution with the fundamental solution,
discretized by trapezoid rules on the grid.  Contraction is factorial in
the iteration count, so convergence certificates based on the drift's
Lipschitz constant are available alongside the raw increment test.

:func:`solve_replicates` is the one Picard loop, over a stack of forcings
each solved as if alone, one forcing being a stack of one.
The heat step is a recursion of spatial stencil convolutions that takes
one dot product per output over that output's edge-padded window, so a
row constant in x stays exactly constant; the wave step sweeps running
sums along the light cone's diagonals.  Neither mixes replicates.

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

from .errors import MaxIterExceededError
from .spectral import EquationKind

__all__ = [
    "DriftSpec",
    "InitialData",
    "PointGrid",
    "GridFunction",
    "PicardInfo",
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
class PicardInfo:
    """Convergence record of a fixed-point solve that met its tolerance."""

    iterations: int
    increments: tuple
    used_certificate: bool


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


def _convolve_heat(f: np.ndarray, dt: float, w: np.ndarray) -> np.ndarray:
    """``G * f`` for the heat kernel on ``(R, n_t + 1, width)`` fields.

    Trapezoid in time composed with per-step spatial convolutions,
    evaluated by the semigroup recursion ``B_{i+1} = K * (B_i + c_i
    f_i)``.  Every step edge-pads ``B_i + c_i f_i`` into one ``(R, width +
    2r)`` buffer and takes one dot product of the symmetric stencil w
    with each output's window of it, through a sliding-window view built
    once: only the kept outputs are computed, and each depends on its
    own replicate and window alone.  Above 11 taps the bits are those of
    ``np.convolve`` of the padded row; at 11 or fewer numpy's unrolled
    small-kernel loop sums in another order.  The working set is
    O(R * width) besides the output.
    """
    n_rep, n_rows, width = f.shape
    r = (w.size - 1) // 2
    buf = np.empty((n_rep, width + 2 * r))
    inner = buf[:, r:r + width]
    windows = np.lib.stride_tricks.sliding_window_view(buf, w.size, axis=1)
    out = np.zeros_like(f)
    b = np.zeros_like(f[:, 0])
    for i in range(1, n_rows):
        c = 0.5 if i == 1 else 1.0
        np.add(b, c * f[:, i - 1], out=inner)
        buf[:, :r] = inner[:, :1]
        buf[:, r + width:] = inner[:, -1:]
        np.vecdot(windows, w, out=b)
        out[:, i] = dt * (b + 0.5 * f[:, i])
    return out


def _convolve_wave(f: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """``G * f`` for the wave kernel on ``(R, n_t + 1, width)`` fields.

    The kernel is half the indicator of the light cone, so the update at
    node (i, l) is half the 2-D trapezoid of f over the cone of width
    ``i - j`` cells.  One sweep over the time rows keeps four running
    sums along the cone's two diagonals: of the x-prefix sums ``d`` of
    the edge-padded row ``g``, and of ``g`` itself.  Row j enters them
    shifted by j columns, and output row i reads them, as they stand
    after rows ``0 .. i-1``, through contiguous slices.  The work is
    O(R * n_t * width) and the working set O(R * width) besides the
    output.
    """
    n_rep, n_rows, width = f.shape
    n_t = n_rows - 1
    n_g = width + 2 * n_t
    g = np.empty((n_rep, n_g))
    d = np.zeros((n_rep, n_g + 1))

    def pad_row(j):
        # Row j of f edge-padded by n_t cells on each side, and its
        # x-prefix sums from 0.
        g[:, :n_t] = f[:, j, :1]
        g[:, n_t:n_t + width] = f[:, j]
        g[:, n_t + width:] = f[:, j, -1:]
        np.cumsum(g, axis=1, out=d[:, 1:])

    pad_row(0)
    g0, d0 = g.copy(), d.copy()
    ad, dg, ga, gd = d.copy(), d.copy(), g.copy(), g.copy()
    out = np.zeros_like(f)
    scale = 0.5 * dt * dx
    for i in range(1, n_rows):
        # Row i reads the cone's right (hi) and left (lo) edges.
        hi = slice(i + n_t + 1, i + n_t + 1 + width)
        hi_g = slice(i + n_t, i + n_t + width)
        lo = slice(n_t - i, n_t - i + width)
        full = ad[:, hi] - dg[:, lo] - 0.5 * (ga[:, hi_g] + gd[:, lo])
        row0 = d0[:, hi] - d0[:, lo] - 0.5 * (g0[:, hi_g] + g0[:, lo])
        out[:, i] = scale * (full - 0.5 * row0)
        if i == n_t:
            break
        # Row i enters the diagonal sums shifted by i columns; the
        # columns it does not reach are never read again.
        pad_row(i)
        ad[:, i:] += d[:, :n_g + 1 - i]
        dg[:, :n_g + 1 - i] += d[:, i:]
        ga[:, i:] += g[:, :n_g - i]
        gd[:, :n_g - i] += g[:, i:]
    return out


def _picard_step(eqn: EquationKind, drift: DriftSpec, grid: PointGrid,
                 z: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """One application ``eta + G * b(z)`` on ``(R, n_t + 1, n_x + 1)`` fields.

    The drift is applied on the reported window and its values extended
    into the spatial margin by edge replication, which for an elementwise
    drift equals the drift of the edge-extended z; the result is
    convolved there, and only the reported window returned.
    """
    mc = _margin_cells(grid)
    f = np.pad(np.asarray(drift(z), dtype=float), ((0, 0), (0, 0), (mc, mc)),
               mode="edge")
    if eqn is EquationKind.HEAT:
        conv = _convolve_heat(f, grid.dt,
                              _heat_kernel_weights(grid.dt, grid.dx))
    else:
        conv = _convolve_wave(f, grid.dt, grid.dx)
    return eta + conv[:, :, mc:mc + grid.n_x + 1]


def picard_apply(eqn: EquationKind, drift: DriftSpec, z: GridFunction,
                 eta: GridFunction) -> GridFunction:
    """One fixed-point application ``eta + G * b(z)`` on the grid.

    z is extended into the spatial margin by edge replication before
    convolving; only the reported window is returned.
    """
    grid = z.grid
    if eta.grid != grid:
        raise ValueError("z and eta must live on the same grid")
    _check_solvable(eqn, drift, grid)
    out = _picard_step(eqn, drift, grid, z.values[None], eta.values[None])
    return GridFunction(grid=grid, values=out[0])


def _check_solvable(eqn: EquationKind, drift: DriftSpec,
                    grid: PointGrid) -> None:
    if eqn is EquationKind.HEAT and not drift.is_bounded:
        raise ValueError(
            "the heat solver requires a bounded drift; truncate an "
            "unbounded drift with drift_truncate first")
    if eqn is EquationKind.WAVE and not grid.is_aligned:
        raise ValueError(
            f"wave solver requires dx == dt (light-cone alignment); "
            f"got dx={grid.dx:.6g}, dt={grid.dt:.6g}")


def _contraction_ratio(eqn: EquationKind, lip: float, horizon: float,
                       n: int) -> float:
    if eqn is EquationKind.WAVE:
        return 2.0 * lip * horizon ** 2 / (n + 1)
    return lip * horizon / (n + 1)


def solve_replicates(eqn: EquationKind, drift: DriftSpec, grid: PointGrid,
                     eta_fields: np.ndarray, *, tol: float = 1e-8,
                     max_iter: int = 60) -> tuple:
    """Solve ``z = eta + G * b(z)`` for a stack ``(R, n_t + 1, n_x + 1)``.

    Iteration starts at eta.  A replicate stops, where it would alone, once
    its sup-norm increment drops below ``tol`` or the factorial certificate
    ``d_n rho_n / (1 - rho_n) < tol`` (``rho_n`` from the drift's Lipschitz
    constant) bounds the rest.  Returns the fields and one
    :class:`PicardInfo` per replicate.  A mis-shaped or non-finite stack
    raises ``ValueError`` before iterating; past ``max_iter``,
    :class:`MaxIterExceededError` names the lowest replicate still active.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _check_solvable(eqn, drift, grid)
    eta = np.asarray(eta_fields, dtype=float)
    want = (grid.n_t + 1, grid.n_x + 1)
    if eta.ndim != 3 or eta.shape[0] < 1 or eta.shape[1:] != want:
        raise ValueError(f"forcing stack shape {eta.shape} is not "
                         f"(R >= 1, {want[0]}, {want[1]})")
    if not np.all(np.isfinite(eta)):
        raise ValueError("forcing stack carries non-finite values")
    z = eta.copy()
    increments = np.zeros((max_iter, z.shape[0]))
    iterations = np.full(z.shape[0], max_iter)
    certified = np.zeros(z.shape[0], dtype=bool)
    active = np.arange(z.shape[0])
    for n in range(1, max_iter + 1):
        z_old = z[active]
        z_new = _picard_step(eqn, drift, grid, z_old, eta[active])
        d = np.max(np.abs(z_new - z_old), axis=(1, 2))
        z[active] = z_new
        increments[n - 1, active] = d
        done = d < tol
        rho = _contraction_ratio(eqn, drift.lipschitz_constant,
                                 grid.horizon, n)
        if rho < 0.5:
            cert = ~done & (d * rho / (1.0 - rho) < tol)
            certified[active] = cert
            done |= cert
        iterations[active[done]] = n
        active = active[~done]
        if active.size == 0:
            break
    if active.size:
        r = int(active[0])
        last = float(increments[-1, r])
        raise MaxIterExceededError(
            f"replicate {r}: fixed-point iteration did not reach tol={tol} "
            f"within {max_iter} iterations (last increment {last:.3e})",
            last_increment=last, iterations=max_iter, replicate_index=r)
    return z, tuple(PicardInfo(iterations=int(k),
                               increments=tuple(increments[:k, r].tolist()),
                               used_certificate=bool(c))
                    for r, (k, c) in enumerate(zip(iterations, certified)))


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
