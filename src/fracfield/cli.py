"""Command-line interface for the fracfield library.

Subcommands cover the full pipeline: spectral constants, covariance
matrices, Gaussian field samples, deterministic solves, quasi-linear
simulation, regularity fits, roughness-continuity scans, and the sharp
increment-bound tables.  Runs are configured by a JSON file plus flag
overrides; with ``--out`` every table lands in CSV files next to a
``run_manifest.json`` pinning the resolved configuration and digests.

Exit codes: 0 on success, 1 on configuration or validation errors, 2 on
numerical failures (quadrature, factorization, non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (Direction, ShiftKind, expected_hoelder_slope,
                       fit_hoelder, h_convergence, verify_lemma_bound)
from .covariance import cov_matrix
from .det_solver import (GridFunction, InitialData, PointGrid, drift_truncate,
                         initial_term_grid, make_drift, make_initial_data,
                         solve_F)
from .errors import NumericalError
from .quasilinear import SimulationConfig, simulate, truncation_ladder_run
from .report import ARTIFACT_VERSION, format_value, write_csv, write_json
from .sampler import factor_psd, sample_field
from .spectral import (DEFAULT_QUAD, EquationKind, HurstIndex,
                       QuadratureSpec, dalang_integral_closed,
                       noise_constant)

__all__ = ["main"]

_ENV_THREADS = "FRACFIELD_THREADS"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get(_ENV_THREADS)
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"{_ENV_THREADS} must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"{_ENV_THREADS} must be >= 1, got {n}")
        return n
    return 1


def _eqn_from(cfg: dict, args) -> EquationKind:
    name = getattr(args, "equation", None) or cfg.get("equation")
    if name is None:
        raise ValueError("no equation given; use --equation or the config")
    return EquationKind.parse(name)


def _hurst_from(cfg: dict, args) -> HurstIndex:
    value = getattr(args, "hurst", None)
    if value is None:
        value = cfg.get("hurst")
    if value is None:
        raise ValueError("no roughness index given; use --hurst or the config")
    return HurstIndex(float(value))


def _quad_from(cfg: dict) -> QuadratureSpec:
    spec = cfg.get("quad")
    if spec is None:
        return DEFAULT_QUAD
    if not isinstance(spec, dict):
        raise ValueError("config key 'quad' must be an object")
    return QuadratureSpec(**spec)


def _grid_from(cfg: dict) -> PointGrid:
    spec = cfg.get("grid")
    if not isinstance(spec, dict):
        raise ValueError("config needs a 'grid' object "
                         "(horizon, half_width, n_t, n_x)")
    return PointGrid(horizon=float(spec["horizon"]),
                     half_width=float(spec["half_width"]),
                     n_t=int(spec["n_t"]), n_x=int(spec["n_x"]))


def _drift_from(cfg: dict):
    spec = cfg.get("drift", {"kind": "zero", "params": {}})
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("config key 'drift' must be an object with 'kind'")
    drift = make_drift(spec["kind"], **spec.get("params", {}))
    level = spec.get("truncation_level")
    if level is not None:
        drift = drift_truncate(drift, float(level))
    return drift


def _initial_from(cfg: dict) -> InitialData:
    spec = cfg.get("initial")
    if spec is None:
        return make_initial_data()
    if not isinstance(spec, dict):
        raise ValueError("config key 'initial' must be an object")

    def profile(key):
        sub = spec.get(key)
        if sub is None:
            return None
        return (sub["kind"], sub.get("params", {}))

    u0 = profile("u0") or ("zero", {})
    return make_initial_data(
        u0=u0, v0=profile("v0"),
        holder_exponent=float(spec.get("holder_exponent", 1.0)),
        bounded=bool(spec.get("bounded", True)))


def _eta_from_csv(path: str, grid: PointGrid) -> GridFunction:
    """Load a forcing field from a long-format t,x,value CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if [c.strip() for c in header.split(",")[:3]] != ["t", "x",
                                                              "value"]:
                raise ValueError(
                    f"eta CSV {path} must start with header t,x,value")
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read eta CSV {path}: {exc}") from exc
    if raw.size == 0 or raw.shape[1] != 3:
        raise ValueError(f"eta CSV {path} needs columns t,x,value")
    expected = (grid.n_t + 1) * (grid.n_x + 1)
    if raw.shape[0] != expected:
        raise ValueError(f"eta CSV {path} has {raw.shape[0]} rows, "
                         f"the grid needs {expected}")
    raw = raw[np.lexsort((raw[:, 1], raw[:, 0]))]
    want_t = np.repeat(grid.times(), grid.n_x + 1)
    want_x = np.tile(grid.positions(), grid.n_t + 1)
    tol_t = 1e-9 * max(1.0, grid.horizon)
    tol_x = 1e-9 * max(1.0, grid.half_width)
    if (np.max(np.abs(raw[:, 0] - want_t)) > tol_t
            or np.max(np.abs(raw[:, 1] - want_x)) > tol_x):
        raise ValueError(
            f"eta CSV {path} nodes do not match the config grid")
    values = raw[:, 2].reshape(grid.n_t + 1, grid.n_x + 1)
    return GridFunction(grid=grid, values=values)


def _eta_from(cfg: dict, eqn: EquationKind, data: InitialData,
              grid: PointGrid) -> GridFunction:
    """Resolve the forcing: a CSV file or a named built-in profile."""
    spec = cfg.get("eta")
    if spec is None:
        spec = {"kind": "initial"}
    if not isinstance(spec, dict):
        raise ValueError("config key 'eta' must be an object")
    if "csv" in spec:
        return _eta_from_csv(str(spec["csv"]), grid)
    kind = spec.get("kind")
    if kind == "initial":
        return initial_term_grid(eqn, data, grid)
    shape = (grid.n_t + 1, grid.n_x + 1)
    if kind == "zero":
        values = np.zeros(shape)
    elif kind == "constant":
        values = np.full(shape, float(spec.get("value", 1.0)))
    elif kind == "sin_time":
        rate = float(spec.get("rate", 1.0))
        values = np.broadcast_to(np.sin(rate * grid.times())[:, None],
                                 shape).copy()
    else:
        raise ValueError(f"unknown eta kind {kind!r}; use 'initial', "
                         f"'zero', 'constant', 'sin_time', or 'csv'")
    return GridFunction(grid=grid, values=values)


def _points_from(cfg: dict) -> list:
    pts = cfg.get("points")
    if pts is None:
        raise ValueError("config needs 'points': a list of [t, x] pairs")
    if not isinstance(pts, list) or not pts:
        raise ValueError("'points' must be a non-empty list of [t, x] pairs")
    out = []
    for p in pts:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ValueError(f"point {p!r} is not a [t, x] pair")
        out.append((float(p[0]), float(p[1])))
    return out


def _seed_from(cfg: dict, args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get("master_seed", 0)
    return int(seed)


def _emit(args, name: str, header, rows, manifest: dict,
          stdout_lines=None):
    """Write one table to --out, or print it when no --out is given."""
    if args.out is None:
        if stdout_lines is not None:
            for line in stdout_lines:
                print(line)
        else:
            print(",".join(str(h) for h in header))
            for row in rows:
                print(",".join(format_value(v) for v in row))
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = write_csv(out_dir / name, header, rows)
    manifest["outputs"][name] = digest


def _finish(args, manifest: dict, started: float) -> None:
    if args.out is None:
        return
    manifest["wall_clock_seconds"] = time.perf_counter() - started
    write_json(Path(args.out) / "run_manifest.json", manifest)


def _manifest(subcommand: str, resolved: dict, master_seed=None) -> dict:
    return {"subcommand": subcommand,
            "artifact_version": ARTIFACT_VERSION,
            "master_seed": master_seed,
            "config": resolved,
            "outputs": {}}


def _cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    h = _hurst_from(cfg, args)
    started = time.perf_counter()
    alpha = h.spectral_exponent
    rows = [("noise_constant", noise_constant(h)),
            ("spectral_exponent", alpha),
            ("dalang_wave_t1", dalang_integral_closed(
                EquationKind.WAVE, alpha, 1.0)),
            ("dalang_heat_t1", dalang_integral_closed(
                EquationKind.HEAT, alpha, 1.0))]
    manifest = _manifest("constants", {"hurst": h.value})
    lines = [f"{name} {value:.6g}" for name, value in rows]
    _emit(args, "constants.csv", ("name", "value"), rows, manifest,
          stdout_lines=lines)
    _finish(args, manifest, started)
    return 0


def _cmd_cov(args) -> int:
    cfg = _load_config(args.config)
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    points = _points_from(cfg)
    started = time.perf_counter()
    cov = cov_matrix(eqn, h, points)
    rows = []
    n = len(points)
    for i in range(n):
        for j in range(n):
            rows.append((i, j, points[i][0], points[i][1],
                         points[j][0], points[j][1],
                         float(cov.entries[i, j]),
                         float(cov.err_estimates[i, j])))
    manifest = _manifest("cov", {
        "equation": eqn.value, "hurst": h.value,
        "points": [list(p) for p in points]})
    _emit(args, "cov_matrix.csv",
          ("i", "j", "t_i", "x_i", "t_j", "x_j", "cov", "err_estimate"),
          rows, manifest)
    _finish(args, manifest, started)
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    points = _points_from(cfg)
    seed = _seed_from(cfg, args)
    n_rep = args.replicates or int(cfg.get("n_replicates", 1))
    started = time.perf_counter()
    cov = cov_matrix(eqn, h, points)
    factor = factor_psd(cov)
    sample = sample_field(factor, seed, n_rep)
    rows = []
    for r in range(n_rep):
        for k, (t, x) in enumerate(points):
            rows.append((r, k, t, x, float(sample.values[r, k])))
    manifest = _manifest("sample", {
        "equation": eqn.value, "hurst": h.value, "master_seed": seed,
        "n_replicates": n_rep, "jitter_used": factor.jitter_used,
        "points": [list(p) for p in points]}, master_seed=seed)
    _emit(args, "samples.csv",
          ("replicate", "point_index", "t", "x", "value"), rows, manifest)
    _finish(args, manifest, started)
    return 0


def _cmd_solve_det(args) -> int:
    cfg = _load_config(args.config)
    eqn = _eqn_from(cfg, args)
    grid = _grid_from(cfg)
    drift = _drift_from(cfg)
    data = _initial_from(cfg)
    tol = float(cfg.get("tol", 1e-8))
    max_iter = int(cfg.get("max_iter", 60))
    started = time.perf_counter()
    eta = _eta_from(cfg, eqn, data, grid)
    field, info = solve_F(eqn, drift, eta, tol=tol, max_iter=max_iter,
                          return_info=True)
    rows = []
    for i, t in enumerate(grid.times()):
        for j, x in enumerate(grid.positions()):
            rows.append((float(t), float(x), float(field.values[i, j])))
    manifest = _manifest("solve-det", {
        "equation": eqn.value, "drift": drift.name, "tol": tol,
        "max_iter": max_iter,
        "eta": cfg.get("eta", {"kind": "initial"}),
        "grid": {"horizon": grid.horizon, "half_width": grid.half_width,
                 "n_t": grid.n_t, "n_x": grid.n_x},
        "iterations": info.iterations,
        "used_certificate": info.used_certificate})
    _emit(args, "field.csv", ("t", "x", "value"), rows, manifest)
    _finish(args, manifest, started)
    return 0


def _field_rows(grid: PointGrid, fields: np.ndarray) -> list:
    rows = []
    times = grid.times()
    positions = grid.positions()
    for r in range(fields.shape[0]):
        for i, t in enumerate(times):
            for j, x in enumerate(positions):
                rows.append((r, float(t), float(x),
                             float(fields[r, i, j])))
    return rows


def _sim_config(cfg: dict, args, need_ladder: bool) -> SimulationConfig:
    eqn = _eqn_from(cfg, args)
    ladder = cfg.get("truncation_ladder")
    if need_ladder and ladder is None:
        raise ValueError("this run needs 'truncation_ladder' in the config")
    if not need_ladder:
        ladder = None
    return SimulationConfig(
        eqn=eqn, hurst=_hurst_from(cfg, args), drift=_drift_from(cfg),
        data=_initial_from(cfg), grid=_grid_from(cfg),
        master_seed=_seed_from(cfg, args),
        n_replicates=args.replicates or int(cfg.get("n_replicates", 1)),
        truncation_ladder=tuple(ladder) if ladder else None,
        tol=float(cfg.get("tol", 1e-8)),
        max_iter=int(cfg.get("max_iter", 60)))


def _describe_sim(config: SimulationConfig) -> dict:
    return {
        "equation": config.eqn.value, "hurst": config.hurst.value,
        "drift": config.drift.name, "master_seed": config.master_seed,
        "n_replicates": config.n_replicates,
        "tol": config.tol, "max_iter": config.max_iter,
        "truncation_ladder": list(config.truncation_ladder)
        if config.truncation_ladder else None,
        "grid": {"horizon": config.grid.horizon,
                 "half_width": config.grid.half_width,
                 "n_t": config.grid.n_t, "n_x": config.grid.n_x}}


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    threads = _resolve_threads(args)
    started = time.perf_counter()
    if cfg.get("truncation_ladder") is not None:
        config = _sim_config(cfg, args, need_ladder=True)
        result = truncation_ladder_run(config, threads=threads)
        manifest = _manifest("simulate", _describe_sim(config),
                             master_seed=config.master_seed)
        manifest["config"]["threads"] = threads
        rows = [(lvl, float(dev)) for lvl, dev in
                zip(result.levels, result.deviation_vs_reference)]
        _emit(args, "ladder_deviations.csv",
              ("truncation_level", "deviation_vs_reference"), rows, manifest)
        crows = [(result.levels[k], float(d))
                 for k, d in enumerate(result.deviation_consecutive)]
        if args.out is not None:
            digest = write_csv(Path(args.out) / "ladder_consecutive.csv",
                               ("truncation_level", "deviation_to_next"),
                               crows)
            manifest["outputs"]["ladder_consecutive.csv"] = digest
        _finish(args, manifest, started)
        return 0
    config = _sim_config(cfg, args, need_ladder=False)
    result = simulate(config, threads=threads)
    manifest = _manifest("simulate", _describe_sim(config),
                         master_seed=config.master_seed)
    manifest["config"]["threads"] = threads
    manifest["config"]["jitter_used"] = result.jitter_used
    _emit(args, "fields.csv", ("replicate", "t", "x", "value"),
          _field_rows(config.grid, result.fields), manifest)
    n_reps = result.fields.shape[0]
    mean = result.fields.mean(axis=0)
    variance = (result.fields.var(axis=0, ddof=1) if n_reps > 1
                else np.zeros_like(mean))
    summary = {"n_replicates": int(n_reps),
               "times": [float(t) for t in config.grid.times()],
               "positions": [float(x) for x in config.grid.positions()],
               "mean": mean.tolist(),
               "variance": variance.tolist(),
               "se": np.sqrt(variance / n_reps).tolist()}
    if args.out is not None:
        digest = write_csv(Path(args.out) / "noise.csv",
                           ("replicate", "t", "x", "value"),
                           _field_rows(config.grid, result.noise))
        manifest["outputs"]["noise.csv"] = digest
        digest = write_json(Path(args.out) / "summary.json", summary)
        manifest["outputs"]["summary.json"] = digest
    _finish(args, manifest, started)
    return 0


def _cmd_hoelder(args) -> int:
    cfg = _load_config(args.config)
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    quad = _quad_from(cfg)
    sub = cfg.get("hoelder", {})
    direction = Direction.parse(args.direction or sub.get("direction", "time"))
    p = float(args.p if args.p is not None else sub.get("p", 2.0))
    base = sub.get("base", [1.0, 0.0])
    lags = sub.get("lags")
    started = time.perf_counter()
    fit = fit_hoelder(eqn, h, direction, p=p,
                      base_time=float(base[0]), base_pos=float(base[1]),
                      lags=lags, quad=quad)
    expected = expected_hoelder_slope(eqn, h, direction, p)
    tolerance = float(sub.get("tolerance", 0.1))
    passed = (not np.isnan(fit.slope)
              and abs(fit.slope - expected) <= tolerance)
    rows = list(zip(fit.lags, fit.moments))
    manifest = _manifest("hoelder", {
        "equation": eqn.value, "hurst": h.value,
        "direction": direction.value, "p": p, "base": list(base),
        "slope": fit.slope, "expected_slope": expected,
        "tolerance": tolerance, "within_tolerance": bool(passed),
        "r_squared": fit.r_squared, "stderr_slope": fit.stderr_slope})
    summary = (f"slope {fit.slope:.6g} expected {expected:.6g} "
               f"r2 {fit.r_squared:.6g} "
               f"{'ok' if passed else 'OUT_OF_TOLERANCE'}")
    _emit(args, "hoelder_moments.csv", ("lag", "moment"), rows, manifest,
          stdout_lines=[summary])
    if args.out is not None:
        digest = write_json(Path(args.out) / "hoelder_fit.json",
                            manifest["config"])
        manifest["outputs"]["hoelder_fit.json"] = digest
    _finish(args, manifest, started)
    return 0


def _cmd_hconv(args) -> int:
    cfg = _load_config(args.config)
    eqn = _eqn_from(cfg, args)
    sub = cfg.get("hconv", {})
    reference = float(sub.get("reference",
                              cfg.get("hurst", 0.5)))
    hursts = sub.get("hursts")
    if hursts is None:
        hursts = [reference + 0.2 * 2.0 ** -k for k in range(0, 8)]
    started = time.perf_counter()
    res = h_convergence(eqn, hursts, reference)
    rows = [(h.value, float(s)) for h, s in zip(res.hursts, res.sups)]
    ratio = float(res.sups[-1] / res.sups[0]) if res.sups[0] > 0 else 0.0
    decreasing = bool(np.all(np.diff(res.sups) < 0.0))
    passed = decreasing and float(res.sups[-1]) < float(res.sups[0])
    summary_obj = {"equation": eqn.value, "reference": reference,
                   "hursts": [h.value for h in res.hursts],
                   "sups": [float(s) for s in res.sups],
                   "strictly_decreasing": decreasing,
                   "final_over_first": ratio,
                   "converging": bool(passed)}
    manifest = _manifest("hconv", summary_obj)
    summary = (f"final_over_first {ratio:.6g} "
               f"{'ok' if passed else 'NOT_CONVERGING'}")
    _emit(args, "hconv_sups.csv", ("hurst", "sup_distance"), rows,
          manifest, stdout_lines=[summary])
    if args.out is not None:
        digest = write_json(Path(args.out) / "hconv_summary.json",
                            summary_obj)
        manifest["outputs"]["hconv_summary.json"] = digest
    _finish(args, manifest, started)
    return 0


def _cmd_verify_lemmas(args) -> int:
    cfg = _load_config(args.config)
    quad = _quad_from(cfg)
    sub = cfg.get("lemmas", {})
    horizon = float(sub.get("horizon", 1.0))
    shifts = sub.get("shifts")
    alphas = sub.get("alphas")
    if alphas is None:
        if getattr(args, "hurst", None) is not None or "hurst" in cfg:
            alphas = [_hurst_from(cfg, args).spectral_exponent]
        else:
            alphas = [-0.5, 0.0, 0.5]
    alphas = [float(a) for a in alphas]
    started = time.perf_counter()
    rows = []
    summary = {}
    all_ok = True
    for kind in ShiftKind:
        for eqn in EquationKind:
            for alpha in alphas:
                rep = verify_lemma_bound(kind, eqn, alpha,
                                         horizon=horizon,
                                         shifts=shifts, quad=quad)
                ok = rep.max_ratio <= 1.0 + 1e-6 and rep.lhs_monotone
                all_ok = all_ok and ok
                key = f"{kind.value}:{eqn.value}:alpha={alpha:g}"
                summary[key] = {"max_ratio": rep.max_ratio,
                                "lhs_monotone": rep.lhs_monotone,
                                "within_bound": bool(ok)}
                for row in rep.rows:
                    rows.append((kind.value, eqn.value, alpha, row.shift,
                                 row.lhs, row.rhs, row.ratio))
    summary["all_within"] = bool(all_ok)
    manifest = _manifest("verify-lemmas", {
        "alphas": alphas, "horizon": horizon, "summary": summary})
    lines = [f"{k} max_ratio {v['max_ratio']:.6g} "
             f"{'ok' if v['within_bound'] else 'VIOLATED'}"
             for k, v in summary.items() if isinstance(v, dict)]
    lines.append(f"all_within {all_ok}")
    _emit(args, "lemma_margins.csv",
          ("kind", "equation", "alpha", "shift", "lhs", "rhs", "ratio"),
          rows, manifest, stdout_lines=lines)
    if args.out is not None:
        digest = write_json(Path(args.out) / "summary.json", summary)
        manifest["outputs"]["summary.json"] = digest
    _finish(args, manifest, started)
    return 0 if all_ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracfield",
                     description="Fractional-noise stochastic heat and "
                                 "wave equation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, eqn=False, seed=False, reps=False, threads=False,
               direction=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory for CSV artifacts")
        p.add_argument("--hurst", "--H", dest="hurst", type=float,
                       help="roughness index in (0, 1)")
        if eqn:
            p.add_argument("--equation", choices=["heat", "wave"],
                           help="which equation to use")
        if seed:
            p.add_argument("--seed", type=int, help="master seed")
        if reps:
            p.add_argument("--replicates", type=int,
                           help="number of replicates")
        if threads:
            p.add_argument("--threads", type=int,
                           help=f"accepted for compatibility and recorded "
                                f"in the manifest; replicates are solved "
                                f"as one batch (default: ${_ENV_THREADS} "
                                f"or 1)")
        if direction:
            p.add_argument("--direction", choices=["time", "space"])
            p.add_argument("--p", type=float, help="moment order")

    common(sub.add_parser("constants",
                          help="spectral constants for one index"))
    common(sub.add_parser("cov", help="covariance matrix on points"),
           eqn=True)
    common(sub.add_parser("sample", help="Gaussian field samples"),
           eqn=True, seed=True, reps=True)
    common(sub.add_parser("solve-det",
                          help="deterministic fixed-point solve"),
           eqn=True)
    common(sub.add_parser("simulate", help="quasi-linear simulation"),
           eqn=True, seed=True, reps=True, threads=True)
    common(sub.add_parser("hoelder", help="regularity exponent fit"),
           eqn=True, direction=True)
    common(sub.add_parser("hconv",
                          help="covariance continuity in the index"),
           eqn=True)
    common(sub.add_parser("verify-lemmas",
                          help="sharp increment bound tables"))
    return parser


_HANDLERS = {
    "constants": _cmd_constants,
    "cov": _cmd_cov,
    "sample": _cmd_sample,
    "solve-det": _cmd_solve_det,
    "simulate": _cmd_simulate,
    "hoelder": _cmd_hoelder,
    "hconv": _cmd_hconv,
    "verify-lemmas": _cmd_verify_lemmas,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.subcommand]
    try:
        return handler(args)
    except NumericalError as exc:
        print(f"fracfield: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"fracfield: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
