"""Command-line interface for the fracfield library.

Subcommands cover the full pipeline: spectral constants, covariance
matrices, Gaussian field samples, deterministic solves, quasi-linear
simulation, regularity fits, roughness-continuity scans, and the sharp
increment-bound tables.  Runs are configured by a JSON file plus flag
overrides; with ``--out`` every table lands in CSV files next to a
``run_manifest.json`` pinning the resolved configuration and digests.

Exit codes: 0 on success, 1 on configuration or validation errors, 2 on
numerical failures (overflow, factorization, a heat node that does not
settle) and on a violated increment bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (Direction, ShiftKind, expected_hoelder_slope,
                       fit_hoelder, h_convergence, verify_lemma_bound)
from .covariance import _nodes, cov_matrix
from .det_solver import (InitialData, PointGrid, drift_truncate,
                         initial_term_grid, make_drift, make_initial_data,
                         solve_replicates)
from .errors import NumericalError
from .quasilinear import SimulationConfig, simulate, truncation_ladder_run
from .report import ARTIFACT_VERSION, render_csv, write_csv, write_json
from .sampler import factor_psd, sample_field
from .spectral import (EquationKind, HurstIndex, dalang_integral_closed,
                       noise_constant)

__all__ = ["main"]


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
    return make_initial_data(u0=u0, v0=profile("v0"))


def _eta_from_csv(path: str, grid: PointGrid) -> np.ndarray:
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
    want_t, want_x = grid.nodes()
    tol_t = 1e-9 * max(1.0, grid.horizon)
    tol_x = 1e-9 * max(1.0, grid.half_width)
    if (np.max(np.abs(raw[:, 0] - want_t)) > tol_t
            or np.max(np.abs(raw[:, 1] - want_x)) > tol_x):
        raise ValueError(
            f"eta CSV {path} nodes do not match the config grid")
    return raw[:, 2].reshape(grid.n_t + 1, grid.n_x + 1)


def _eta_from(cfg: dict, eqn: EquationKind, data: InitialData,
              grid: PointGrid) -> np.ndarray:
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
        return initial_term_grid(eqn, data, grid).values
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
    return values


def _points_from(cfg: dict) -> np.ndarray:
    pts = cfg.get("points")
    if pts is None:
        raise ValueError("config needs 'points': a list of [t, x] pairs")
    if not isinstance(pts, list) or not pts:
        raise ValueError("'points' must be a non-empty list of [t, x] pairs")
    for p in pts:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ValueError(f"point {p!r} is not a [t, x] pair")
    return _nodes(pts)


def _seed_from(cfg: dict, args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get("master_seed", 0)
    return int(seed)


def _replicates_from(cfg: dict, args) -> int:
    if args.replicates is not None:
        return args.replicates
    return int(cfg.get("n_replicates", 1))


@dataclass
class _Run:
    """What one subcommand produced; ``main`` writes, prints and times it.

    ``artifacts`` maps file names, in writing order, to a JSON document
    or, for a ``.csv`` name, to a ``(header, columns)`` table.  Without
    ``--out`` the ``lines`` are printed, or the first table when there
    are none.  ``diagnostics`` joins the manifest's diagnostics.
    """

    config: dict
    artifacts: dict
    lines: list | None = None
    master_seed: int | None = None
    code: int = 0
    diagnostics: dict = field(default_factory=dict)


def _field_table(grid: PointGrid, fields: np.ndarray) -> tuple:
    n_reps = fields.shape[0]
    replicate = np.repeat(np.arange(n_reps), fields[0].size)
    t, x = grid.nodes()
    return (("replicate", "t", "x", "value"),
            (replicate, np.tile(t, n_reps), np.tile(x, n_reps),
             fields.ravel()))


def _alpha_from(cfg: dict, args) -> tuple:
    """H and alpha = 1 - 2H, which the Dalang and lemma forms need in
    (-1, 1) but which rounds to 1 for H <= 2**-55."""
    h = _hurst_from(cfg, args)
    if h.spectral_exponent == 1.0:
        raise NumericalError(f"1 - 2H rounds to 1 at H = {h.value!r}; the "
                             f"Dalang and lemma forms need it in (-1, 1)")
    return h, h.spectral_exponent


def _cmd_constants(cfg: dict, args) -> _Run:
    h, alpha = _alpha_from(cfg, args)
    names = ("noise_constant", "spectral_exponent", "dalang_wave_t1",
             "dalang_heat_t1")
    values = (noise_constant(h), alpha,
              dalang_integral_closed(EquationKind.WAVE, alpha, 1.0),
              dalang_integral_closed(EquationKind.HEAT, alpha, 1.0))
    return _Run(
        config={"hurst": h.value},
        artifacts={"constants.csv": (("name", "value"), (names, values))},
        lines=[f"{name} {value:.6g}" for name, value in zip(names, values)])


def _cmd_cov(cfg: dict, args) -> _Run:
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    points = _points_from(cfg)
    cov = cov_matrix(eqn, h, points)
    n = len(points)
    index = np.arange(n)
    t, x = points.T
    table = (("i", "j", "t_i", "x_i", "t_j", "x_j", "cov"),
             (np.repeat(index, n), np.tile(index, n),
              np.repeat(t, n), np.repeat(x, n), np.tile(t, n), np.tile(x, n),
              cov.entries.ravel()))
    return _Run(config={"equation": eqn.value, "hurst": h.value,
                        "points": points.tolist()},
                artifacts={"cov_matrix.csv": table})


def _cmd_sample(cfg: dict, args) -> _Run:
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    points = _points_from(cfg)
    seed = _seed_from(cfg, args)
    n_rep = _replicates_from(cfg, args)
    cov = cov_matrix(eqn, h, points)
    factor = factor_psd(cov)
    sample = sample_field(factor, seed, n_rep)
    k = len(points)
    t, x = points.T
    table = (("replicate", "point_index", "t", "x", "value"),
             (np.repeat(np.arange(n_rep), k), np.tile(np.arange(k), n_rep),
              np.tile(t, n_rep), np.tile(x, n_rep), sample.values.ravel()))
    return _Run(config={"equation": eqn.value, "hurst": h.value,
                        "master_seed": seed, "n_replicates": n_rep,
                        "jitter_used": factor.jitter_used,
                        "points": points.tolist()},
                artifacts={"samples.csv": table}, master_seed=seed)


def _cmd_solve_det(cfg: dict, args) -> _Run:
    eqn = _eqn_from(cfg, args)
    grid = _grid_from(cfg)
    drift = _drift_from(cfg)
    data = _initial_from(cfg)
    eta = _eta_from(cfg, eqn, data, grid)
    fields, solve = solve_replicates(eqn, drift, grid, eta[None])
    table = (("t", "x", "value"), (*grid.nodes(), fields[0].ravel()))
    return _Run(config={
        "equation": eqn.value, "drift": drift.name,
        "eta": cfg.get("eta", {"kind": "initial"}),
        "grid": {"horizon": grid.horizon, "half_width": grid.half_width,
                 "n_t": grid.n_t, "n_x": grid.n_x}},
        artifacts={"field.csv": table},
        diagnostics={"solve": asdict(solve)})


def _sim_config(cfg: dict, args) -> SimulationConfig:
    ladder = cfg.get("truncation_ladder")
    return SimulationConfig(
        eqn=_eqn_from(cfg, args), hurst=_hurst_from(cfg, args),
        drift=_drift_from(cfg), data=_initial_from(cfg), grid=_grid_from(cfg),
        master_seed=_seed_from(cfg, args),
        n_replicates=_replicates_from(cfg, args),
        truncation_ladder=tuple(ladder) if ladder else None)


def _describe_sim(config: SimulationConfig) -> dict:
    return {
        "equation": config.eqn.value, "hurst": config.hurst.value,
        "drift": config.drift.name, "master_seed": config.master_seed,
        "n_replicates": config.n_replicates,
        "truncation_ladder": list(config.truncation_ladder)
        if config.truncation_ladder else None,
        "grid": {"horizon": config.grid.horizon,
                 "half_width": config.grid.half_width,
                 "n_t": config.grid.n_t, "n_x": config.grid.n_x}}


def _cmd_simulate(cfg: dict, args) -> _Run:
    config = _sim_config(cfg, args)
    described = _describe_sim(config)
    if cfg.get("truncation_ladder") is not None:
        result = truncation_ladder_run(config)
        return _Run(config=described, master_seed=config.master_seed,
                    artifacts={
                        "ladder_deviations.csv": (
                            ("truncation_level", "deviation_vs_reference"),
                            (result.levels, result.deviation_vs_reference)),
                        "ladder_consecutive.csv": (
                            ("truncation_level", "deviation_to_next"),
                            (result.levels[:-1],
                             result.deviation_consecutive))},
                    diagnostics={"solves": [asdict(s) for s in
                                            result.solves]})
    result = simulate(config)
    described["jitter_used"] = result.jitter_used
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
    return _Run(config=described, master_seed=config.master_seed,
                artifacts={
                    "fields.csv": _field_table(config.grid, result.fields),
                    "noise.csv": _field_table(config.grid, result.noise),
                    "summary.json": summary},
                diagnostics={"solve": asdict(result.solve)})


def _cmd_hoelder(cfg: dict, args) -> _Run:
    eqn = _eqn_from(cfg, args)
    h = _hurst_from(cfg, args)
    sub = cfg.get("hoelder", {})
    direction = Direction.parse(args.direction or sub.get("direction", "time"))
    p = float(args.p if args.p is not None else sub.get("p", 2.0))
    base = sub.get("base", [1.0, 0.0])
    lags = sub.get("lags")
    fit = fit_hoelder(eqn, h, direction, p=p,
                      base_time=float(base[0]), base_pos=float(base[1]),
                      lags=lags)
    expected = expected_hoelder_slope(eqn, h, direction, p)
    tolerance = float(sub.get("tolerance", 0.1))
    passed = (not np.isnan(fit.slope)
              and abs(fit.slope - expected) <= tolerance)
    fit_doc = {
        "equation": eqn.value, "hurst": h.value,
        "direction": direction.value, "p": p, "base": list(base),
        "slope": fit.slope, "expected_slope": expected,
        "tolerance": tolerance, "within_tolerance": bool(passed),
        "r_squared": fit.r_squared, "stderr_slope": fit.stderr_slope}
    summary = (f"slope {fit.slope:.6g} expected {expected:.6g} "
               f"r2 {fit.r_squared:.6g} "
               f"{'ok' if passed else 'OUT_OF_TOLERANCE'}")
    return _Run(config=fit_doc, lines=[summary], artifacts={
        "hoelder_moments.csv": (("lag", "moment"), (fit.lags, fit.moments)),
        "hoelder_fit.json": fit_doc})


def _cmd_hconv(cfg: dict, args) -> _Run:
    eqn = _eqn_from(cfg, args)
    sub = cfg.get("hconv", {})
    hurst = args.hurst if args.hurst is not None else cfg.get("hurst", 0.5)
    reference = float(sub.get("reference", hurst))
    hursts = sub.get("hursts")
    if hursts is None:
        hursts = [reference + 0.2 * 2.0 ** -k for k in range(0, 8)]
    res = h_convergence(eqn, hursts, reference)
    ratio = float(res.sups[-1] / res.sups[0]) if res.sups[0] > 0 else 0.0
    decreasing = bool(np.all(np.diff(res.sups) < 0.0))
    passed = decreasing and float(res.sups[-1]) < float(res.sups[0])
    summary_obj = {"equation": eqn.value, "reference": reference,
                   "hursts": [h.value for h in res.hursts],
                   "sups": [float(s) for s in res.sups],
                   "strictly_decreasing": decreasing,
                   "final_over_first": ratio,
                   "converging": bool(passed)}
    summary = (f"final_over_first {ratio:.6g} "
               f"{'ok' if passed else 'NOT_CONVERGING'}")
    return _Run(config=summary_obj, lines=[summary], artifacts={
        "hconv_sups.csv": (("hurst", "sup_distance"),
                           (summary_obj["hursts"], summary_obj["sups"])),
        "hconv_summary.json": summary_obj})


def _cmd_verify_lemmas(cfg: dict, args) -> _Run:
    sub = cfg.get("lemmas", {})
    horizon = float(sub.get("horizon", 1.0))
    shifts = sub.get("shifts")
    alphas = sub.get("alphas")
    if alphas is None:
        if getattr(args, "hurst", None) is not None or "hurst" in cfg:
            alphas = [_alpha_from(cfg, args)[1]]
        else:
            alphas = [-0.5, 0.0, 0.5]
    alphas = [float(a) for a in alphas]
    rows = []
    summary = {}
    all_ok = True
    for kind in ShiftKind:
        for eqn in EquationKind:
            for alpha in alphas:
                rep = verify_lemma_bound(kind, eqn, alpha,
                                         horizon=horizon,
                                         shifts=shifts)
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
    lines = [f"{k} max_ratio {v['max_ratio']:.6g} "
             f"{'ok' if v['within_bound'] else 'VIOLATED'}"
             for k, v in summary.items() if isinstance(v, dict)]
    lines.append(f"all_within {all_ok}")
    header = ("kind", "equation", "alpha", "shift", "lhs", "rhs", "ratio")
    # An empty alpha list leaves a table with the header only.
    columns = tuple(zip(*rows)) or ((),) * len(header)
    return _Run(config={"alphas": alphas, "horizon": horizon,
                        "summary": summary},
                lines=lines, code=0 if all_ok else 2,
                artifacts={"lemma_margins.csv": (header, columns),
                           "summary.json": summary})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(prog="fracfield",
                     description="Fractional-noise stochastic heat and "
                                 "wave equation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, hurst=True, eqn=False, seed=False, reps=False,
               direction=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory for CSV artifacts")
        if hurst:
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
           hurst=False, eqn=True)
    simulate_parser = sub.add_parser("simulate",
                                     help="quasi-linear simulation")
    common(simulate_parser, eqn=True, seed=True, reps=True)
    simulate_parser.add_argument(
        "--threads", type=_positive_int,
        help="accepted for compatibility and ignored; replicates are "
             "solved as one batch")
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


def _print(run: _Run) -> None:
    if run.lines is not None:
        for line in run.lines:
            print(line)
        return
    header, columns = next(content for name, content in run.artifacts.items()
                           if name.endswith(".csv"))
    sys.stdout.writelines(render_csv(header, columns))


def _write(run: _Run, args, started: float, computed: float) -> None:
    """Write the artifacts and, last, the manifest that pins them.

    ``started`` and ``computed`` are the clock readings before and after
    the handler ran; the manifest records the handler's and the writes'
    times apart, and each artifact's render-and-write time and size.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, writes = {}, {}
    for name, content in run.artifacts.items():
        path = out_dir / name
        begun = time.perf_counter()
        if name.endswith(".csv"):
            outputs[name] = write_csv(path, *content)
        else:
            outputs[name] = write_json(path, content)
        writes[name] = {"s": time.perf_counter() - begun,
                        "bytes": path.stat().st_size}
    written = time.perf_counter()
    write_json(out_dir / "run_manifest.json", {
        "subcommand": args.subcommand,
        "artifact_version": ARTIFACT_VERSION,
        "master_seed": run.master_seed,
        "config": run.config,
        "outputs": outputs,
        "diagnostics": {"compute_s": computed - started,
                        "write_s": written - computed,
                        "write": writes, **run.diagnostics},
        "wall_clock_seconds": time.perf_counter() - started})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        run = _HANDLERS[args.subcommand](_load_config(args.config), args)
        computed = time.perf_counter()
        if args.out is None:
            _print(run)
        else:
            _write(run, args, started, computed)
    except NumericalError as exc:
        print(f"fracfield: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"fracfield: invalid configuration: {exc}", file=sys.stderr)
        return 1
    return run.code


if __name__ == "__main__":
    sys.exit(main())
