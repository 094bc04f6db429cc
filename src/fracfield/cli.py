"""Command-line interface for the fracfield library.

Subcommands cover the full pipeline: spectral constants, covariance
matrices, Gaussian field samples, deterministic solves, quasi-linear
simulation, regularity fits, roughness-continuity scans, and the sharp
increment-bound tables.  Runs are configured by a JSON file plus flag
overrides; with ``--out`` every table lands in CSV files next to a
``run_manifest.json`` pinning the resolved configuration and digests.

Exit codes: 0 on success, 1 on configuration or validation errors, on
output that cannot be written and, without a message, on a closed
stdout, 2 on numerical failures (overflow, factorization, a heat node
that does not settle), on running out of memory and on a violated
increment bound.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import reprlib
import sys
import time
import warnings
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
from .sampler import _openblas_thread_api, factor_psd, sample_field
from .spectral import (EquationKind, HurstIndex, dalang_integral_closed,
                       noise_constant)

__all__ = ["main"]


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


_REQUIRED = object()


def _finite(value) -> bool:
    """Whether a JSON value is a number within float range: not nan, not
    infinite, not an int too large for a float, and not true or false."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _pair(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(map(_finite, value)))


# Each kind of setting: what it must be, its test, and the conversion of
# a value that passes (None returns the value as it is).
_KINDS = {
    "object": ("an object", lambda v: isinstance(v, dict), None),
    "text": ("a string", lambda v: isinstance(v, str), None),
    "equation": ("'heat' or 'wave'", lambda v: isinstance(v, str),
                 EquationKind.parse),
    "index": ("a roughness index in (0, 1)", _finite,
              lambda v: HurstIndex(float(v))),
    "int": ("an integer", lambda v: _finite(v) and float(v).is_integer(),
            int),
    "number": ("a finite number", _finite, float),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_finite, v)),
                lambda v: [float(x) for x in v]),
    "pair": ("a [t, x] pair of finite numbers", _pair, None),
    "pairs": ("a non-empty list of [t, x] pairs",
              lambda v: isinstance(v, list) and v and all(map(_pair, v)),
              None),
}


def _setting(cfg: dict, args, key: str, kind: str, default=_REQUIRED):
    """The setting ``key``: its flag's value, else the config's (``key``
    is a dotted path through objects), else ``default``, returned as it
    is; JSON null counts as absent.  A given value must be of ``kind``
    (see ``_KINDS``) and is returned converted.  Every failure, a missing
    required setting or a section that is not an object included, raises
    ``ValueError`` naming the key."""
    parent, _, name = key.rpartition(".")
    section = _setting(cfg, args, parent, "object", {}) if parent else cfg
    value = getattr(args, key, None)
    if value is None:
        value = section.get(name)
    what, test, convert = _KINDS[kind]
    if value is None:
        if default is not _REQUIRED:
            return default
        use = f"{_FLAGS[key][0][0]} or " if hasattr(args, key) else ""
        raise ValueError(f"no {key} given ({what}); use {use}the config")
    if not test(value):
        if isinstance(value, float) and not _finite(value):
            what = "finite"
        raise ValueError(f"{key} must be {what}, got {reprlib.repr(value)}")
    return value if convert is None else convert(value)


def _section(cfg: dict, args, key: str, spec: dict) -> dict:
    """The settings of the object setting ``key``, in the order of
    ``spec``, by name.  ``spec`` maps each key the section takes to its
    kind (see ``_KINDS``), when the key is required, or to its kind and
    default; each is read by ``_setting``, so a flag overrides it, JSON
    null counts as absent and an absent section reads as empty.  A key
    given that ``spec`` does not name raises ``ValueError`` naming it:
    misspelt, it would leave its default in force."""
    section = _setting(cfg, args, key, "object", {})
    unread = sorted(name for name, value in section.items()
                    if value is not None and name not in spec)
    if unread:
        raise ValueError(f"{key}.{unread[0]} is not read; {key} takes "
                         f"{', '.join(spec)}")
    return {name: _setting(cfg, args, f"{key}.{name}",
                           *((kind,) if isinstance(kind, str) else kind))
            for name, kind in spec.items()}


def _grid_from(cfg: dict, args) -> PointGrid:
    return PointGrid(**_section(cfg, args, "grid", {
        "horizon": "number", "half_width": "number", "n_t": "int",
        "n_x": "int"}))


def _drift_from(cfg: dict, args):
    if _setting(cfg, args, "drift", "object", None) is None:
        return make_drift("zero")
    kind, params, level = _section(cfg, args, "drift", {
        "kind": "text", "params": ("object", {}),
        "truncation_level": ("number", None)}).values()
    drift = make_drift(kind, **params)
    return drift if level is None else drift_truncate(drift, level)


def _initial_from(cfg: dict, args) -> InitialData:
    given = _section(cfg, args, "initial", {"u0": ("object", None),
                                            "v0": ("object", None)})
    return make_initial_data(**{
        name: tuple(_section(cfg, args, f"initial.{name}", {
            "kind": "text", "params": ("object", {})}).values())
        for name, profile in given.items() if profile is not None})


def _eta_from_csv(path: str, grid: PointGrid) -> np.ndarray:
    """Load a forcing field from a long-format t,x,value CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if [c.strip() for c in header.split(",")[:3]] != ["t", "x",
                                                              "value"]:
                raise ValueError(
                    f"eta CSV {path} must start with header t,x,value")
            with warnings.catch_warnings():
                # A file without rows is refused below, by its row count.
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                                  "no data")
                raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read eta CSV {path}: {exc}") from exc
    expected = (grid.n_t + 1) * (grid.n_x + 1)
    if raw.shape[0] != expected:
        raise ValueError(f"eta CSV {path} has {raw.shape[0]} rows, "
                         f"the grid needs {expected}")
    if raw.shape[1] != 3:
        raise ValueError(f"eta CSV {path} needs columns t,x,value")
    raw = raw[np.lexsort((raw[:, 1], raw[:, 0]))]
    want_t, want_x = grid.nodes()
    tol_t = 1e-9 * max(1.0, grid.horizon)
    tol_x = 1e-9 * max(1.0, grid.half_width)
    if (np.max(np.abs(raw[:, 0] - want_t)) > tol_t
            or np.max(np.abs(raw[:, 1] - want_x)) > tol_x):
        raise ValueError(
            f"eta CSV {path} nodes do not match the config grid")
    return raw[:, 2].reshape(grid.n_t + 1, grid.n_x + 1)


# The keys of each eta kind.  A CSV forcing is named by the eta.csv key
# alone, with no kind.
_FORCINGS = {"initial": {"kind": ("text", None)}, "zero": {"kind": "text"},
             "constant": {"kind": "text", "value": ("number", 1.0)},
             "sin_time": {"kind": "text", "rate": ("number", 1.0)}}


def _eta_from(cfg: dict, args, eqn: EquationKind,
              grid: PointGrid) -> np.ndarray:
    """Resolve the forcing: the initial-data term (the default), a CSV
    file or a named built-in profile.  Only the first reads ``initial``,
    and the others refuse it rather than drop it."""
    path = _setting(cfg, args, "eta.csv", "text", None)
    kind = ("csv" if path is not None
            else _setting(cfg, args, "eta.kind", "text", "initial"))
    if path is None and kind not in _FORCINGS:
        raise ValueError(f"unknown eta kind {kind!r}; use 'initial', "
                         f"'zero', 'constant' or 'sin_time', or name a CSV "
                         f"forcing with the eta.csv key")
    eta = _section(cfg, args, "eta", _FORCINGS.get(kind, {"csv": "text"}))
    if kind == "initial":
        return initial_term_grid(eqn, _initial_from(cfg, args), grid).values
    if _setting(cfg, args, "initial", "object", None) is not None:
        raise ValueError(f"initial is read only by eta kind 'initial', the "
                         f"default, not by eta {kind!r}; drop one of them")
    if kind == "csv":
        return _eta_from_csv(path, grid)
    if kind == "sin_time":
        return np.broadcast_to(np.sin(eta["rate"] * grid.times())[:, None],
                               (grid.n_t + 1, grid.n_x + 1)).copy()
    # A zero forcing is the constant 0.
    return np.full((grid.n_t + 1, grid.n_x + 1), eta.get("value", 0.0))


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


def _field_tables(grid: PointGrid, *stacks: np.ndarray) -> list:
    """The ``replicate,t,x,value`` tables of field stacks of one shape:
    one block of rows per replicate, the same nodes in every block."""
    n_reps = stacks[0].shape[0]
    t, x = grid.nodes()
    nodes = (np.arange(n_reps)[:, None], t[None], x[None])
    return [(("replicate", "t", "x", "value"),
             (*nodes, stack.reshape(n_reps, -1))) for stack in stacks]


def _alpha(h: HurstIndex) -> float:
    """alpha = 1 - 2H, which the Dalang and lemma forms need in (-1, 1)
    but which rounds to 1 for H <= 2**-55."""
    if h.spectral_exponent == 1.0:
        raise NumericalError(f"1 - 2H rounds to 1 at H = {h.value!r}; the "
                             f"Dalang and lemma forms need it in (-1, 1)")
    return h.spectral_exponent


def _cmd_constants(cfg: dict, args) -> _Run:
    h = _setting(cfg, args, "hurst", "index")
    alpha = _alpha(h)
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
    eqn = _setting(cfg, args, "equation", "equation")
    h = _setting(cfg, args, "hurst", "index")
    points = _nodes(_setting(cfg, args, "points", "pairs"))
    cov = cov_matrix(eqn, h, points)
    index = np.arange(len(points))
    t, x = points.T
    table = (("i", "j", "t_i", "x_i", "t_j", "x_j", "cov"),
             (index[:, None], index[None], t[:, None], x[:, None], t[None],
              x[None], cov.entries))
    return _Run(config={"equation": eqn.value, "hurst": h.value,
                        "points": points.tolist()},
                artifacts={"cov_matrix.csv": table})


def _cmd_sample(cfg: dict, args) -> _Run:
    eqn = _setting(cfg, args, "equation", "equation")
    h = _setting(cfg, args, "hurst", "index")
    points = _nodes(_setting(cfg, args, "points", "pairs"))
    seed = _setting(cfg, args, "master_seed", "int", 0)
    n_rep = _setting(cfg, args, "n_replicates", "int", 1)
    factor = factor_psd(cov_matrix(eqn, h, points))
    sample = sample_field(factor, seed, n_rep)
    t, x = points.T
    table = (("replicate", "point_index", "t", "x", "value"),
             (np.arange(n_rep)[:, None], np.arange(len(points))[None],
              t[None], x[None], sample.values))
    return _Run(config={"equation": eqn.value, "hurst": h.value,
                        "master_seed": seed, "n_replicates": n_rep,
                        "jitter_used": factor.jitter_used,
                        "points": points.tolist()},
                artifacts={"samples.csv": table}, master_seed=seed)


def _cmd_solve_det(cfg: dict, args) -> _Run:
    eqn = _setting(cfg, args, "equation", "equation")
    grid = _grid_from(cfg, args)
    drift = _drift_from(cfg, args)
    eta = _eta_from(cfg, args, eqn, grid)
    fields, solve = solve_replicates(eqn, drift, grid, eta[None])
    table = (("t", "x", "value"), (grid.times()[:, None],
                                   grid.positions()[None], fields[0]))
    return _Run(config={
        "equation": eqn.value, "drift": drift.name,
        "eta": _setting(cfg, args, "eta", "object", {"kind": "initial"}),
        "initial": _setting(cfg, args, "initial", "object", {}),
        "grid": asdict(grid)},
        artifacts={"field.csv": table},
        diagnostics={"solve": asdict(solve)})


def _cmd_simulate(cfg: dict, args) -> _Run:
    ladder = _setting(cfg, args, "truncation_ladder", "numbers", None)
    config = SimulationConfig(
        eqn=_setting(cfg, args, "equation", "equation"),
        hurst=_setting(cfg, args, "hurst", "index"),
        drift=_drift_from(cfg, args), data=_initial_from(cfg, args),
        grid=_grid_from(cfg, args),
        master_seed=_setting(cfg, args, "master_seed", "int", 0),
        n_replicates=_setting(cfg, args, "n_replicates", "int", 1))
    described = {
        "equation": config.eqn.value, "hurst": config.hurst.value,
        "drift": config.drift.name, "master_seed": config.master_seed,
        "n_replicates": config.n_replicates,
        "initial": _setting(cfg, args, "initial", "object", {}),
        "truncation_ladder": ladder, "grid": asdict(config.grid)}
    # The sampler's BLAS calls run on one OpenBLAS thread when it is found.
    blas = {"blas_threads": 1 if _openblas_thread_api() else None}
    if ladder is not None:
        result = truncation_ladder_run(config, ladder)
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
                                            result.solves], **blas})
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
    fields, noise = _field_tables(config.grid, result.fields, result.noise)
    return _Run(config=described, master_seed=config.master_seed,
                artifacts={"fields.csv": fields, "noise.csv": noise,
                           "summary.json": summary},
                diagnostics={"solve": asdict(result.solve), **blas})


def _cmd_hoelder(cfg: dict, args) -> _Run:
    eqn = _setting(cfg, args, "equation", "equation")
    h = _setting(cfg, args, "hurst", "index")
    direction, p, base, lags, tolerance = _section(cfg, args, "hoelder", {
        "direction": ("text", "time"), "p": ("number", 2.0),
        "base": ("pair", [1.0, 0.0]), "lags": ("numbers", None),
        "tolerance": ("number", 0.1)}).values()
    direction = Direction.parse(direction)
    fit = fit_hoelder(eqn, h, direction, p=p, base_time=float(base[0]),
                      base_pos=float(base[1]), lags=lags)
    expected = expected_hoelder_slope(eqn, h, direction, p)
    passed = abs(fit.slope - expected) <= tolerance
    settings = {"equation": eqn.value, "hurst": h.value,
                "direction": direction.value, "p": p, "base": list(base),
                "expected_slope": expected, "tolerance": tolerance}
    summary = (f"slope {fit.slope:.6g} expected {expected:.6g} "
               f"r2 {fit.r_squared:.6g} "
               f"{'ok' if passed else 'OUT_OF_TOLERANCE'}")
    return _Run(config=settings, lines=[summary], artifacts={
        "hoelder_moments.csv": (("lag", "moment"), (fit.lags, fit.moments)),
        "hoelder_fit.json": {
            **settings, "within_tolerance": passed, "r_squared": fit.r_squared,
            # A degenerate fit's nan slope and infinite stderr are not JSON.
            "slope": fit.slope if np.isfinite(fit.slope) else None,
            "stderr_slope": fit.stderr_slope
            if np.isfinite(fit.stderr_slope) else None}})


def _cmd_hconv(cfg: dict, args) -> _Run:
    eqn = _setting(cfg, args, "equation", "equation")
    reference, hursts = _section(cfg, args, "hconv", {
        "reference": ("number", _setting(cfg, args, "hurst", "number", 0.5)),
        "hursts": ("numbers", None)}).values()
    if hursts is None:
        # Towards the reference from inside (0, 1).
        step = 0.2 if reference + 0.2 < 1.0 else -0.2
        hursts = [reference + step * 2.0 ** -k for k in range(0, 8)]
    res = h_convergence(eqn, hursts, reference)
    ratio = float(res.sups[-1] / res.sups[0]) if res.sups[0] > 0 else 0.0
    decreasing = bool(np.all(np.diff(res.sups) < 0.0))
    passed = decreasing and float(res.sups[-1]) < float(res.sups[0])
    settings = {"equation": eqn.value, "reference": reference,
                "hursts": [h.value for h in res.hursts]}
    sups = [float(s) for s in res.sups]
    summary = (f"final_over_first {ratio:.6g} "
               f"{'ok' if passed else 'NOT_CONVERGING'}")
    return _Run(config=settings, lines=[summary], artifacts={
        "hconv_sups.csv": (("hurst", "sup_distance"),
                           (settings["hursts"], sups)),
        "hconv_summary.json": {
            **settings, "sups": sups, "strictly_decreasing": decreasing,
            "final_over_first": ratio, "converging": bool(passed)}})


def _cmd_verify_lemmas(cfg: dict, args) -> _Run:
    horizon, shifts, alphas = _section(cfg, args, "lemmas", {
        "horizon": ("number", 1.0), "shifts": ("numbers", None),
        "alphas": ("numbers", None)}).values()
    if alphas is None:
        h = _setting(cfg, args, "hurst", "index", None)
        alphas = [-0.5, 0.0, 0.5] if h is None else [_alpha(h)]
    # The summary keys show alpha to 6 significant digits: one key each.
    keys = {}
    for alpha in alphas:
        key = f"{alpha:g}"
        if key in keys:
            raise ValueError(
                f"lemmas.alphas {keys[key]!r} and {alpha!r} share the "
                f"summary key alpha={key}; give alphas that differ in "
                f"their first 6 significant digits")
        keys[key] = alpha
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
    return _Run(config={"alphas": alphas, "horizon": horizon},
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


# Each flag, by its dest: its option strings and its argparse settings.
# A dest other than config, out and threads is the config key that the
# flag overrides.
_FLAGS = {
    "config": (("--config",), {"help": "JSON configuration file"}),
    "out": (("--out",), {"help": "output directory for CSV artifacts"}),
    "hurst": (("--hurst", "--H"), {"type": float,
                                   "help": "roughness index in (0, 1)"}),
    "equation": (("--equation",), {"choices": ["heat", "wave"],
                                   "help": "which equation to use"}),
    "master_seed": (("--seed",), {"type": int, "metavar": "SEED",
                                  "help": "master seed"}),
    "n_replicates": (("--replicates",), {"type": int,
                                         "metavar": "REPLICATES",
                                         "help": "number of replicates"}),
    "hoelder.direction": (("--direction",), {"choices": ["time", "space"]}),
    "hoelder.p": (("--p",), {"type": float, "metavar": "P",
                             "help": "moment order"}),
    "threads": (("--threads",), {
        "type": _positive_int,
        "help": "accepted for compatibility and ignored; replicates are "
                "solved as one batch"}),
}

# Each subcommand: its handler, its help and the flags it takes besides
# --config and --out.
_COMMANDS = {
    "constants": (_cmd_constants, "spectral constants for one index",
                  ("hurst",)),
    "cov": (_cmd_cov, "covariance matrix on points", ("hurst", "equation")),
    "sample": (_cmd_sample, "Gaussian field samples",
               ("hurst", "equation", "master_seed", "n_replicates")),
    "solve-det": (_cmd_solve_det, "deterministic fixed-point solve",
                  ("equation",)),
    "simulate": (_cmd_simulate, "quasi-linear simulation",
                 ("hurst", "equation", "master_seed", "n_replicates",
                  "threads")),
    "hoelder": (_cmd_hoelder, "regularity exponent fit",
                ("hurst", "equation", "hoelder.direction", "hoelder.p")),
    "hconv": (_cmd_hconv, "covariance continuity in the index",
              ("hurst", "equation")),
    "verify-lemmas": (_cmd_verify_lemmas, "sharp increment bound tables",
                      ("hurst",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="fracfield",
        description="Fractional-noise stochastic heat and wave equation "
                    "toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for key in ("config", "out", *keys):
            options, settings = _FLAGS[key]
            command.add_argument(*options, dest=key, **settings)
    return parser


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

    An old manifest is removed first.  When a write fails, every file
    this run has begun to write is removed and the error is raised, so no
    artifact is left that a manifest does not pin; other files in the
    directory stay.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "run_manifest.json"
    manifest.unlink(missing_ok=True)
    outputs, writes, paths = {}, {}, []
    try:
        for name, content in run.artifacts.items():
            path = out_dir / name
            paths.append(path)
            begun = time.perf_counter()
            if name.endswith(".csv"):
                outputs[name] = write_csv(path, *content)
            else:
                outputs[name] = write_json(path, content)
            writes[name] = {"s": time.perf_counter() - begun,
                            "bytes": path.stat().st_size}
        written = time.perf_counter()
        paths.append(manifest)
        write_json(manifest, {
            "subcommand": args.subcommand,
            "artifact_version": ARTIFACT_VERSION,
            "master_seed": run.master_seed,
            "config": run.config,
            "outputs": outputs,
            "diagnostics": {"compute_s": computed - started,
                            "write_s": written - computed,
                            "write": writes, **run.diagnostics},
            "wall_clock_seconds": time.perf_counter() - started})
    except BaseException:
        for path in paths:
            # A directory in an artifact's place is not this run's.
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # A usage error is a configuration error: exit 1, not argparse's 2.
        return 1 if exc.code == 2 else int(exc.code or 0)
    started = time.perf_counter()
    try:
        run = _COMMANDS[args.subcommand][0](_load_config(args.config), args)
        computed = time.perf_counter()
        try:
            if args.out is None:
                _print(run)
                # A closed pipe raises here, not in the flush at exit.
                sys.stdout.flush()
            else:
                _write(run, args, started, computed)
        except OSError as exc:
            if args.out is None and isinstance(exc, BrokenPipeError):
                # The reader has gone (``fracfield cov | head -1``): as in
                # Python's note on SIGPIPE, stdout goes to devnull so that
                # the flush at exit cannot fail, and the exit is quiet.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
            print(f"fracfield: cannot write output: {exc}", file=sys.stderr)
            return 1
    except NumericalError as exc:
        print(f"fracfield: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"fracfield: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"fracfield: invalid configuration: {exc}", file=sys.stderr)
        return 1
    return run.code


if __name__ == "__main__":
    sys.exit(main())
