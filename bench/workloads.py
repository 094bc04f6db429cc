"""The benchmark workloads: their CLI invocations and config files.

A workload is a *set* of ``fracfield`` CLI invocations.  The benchmark
repeats the set in fresh processes; every repetition runs the same
invocations on the same generated config files.  The workload seed is
written into every config as ``master_seed`` and is the only input that
comes from the command line of the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

NAMES = ("sim_wave", "sim_heat", "sample_wide", "regularity")

DRIFT = {"kind": "tanh_scaled", "params": {"a": 1.0}}
TOL = 1e-8

# Quasi-linear simulations.  sim_wave is the ROADMAP baseline pipeline
# (quadrature-bound covariance, inline solves, 16 MB of CSV); sim_heat
# puts about 70% of the run into pooled Picard solves.
SIMULATIONS = {
    "sim_wave": {
        "equation": "wave", "hurst": 0.3,
        "grid": {"horizon": 1.0, "half_width": 1.0, "n_t": 16, "n_x": 32},
        "initial": {"u0": {"kind": "const", "params": {"c": 1.0}}},
        "n_replicates": 400, "threads": 1,
    },
    "sim_heat": {
        "equation": "heat", "hurst": 0.7,
        "grid": {"horizon": 1.0, "half_width": 1.0, "n_t": 8, "n_x": 8},
        "initial": {"u0": {"kind": "sin", "params": {}}},
        "n_replicates": 1500, "threads": 2,
    },
}

# Large-k linear sampling: 2 times x 1025 positions, k = 2050.
WIDE_TIMES = (0.5, 1.0)
WIDE_POSITIONS = tuple(-2.0 + 4.0 * i / 1024 for i in range(1025))
WIDE_REPLICATES = 16

# Regularity: H on a 0.025 ladder over [0.1, 0.9].
REGULARITY_HURSTS = tuple(round(0.1 + 0.025 * i, 3) for i in range(33))
GATED_HURSTS = (0.3, 0.5, 0.7)
HCONV_REFERENCES = (0.3, 0.5, 0.7)
EQUATIONS = ("heat", "wave")
DIRECTIONS = ("time", "space")


@dataclass(frozen=True)
class Invocation:
    """One CLI call.

    ``out`` names its output directory inside a repetition; ``meta``
    holds what the output checks need to know about the call.
    """

    out: str
    argv: tuple
    meta: tuple = ()


def _config(directory: Path, name: str, cfg: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def write_set(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's config files and return its invocations."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload in SIMULATIONS:
        spec = SIMULATIONS[workload]
        cfg = {key: spec[key] for key in
               ("equation", "hurst", "grid", "initial", "n_replicates")}
        cfg.update(drift=DRIFT, tol=TOL, master_seed=seed)
        path = _config(directory, workload, cfg)
        return [Invocation("simulate", ("simulate", "--config", path,
                                        "--threads", str(spec["threads"])))]
    if workload == "sample_wide":
        cfg = {"equation": "heat", "hurst": 0.7,
               "points": [[t, x] for t in WIDE_TIMES for x in WIDE_POSITIONS],
               "n_replicates": WIDE_REPLICATES, "master_seed": seed}
        return [Invocation("sample", ("sample", "--config",
                                      _config(directory, workload, cfg)))]
    if workload == "regularity":
        return _regularity_set(seed, directory)
    raise ValueError(f"unknown workload {workload!r}; use one of {NAMES}")


def _regularity_set(seed: int, directory: Path) -> list:
    calls = []
    for eqn in EQUATIONS:
        for direction in DIRECTIONS:
            for h in REGULARITY_HURSTS:
                name = f"hoelder-{eqn}-{direction}-{h:g}"
                cfg = {"equation": eqn, "hurst": h, "master_seed": seed,
                       "hoelder": {"direction": direction}}
                calls.append(Invocation(
                    name, ("hoelder", "--config",
                           _config(directory, name, cfg)),
                    (eqn, direction, h)))
    cfg = {"master_seed": seed,
           "lemmas": {"alphas": [1.0 - 2.0 * h for h in REGULARITY_HURSTS]}}
    calls.append(Invocation("lemmas", ("verify-lemmas", "--config",
                                       _config(directory, "lemmas", cfg))))
    for eqn in EQUATIONS:
        for ref in HCONV_REFERENCES:
            name = f"hconv-{eqn}-{ref:g}"
            cfg = {"equation": eqn, "master_seed": seed,
                   "hconv": {"reference": ref}}
            calls.append(Invocation(name, ("hconv", "--config",
                                           _config(directory, name, cfg))))
    return calls
