"""Output checks of the benchmark.

The checks test properties the paper states, never stored bytes of an
earlier version, so a change that fixes a numerical defect still
passes them.  Each check returns ``(name, ok, detail)``; every check is
one operation in ``attempted`` and every failed one counts in
``failed``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

# Sample variance of the linear field against its exact value, in
# standard errors of a Gaussian sample variance.  At 6 the chance of a
# false alarm over all nodes of a run is below 1e-4.
VARIANCE_SE = 6.0
# The mild-solution defect of a converged solve, in units of the solver
# tolerance.  Solves stop at an increment below tol, and the defect is
# the next increment; observed values stay below 1 tol.
RESIDUAL_TOLS = 10.0
RESIDUAL_REPLICATES = 4
# Criterion 4: Hölder slopes within 0.1 of the theory.
SLOPE_TOLERANCE = 0.1
# factor_psd never adds more diagonal jitter than this share of the
# largest variance.
JITTER_CAP = 1e-6


def manifest_outputs(out_dir: Path) -> tuple:
    """Return (digests match, the manifest's digests, names that differ)."""
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    outputs = manifest["outputs"]
    bad = [name for name, digest in outputs.items()
           if hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
           != digest]
    return not bad and bool(outputs), outputs, bad


def _read_field(path: Path, shape: tuple) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (math.prod(shape), 4):
        raise ValueError(f"{path.name} has shape {table.shape}")
    return table[:, 3].reshape(shape)


def simulation_checks(workload: str, out_dir: Path, seed: int) -> list:
    from fracfield import (EquationKind, GridFunction, PointGrid, conv_cov,
                           initial_term_grid, make_drift, make_initial_data,
                           mild_residual)

    spec = workloads.SIMULATIONS[workload]
    grid = PointGrid(**spec["grid"])
    eqn = EquationKind.parse(spec["equation"])
    reps = spec["n_replicates"]
    shape = (reps, grid.n_t + 1, grid.n_x + 1)
    fields = _read_field(out_dir / "fields.csv", shape)
    noise = _read_field(out_dir / "noise.csv", shape)
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    jitter = float(manifest["config"]["jitter_used"])
    checks = []

    # The sampler draws from the covariance plus its diagonal jitter, and
    # the variance depends on time only (the field is stationary in x).
    exact = np.array([conv_cov(eqn, spec["hurst"], (t, 0.0), (t, 0.0))
                      for t in grid.times()])
    expected = exact + jitter
    se = expected * math.sqrt(2.0 / (reps - 1))
    dev = np.abs(noise.var(axis=0, ddof=1) - expected[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dev == 0.0, 0.0, dev / se[:, None])
    worst = np.unravel_index(np.argmax(z), z.shape)
    checks.append(("noise_variance",
                   bool(z.max() <= VARIANCE_SE
                        and jitter <= JITTER_CAP * exact.max()),
                   f"max {z.max():.3g} SE at node {tuple(map(int, worst))}, "
                   f"jitter {jitter:.3g}"))

    drift = make_drift(workloads.DRIFT["kind"], **workloads.DRIFT["params"])
    u0 = spec["initial"]["u0"]
    i0 = initial_term_grid(eqn, make_initial_data(
        u0=(u0["kind"], u0["params"])), grid)
    rng = np.random.default_rng(seed)
    picks = sorted({0, reps - 1, *rng.choice(
        reps, RESIDUAL_REPLICATES - 2, replace=False).tolist()})
    for r in picks:
        res = mild_residual(eqn, drift, GridFunction(grid, fields[r]),
                            GridFunction(grid, noise[r] + i0.values))
        checks.append((f"mild_residual[{r}]",
                       res <= RESIDUAL_TOLS * workloads.TOL,
                       f"{res / workloads.TOL:.3g} tol"))
    return checks


def expected_slope(eqn: str, direction: str, h: float) -> float:
    """Log-log slope of the second increment moment: 2 x Hölder order."""
    return h if (eqn, direction) == ("heat", "time") else 2.0 * h


def regularity_checks(calls, out_root: Path) -> tuple:
    """Gated checks, plus the slope deviations reported but not gated."""
    checks = []
    ungated = []
    for call in calls:
        out = out_root / call.out
        if call.argv[0] == "hoelder":
            eqn, direction, h = call.meta
            fit = json.loads((out / "hoelder_fit.json").read_text())
            dev = abs(fit["slope"] - expected_slope(eqn, direction, h))
            if h in workloads.GATED_HURSTS:
                checks.append((f"slope[{eqn},{direction},H={h:g}]",
                               dev <= SLOPE_TOLERANCE, f"deviation {dev:.3g}"))
            else:
                ungated.append((dev, f"{eqn},{direction},H={h:g}"))
        elif call.argv[0] == "verify-lemmas":
            summary = json.loads((out / "summary.json").read_text())
            checks.append(("lemmas_all_within", summary["all_within"] is True,
                           ""))
        else:
            summary = json.loads((out / "hconv_summary.json").read_text())
            checks.append((f"hconv_converging[{call.out}]",
                           summary["converging"] is True,
                           f"final/first {summary['final_over_first']:.3g}"))
    return checks, ungated
