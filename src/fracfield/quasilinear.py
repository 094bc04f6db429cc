"""End-to-end simulation of the quasi-linear stochastic equations.

Pipeline: build the exact covariance of the linear solution field on the
reported grid, factor it, draw Gaussian replicates, add the initial-data
term, and march the fixed-point equation for all replicates as one batch.
Replicate i's normals are the inverse normal CDF of the top 53 bits of
the raw words of PCG64 seeded by ``SeedSequence(master_seed,
spawn_key=(i,))``, drawn by :func:`fracfield.sampler.sample_field` alone
(``tests/oracle.py`` rebuilds them with numpy's own ``Generator``).  It
is solved as it would be alone, so it is byte-identical for any
replicate count.
A truncation ladder solves them once per clip level of the drift, for
any globally Lipschitz drift and either equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import cov_matrix
from .det_solver import (DriftSpec, GridFunction, InitialData, MarchRecord,
                         PointGrid, drift_truncate, initial_term_grid,
                         picard_apply, solve_replicates)
from .sampler import factor_psd, sample_field
from .spectral import EquationKind, HurstIndex

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "LadderResult",
    "simulate",
    "truncation_ladder_run",
    "mild_residual",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run; a truncation ladder
    passes its levels to :func:`truncation_ladder_run` beside it."""

    eqn: EquationKind
    hurst: HurstIndex
    drift: DriftSpec
    data: InitialData
    grid: PointGrid
    master_seed: int
    n_replicates: int = 1

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError(
                f"need n_replicates >= 1, got {self.n_replicates}")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Replicated solution fields plus the ingredients that made them."""

    noise: np.ndarray
    fields: np.ndarray
    solve: MarchRecord
    jitter_used: float


@dataclass(frozen=True, eq=False)
class LadderResult:
    """Truncation-level study with common random numbers across levels;
    ``solves`` holds one :class:`MarchRecord` per level."""

    levels: tuple
    deviation_vs_reference: np.ndarray
    deviation_consecutive: np.ndarray
    fields_by_level: np.ndarray
    solves: tuple


def _forcing(config: SimulationConfig) -> tuple:
    """Sample the linear solution ("noise") and add the initial-data term.

    Returns the noise fields, the forcing stack and the jitter.
    """
    grid = config.grid
    cov = cov_matrix(config.eqn, config.hurst, np.stack(grid.nodes(), axis=1))
    factor = factor_psd(cov)
    sample = sample_field(factor, config.master_seed, config.n_replicates)
    noise = sample.values.reshape(
        config.n_replicates, grid.n_t + 1, grid.n_x + 1)
    i0 = initial_term_grid(config.eqn, config.data, grid)
    return noise, noise + i0.values[None], factor.jitter_used


def simulate(config: SimulationConfig) -> SimulationResult:
    """Simulate the quasi-linear equation on the configured grid.

    Returns the replicated solution fields with shape ``(n_replicates,
    n_t + 1, n_x + 1)``; ``noise`` holds the linear solution fields that
    forced them.  All replicates are solved as one batch.
    """
    noise, eta_fields, jitter = _forcing(config)
    fields, solve = solve_replicates(config.eqn, config.drift, config.grid,
                                     eta_fields)
    return SimulationResult(noise=noise, fields=fields, solve=solve,
                            jitter_used=jitter)


def truncation_ladder_run(config: SimulationConfig, levels) -> LadderResult:
    """Solve at every truncation level with common random numbers.

    ``levels`` are at least two strictly increasing clip levels of the
    config's drift.  The same noise replicates force every level, so
    level-to-level deviations measure the truncation effect alone.  The
    deviation at level m is the grid maximum of the replicate mean of the
    squared difference, against the largest level (reference) and
    against the next level up (consecutive).  Levels at or above
    ``sup |b|`` give :func:`simulate`'s fields bit for bit.
    """
    levels = tuple(float(m) for m in levels)
    if len(levels) < 2:
        raise ValueError("truncation ladder needs >= 2 levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(
            f"truncation ladder must be strictly increasing: {levels}")
    drifts = [drift_truncate(config.drift, level) for level in levels]
    _, eta_fields, _ = _forcing(config)
    per_level, solves = [], []
    for drift in drifts:
        fields, solve = solve_replicates(config.eqn, drift, config.grid,
                                         eta_fields)
        per_level.append(fields)
        solves.append(solve)
    stacked = np.stack(per_level)
    ref = stacked[-1]

    def deviation(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.mean((a - b) ** 2, axis=0)))

    dev_ref = np.asarray([deviation(stacked[k], ref)
                          for k in range(len(levels))])
    dev_consec = np.asarray([deviation(stacked[k], stacked[k + 1])
                             for k in range(len(levels) - 1)])
    return LadderResult(levels=levels, deviation_vs_reference=dev_ref,
                        deviation_consecutive=dev_consec,
                        fields_by_level=stacked, solves=tuple(solves))


def mild_residual(eqn: EquationKind, drift: DriftSpec, u: GridFunction,
                  eta: GridFunction) -> float:
    """Sup-norm defect of u as a solution of ``z = eta + G * b(z)``.

    One more fixed-point application of u minus u itself, maximized over
    the reported window; small residuals certify u a posteriori.  A
    marched wave field leaves exactly 0, a marched heat field the last
    pointwise increments, a few ulps.
    """
    applied = picard_apply(eqn, drift, u, eta)
    return float(np.max(np.abs(applied.values - u.values)))
