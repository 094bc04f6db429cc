"""End-to-end simulation of the quasi-linear stochastic equations.

Pipeline: build the exact covariance of the linear solution field on the
reported grid, factor it, draw Gaussian replicates, add the initial-data
term, and march the fixed-point equation for all replicates as one batch.
Replicates are independent CBRNG streams, each solved as it would be
alone, so replicate i is byte-identical for any replicate count.
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
    """Complete description of one simulation run."""

    eqn: EquationKind
    hurst: HurstIndex
    drift: DriftSpec
    data: InitialData
    grid: PointGrid
    master_seed: int
    n_replicates: int = 1
    truncation_ladder: tuple | None = None

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError(
                f"need n_replicates >= 1, got {self.n_replicates}")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be >= 0, got {self.master_seed}")
        if self.truncation_ladder is not None:
            ladder = tuple(float(m) for m in self.truncation_ladder)
            if len(ladder) < 2:
                raise ValueError("truncation ladder needs >= 2 levels")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ValueError(
                    f"truncation ladder must be strictly increasing: "
                    f"{ladder}")
            if self.drift.is_bounded:
                raise ValueError(
                    "a truncation ladder only applies to unbounded drifts")
            if self.eqn is not EquationKind.HEAT:
                raise ValueError(
                    "the truncation ladder study is a heat-equation tool")
            object.__setattr__(self, "truncation_ladder", ladder)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Replicated solution fields plus the ingredients that made them."""

    config: SimulationConfig
    noise: np.ndarray
    fields: np.ndarray
    solve: MarchRecord
    jitter_used: float


@dataclass(frozen=True, eq=False)
class LadderResult:
    """Truncation-level study with common random numbers across levels;
    ``solves`` holds one :class:`MarchRecord` per level."""

    config: SimulationConfig
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
    if config.truncation_ladder is not None:
        raise ValueError(
            "config carries a truncation ladder; use truncation_ladder_run")
    noise, eta_fields, jitter = _forcing(config)
    fields, solve = solve_replicates(config.eqn, config.drift, config.grid,
                                     eta_fields)
    return SimulationResult(config=config, noise=noise, fields=fields,
                            solve=solve, jitter_used=jitter)


def truncation_ladder_run(config: SimulationConfig) -> LadderResult:
    """Solve at every truncation level with common random numbers.

    The same noise replicates force every level, so level-to-level
    deviations measure the truncation effect alone.  The deviation at
    level m is the grid maximum of the replicate mean of the squared
    difference, against the largest level (reference) and against the
    next level up (consecutive).
    """
    if config.truncation_ladder is None:
        raise ValueError("config has no truncation ladder")
    _, eta_fields, _ = _forcing(config)
    levels = config.truncation_ladder
    per_level, solves = [], []
    for level in levels:
        fields, solve = solve_replicates(
            config.eqn, drift_truncate(config.drift, level), config.grid,
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
    return LadderResult(config=config, levels=levels,
                        deviation_vs_reference=dev_ref,
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
