"""Simulation and verification toolkit for stochastic heat and wave
fields on the line driven by noise white in time and fractional in space.

The package is organized bottom-up:

* :mod:`fracfield.spectral` -- noise density and closed-form finiteness
  integrals;
* :mod:`fracfield.covariance` -- exact second-order structure of the
  linear solution in closed form;
* :mod:`fracfield.sampler` -- reproducible Gaussian sampling from those
  covariances;
* :mod:`fracfield.det_solver` -- deterministic causal-march solver for
  the quasi-linear integral equation;
* :mod:`fracfield.quasilinear` -- full simulation pipeline and drift
  truncation ladders;
* :mod:`fracfield.analysis` -- regularity fits, continuity in the Hurst
  index, and kernel increment bound checks;
* :mod:`fracfield.cli` -- command line front end.
"""

from __future__ import annotations

from .analysis import (Direction, ExponentFit, ShiftKind,
                       expected_hoelder_slope, fit_hoelder, fit_power_law,
                       h_convergence, verify_lemma_bound)
from .covariance import (CovarianceMatrix, conv_cov, cov_matrix,
                         increment_moment2, noise_field_cov)
from .det_solver import (DriftSpec, GridFunction, InitialData, MarchRecord,
                         PointGrid, drift_truncate, initial_term,
                         initial_term_grid, make_drift, make_initial_data,
                         picard_apply, solve_replicates)
from .errors import NumericalError
from .quasilinear import (LadderResult, SimulationConfig, SimulationResult,
                          mild_residual, simulate, truncation_ladder_run)
from .sampler import FieldSample, PsdFactor, factor_psd, sample_field
from .spectral import (EquationKind, HurstIndex, dalang_integral_closed,
                       gaussian_abs_moment, noise_constant)

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "Direction",
    "DriftSpec",
    "EquationKind",
    "ExponentFit",
    "FieldSample",
    "GridFunction",
    "HurstIndex",
    "InitialData",
    "LadderResult",
    "MarchRecord",
    "NumericalError",
    "PointGrid",
    "PsdFactor",
    "ShiftKind",
    "SimulationConfig",
    "SimulationResult",
    "conv_cov",
    "cov_matrix",
    "dalang_integral_closed",
    "drift_truncate",
    "expected_hoelder_slope",
    "factor_psd",
    "fit_hoelder",
    "fit_power_law",
    "gaussian_abs_moment",
    "h_convergence",
    "increment_moment2",
    "initial_term",
    "initial_term_grid",
    "make_drift",
    "make_initial_data",
    "mild_residual",
    "noise_constant",
    "noise_field_cov",
    "picard_apply",
    "sample_field",
    "simulate",
    "solve_replicates",
    "truncation_ladder_run",
    "verify_lemma_bound",
    "__version__",
]
