"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test pins the tolerances and, where stated,
the wall-clock budget of its criterion; nothing here may be loosened to
force a pass.
"""

import json
import math
import time

import numpy as np
import pytest

from fracfield import (Direction, EquationKind, GridFunction, HurstIndex,
                       PointGrid, ShiftKind, SimulationConfig, conv_cov,
                       cov_matrix, dalang_integral_closed, drift_truncate,
                       expected_hoelder_slope, factor_psd, fit_hoelder,
                       h_convergence, make_drift, make_initial_data,
                       noise_field_cov, sample_field, solve_replicates,
                       truncation_ladder_run,
                       verify_lemma_bound)
from fracfield.cli import main
from fracfield.oracle import dalang_integral_quad, ode_oracle, picard_oracle

HEAT = EquationKind.HEAT
WAVE = EquationKind.WAVE

# b(z) = z clipped at 10: bounded by 10, the ||b|| of criterion 7b's
# heat envelope, and the clip never activates on the solution scales
# used below.
BLIN = drift_truncate(make_drift("linear", a=1.0), 10.0)


def const_field(grid, value):
    return GridFunction(grid=grid,
                        values=np.full((grid.n_t + 1, grid.n_x + 1),
                                       float(value)))


def test_criterion_1_dalang_closed_vs_quadrature():
    # Closed forms agree with the independent iterated quadrature to
    # 1e-5 relative over both kernels, three exponents, and three
    # horizons, in under 10 seconds.
    started = time.monotonic()
    for eqn in (WAVE, HEAT):
        for alpha in (-0.5, 0.0, 0.5):
            for horizon in (0.5, 1.0, 2.0):
                closed = dalang_integral_closed(eqn, alpha, horizon)
                quad = dalang_integral_quad(eqn, alpha, horizon)
                rel = abs(quad.value - closed) / closed
                assert rel <= 1e-5, (eqn, alpha, horizon, rel)
    assert time.monotonic() - started < 10.0


def test_criterion_2_half_index_variances():
    # At index 1/2 the linear solution has variance 1/sqrt(pi) for the
    # heat kernel at (1, x) and 1 for the wave kernel at (2, x), both
    # in closed form (1e-6 relative) and by 20000-replicate Monte Carlo
    # within four standard errors, in under 60 seconds.
    started = time.monotonic()
    cases = ((HEAT, (1.0, 0.3), 1.0 / math.sqrt(math.pi)),
             (WAVE, (2.0, -0.7), 1.0))
    n = 20000
    for eqn, point, truth in cases:
        var = conv_cov(eqn, 0.5, point, point)
        assert abs(var - truth) / truth <= 1e-6, (eqn, var)
        factor = factor_psd(cov_matrix(eqn, 0.5, [point]))
        draws = sample_field(factor, 2026, n).values[:, 0]
        est = float(draws.var(ddof=1))
        se = truth * math.sqrt(2.0 / (n - 1))
        assert abs(est - truth) <= 4.0 * se, (eqn, est)
    assert time.monotonic() - started < 60.0


def test_criterion_3_noise_covariance_closed_form():
    # The driving-noise covariance matches the fractional closed form
    # exactly, and at index 1/2 it reduces to the Brownian sheet on
    # same-sign positions to 1e-12.
    for hurst in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                for x in (-1.5, -0.5, 1.0, 2.0):
                    for y in (-1.5, -0.5, 1.0, 2.0):
                        got = noise_field_cov(hurst, (t, x), (s, y))
                        want = 0.5 * min(t, s) * (
                            abs(x) ** (2 * hurst) + abs(y) ** (2 * hurst)
                            - abs(x - y) ** (2 * hurst))
                        assert got == want, (hurst, t, s, x, y)
    grid_pos = (0.25, 0.5, 1.0, 1.5, 2.0)
    for sign in (1.0, -1.0):
        for x in grid_pos:
            for y in grid_pos:
                got = noise_field_cov(0.5, (0.75, sign * x),
                                      (1.25, sign * y))
                assert abs(got - 0.75 * min(x, y)) <= 1e-12


def test_criterion_4_hoelder_exponents():
    # Twelve exact-moment fits over both kernels, three indices, and
    # both directions land within 0.1 of the theoretical slope, in
    # under 120 seconds.
    started = time.monotonic()
    for eqn in (WAVE, HEAT):
        for hurst in (0.3, 0.5, 0.7):
            for direct in (Direction.TIME, Direction.SPACE):
                fit = fit_hoelder(eqn, hurst, direct)
                expected = expected_hoelder_slope(eqn, hurst, direct)
                assert abs(fit.slope - expected) <= 0.1, (
                    eqn, hurst, direct, fit.slope, expected)
    assert time.monotonic() - started < 120.0


def test_criterion_5_sharp_increment_bounds():
    # Both sharp bounds hold with ratio at most 1 + 1e-6 for both
    # kernels, three exponents, and shifts 2^-6 .. 2^-1.
    shifts = tuple(2.0 ** -k for k in range(6, 0, -1))
    for kind in ShiftKind:
        for eqn in (WAVE, HEAT):
            for alpha in (-0.5, 0.0, 0.5):
                report = verify_lemma_bound(kind, eqn, alpha,
                                            shifts=shifts)
                assert report.max_ratio <= 1.0 + 1e-6, (
                    kind, eqn, alpha, report.max_ratio)
                assert report.lhs_monotone, (kind, eqn, alpha)


def test_criterion_6_continuity_in_the_index():
    # Covariances converge as the index ladder approaches 1/2 from
    # either side: sup distances strictly decrease along the ladder and
    # the final rung is below a tenth of the first, for both kernels.
    ladders = ((0.6, 0.55, 0.51, 0.501), (0.4, 0.45, 0.49, 0.499))
    for eqn in (WAVE, HEAT):
        for ladder in ladders:
            res = h_convergence(eqn, ladder, 0.5)
            assert np.all(np.diff(res.sups) < 0.0), (eqn, ladder,
                                                     res.sups)
            assert res.sups[-1] < 0.1 * res.sups[0], (eqn, ladder,
                                                      res.sups)


def test_criterion_7a_solver_matches_ode_oracle():
    # Six spatially constant solves at time step 1e-3 agree with the
    # scalar Volterra oracle to 1e-3 sup norm, the last three with an
    # unbounded linear drift, which the heat solver takes unclipped.
    grid = PointGrid(horizon=1.0, half_width=0.016, n_t=1000, n_x=32)
    cases = (
        (HEAT, make_drift("const", c=1.0), 0.0),
        (WAVE, make_drift("const", c=1.0), 0.0),
        (HEAT, BLIN, 1.0),
        *((HEAT, make_drift("linear", a=a), 1.0) for a in (-2.0, 1.0, 2.0)),
    )
    for eqn, drift, eta_value in cases:
        (field,), _ = solve_replicates(
            eqn, drift, grid, const_field(grid, eta_value).values[None])
        oracle = ode_oracle(eqn, drift, eta_value, grid.horizon,
                            n_steps=100000)[::100]
        sup = np.max(np.abs(field - oracle[:, None]))
        assert sup <= 1e-3, (eqn, drift.name, sup)


def test_criterion_7b_picard_increments_decay_factorially():
    # The global Picard iteration of the test oracle, which the solver's
    # march is checked against.  Wave: successive increment ratios stay
    # under 1.5 times the contraction factor 2 L T^2 / (n + 1) from the
    # third iteration.
    grid = PointGrid(horizon=1.0, half_width=0.08, n_t=100, n_x=16)
    _, inc = picard_oracle(WAVE, make_drift("tanh_scaled", a=1.0),
                           const_field(grid, 1.0), tol=1e-13)
    assert len(inc) >= 5
    for n in range(3, len(inc)):
        ratio = inc[n] / inc[n - 1]
        bound = 1.5 * 2.0 * 1.0 * grid.horizon ** 2 / (n + 1)
        assert ratio < bound, (n, ratio, bound)
    # Heat: increments sit under the direct factorial envelope
    # 2 ||b|| C^(n-1) T^n / n! with C = L = 1 and ||b|| = 10.
    hgrid = PointGrid(horizon=1.0, half_width=0.5, n_t=200, n_x=8)
    _, hinc = picard_oracle(HEAT, BLIN, const_field(hgrid, 1.0), tol=1e-13)
    for n, d in enumerate(hinc, start=1):
        assert d <= 2.0 * 10.0 / math.factorial(n), (n, d)


def test_criterion_7c_perturbation_response_is_linear():
    # Shifting the forcing by delta moves the solution by O(delta):
    # log-log slope within 0.05 of one across delta in {1e-3, 1e-2},
    # with the Gronwall magnitude bound per kernel.
    cases = (
        (HEAT, PointGrid(horizon=1.0, half_width=0.5, n_t=200, n_x=8),
         1.5 * math.exp(1.0)),
        (WAVE, PointGrid(horizon=1.0, half_width=0.08, n_t=100, n_x=16),
         1.5 * math.exp(2.0)),
    )
    drift = make_drift("tanh_scaled", a=1.0)
    for eqn, grid, factor in cases:
        (base,), _ = solve_replicates(eqn, drift, grid,
                                      const_field(grid, 1.0).values[None])
        moved = []
        for delta in (1e-3, 1e-2):
            (shifted,), _ = solve_replicates(
                eqn, drift, grid, const_field(grid, 1.0 + delta).values[None])
            d = float(np.max(np.abs(shifted - base)))
            assert d <= factor * delta, (eqn, delta, d)
            moved.append(d)
        slope = math.log10(moved[1] / moved[0])
        assert abs(slope - 1.0) <= 0.05, (eqn, slope)


def test_criterion_8_truncation_ladder_converges():
    # The truncation study for b(z) = z with large initial data: mean
    # squared deviations from the effectively untruncated reference
    # decrease at every rung, and D(32) / D(2) is at most 1/4 over 200
    # replicates.
    config = SimulationConfig(
        eqn=HEAT, hurst=HurstIndex(0.5),
        drift=make_drift("linear", a=1.0),
        data=make_initial_data(u0=("const", {"c": 40.0})),
        grid=PointGrid(horizon=0.5, half_width=0.75, n_t=24, n_x=8),
        master_seed=12, n_replicates=200,
        truncation_ladder=(2.0, 4.0, 8.0, 16.0, 32.0, 256.0))
    result = truncation_ladder_run(config)
    dev = result.deviation_vs_reference
    assert np.all(np.diff(dev) < 0.0), dev
    assert dev[4] / dev[0] <= 0.25, dev


def test_criterion_9_reproducible_artifacts(tmp_path):
    # The CLI writes byte-identical CSVs for a fixed seed, and varying
    # the thread count changes nothing.
    config = {
        "equation": "wave", "hurst": 0.5,
        "grid": {"horizon": 1.0, "half_width": 0.5, "n_t": 4, "n_x": 4},
        "drift": {"kind": "tanh_scaled", "params": {"a": 1.0}},
        "initial": {"u0": {"kind": "const", "params": {"c": 1.0}}},
        "n_replicates": 3, "master_seed": 11}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = ("fields.csv", "noise.csv", "summary.json")

    def run(out_name, threads):
        out = tmp_path / out_name
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        return out

    first = run("a", 1)
    repeat = run("b", 1)
    threaded = run("c", 4)
    for name in outputs:
        assert (first / name).read_bytes() == (repeat / name).read_bytes()
        assert (first / name).read_bytes() == (threaded / name).read_bytes()
