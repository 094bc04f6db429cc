"""Tests for the end-to-end simulation pipeline.

Oracles: additive exactness for zero drift, classical ODE limits when
the noise is switched off, common-random-number coupling across drifts
and truncation levels (with exact clipping arithmetic), and the
Lipschitz stability bound for perturbed forcing.
"""

import math
import typing

import numpy as np
import pytest

from fracfield import quasilinear
from fracfield import (DriftSpec, EquationKind, GridFunction, HurstIndex,
                       NumericalError, PointGrid, SimulationConfig,
                       cov_matrix, drift_truncate, factor_psd,
                       initial_term_grid, make_drift, make_initial_data,
                       mild_residual, picard_apply, sample_field, simulate,
                       solve_replicates, truncation_ladder_run)

HEAT = EquationKind.HEAT
WAVE = EquationKind.WAVE

# Aligned 5x5 grid: cheap enough to build its exact covariance in tests.
SMALL_GRID = PointGrid(horizon=1.0, half_width=0.5, n_t=4, n_x=4)


def small_config(eqn, drift, **overrides):
    kwargs = dict(eqn=eqn, hurst=HurstIndex(0.5), drift=drift,
                  data=make_initial_data(u0=("const", {"c": 1.0})),
                  grid=SMALL_GRID, master_seed=11, n_replicates=3)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestSimulationConfig:
    def test_replicates_and_seed_validated(self):
        with pytest.raises(ValueError):
            small_config(WAVE, make_drift("zero"), n_replicates=0)
        with pytest.raises(ValueError):
            small_config(WAVE, make_drift("zero"), master_seed=-1)

    def test_heat_unbounded_drift_runs_without_ladder(self):
        # The heat march takes any globally Lipschitz drift: a linear
        # drift needs neither a clip nor a ladder.
        cfg = small_config(HEAT, make_drift("linear", a=1.0))
        res = simulate(cfg)
        assert res.fields.shape == (3, 5, 5)
        assert np.all(np.isfinite(res.fields))
        assert res.solve.method == "pointwise_march"

    def test_ladder_needs_two_increasing_levels(self, monkeypatch):
        # Each refusal comes before the covariance is built and sampled.
        def forcing(config):
            raise AssertionError("sampled before checking the levels")

        monkeypatch.setattr(quasilinear, "_forcing", forcing)
        cfg = small_config(HEAT, make_drift("linear", a=1.0))
        with pytest.raises(ValueError, match="needs >= 2 levels"):
            truncation_ladder_run(cfg, (2.0,))
        for levels in ((4.0, 2.0), (2.0, 2.0)):
            with pytest.raises(ValueError, match="strictly increasing"):
                truncation_ladder_run(cfg, levels)
        with pytest.raises(ValueError, match="must be > 0, got -1.0"):
            truncation_ladder_run(cfg, (-1.0, 2.0))

    def test_bounded_heat_ladder_runs(self):
        # sup |tanh| = 1: the rungs at 1 and 2 leave the drift as it is
        # and give simulate's fields bit for bit, the rung at 0.5 not.
        cfg = small_config(HEAT, make_drift("tanh_scaled", a=1.0))
        out = truncation_ladder_run(cfg, (0.5, 1, 2))
        assert out.levels == (0.5, 1.0, 2.0)
        plain = simulate(cfg).fields
        assert not np.array_equal(out.fields_by_level[0], plain)
        for fields in out.fields_by_level[1:]:
            assert np.array_equal(fields, plain)
        assert out.deviation_vs_reference[0] > 0.0
        assert np.array_equal(out.deviation_vs_reference[1:], np.zeros(2))

    def test_wave_ladder_runs(self):
        # b(z) = z reaches only |z| < 8 on this grid: the rungs at 8 and
        # above equal simulate's fields bit for bit, the rung at 0.5 not.
        cfg = small_config(WAVE, make_drift("linear", a=1.0))
        out = truncation_ladder_run(cfg, (0.5, 8.0, 256.0))
        plain = simulate(cfg).fields
        assert np.max(np.abs(plain)) < 8.0
        assert not np.array_equal(out.fields_by_level[0], plain)
        for fields in out.fields_by_level[1:]:
            assert np.array_equal(fields, plain)
        assert out.solves[0].method == "explicit_march"

    def test_type_hints_resolve(self):
        hints = typing.get_type_hints(SimulationConfig)
        assert hints["grid"] is PointGrid


class TestSimulate:
    def test_zero_drift_is_additive(self):
        # With b == 0 the solver must return eta bit for bit, so the
        # field is exactly initial term plus linear solution.
        cfg = small_config(WAVE, make_drift("zero"))
        res = simulate(cfg)
        i0 = initial_term_grid(WAVE, cfg.data, cfg.grid)
        assert np.array_equal(res.fields, res.noise + i0.values[None])
        assert res.fields.shape == (3, 5, 5)
        assert res.jitter_used >= 0.0

    def test_same_seed_couples_noise_across_drifts(self):
        ra = simulate(small_config(WAVE, make_drift("zero")))
        rb = simulate(small_config(WAVE, make_drift("tanh_scaled", a=1.0)))
        assert np.array_equal(ra.noise, rb.noise)
        assert not np.array_equal(ra.fields, rb.fields)

    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_replicates_equal_their_solo_solves(self, eqn):
        cfg = small_config(eqn, make_drift("tanh_scaled", a=1.0))
        res = simulate(cfg)
        i0 = initial_term_grid(eqn, cfg.data, cfg.grid)
        for r in range(cfg.n_replicates):
            eta = GridFunction(grid=cfg.grid, values=res.noise[r] + i0.values)
            (z,), solo = solve_replicates(eqn, cfg.drift, cfg.grid,
                                          eta.values[None])
            assert np.array_equal(res.fields[r], z)
            assert solo.method == res.solve.method

    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_replicate_count_does_not_change_bytes(self, eqn):
        drift = make_drift("tanh_scaled", a=1.0)
        few = simulate(small_config(eqn, drift, n_replicates=3))
        many = simulate(small_config(eqn, drift, n_replicates=7))
        assert np.array_equal(few.fields, many.fields[:3])
        assert few.solve.method == many.solve.method

    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_solution_leaves_small_mild_residual(self, eqn):
        # The wave march is explicit: one more application changes no
        # bit, with an initial speed too.  A heat node keeps its last
        # pointwise increment, under an unbounded drift too, and on a
        # grid of 5-tap heat stencils, which numpy correlates by another
        # loop than one dot product per output.
        tanh = make_drift("tanh_scaled", a=1.0)
        configs = [small_config(eqn, tanh),
                   small_config(eqn, make_drift("linear", a=1.0))]
        if eqn is WAVE:
            configs.append(small_config(
                eqn, tanh, hurst=HurstIndex(0.3), data=make_initial_data(
                    u0=("sin", {}), v0=("bump", {"w": 0.5}))))
        else:
            configs.append(small_config(
                eqn, tanh, hurst=HurstIndex(0.7), master_seed=1,
                grid=PointGrid(horizon=1.0, half_width=1.0, n_t=64, n_x=4),
                data=make_initial_data(u0=("sin", {})), n_replicates=100))
        for cfg in configs:
            res = simulate(cfg)
            i0 = initial_term_grid(eqn, cfg.data, cfg.grid)
            for noise, field in zip(res.noise, res.fields):
                eta = GridFunction(grid=cfg.grid, values=noise + i0.values)
                u = GridFunction(grid=cfg.grid, values=field)
                residual = mild_residual(eqn, cfg.drift, u, eta)
                if eqn is WAVE:
                    assert residual == 0.0
                else:
                    assert residual <= 4.0 * np.spacing(
                        np.max(np.abs(field)))

    @pytest.mark.parametrize("eqn, hurst, grid, u0", [
        (WAVE, 0.3, PointGrid(horizon=1.0, half_width=1.0, n_t=16, n_x=32),
         ("const", {"c": 1.0})),
        (HEAT, 0.7, PointGrid(horizon=1.0, half_width=1.0, n_t=8, n_x=8),
         ("sin", {}))])
    def test_benchmark_grids_leave_rounding_residuals(self, eqn, hurst, grid,
                                                      u0):
        # The grids of the benchmark's simulate workloads: one more
        # application leaves the wave bit for bit and moves the heat by
        # at most 4 ulps of each field's sup.
        cfg = small_config(eqn, make_drift("tanh_scaled", a=1.0),
                           hurst=HurstIndex(hurst), grid=grid, master_seed=1,
                           data=make_initial_data(u0=u0), n_replicates=16)
        res = simulate(cfg)
        i0 = initial_term_grid(eqn, cfg.data, grid).values
        for noise, field in zip(res.noise, res.fields):
            again = picard_apply(eqn, cfg.drift, GridFunction(grid, field),
                                 GridFunction(grid, noise + i0)).values
            if eqn is WAVE:
                assert np.array_equal(again, field)
            else:
                assert np.max(np.abs(again - field)) \
                    <= 4.0 * np.spacing(np.max(np.abs(field)))

    def test_replicate_failure_is_annotated(self):
        # A drift that declares L = 1 but has slope -15.9 far out: every
        # replicate forced near 50 meets a heat node that cannot settle,
        # and the error names the lowest replicate and its first node.
        lying = DriftSpec(
            func=lambda z: np.where(np.abs(z) <= 8.0, np.tanh(z),
                                    np.tanh(z) - 15.9 * (z - 50.0)),
            lipschitz_constant=1.0, name="lying")
        cfg = small_config(HEAT, lying, data=make_initial_data(
            u0=("const", {"c": 50.0})),
            grid=PointGrid(horizon=1.0, half_width=0.5, n_t=8, n_x=4))
        with pytest.raises(NumericalError) as exc_info:
            simulate(cfg)
        assert type(exc_info.value) is NumericalError
        assert str(exc_info.value).startswith(
            "replicate 0: the node (t, x) = (0.125, -0.5) did not settle "
            "within 32 evaluations (last increment ")

    def test_zero_time_points_give_zero_noise(self):
        # At t = 0 the solution field has no noise yet: the covariance
        # is identically zero and the sampling chain stays exact.
        pts = [(0.0, x) for x in (-1.0, 0.0, 0.5, 2.0)]
        cov = cov_matrix(HEAT, 0.5, pts)
        assert np.array_equal(cov.entries, np.zeros((4, 4)))
        sample = sample_field(factor_psd(cov), 7, 5)
        assert np.array_equal(sample.values, np.zeros((5, 4)))

    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_solution_at_time_zero_is_exact(self, eqn):
        # The t = 0 nodes share one covariance with the later ones; the
        # factorization must leave them deterministic, with no jitter.
        cfg = small_config(eqn, make_drift("tanh_scaled", a=1.0),
                           hurst=HurstIndex(0.3),
                           data=make_initial_data(u0=("sin", {})))
        res = simulate(cfg)
        i0 = initial_term_grid(eqn, cfg.data, cfg.grid)
        assert res.jitter_used == 0.0
        assert not res.noise[:, 0, :].any()
        assert np.array_equal(res.fields[:, 0, :],
                              np.broadcast_to(i0.values[0], (3, 5)))

    def test_noiseless_decay_drift_matches_exponential(self):
        # Degenerate pipeline check: forcing eta == 1 with b(z) = -z
        # must reproduce e^{-t}.
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=500, n_x=8)
        eta = GridFunction(grid=g, values=np.ones((501, 9)))
        drift = drift_truncate(make_drift("linear", a=-1.0), 5.0)
        (z,), _ = solve_replicates(HEAT, drift, g, eta.values[None])
        err = np.max(np.abs(z - np.exp(-g.times())[:, None]))
        assert err <= 1e-5

    def test_forcing_perturbation_is_lipschitz_stable(self):
        # Scaling the noise by (1 + eps) moves the solution by at most
        # e^{L T} times the forcing change (heat).
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=100, n_x=4)
        factor = factor_psd(cov_matrix(HEAT, 0.5, np.stack(g.nodes(), 1)))
        drift = make_drift("tanh_scaled", a=1.0)
        eps = 0.01
        bound = 1.5 * math.exp(drift.lipschitz_constant * g.horizon)
        for seed in range(10):
            xi = sample_field(factor, seed, 1).values.reshape(101, 5)
            (za,), _ = solve_replicates(HEAT, drift, g, xi[None])
            (zb,), _ = solve_replicates(HEAT, drift, g,
                                        (1.0 + eps) * xi[None])
            moved = np.max(np.abs(zb - za))
            assert moved <= bound * eps * np.max(np.abs(xi))


LADDER_LEVELS = (2.0, 4.0, 8.0, 16.0, 32.0, 256.0)


@pytest.fixture(scope="module")
def ladder():
    cfg = SimulationConfig(
        eqn=HEAT, hurst=HurstIndex(0.5),
        drift=make_drift("linear", a=1.0),
        data=make_initial_data(u0=("const", {"c": 40.0})),
        grid=PointGrid(horizon=0.5, half_width=0.75, n_t=6, n_x=4),
        master_seed=3, n_replicates=5)
    return truncation_ladder_run(cfg, LADDER_LEVELS)


class TestTruncationLadder:
    LEVELS = LADDER_LEVELS

    def test_shapes_and_levels(self, ladder):
        assert ladder.levels == self.LEVELS
        assert ladder.fields_by_level.shape == (6, 5, 7, 5)
        assert ladder.deviation_vs_reference.shape == (6,)
        assert ladder.deviation_consecutive.shape == (5,)

    def test_deviation_decreases_toward_reference(self, ladder):
        dev = ladder.deviation_vs_reference
        assert np.all(np.diff(dev) < 0.0)
        assert dev[-1] == 0.0

    def test_consecutive_deviations_show_exact_clipping(self, ladder):
        # The field sits near 40, far above levels up to 32, so
        # consecutive truncations differ by a constant drift m' - m and
        # the deviation is ((m' - m) T)^2 exactly.
        want = [(2.0 * 0.5) ** 2, (4.0 * 0.5) ** 2,
                (8.0 * 0.5) ** 2, (16.0 * 0.5) ** 2]
        assert ladder.deviation_consecutive[:4] == pytest.approx(
            want, rel=1e-9)

    def test_top_rung_equals_unclipped_solve(self):
        # On criterion 8's grid the field stays below 256 (max |z| is
        # about 68.5), so the top rung is the unclipped solve bit for
        # bit: the reference the ladder stands in for.
        cfg = SimulationConfig(
            eqn=HEAT, hurst=HurstIndex(0.5),
            drift=make_drift("linear", a=1.0),
            data=make_initial_data(u0=("const", {"c": 40.0})),
            grid=PointGrid(horizon=0.5, half_width=0.75, n_t=24, n_x=8),
            master_seed=12, n_replicates=200)
        top = truncation_ladder_run(cfg, LADDER_LEVELS).fields_by_level[-1]
        plain = simulate(cfg)
        assert np.array_equal(plain.fields, top)
        assert 32.0 < np.max(np.abs(top)) < 256.0

    def test_inactive_ladder_has_zero_deviation(self):
        # A drift that never reaches the lowest rung makes every level
        # identical.
        cfg = SimulationConfig(
            eqn=HEAT, hurst=HurstIndex(0.5),
            drift=make_drift("tanh_scaled"),
            data=make_initial_data(),
            grid=PointGrid(horizon=0.5, half_width=0.75, n_t=6, n_x=4),
            master_seed=3, n_replicates=3)
        out = truncation_ladder_run(cfg, (2.0, 4.0, 8.0))
        assert np.array_equal(out.deviation_vs_reference, np.zeros(3))
        assert np.array_equal(out.deviation_consecutive, np.zeros(2))
