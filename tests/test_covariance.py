"""Tests for space-time covariances of the linear convolution.

Oracles: the explicit noise-covariance display, closed variance values
at the Brownian index, the spectral quadrature engine against the closed
covariance forms, and the three-evaluation expansion of increment second
moments (kept as an independent route, never collapsed into the fused
evaluation it checks).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fracfield import (DEFAULT_QUAD, EquationKind, HurstIndex, NumericalError,
                       PointGrid, conv_cov, cov_matrix, increment_moment2,
                       noise_constant, noise_field_cov)
from fracfield.covariance import _assemble


def rel_err(value, truth):
    return abs(value - truth) / abs(truth)


class TestNoiseFieldCov:
    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.sampled_from([0.3, 0.5, 0.7]))
    def test_matches_display(self, t, s, x, y, h):
        expected = 0.5 * min(t, s) * (abs(x) ** (2 * h) + abs(y) ** (2 * h)
                                      - abs(x - y) ** (2 * h))
        assert noise_field_cov(h, (t, x), (s, y)) == expected

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_vanishes_at_time_zero_and_origin(self, t, x):
        assert noise_field_cov(0.5, (0.0, x), (t, x)) == 0.0
        assert noise_field_cov(0.5, (t, 0.0), (t, x)) == 0.0

    def test_brownian_sheet_same_sign(self):
        # H = 1/2 on same-sign coordinates collapses to
        # min(t, s) * min(|x|, |y|).
        for x, y in [(0.5, 1.5), (2.0, 0.25), (-1.0, -0.5)]:
            got = noise_field_cov(0.5, (2.0, x), (1.0, y))
            assert abs(got - 1.0 * min(abs(x), abs(y))) <= 1e-12

    def test_opposite_signs_uncorrelated_at_half(self):
        assert abs(noise_field_cov(0.5, (1.0, -1.0), (1.0, 1.0))) <= 1e-12


class TestConvCov:
    def test_pinned_variances_at_half(self):
        heat = conv_cov(EquationKind.HEAT, 0.5, (1.0, 0.0), (1.0, 0.0))
        assert rel_err(heat, 1.0 / math.sqrt(math.pi)) < 1e-6
        wave = conv_cov(EquationKind.WAVE, 0.5, (2.0, 0.0), (2.0, 0.0))
        assert rel_err(wave, 1.0) < 1e-6

    def test_symmetric_in_points(self):
        for eqn in EquationKind:
            a = conv_cov(eqn, 0.3, (1.0, 0.2), (2.0, -0.4))
            b = conv_cov(eqn, 0.3, (2.0, -0.4), (1.0, 0.2))
            assert a == b

    def test_time_zero_degenerate(self):
        for eqn in EquationKind:
            assert conv_cov(eqn, 0.7, (0.0, 0.3), (1.0, 0.3)) == 0.0
            assert conv_cov(eqn, 0.7, (0.0, 0.3), (0.0, -0.5)) == 0.0

    def test_wave_zero_outside_cones_only_at_half(self):
        # Disjoint light cones (|dx| >= t1 + t2) decorrelate only white
        # noise; fractional noise is correlated at every distance.
        assert conv_cov(EquationKind.WAVE, 0.5, (1.0, 0.0), (2.0, 5.0)) == 0.0
        assert rel_err(conv_cov(EquationKind.WAVE, 0.25, (1.0, -2.0),
                                (1.0, 0.001)), -2.0184744365e-2) < 1e-10
        assert rel_err(conv_cov(EquationKind.WAVE, 0.7, (0.5, 0.0),
                                (0.5, 1.5)), 9.3656478888e-3) < 1e-10

    @pytest.mark.parametrize("p1, p2", [
        ((1.0, 0.0), (1.0, 2.0)), ((1.0, 0.0), (2.0, 3.0)),
        ((0.25, -1.0), (1.5, 0.75)), ((0.5, 0.0), (0.5, 7.5))])
    def test_wave_exact_zero_outside_cones_at_half(self, p1, p2):
        assert conv_cov(EquationKind.WAVE, 0.5, p1, p2) == 0.0

    def test_overflow_raises_numerical_error(self):
        with pytest.raises(NumericalError):
            conv_cov(EquationKind.WAVE, 0.7, (1.0, 0.0), (1.0, 1e200))

    def test_translation_invariant_in_space(self):
        for eqn in EquationKind:
            a = conv_cov(eqn, 0.6, (1.0, 0.3), (1.5, 0.8))
            b = conv_cov(eqn, 0.6, (1.0, -1.2), (1.5, -0.7))
            assert rel_err(a, b) < 1e-12

    def test_variance_increases_with_time(self):
        for eqn in EquationKind:
            values = [conv_cov(eqn, 0.4, (t, 0.0), (t, 0.0))
                      for t in (0.5, 1.0, 2.0)]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestClosedFormAgainstEngine:
    # Independent route: the spectral engine integrates the covariance's
    # frequency-domain form and never calls the closed form it checks.
    @given(st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=0.0, max_value=4.0),
           st.sampled_from([EquationKind.HEAT, EquationKind.WAVE]))
    def test_matches_spectral_engine(self, h, ta, tb, c, eqn):
        t1, t2 = sorted((ta, tb))
        res = _assemble(eqn, 1.0 - 2.0 * h, [(t1, t2, c, 1.0)], DEFAULT_QUAD)
        # The engine is an oracle only where it meets its own tolerance;
        # it misses it on about 1 point in 400 near |dx| = t2 - t1.
        assume(res.converged)
        engine = 2.0 * noise_constant(h) * res.value
        closed = conv_cov(eqn, h, (t1, 0.0), (t2, c))
        assert abs(closed - engine) <= 1e-9 * abs(engine) + 1e-14


class TestCovMatrix:
    POINTS = [(0.5, -0.5), (0.5, 0.5), (1.0, 0.0), (1.5, 0.25)]

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_entries_match_pairwise_conv_cov(self, eqn):
        cov = cov_matrix(eqn, 0.6, self.POINTS)
        for i, p in enumerate(self.POINTS):
            for j, q in enumerate(self.POINTS):
                assert cov.entries[i, j] == pytest.approx(
                    conv_cov(eqn, 0.6, p, q), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_symmetric_psd_with_error_estimates(self, eqn):
        cov = cov_matrix(eqn, 0.35, self.POINTS)
        assert np.array_equal(cov.entries, cov.entries.T)
        eigs = np.linalg.eigvalsh(cov.entries)
        assert eigs.min() >= -1e-10 * np.max(np.diag(cov.entries))
        assert np.all(np.isfinite(cov.err_estimates))
        assert np.all(cov.err_estimates >= 0.0)
        assert not cov.err_estimates.any()

    def test_wave_entries_nonzero_outside_cones(self):
        grid = PointGrid(1.0, 1.0, 16, 32)
        cov = cov_matrix(EquationKind.WAVE, 0.3, grid.points())
        t = np.array([p[0] for p in grid.points()])
        x = np.array([p[1] for p in grid.points()])
        outside = (np.abs(np.subtract.outer(x, x)) > np.add.outer(t, t)) \
            & (np.minimum.outer(t, t) > 0.0)
        assert outside.any()
        assert np.all(cov.entries[outside] != 0.0)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            cov_matrix(EquationKind.HEAT, 0.5, [])


class TestIncrementMoment2:
    # Independent route: expand E(u(a) - u(b))^2 into three covariance
    # evaluations.  This cross-check must never be replaced by the fused
    # quadrature it verifies.
    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    @pytest.mark.parametrize("h", [0.3, 0.7])
    @pytest.mark.parametrize("a, b", [
        ((1.0, 0.0), (1.0, 0.25)),
        ((1.0, 0.0), (1.25, 0.0)),
        ((0.5, -0.3), (0.75, 0.4)),
    ])
    def test_matches_three_evaluation_expansion(self, eqn, h, a, b):
        fused = increment_moment2(eqn, h, a, b)
        expanded = (conv_cov(eqn, h, a, a) + conv_cov(eqn, h, b, b)
                    - 2.0 * conv_cov(eqn, h, a, b))
        assert abs(fused - expanded) <= 1e-8 * max(abs(fused), 1e-6)

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_same_point_is_zero(self, eqn):
        assert increment_moment2(eqn, 0.5, (1.0, 0.3), (1.0, 0.3)) == 0.0

    def test_nonnegative_on_small_shifts(self):
        for lag in (2.0 ** -k for k in range(3, 9)):
            m2 = increment_moment2(EquationKind.HEAT, 0.7, (1.0, 0.0),
                                   (1.0, lag))
            assert m2 >= 0.0

    def test_shrinks_with_the_lag(self):
        lags = [2.0 ** -k for k in range(1, 7)]
        moments = [increment_moment2(EquationKind.WAVE, 0.4, (1.0, 0.0),
                                     (1.0 + lag, 0.0)) for lag in lags]
        assert all(b < a for a, b in zip(moments, moments[1:]))
