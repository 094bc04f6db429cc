"""Tests for space-time covariances of the linear convolution.

Oracles: the explicit noise-covariance display, closed variance values
at the Brownian index, the spectral quadrature engine against the closed
covariance and increment forms, values computed once at 60 digits with
mpmath and pinned as literals, the three-evaluation expansion of
increment second moments (kept as an independent route, never collapsed
into the fused form it checks), and scipy.special.hyp1f1 for the Kummer
series.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracfield import (EquationKind, HurstIndex, NumericalError, PointGrid,
                       conv_cov, cov_matrix, factor_psd, increment_moment2,
                       noise_constant, noise_field_cov, sample_field)
from fracfield.covariance import (_COV_BLOCK_ROWS, _HEAT_FAR_ARG,
                                  _HEAT_PAIR_RATIO, _closed_incr, _cone_lag,
                                  _heat_near, _heat_pair, _kummer, _kummer_m1)
from fracfield.oracle import DEFAULT_QUAD, _assemble


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

    # Wave covariances far outside the light cones, where the closed form
    # subtracts terms of size |dx|^(2H+1) from a value of size
    # t1^2 |dx|^(2H-1); the last two rows of each index have t1 << t2.
    # References: the closed form at 60 digits (mpmath).
    @pytest.mark.parametrize("h, t1, t2, c, truth", [
        (0.1, 1.0, 1.5, 1e3, -1.8578367063690739e-7),
        (0.1, 1.0, 1.5, 1e6, -7.3961682314981114e-13),
        (0.1, 1e-3, 0.25, 1.0, -1.0541152280625855e-8),
        (0.1, 1e-3, 0.25, 1e3, -3.9757638181011859e-14),
        (0.7, 1.0, 1.5, 1e3, 0.0025886597419350053),
        (0.7, 1.0, 1.5, 1e6, 4.1027478381336724e-5),
        (0.7, 1e-3, 0.25, 1.0, 3.5312515258603271e-8),
        (0.7, 1e-3, 0.25, 1e3, 5.5397300606326724e-10),
        (0.95, 1.0, 1.5, 1e3, 0.24996714229714439),
        (0.95, 1.0, 1.5, 1e6, 0.12528033577154491),
        (0.95, 1e-3, 0.25, 1.0, 1.0685702770103791e-7),
        (0.95, 1e-3, 0.25, 1e3, 5.3492966474254138e-8),
    ])
    def test_wave_far_outside_cones_matches_high_precision(self, h, t1, t2,
                                                           c, truth):
        got = conv_cov(EquationKind.WAVE, h, (t1, 0.0), (t2, c))
        assert rel_err(got, truth) <= 1e-12

    # Heat covariances far from the diagonal, where the two Kummer terms
    # of size |dx|^(2H) cancel to a value of size t1 |dx|^(2H-2): the
    # first row of each index sits just past the switch to the
    # large-argument expansion (|dx|^2 / (2 (t1+t2)) = 40.5).
    # References: the closed form at 60 digits (mpmath).
    @pytest.mark.parametrize("h, t1, t2, c, truth", [
        (0.1, 0.5, 0.5, 9.0, -0.0007787416232327866),
        (0.1, 0.5, 0.5, 100.0, -1.004881210185086e-05),
        (0.1, 0.5, 0.5, 1000.0, -1.5924306886802285e-07),
        (0.1, 0.001, 1.0, 10.0, -1.3014279755612625e-06),
        (0.1, 1.0, 1.5, 100000.0, -8.000000003024001e-11),
        (0.3, 0.5, 0.5, 9.0, -0.0027979340369000873),
        (0.3, 0.5, 0.5, 100.0, -9.510158140185791e-05),
        (0.3, 0.5, 0.5, 1000.0, -3.785747246914104e-06),
        (0.3, 0.001, 1.0, 10.0, -4.8607339411333985e-06),
        (0.3, 1.0, 1.5, 100000.0, -1.2000000003023997e-08),
        (0.7, 0.5, 0.5, 9.0, 0.03757449770006092),
        (0.7, 0.5, 0.5, 100.0, 0.00883361485747336),
        (0.7, 0.5, 0.5, 1000.0, 0.0022188510019705),
        (0.7, 0.001, 1.0, 10.0, 7.06786797949735e-05),
        (0.7, 1.0, 1.5, 100000.0, 0.00028000000002015963),
        (0.9, 0.5, 0.5, 9.0, 0.23215626189609587),
        (0.9, 0.5, 0.5, 100.0, 0.14331944141167127),
        (0.9, 0.5, 0.5, 1000.0, 0.09042791696002597),
        (0.9, 0.001, 1.0, 10.0, 0.00045484440012435236),
        (0.9, 1.0, 1.5, 100000.0, 0.07200000000129604),
    ])
    def test_heat_far_from_diagonal_matches_high_precision(self, h, t1, t2,
                                                           c, truth):
        got = conv_cov(EquationKind.HEAT, h, (t1, 0.0), (t2, c))
        assert rel_err(got, truth) <= 1e-13

    @pytest.mark.parametrize("p1, p2", [
        ((1.0, 0.0), (1.0, 2.0)), ((1.0, 0.0), (2.0, 3.0)),
        ((0.25, -1.0), (1.5, 0.75)), ((0.5, 0.0), (0.5, 7.5))])
    def test_wave_exact_zero_outside_cones_at_half(self, p1, p2):
        assert conv_cov(EquationKind.WAVE, 0.5, p1, p2) == 0.0

    def test_overflow_raises_numerical_error(self):
        # A separation of 1e200 is summed by the far-field series and
        # stays finite; a time that large still overflows.
        with pytest.raises(NumericalError):
            conv_cov(EquationKind.WAVE, 0.7, (1e200, 0.0), (1e200, 1.0))

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


class TestHurstNearZero:
    # Legal indices at and below the last one whose spectral exponent
    # 1 - 2H is not rounded to 1.
    POINTS = [(0.5, 0.0), (1.0, 0.25), (1.0, -0.5)]

    @pytest.mark.parametrize("h", [1e-300, 2.0 ** -55])
    def test_wave_is_finite_where_exponent_rounds_to_1(self, h):
        # The wave forms' factor is exactly 1/8, so they need no 1 - 2H:
        # the variance at t is its H -> 0 limit t / 4, to the last bit.
        cov = cov_matrix(EquationKind.WAVE, h, self.POINTS)
        assert np.all(np.isfinite(cov.entries))
        assert np.diag(cov.entries).tolist() == [0.125, 0.25, 0.25]
        assert conv_cov(EquationKind.WAVE, h, *self.POINTS[:2]) \
            == cov.entries[0, 1]
        incr = increment_moment2(EquationKind.WAVE, h, *self.POINTS[:2])
        assert math.isfinite(incr) and incr > 0.0
        sample = sample_field(factor_psd(cov), 1, 4)
        assert np.all(np.isfinite(sample.values))

    def test_wave_just_above_the_rounding_edge_is_finite(self):
        # 1 - 2H for H = 1e-9 is not 1; the variance at t nears its
        # H -> 0 limit t / 4.
        cov = cov_matrix(EquationKind.WAVE, 1e-9, self.POINTS)
        assert np.all(np.isfinite(cov.entries))
        assert np.allclose(np.diag(cov.entries), [0.125, 0.25, 0.25],
                           rtol=1e-6, atol=0.0)
        sample = sample_field(factor_psd(cov), 1, 4)
        assert np.all(np.isfinite(sample.values))

    @pytest.mark.parametrize("h", [1e-300, 2.0 ** -55, 1e-9])
    def test_heat_is_finite_near_its_limit(self, h):
        # The heat forms need no spectral exponent; the variance nears
        # its H -> 0 limit 1/2 at every time.
        cov = cov_matrix(EquationKind.HEAT, h, self.POINTS)
        assert np.all(np.isfinite(cov.entries))
        assert np.allclose(np.diag(cov.entries), 0.5, rtol=1e-6, atol=0.0)
        sample = sample_field(factor_psd(cov), 1, 4)
        assert np.all(np.isfinite(sample.values))


@pytest.mark.parametrize("h", [1e-300, 2.0 ** -55, 1e-9, 0.3, 0.5, 0.7,
                               1.0 - 1e-9, 1.0 - 2.0 ** -53])
def test_wave_variance_is_exact_for_every_h(h):
    # The wave variance at (t, 0) is (2t)^(2H+1) / (8 (2H+1)) for every
    # H in (0, 1), its factor 1/8 exact at both ends of the range.
    for t in (0.5, 1.0, 2.0):
        got = cov_matrix(EquationKind.WAVE, h, [(t, 0.0)]).entries[0, 0]
        want = (2.0 * t) ** (2.0 * h + 1.0) / (8.0 * (2.0 * h + 1.0))
        assert abs(got - want) <= 2.0 * np.spacing(want), (h, t, got, want)


class TestCovMatrix:
    POINTS = [(0.5, -0.5), (0.5, 0.5), (1.0, 0.0), (1.5, 0.25)]

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_entries_match_pairwise_conv_cov(self, eqn):
        cov = cov_matrix(eqn, 0.6, self.POINTS)
        for i, p in enumerate(self.POINTS):
            for j, q in enumerate(self.POINTS):
                assert cov.entries[i, j] == conv_cov(eqn, 0.6, p, q)

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_symmetric_psd(self, eqn):
        cov = cov_matrix(eqn, 0.35, self.POINTS)
        assert np.array_equal(cov.entries, cov.entries.T)
        eigs = np.linalg.eigvalsh(cov.entries)
        assert eigs.min() >= -1e-10 * np.max(np.diag(cov.entries))

    def test_wave_matrix_psd_near_h_zero_on_aligned_grid(self):
        # The wave forms' t1 |c - d|^(2H) jumps from 0 to about t1/2 at
        # H = 0.01 between lags of 0 and 1e-17, so a lag from the rounded
        # c and d on the light-cone edges of an aligned grid makes the
        # entries disagree; the exact lag keeps the matrix a covariance.
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=7, n_x=7)
        cov = cov_matrix(EquationKind.WAVE, 0.01, np.stack(g.nodes(), 1))
        eigs = np.linalg.eigvalsh(cov.entries)
        assert eigs.min() >= -1e-10 * np.max(np.diag(cov.entries))

    def test_cone_lag_is_the_lag_of_the_coordinates(self):
        # ||xa - xb| - |ta - tb|| of the float coordinates in exact
        # rational arithmetic: 0 on the 312 pairs of the grid that lie on
        # a light cone, within two roundings on the others, 48 of which
        # come out 0 from the rounded c and d.
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=7, n_x=7)
        t, x = g.nodes()
        lag = _cone_lag(t[:, None], x[:, None], t, x)
        exact = np.array([[abs(abs(Fraction(xa) - Fraction(xb))
                               - abs(Fraction(ta) - Fraction(tb)))
                           for tb, xb in zip(t, x)] for ta, xa in zip(t, x)])
        on_cone = exact == 0
        assert on_cone.sum() == 312 and np.all(lag[on_cone] == 0.0)
        got = np.array([Fraction(v) for v in lag[~on_cone]])
        assert np.all(abs(got - exact[~on_cone])
                      <= 2.0 ** -52 * exact[~on_cone])
        rounded = np.abs(np.abs(np.subtract.outer(x, x))
                         - np.abs(np.subtract.outer(t, t)))
        assert np.sum(rounded[~on_cone] == 0.0) == 48

    def test_wave_entries_nonzero_outside_cones(self):
        grid = PointGrid(1.0, 1.0, 16, 32)
        t, x = grid.nodes()
        cov = cov_matrix(EquationKind.WAVE, 0.3, np.stack((t, x), axis=1))
        outside = (np.abs(np.subtract.outer(x, x)) > np.add.outer(t, t)) \
            & (np.minimum.outer(t, t) > 0.0)
        assert outside.any()
        assert np.all(cov.entries[outside] != 0.0)

    def test_heat_far_entries_match_pairwise_conv_cov(self):
        # Entries on both sides of the switch to the heat far field.
        points = [(0.5, 0.0), (0.5, 9.0), (1.0, 100.0), (0.001, -10.0),
                  (0.0, 3.0)]
        cov = cov_matrix(EquationKind.HEAT, 0.3, points)
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                assert cov.entries[i, j] == conv_cov(EquationKind.HEAT, 0.3,
                                                     p, q)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            cov_matrix(EquationKind.HEAT, 0.5, [])

    @pytest.mark.parametrize("bad, message", [
        ((-0.5, 0.0), "time coordinate must be >= 0, got -0.5"),
        ((math.nan, 0.0), r"must be finite, got \(nan, 0.0\)"),
        ((1.0, math.inf), r"must be finite, got \(1.0, inf\)"),
    ])
    def test_invalid_points_rejected(self, bad, message):
        good = (1.0, 0.0)
        for call in (lambda: cov_matrix(EquationKind.HEAT, 0.5, [good, bad]),
                     lambda: conv_cov(EquationKind.WAVE, 0.5, bad, good),
                     lambda: increment_moment2(EquationKind.HEAT, 0.5, good,
                                               bad),
                     lambda: noise_field_cov(0.5, bad, good)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_points_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            cov_matrix(EquationKind.HEAT, 0.5, [[1.0, 0.0, 2.0]])


@st.composite
def spanning_point_sets(draw):
    """More than one block of points, on every branch of the closed forms.

    Time 0, a time at most 1/8 of another's sum with it (the heat pair
    form), and a position 40 beyond another, which reaches the wave far
    field (|dx| >= 2 (t1+t2)) and the heat far field (|dx|^2/4 >= 40
    (t1+t2)/2) for times up to 2.
    """
    times = draw(st.lists(st.floats(1e-3, 2.0), min_size=4, max_size=5,
                          unique=True))
    times = [0.0, *times, times[0] / 16.0]
    xs = draw(st.lists(st.floats(-30.0, 30.0), min_size=11, max_size=12))
    xs.append(xs[0] + 40.0)
    return np.array([(t, x) for t in times for x in xs])


class TestOneRoute:
    # The scalar calls and the matrix take one route, and a value's bits
    # depend on its own arguments only: not on its block of rows, its
    # neighbours or the order of the points.
    @settings(max_examples=8)
    @given(st.floats(1e-9, 1.0 - 1e-9), spanning_point_sets(),
           st.integers(0, 71), st.randoms(use_true_random=False))
    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_scalar_calls_equal_the_matrix_bit_for_bit(self, eqn, h, points,
                                                       row, rnd):
        k = len(points)
        assert k > _COV_BLOCK_ROWS
        t, x = points.T
        t1, t2 = np.minimum.outer(t, t), np.maximum.outer(t, t)
        c = np.abs(np.subtract.outer(x, x))
        s = t1 + t2
        assert ((t1 == 0.0) & (t2 > 0.0)).any()
        assert ((t1 > 0.0) & (t1 <= _HEAT_PAIR_RATIO * s / 2.0)).any()
        assert ((t1 > 0.0) & (c >= 2.0 * s)).any()
        assert ((t1 > 0.0) & (c * c / 4.0 >= _HEAT_FAR_ARG * s / 2.0)).any()
        cov = cov_matrix(eqn, h, points).entries
        incr = _closed_incr(eqn, HurstIndex(h), t[:, None], x[:, None], t, x)
        # Rows on both sides of the first block boundary, and one drawn.
        for i in {_COV_BLOCK_ROWS - 1, _COV_BLOCK_ROWS, row}:
            for j in range(k):
                p, q = points[i], points[j]
                assert conv_cov(eqn, h, p, q) == cov[i, j]
                assert increment_moment2(eqn, h, p, q) == incr[i, j]
        perm = np.array(rnd.sample(range(k), k))
        assert np.array_equal(cov_matrix(eqn, h, points[perm]).entries,
                              cov[np.ix_(perm, perm)])


class TestIncrementMoment2:
    # Independent route: expand E(u(a) - u(b))^2 into three covariance
    # evaluations.  This cross-check must never be replaced by the fused
    # closed form it verifies.
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

    # Lags where the three-covariance expansion loses up to 6% (wave and
    # heat at H = 0.8, lag 1e-9).  References: the two variances minus
    # twice the closed-form covariance at 60 digits (mpmath), from
    # (1, 0) to (1 + lag, 0), (1, lag) or (1 + lag, lag).
    @pytest.mark.parametrize("eqn, h, kind, lag, truth", [
        ("heat", 0.3, "time", 1e-9, 0.0016135140534099299),
        ("heat", 0.3, "time", 1e-6, 0.012816597379001851),
        ("heat", 0.3, "time", 1e-3, 0.10180582560294682),
        ("heat", 0.3, "space", 1e-9, 3.9810717055348251e-6),
        ("heat", 0.3, "space", 1e-6, 0.00025118864300161916),
        ("heat", 0.3, "space", 1e-3, 0.015848782585702217),
        ("heat", 0.3, "mixed", 1e-9, 0.001613514053893984),
        ("heat", 0.3, "mixed", 1e-6, 0.012816601223831278),
        ("heat", 0.3, "mixed", 1e-3, 0.10183621450899781),
        ("heat", 0.8, "time", 1e-9, 5.5624915734308406e-8),
        ("heat", 0.8, "time", 1e-6, 1.3972346152214857e-5),
        ("heat", 0.8, "time", 1e-3, 0.0035096639990233759),
        ("heat", 0.8, "space", 1e-9, 3.9804577268063667e-15),
        ("heat", 0.8, "space", 1e-6, 2.5057466442235877e-10),
        ("heat", 0.8, "space", 1e-3, 1.5234953206245179e-5),
        ("heat", 0.8, "mixed", 1e-9, 5.5624915778194356e-8),
        ("heat", 0.8, "mixed", 1e-6, 1.3972356716112764e-5),
        ("heat", 0.8, "mixed", 1e-3, 0.0035118577438437348),
        ("wave", 0.3, "time", 1e-9, 1.9905359522081899e-6),
        ("wave", 0.3, "time", 1e-6, 0.00012559436087434456),
        ("wave", 0.3, "time", 1e-3, 0.0079269991859262744),
        ("wave", 0.3, "space", 1e-9, 1.9905358527674304e-6),
        ("wave", 0.3, "space", 1e-6, 0.00012559432151863967),
        ("wave", 0.3, "space", 1e-3, 0.0079244091229336615),
        ("wave", 0.3, "mixed", 1e-9, 1.5086001718622918e-6),
        ("wave", 0.3, "mixed", 1e-6, 9.5182812279181313e-5),
        ("wave", 0.3, "mixed", 1e-3, 0.0060093757503122825),
        ("wave", 0.8, "time", 1e-9, 1.9908392600301219e-15),
        ("wave", 0.8, "time", 1e-6, 1.2589748911589663e-10),
        ("wave", 0.8, "time", 1e-3, 8.2292241437553168e-6),
        ("wave", 0.8, "space", 1e-9, 1.9902327094541807e-15),
        ("wave", 0.8, "space", 1e-6, 1.2529117826217676e-10),
        ("wave", 0.8, "space", 1e-3, 7.6213226505191998e-6),
        ("wave", 0.8, "mixed", 1e-9, 3.0170883691957949e-15),
        ("wave", 0.8, "mixed", 1e-6, 1.9036546707646834e-10),
        ("wave", 0.8, "mixed", 1e-3, 1.2015864049174647e-5),
    ])
    def test_small_lags_match_high_precision(self, eqn, h, kind, lag,
                                             truth):
        dt = 0.0 if kind == "space" else lag
        dx = 0.0 if kind == "time" else lag
        got = increment_moment2(EquationKind.parse(eqn), h, (1.0, 0.0),
                                (1.0 + dt, dx))
        assert rel_err(got, truth) <= 1e-12

    # Wave increments far outside the light cones, where the grouped
    # form would subtract terms of size |dx|^(2H+1).  References as above.
    @pytest.mark.parametrize("h, p1, p2, truth", [
        (0.1, (0.01, 0.0), (0.01, 1.0), 0.0019054910550741271),
        (0.1, (0.01, 0.0), (0.02, 10.0), 0.0031414941417155031),
        (0.1, (1.0, 0.0), (1.5, 1e3), 0.6286034474882394),
        (0.7, (0.01, 0.0), (0.01, 1.0), 8.5269926872744137e-6),
        (0.7, (0.01, 0.0), (0.02, 10.0), 2.7235104394744456e-5),
        (0.7, (1.0, 0.0), (1.5, 1e3), 0.99714777469997442),
        (0.95, (0.01, 0.0), (0.01, 1.0), 4.4983159876935642e-7),
        (0.95, (0.01, 0.0), (0.02, 10.0), 3.1841494099628351e-6),
        (0.95, (1.0, 0.0), (1.5, 1e3), 0.86451150626756626),
    ])
    def test_wave_far_outside_cones_matches_high_precision(self, h, p1, p2,
                                                           truth):
        got = increment_moment2(EquationKind.WAVE, h, p1, p2)
        assert rel_err(got, truth) <= 1e-12

    # Heat increments far from the diagonal, where the regrouped form
    # still subtracts Kummer terms of size |dx|^(2H).  References as
    # above.
    @pytest.mark.parametrize("h, p1, p2, truth", [
        (0.3, (0.5, 0.0), (0.5, 100.0), 0.80886282793709188),
        (0.3, (0.5, 0.0), (0.5, 1000.0), 0.80868019626878199),
        (0.3, (0.0054, 0.0), (0.0054, 5.5), 0.20799304076514229),
        (0.3, (0.5, 0.0), (1.0, 100.0), 0.90232292364255775),
        (0.9, (0.5, 0.0), (0.5, 100.0), 0.6474857642069086),
        (0.9, (0.5, 0.0), (0.5, 1000.0), 0.75326881311019922),
        (0.9, (0.0054, 0.0), (0.0054, 5.5), 0.010337094266589811),
        (0.9, (0.5, 0.0), (1.0, 100.0), 1.051990834301452),
    ])
    def test_heat_far_from_diagonal_matches_high_precision(self, h, p1, p2,
                                                           truth):
        got = increment_moment2(EquationKind.HEAT, h, p1, p2)
        assert rel_err(got, truth) <= 1e-13

    # Independent route: the old body of increment_moment2, one spectral
    # quadrature of the three covariance integrands.
    @given(st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=1e-4, max_value=2.0),
           st.floats(min_value=1e-4, max_value=2.0),
           st.sampled_from(["time", "space", "mixed"]),
           st.sampled_from([EquationKind.HEAT, EquationKind.WAVE]))
    def test_matches_spectral_engine(self, h, t, dt, dx, kind, eqn):
        dt = 0.0 if kind == "space" else dt
        dx = 0.0 if kind == "time" else dx
        terms = [(t, t, 0.0, 1.0), (t + dt, t + dt, 0.0, 1.0),
                 (t, t + dt, dx, -2.0)]
        res = _assemble(eqn, 1.0 - 2.0 * h, terms, DEFAULT_QUAD)
        # The engine is an oracle only where it meets its own tolerance.
        assume(res.converged)
        engine = 2.0 * noise_constant(h) * res.value
        fused = increment_moment2(eqn, h, (t, 0.0), (t + dt, dx))
        assert abs(fused - engine) <= 1e-9 * abs(engine) + 1e-14

    def test_overflow_raises_numerical_error(self):
        with pytest.raises(NumericalError):
            increment_moment2(EquationKind.WAVE, 0.7, (1e200, 0.0),
                              (1e200, 1.0))

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


class TestKummerSeries:
    @pytest.mark.parametrize("h", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999])
    def test_matches_scipy(self, h):
        # Below h = 0.05 scipy's hyp1f1 itself is off by up to 4e-12 near
        # x = 2.4; the literals below cover that corner.
        from scipy.special import hyp1f1

        xs = np.linspace(0.0, 40.0, 4001)
        want = hyp1f1(-h, 0.5, -xs)
        assert np.max(np.abs(_kummer(h, xs) - want) / want) <= 1e-14

    @pytest.mark.parametrize("h, x, truth", [
        # M(-h, 1/2, -x), 50-digit mpmath; scipy's hyp1f1 is off by
        # 4.3e-12, 6.8e-13, 1.9e-13 and 1.5e-13 here.
        (0.001, 2.4, 1.0025467674153586),
        (0.005, 2.4, 1.0127674657806738),
        (0.01, 2.4, 1.0256192237250338),
        (0.02, 2.4, 1.0515770899930624),
    ])
    def test_small_h_matches_high_precision(self, h, x, truth):
        one_lane = float(_kummer(h, np.array(x)))
        many_lanes = _kummer(h, np.array([x, 0.5 * x]))[0]
        assert rel_err(one_lane, truth) <= 3e-15
        assert rel_err(many_lanes, truth) <= 3e-15

    # h - k < 0 as the pair form calls it, too: there the terms change
    # sign, and a lane kept summing past its own stop moves its last bits.
    @pytest.mark.parametrize("h", [0.01, 0.3, 0.5, 0.99, -0.7, -2.7, -9.7])
    def test_one_lane_agrees_with_many(self, h):
        # Each lane stops on its own test, so its bits do not depend on
        # the lanes summed beside it.
        xs = np.array([0.0, 1e-8, 0.3, 1.5069320216067883, 2.4,
                       6.617358245322156, 9.0, 19.299011582503333, 25.0,
                       40.0])
        many = _kummer(h, xs)
        for x, m in zip(xs, many):
            assert _kummer(h, np.array([x]))[0] == m
        assert np.array_equal(_kummer(h, xs[::-1]), many[::-1])

    def test_m1_is_continuous_at_its_switch(self):
        h = 0.3
        below = _kummer_m1(h, np.array([np.nextafter(1.0, 0.0)]))
        above = _kummer_m1(h, np.array([np.nextafter(1.0, 2.0)]))
        assert rel_err(below[0], above[0]) <= 1e-14

    def test_masked_lanes_raise_no_floating_point_error(self):
        # a = 0 is the variance row (limit form), z = 0 the zero lag; no
        # lane may divide by zero or overflow on the way.
        z = np.array([0.0, 0.0, 2.0, 2.0, 100.0, 1e-3])
        a = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1e-9])
        with np.errstate(all="raise"):
            near = _heat_near(0.3, z, a)
            m1 = _kummer_m1(0.3, np.array([0.0, 0.5, 2.0, 40.0]))
            pair = _heat_pair(0.3, np.array([1e-3, 0.1]),
                              np.array([19.8, 0.0]), np.array([0.5, 0.5]))
        assert np.all(np.isfinite(near)) and np.all(np.isfinite(m1))
        assert np.all(np.isfinite(pair))
        assert near[0] == 0.0 and near[1] == 1.0

    @pytest.mark.parametrize("h, truth", [
        # conv_cov(HEAT, h, (1e-3, 0), (1, 8.9)), 50-digit mpmath: just
        # below the far-field switch, where the two Kummer terms agree to
        # four digits (the plain difference was off by up to 5.7e-10).
        (0.02, -2.7489121860238192e-7),
        (0.1, -1.6167078099361413e-6),
        (0.3, -5.7492361612616905e-6),
        (0.45, -4.1251412291074733e-6),
        (0.55, 7.7759049205322411e-6),
        (0.7, 7.5897884604031782e-5),
        (0.9, 0.00046572253841605356),
        (0.98, 0.00086225966398146819),
    ])
    def test_near_far_switch_matches_high_precision(self, h, truth):
        got = conv_cov(EquationKind.HEAT, h, (1e-3, 0.0), (1.0, 8.9))
        assert rel_err(got, truth) <= 1e-13

    @pytest.mark.parametrize("h, t1, z", [
        # A lane whose last bit moved when its term count came from the
        # largest t1/b of its batch.
        (0.6977594456842199, 0.0007003118898524782, 36.283439478494536),
        (0.3, 1e-3, 19.8),
        (0.5, 0.1, 0.0),
    ])
    def test_pair_lane_does_not_depend_on_its_neighbours(self, h, t1, z):
        alone = _heat_pair(h, np.array([t1]), np.array([z]), np.ones(1))
        beside = _heat_pair(h, np.array([t1, _HEAT_PAIR_RATIO, 1e-9]),
                            np.array([z, 1.0, 30.0]), np.ones(3))
        assert alone[0] == beside[0]

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_pair_form_agrees_with_difference_at_its_switch(self, h):
        # At t1 = b/4 and small z/b both forms are accurate enough to be
        # compared.  At larger z/b and h = 1/2 the difference of the two
        # terms is exponentially small and only the pair form keeps it.
        b, z = 0.5, np.array([0.0, 0.1, 0.5, 1.0])
        t1 = np.full(4, _HEAT_PAIR_RATIO * b)
        pair = _heat_pair(h, t1, z, np.full(4, b))
        both = _heat_near(h, np.concatenate((z, z)),
                          np.concatenate((b - t1, np.full(4, b))))
        plain = both[:4] - both[4:]
        assert np.max(np.abs(pair - plain) / np.abs(pair)) <= 1e-12
