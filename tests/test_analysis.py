"""Tests for exponent fitting, sharp bound checks, and index continuity.

Oracles: synthetic exact power laws, the theoretical Hölder orders of
the two kernels, the requirement that every sharp-bound ratio stays at
or below one, and for the closed-form time-shift rows the spectral
quadrature oracle and values computed once at 50 digits with mpmath and
pinned as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fracfield import (Direction, EquationKind, NumericalError, ShiftKind,
                       conv_cov, cov_matrix, expected_hoelder_slope,
                       factor_psd, fit_hoelder, fit_power_law,
                       h_convergence, increment_moment2, noise_constant,
                       sample_field, verify_lemma_bound)
from fracfield.analysis import DEFAULT_H_PAIRS

from oracle import QuadratureSpec, time_shift_lhs

HEAT = EquationKind.HEAT
WAVE = EquationKind.WAVE


class TestDirection:
    def test_parse(self):
        assert Direction.parse("time") is Direction.TIME
        assert Direction.parse(" Space ") is Direction.SPACE
        with pytest.raises(ValueError):
            Direction.parse("diagonal")


class TestExpectedSlope:
    def test_orders(self):
        # Space order H for both kernels; time order H for the wave
        # kernel, H/2 for the heat kernel; second moments double it.
        assert expected_hoelder_slope(HEAT, 0.3, Direction.SPACE) == 0.6
        assert expected_hoelder_slope(WAVE, 0.3, Direction.SPACE) == 0.6
        assert expected_hoelder_slope(WAVE, 0.3, Direction.TIME) == 0.6
        assert expected_hoelder_slope(
            HEAT, 0.3, Direction.TIME) == pytest.approx(0.3)


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        lags = np.array([0.01, 0.02, 0.05, 0.1, 0.3])
        fit = fit_power_law(lags, 3.7 * lags ** 2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr_slope <= 1e-10
        assert fit.lags == tuple(lags)

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_recovers_random_power_laws(self, slope, log_c):
        lags = np.array([0.01, 0.04, 0.09, 0.2, 0.5, 1.3])
        fit = fit_power_law(lags, math.exp(log_c) * lags ** slope)
        assert fit.slope == pytest.approx(slope, abs=1e-8)

    def test_degenerate_moments_flagged(self):
        # Non-positive moments have no logarithm: flagged by slope nan.
        lags = [0.1, 0.2, 0.4, 0.8]
        for moments in ([0.0, 1.0, 2.0, 3.0], [-1.0] * 4):
            fit = fit_power_law(lags, moments)
            assert math.isnan(fit.slope)
            assert fit.r_squared == 0.0
            assert fit.stderr_slope == math.inf
        # Constant positive moments lie on a flat line, fitted exactly.
        for value in (1.0, 1.0 - 2.0 ** -53):
            fit = fit_power_law(lags, [value] * 4)
            assert (fit.slope, fit.r_squared, fit.stderr_slope) == \
                (0.0, 1.0, 0.0)
            assert fit.intercept == math.log(value)

    @pytest.mark.parametrize("lags,moments", [
        ([0.1, 0.2, 0.4], [1.0, 2.0, 3.0]),
        ([0.1, 0.2, 0.4, 0.8], [1.0, 2.0, 3.0]),
        ([0.1, 0.2, 0.2, 0.8], [1.0, 2.0, 3.0, 4.0]),
        ([-0.1, 0.2, 0.4, 0.8], [1.0, 2.0, 3.0, 4.0]),
    ])
    def test_bad_inputs_rejected(self, lags, moments):
        with pytest.raises(ValueError):
            fit_power_law(lags, moments)


class TestFitHoelder:
    @pytest.mark.parametrize("eqn,hurst,direction", [
        (HEAT, 0.5, Direction.TIME),
        (WAVE, 0.3, Direction.TIME),
        (HEAT, 0.7, Direction.SPACE),
    ])
    def test_slope_matches_theory(self, eqn, hurst, direction):
        fit = fit_hoelder(eqn, hurst, direction)
        expected = expected_hoelder_slope(eqn, hurst, direction)
        assert abs(fit.slope - expected) <= 0.1
        assert fit.r_squared >= 0.999

    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_moments_are_the_pairwise_increment_moments(self, eqn,
                                                        direction):
        # Bit for bit: the base and its shifted copies are points, whose
        # lag comes from their coordinates as in increment_moment2.
        lags = (0.001, 0.01, 0.1, 0.5, 1.5)
        for t0, x0 in ((0.75, -0.3), (0.3, 0.1), (0.7, -0.3)):
            fit = fit_hoelder(eqn, 0.35, direction, base_time=t0,
                              base_pos=x0, lags=lags)
            for lag, moment in zip(lags, fit.moments):
                end = ((t0 + lag, x0) if direction is Direction.TIME
                       else (t0, x0 + lag))
                assert moment == increment_moment2(eqn, 0.35, (t0, x0), end)

    @pytest.mark.parametrize("lags", [
        (0.0, 0.1, 0.2, 0.3), (-0.1, 0.1, 0.2, 0.3),
        (0.1, 0.2, 0.3, math.inf), (0.1, 0.2, 0.3, math.nan),
    ])
    def test_lags_validated(self, lags):
        with pytest.raises(ValueError):
            fit_hoelder(HEAT, 0.5, Direction.SPACE, lags=lags)

    def test_monte_carlo_cross_check(self):
        # Empirical second moments of sampled space increments fit the
        # exact slope 2H = 1 up to sampling noise.
        lags = 2.0 ** -np.arange(8.0, 2.0, -1.0)
        points = [(1.0, 0.0)] + [(1.0, lag) for lag in lags]
        values = sample_field(factor_psd(cov_matrix(HEAT, 0.5, points)),
                              0, 2000).values
        moments = np.mean((values[:, 1:] - values[:, :1]) ** 2, axis=0)
        assert abs(fit_power_law(lags, moments).slope - 1.0) <= 0.15


class TestLemmaBound:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("kind", list(ShiftKind))
    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    def test_ratio_never_exceeds_one(self, kind, eqn, alpha):
        report = verify_lemma_bound(kind, eqn, alpha)
        assert report.max_ratio <= 1.0 + 1e-6
        assert report.max_ratio > 0.0
        assert report.lhs_monotone
        for row in report.rows:
            assert row.lhs >= 0.0
            assert row.rhs > 0.0

    def test_space_bound_is_sharp_for_small_shifts(self):
        # The constant is the small-shift limit, so the smallest shifts
        # must approach ratio one from below.
        for eqn in (HEAT, WAVE):
            report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, eqn, 0.0)
            assert report.max_ratio >= 0.99

    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    def test_space_rows_are_increment_moments(self, eqn):
        # Bit for bit, the default shifts and shifts past the horizon.
        nc = noise_constant(0.3)
        for shifts in (None, (0.01, 0.3, 1.1, 2.9)):
            report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, eqn, 0.4,
                                        horizon=0.8, shifts=shifts)
            for row in report.rows:
                assert row.lhs == increment_moment2(
                    eqn, 0.3, (0.8, 0.0), (0.8, row.shift)) / nc

    # Near alpha = -1 the heat bracket is of size (1 + alpha)/2 and its
    # Gamma factor has a pole.  References: the Gaussian sum at 50
    # digits (mpmath), horizon 1; shift 4 takes the rises, the others
    # the series of the second difference.
    @pytest.mark.parametrize("alpha, shift, truth", [
        (-1 + 1e-15, 1e-08, 6.9314717805995198e-9),
        (-1 + 1e-15, 0.5, 0.29623480640325074),
        (-1 + 1e-15, 4.0, 1.3170728920779378),
        (-1 + 1e-13, 1e-08, 6.9314717806061062e-9),
        (-1 + 1e-13, 1e-04, 6.9312218181021841e-5),
        (-1 + 1e-13, 4.0, 1.317072892077964),
        (-1 + 1e-09, 1e-04, 6.9312218526857943e-5),
        (-1 + 1e-09, 4.0, 1.3170728923424369),
        (-0.999, 1e-08, 6.9983018291528218e-9),
        (-0.999, 0.5, 0.29650832284980204),
    ])
    def test_heat_time_rows_near_alpha_minus_one(self, alpha, shift, truth):
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, alpha,
                                    shifts=(shift,))
        assert abs(report.rows[0].lhs - truth) <= 1e-14 * truth

    @pytest.mark.parametrize("alpha, const", [
        (-1 + 1e-15, 0.34657359027997279),
        (-1 + 1e-13, 0.34657359027998599),
        (-0.999, 0.34670705185448793),
    ])
    def test_heat_time_constant_near_alpha_minus_one(self, alpha, const):
        # rhs / h^((1-alpha)/2) is twice the smoothing constant
        # Gamma(d) (2^d - 1) / (1 - alpha), d = (1 + alpha)/2, here at
        # 50 digits.
        row = verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, alpha,
                                 shifts=(1.0,)).rows[0]
        assert abs(row.rhs - 2.0 * const) <= 1e-15 * const

    @pytest.mark.parametrize("alpha", [-1 + 1e-15, -1 + 1e-13, -1 + 1e-11])
    def test_heat_time_bound_holds_near_alpha_minus_one(self, alpha):
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, alpha,
                                    shifts=(1e-8, 1e-4, 0.5))
        assert report.max_ratio <= 1.0

    def test_wave_time_bound_keeps_known_slack(self):
        # The wave time constant overshoots by roughly 1/16 at alpha=0.
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT, WAVE, 0.0)
        assert 0.15 <= report.max_ratio <= 0.3

    # Independent route: the quadrature oracle integrates the spectral
    # form of each time-shift row.  Its tolerance is purely relative; it
    # misses it on about 1 point in 150, which is skipped.  Near alpha =
    # +-1 its exponents alpha - 2 and alpha - 3 keep only the absolute
    # digits of 1 -+ alpha, so the box stops at |alpha| = 0.999.
    @given(st.floats(min_value=-0.999, max_value=0.999),
           st.integers(min_value=1, max_value=8),
           st.sampled_from([HEAT, WAVE]))
    def test_time_rows_match_spectral_engine(self, alpha, k, eqn):
        shift = 2.0 ** -k
        res = time_shift_lhs(eqn, alpha, 1.0, shift,
                             QuadratureSpec(rel_tol=1e-7, abs_tol=1e-15))
        assume(res.converged)
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT, eqn, alpha,
                                    shifts=(shift,))
        assert abs(report.rows[0].lhs - res.value) <= 1e-7 * abs(res.value)

    # Shifts where the unregrouped sums of the closed forms lose up to 9%
    # (wave, alpha = -0.9, h = 1e-8).  References: the Gaussian and
    # Mellin-transform sums at 50 digits (mpmath), horizon 1.
    @pytest.mark.parametrize("eqn, alpha, shift, truth", [
        ("heat", -0.9, 1e-08, 1.8154621499254374e-8),
        ("heat", -0.9, 1e-06, 1.4420726033162877e-6),
        ("heat", -0.5, 1e-08, 9.1465492112393672e-7),
        ("heat", -0.5, 1e-06, 2.8923928012449057e-5),
        ("wave", -0.9, 1e-08, 7.9082959001482404e-15),
        ("wave", -0.9, 1e-06, 5.3492897859785475e-11),
        ("wave", -0.5, 1e-08, 3.3423482660050354e-12),
        ("wave", -0.5, 1e-06, 3.3439422649521183e-9),
    ])
    def test_time_rows_match_high_precision(self, eqn, alpha, shift, truth):
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT,
                                    EquationKind.parse(eqn), alpha,
                                    shifts=(shift,))
        assert abs(report.rows[0].lhs - truth) <= 1e-13 * truth

    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    def test_time_rows_continuous_through_alpha_zero(self, eqn):
        # The Mellin factor Gamma(alpha-2) sin(pi (alpha-2)/2) has a
        # removable singularity at alpha = 0 that the reflection form
        # never meets.
        at_zero = verify_lemma_bound(ShiftKind.TIME_SHIFT, eqn, 0.0)
        for alpha in (-1e-17, 1e-17, 5e-324):
            near = verify_lemma_bound(ShiftKind.TIME_SHIFT, eqn, alpha)
            for a, b in zip(at_zero.rows, near.rows):
                assert math.isfinite(b.lhs)
                assert abs(a.lhs - b.lhs) <= 1e-15 * a.lhs

    def test_report_carries_roughness(self):
        report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, HEAT, -0.5)
        assert report.alpha == -0.5

    def test_domain_validated(self):
        for alpha in (-1.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                verify_lemma_bound(ShiftKind.SPACE_SHIFT, HEAT, alpha)
        with pytest.raises(ValueError):
            verify_lemma_bound(ShiftKind.SPACE_SHIFT, HEAT, 0.0,
                               horizon=0.0)

    @pytest.mark.parametrize("shifts", [
        (), (0.0, 0.5), (-0.25, 0.5), (0.5, 0.25), (0.25, 0.25),
    ])
    def test_shifts_validated(self, shifts):
        with pytest.raises(ValueError):
            verify_lemma_bound(ShiftKind.SPACE_SHIFT, HEAT, 0.0,
                               shifts=shifts)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_time_shift_raises(self):
        # The wave lhs at alpha = -0.9 and shift 1e300 is 2.05e571, out
        # of double range; max() over the ratios used to skip such a row.
        with pytest.raises(NumericalError,
                           match="^time_shift:wave:alpha=-0.9 at shift "
                                 "1e\\+300 has lhs inf "):
            verify_lemma_bound(ShiftKind.TIME_SHIFT, WAVE, -0.9,
                               shifts=[0.1, 1e300])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, shift, truth", [
        (0.2, 1e300, 3.0875136178171157899e240),
        (-0.9, 1e150, 2.0507913756307710419e286)])
    def test_wave_time_row_at_huge_shift(self, alpha, shift, truth):
        # h^(2 - alpha) overflows here though the lhs is in range (these
        # rows raised "lhs -inf" and "lhs inf"); reference the Mellin sum
        # at 800 digits (mpmath), horizon 1.  Its 4e-14 are the rounding
        # of 1 - alpha, times ln(shift) = 345 or 691.
        row = verify_lemma_bound(ShiftKind.TIME_SHIFT, WAVE, alpha,
                                 shifts=[0.1, shift]).rows[1]
        assert abs(row.lhs - truth) <= 1e-13 * truth

    @pytest.mark.filterwarnings("error")
    def test_heat_time_row_at_huge_shift(self):
        # The rises keep the heat lhs at 1e300 finite (it was nan);
        # reference the Gaussian sum at 700 digits (mpmath), horizon 1.
        # Its 5e-14 are the rounding of e = 0.4 times ln(5e299) = 690.
        row = verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, 0.2,
                                 shifts=[0.1, 1e300]).rows[1]
        assert abs(row.lhs - 3.7229806220320428) <= 1e-13 * row.lhs

    # Below T = h/2 the time-shift brackets are regrouped into rises,
    # which leave no terms of size h^p to cancel; the series of the
    # second difference holds above.  References on both sides of T/h =
    # 1/2: the Gaussian and Mellin-transform sums at 60 digits (mpmath),
    # horizon 1.
    @pytest.mark.parametrize("eqn, alpha, shift, truth", [
        ("heat", -0.5, 1.999, 1.1315287869787107),
        ("heat", -0.5, 2.001, 1.1320946929035222),
        ("heat", 0.5, 1.999, 3.6683597870168008),
        ("heat", 0.5, 2.001, 3.6689712313442137),
        ("wave", -0.5, 1.999, 12.502269248438584),
        ("wave", -0.5, 2.001, 12.52154691169212),
        ("wave", 0.5, 1.999, 6.4050940900312651),
        ("wave", 0.5, 2.001, 6.407955707545636),
    ])
    def test_time_rows_on_both_sides_of_the_rises(self, eqn, alpha, shift,
                                                  truth):
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT,
                                    EquationKind.parse(eqn), alpha,
                                    shifts=(shift,))
        assert abs(report.rows[0].lhs - truth) <= 1e-15 * truth

    # At small horizons T the default rows approach their small-T
    # limits: the heat's Gamma(1 + d) T^e / (e d), e = (1 - alpha)/2, d =
    # 1 - e, and the wave's 2 T h^(1 - alpha) (C - mellin p (2^(p-1) -
    # 2) / 2), p = 2 - alpha, C the cosine integral and mellin the
    # reflected Mellin factor.  Relative to the limit the next term is
    # of order s^g, s = 2T/h, g = d for the heat and min(p - 1, 1) for
    # the wave, with coefficient at most 0.9 here; the rounding of
    # exponents up to d |ln s| = 520 adds at most 1e-13.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    def test_small_horizons_approach_their_limit(self, eqn, alpha):
        d, e, p = 0.5 * (1.0 + alpha), 0.5 * (1.0 - alpha), 2.0 - alpha
        cos_int = (math.pi / 2.0 if alpha == 0.0 else math.gamma(alpha)
                   * math.sin(math.pi * alpha / 2.0) / (1.0 - alpha))
        mellin = -math.pi / (2.0 * math.gamma(3.0 - alpha)
                             * math.cos(math.pi * alpha / 2.0))
        for k in range(5, 301):
            horizon = 10.0 ** -k
            report = verify_lemma_bound(ShiftKind.TIME_SHIFT, eqn, alpha,
                                        horizon=horizon)
            assert report.max_ratio <= 1.0
            for row in report.rows:
                s = 2.0 * horizon / row.shift
                if eqn is HEAT:
                    limit = math.gamma(1.0 + d) / (e * d) * horizon ** e
                    order = s ** d
                else:
                    limit = (2.0 * horizon * row.shift ** (1.0 - alpha)
                             * (cos_int - 0.5 * mellin * p
                                * (2.0 ** (p - 1.0) - 2.0)))
                    order = s ** min(p - 1.0, 1.0)
                assert math.isfinite(row.lhs) and row.lhs > 0.0
                assert abs(row.lhs / limit - 1.0) <= order + 1e-13, (k, row)

    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    @pytest.mark.parametrize("alpha, shift, rhs", [
        (-0.5, 1e300, "inf"),  # h ** 1.5 overflows
        (-0.9, 1e-300, "0.0")])  # h ** 1.9 underflows
    def test_rhs_out_of_range_raises(self, eqn, alpha, shift, rhs):
        # Python's float power used to raise OverflowError, and the
        # division by an rhs of 0 ZeroDivisionError.
        shifts = sorted([0.1, shift])
        with pytest.raises(NumericalError, match=f"^space_shift:"
                                                 f"{eqn.value}:.* and rhs "
                                                 f"{rhs}: "):
            verify_lemma_bound(ShiftKind.SPACE_SHIFT, eqn, alpha,
                               shifts=shifts)

    def test_empty_shifts_rejected(self):
        with pytest.raises(ValueError, match="need at least one shift"):
            verify_lemma_bound(ShiftKind.SPACE_SHIFT, HEAT, 0.0, shifts=[])

    @pytest.mark.parametrize("lhs, monotone", [
        # Rows near 1e-13 that fall by 1e-6 of themselves per shift.  An
        # absolute slack of 1e-12 read them as monotone.
        (lambda n: 1e-13 * (1.0 - 1e-6 * np.arange(n)), False),
        # Rows that fall by one ulp, as rounding may leave them.
        (lambda n: np.where(np.arange(n) > 3, np.nextafter(1e-13, 0.0),
                            1e-13), True),
    ], ids=["falling", "one_ulp_fall"])
    def test_monotone_slack_is_relative(self, monkeypatch, lhs, monotone):
        from fracfield import analysis
        monkeypatch.setattr(analysis, "_heat_time_lhs",
                            lambda alpha, horizon, h: lhs(h.size))
        report = verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, 0.0)
        assert all(row.lhs < 1e-12 for row in report.rows)
        assert report.lhs_monotone is monotone

    def test_monotone_verdicts_at_tiny_horizons(self):
        # Below a horizon of 1e-40 the heat time-shift lhs at alpha 0.999
        # is flat far below rounding, and its rows, of size 1e3, differ by
        # rounding alone.  At a horizon of 1e-10 the wave space-shift lhs
        # at alpha 0.5 falls by 2^-1.5 of its last fall at each doubling
        # of the shift, 5e-13 of itself at the first step: the far-field
        # covariance, of order shift^(2H - 2), is negative at H = 1/4.
        # Every default shift is past the wave's reach, the horizon, so
        # those falls are not checked.
        assert verify_lemma_bound(ShiftKind.TIME_SHIFT, HEAT, 0.999,
                                  horizon=1e-300).lhs_monotone
        report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, WAVE, 0.5,
                                    horizon=1e-10)
        falls = -np.diff([row.lhs for row in report.rows])
        assert np.all(falls > 0.0)
        assert np.allclose(falls[1:4] / falls[:3], 2.0 ** -1.5, rtol=0.05)
        assert report.lhs_monotone

    @pytest.mark.parametrize("eqn, reach", [(HEAT, 1e-5 ** 0.5),
                                            (WAVE, 1e-5)])
    def test_space_rows_checked_up_to_the_reach(self, eqn, reach):
        # At a horizon of 1e-5 the space-shift lhs at alpha 0.5 rises
        # through the reach, sqrt(T) for the heat and T for the wave, to
        # its peak at about 2.5 sqrt(T) or 1.8 T, and then falls.
        shifts = [reach * 2.0 ** (k / 2.0) for k in range(-12, 21)]
        report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, eqn, 0.5,
                                    horizon=1e-5, shifts=shifts)
        lhs = np.array([row.lhs for row in report.rows])
        inside = np.array(shifts) <= reach
        assert np.all(np.diff(lhs[inside]) > 0.0)
        assert np.any(np.diff(lhs) < 0.0)
        assert report.max_ratio <= 1.0
        assert report.lhs_monotone

    @pytest.mark.parametrize("horizon, shifts, fall_at, monotone", [
        # A fall anywhere inside the reach reads False, up to a shift at
        # the reach itself.
        (1.0, None, 0.125, False),
        (1.0, (0.25, 0.5, 1.0, 2.0), 1.0, False),
        # A fall past the reach is the far field, and is not checked.
        (1.0, (0.25, 0.5, 1.0, 2.0), 2.0, True),
        (1e-5, None, 0.125, True),
    ])
    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    def test_space_falls_count_only_inside_the_reach(
            self, monkeypatch, eqn, horizon, shifts, fall_at, monotone):
        from fracfield import analysis

        def closed_incr(eqn, h, t1, x1, t2, x2):
            return np.where(x2 >= fall_at, 0.5, 1.0)

        monkeypatch.setattr(analysis, "_closed_incr", closed_incr)
        report = verify_lemma_bound(ShiftKind.SPACE_SHIFT, eqn, 0.0,
                                    horizon=horizon, shifts=shifts)
        assert report.lhs_monotone is monotone


class TestHConvergence:
    def test_sups_vanish_at_reference(self):
        res = h_convergence(WAVE, (0.45, 0.49, 0.499, 0.5), 0.5)
        assert np.all(np.diff(res.sups) < 0.0)
        assert res.sups[-1] == 0.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            h_convergence(WAVE, (0.4,), 0.5, pairs=())

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError, match="at least one trial index"):
            h_convergence(WAVE, (), 0.5)

    @pytest.mark.parametrize("h", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("pair", [((0.2, -0.1), (0.9, 0.6)),
                                      ((0.3, 0.1), (0.7, 0.5))])
    def test_sups_are_the_covariance_distances(self, pair, h):
        # Light-cone pairs, where a lag taken from the rounded separation
        # and time difference would not be the lag of the points.
        sup = h_convergence(WAVE, [h], 0.5, pairs=[pair]).sups[0]
        assert sup == abs(conv_cov(WAVE, h, *pair)
                          - conv_cov(WAVE, 0.5, *pair))

    def test_pair_outside_cones_contributes(self):
        # |dx| = 2 >= t1 + t2 = 1.5: correlated for fractional noise.
        pair = ((0.5, -1.0), (1.0, 1.0))
        assert pair in DEFAULT_H_PAIRS
        assert conv_cov(WAVE, 0.3, *pair) != 0.0

    @pytest.mark.parametrize("reference", [0.3, 0.5, 0.7])
    def test_wave_sups_decrease_on_cli_ladder(self, reference):
        hursts = [reference + 0.2 * 2.0 ** -k for k in range(8)]
        res = h_convergence(WAVE, hursts, reference)
        assert np.all(np.diff(res.sups) < 0.0)
