"""Tests for the half-line spectral quadrature engine.

Oracles: scipy.integrate.quad (including its oscillatory-weight mode)
and closed forms of classical integrals, evaluated through different
formula arrangements than the implementation uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracfield.spectral import cos_integral_constant

from oracle import (QuadratureError, QuadratureSpec, osc_power_tail,
                    power_tail, spectral_integral)

QUAD = QuadratureSpec()


def rel_err(value, truth):
    return abs(value - truth) / abs(truth)


class TestPowerTail:
    @pytest.mark.parametrize("s, cutoff", [
        (-1.5, 10.0), (-2.0, 200.0), (-3.7, 50.0), (-6.0, 1000.0),
    ])
    def test_matches_antiderivative(self, s, cutoff):
        expected = cutoff ** (s + 1.0) / (-s - 1.0)
        assert rel_err(power_tail(s, cutoff), expected) < 1e-15

    @given(st.floats(min_value=-8.0, max_value=-1.1),
           st.floats(min_value=10.0, max_value=1e4))
    def test_positive_and_decreasing_in_cutoff(self, s, cutoff):
        tail = power_tail(s, cutoff)
        assert tail > 0.0
        assert power_tail(s, 2.0 * cutoff) < tail

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_tail(-1.0, 10.0)


class TestOscPowerTail:
    @pytest.mark.parametrize("s, freq, kind", [
        (-1.5, 1.0, "cos"), (-1.5, 1.0, "sin"),
        (-2.5, 0.5, "cos"), (-2.5, 3.0, "sin"),
        (-3.5, 2.0, "cos"), (-1.2, 4.0, "sin"),
    ])
    def test_matches_scipy_oscillatory_quad(self, s, freq, kind):
        integrate = pytest.importorskip("scipy.integrate")
        cutoff = 200.0
        value, err = osc_power_tail(s, freq, cutoff, kind=kind)
        oracle, _ = integrate.quad(lambda x: x ** s, cutoff, np.inf,
                                   weight=kind, wvar=freq)
        assert err >= 0.0
        assert abs(value - oracle) < max(1e-12, 5.0 * err)

    def test_zero_frequency_degenerates(self):
        value, err = osc_power_tail(-2.0, 0.0, 100.0, kind="cos")
        assert value == power_tail(-2.0, 100.0)
        assert err == 0.0
        value, err = osc_power_tail(-2.0, 0.0, 100.0, kind="sin")
        assert value == 0.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            osc_power_tail(-2.0, 1.0, 100.0, kind="tan")


class TestCosIntegralConstant:
    # Frozen oracle: -Gamma(alpha-1) * sin(pi alpha / 2), checked against
    # mpmath.quadosc of the defining integral to <= 1e-9 before freezing.
    @pytest.mark.parametrize("alpha", [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
    def test_matches_reflection_form(self, alpha):
        expected = -math.gamma(alpha - 1.0) * math.sin(math.pi * alpha / 2.0)
        assert rel_err(cos_integral_constant(alpha), expected) < 1e-13

    def test_continuous_at_zero(self):
        assert cos_integral_constant(0.0) == math.pi / 2.0
        assert abs(cos_integral_constant(1e-9) - math.pi / 2.0) < 1e-7

    @pytest.mark.parametrize("alpha", [-1.0, 1.0, 2.0])
    def test_domain_enforced(self, alpha):
        with pytest.raises(ValueError):
            cos_integral_constant(alpha)


class TestSpectralIntegral:
    def test_pure_gaussian_weight(self):
        # int_0^inf exp(-xi^2) dxi = sqrt(pi)/2; head series of exp(-x^2)
        # is 1 - x^2 + x^4/2 - x^6/6.
        res = spectral_integral(
            lambda xi: np.exp(-xi * xi), 0.0, QUAD,
            head_coeffs=(1.0, -1.0, 0.5, -1.0 / 6.0),
            gauss_scales=(2.0,), gauss_suppressed_scale=2.0)
        assert res.converged
        assert rel_err(res.value, math.sqrt(math.pi) / 2.0) < 1e-12
        assert res.err_estimate < 1e-10

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_cauchy_weight_closed_form(self, alpha):
        # int_0^inf xi^alpha / (1 + xi^2) dxi = pi / (2 cos(pi alpha / 2)).
        tails = tuple(("pow", (-1.0) ** k, alpha - 2.0 * (k + 1), 0.0)
                      for k in range(3))
        res = spectral_integral(
            lambda xi: 1.0 / (1.0 + xi * xi), alpha, QUAD,
            head_coeffs=(1.0, -1.0, 1.0, -1.0), tail_terms=tails)
        expected = math.pi / (2.0 * math.cos(math.pi * alpha / 2.0))
        assert res.converged
        assert rel_err(res.value, expected) < 1e-9

    @given(st.floats(min_value=-0.85, max_value=0.85))
    def test_cauchy_weight_any_exponent(self, alpha):
        tails = tuple(("pow", (-1.0) ** k, alpha - 2.0 * (k + 1), 0.0)
                      for k in range(3))
        res = spectral_integral(
            lambda xi: 1.0 / (1.0 + xi * xi), alpha, QUAD,
            head_coeffs=(1.0, -1.0, 1.0, -1.0), tail_terms=tails)
        expected = math.pi / (2.0 * math.cos(math.pi * alpha / 2.0))
        assert rel_err(res.value, expected) < 1e-8

    def test_oscillatory_weight(self):
        # int_0^inf (1 - cos(h xi)) xi^(alpha - 2) dxi scales as
        # h^(1 - alpha) times the constant; h = 0.25, alpha = 0.5.
        h, alpha = 0.25, 0.5

        def weight(xi):
            return (1.0 - np.cos(h * xi)) / (xi * xi)

        res = spectral_integral(
            weight, alpha, QUAD,
            head_coeffs=(h * h / 2.0, -h ** 4 / 24.0, h ** 6 / 720.0,
                         h ** 8 / 40320.0),
            tail_terms=(("pow", 1.0, alpha - 2.0, 0.0),
                        ("cos", -1.0, alpha - 2.0, h)),
            freqs=(h,))
        expected = cos_integral_constant(alpha) * h ** (1.0 - alpha)
        assert res.converged
        assert rel_err(res.value, expected) < 1e-10

    def test_impossible_tolerance_flags_not_converged(self):
        # Error estimates bottom out near machine precision, so an
        # absurd tolerance must be reported as non-convergence, never
        # silently absorbed.
        hopeless = QuadratureSpec(rel_tol=1e-30, abs_tol=1e-30)
        tails = tuple(("pow", (-1.0) ** k, -2.0 * (k + 1), 0.0)
                      for k in range(3))
        res = spectral_integral(
            lambda xi: 1.0 / (1.0 + xi * xi), 0.0, hopeless,
            head_coeffs=(1.0, -1.0, 1.0, -1.0), tail_terms=tails)
        assert not res.converged
        assert rel_err(res.value, math.pi / 2.0) < 1e-9
        with pytest.raises(QuadratureError):
            res.require("tolerance test")
