"""Tests for spectral constants, Fourier multipliers and time kernels.

Oracles: direct Gamma-function formulas, scipy.integrate.quad of the
defining s-integrals, frozen closed-form values, and scipy.special.gamma
for the Cephes port of the Gamma function.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracfield import (EquationKind, HurstIndex, dalang_integral_closed,
                       noise_constant)
from fracfield.spectral import _gamma, cos_integral_constant

from oracle import dalang_integral_quad, fourier_kernel, time_kernel


def rel_err(value, truth):
    return abs(value - truth) / abs(truth)


class TestHurstIndex:
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.3,
                                       float("nan"), float("inf")])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            HurstIndex(value)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_spectral_exponent(self, h):
        idx = HurstIndex(h)
        assert idx.spectral_exponent == 1.0 - 2.0 * h
        assert -1.0 < idx.spectral_exponent < 1.0


class TestEquationKind:
    @pytest.mark.parametrize("name, kind", [
        ("heat", EquationKind.HEAT), ("wave", EquationKind.WAVE),
        ("Heat", EquationKind.HEAT), ("WAVE", EquationKind.WAVE),
    ])
    def test_parse(self, name, kind):
        assert EquationKind.parse(name) is kind

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            EquationKind.parse("laplace")


class TestNoiseConstant:
    def test_brownian_case_pinned(self):
        # H = 1/2 must give exactly 1/(2 pi).
        assert abs(noise_constant(0.5) - 1.0 / (2.0 * math.pi)) < 1e-16
        assert f"{noise_constant(0.5):.6f}" == "0.159155"

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_gamma_formula(self, h):
        expected = (math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h)
                    / (2.0 * math.pi))
        assert rel_err(noise_constant(h), expected) < 1e-13
        assert noise_constant(h) > 0.0

    def test_accepts_hurst_index(self):
        assert noise_constant(HurstIndex(0.3)) == noise_constant(0.3)


class TestFourierKernel:
    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_wave_formula(self, t):
        xi = np.array([1e-3, 0.1, 1.0, 7.0, 40.0])
        vals = fourier_kernel(EquationKind.WAVE, t, xi)
        assert np.allclose(vals, np.sin(t * xi) / xi, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_heat_formula(self, t):
        xi = np.array([0.0, 0.1, 1.0, 7.0])
        vals = fourier_kernel(EquationKind.HEAT, t, xi)
        assert np.allclose(vals, np.exp(-0.5 * t * xi * xi),
                           rtol=1e-14, atol=0)

    def test_wave_zero_frequency_limit(self):
        # sin(t xi)/xi -> t as xi -> 0, with no division blowup.
        vals = fourier_kernel(EquationKind.WAVE, 2.0,
                              np.array([0.0, 1e-14]))
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, 2.0, rtol=1e-12)


class TestTimeKernel:
    # Independent oracle: numerically integrate the product of the two
    # Fourier multipliers over the overlap [0, t] for t <= t2.
    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    @pytest.mark.parametrize("t, t2", [(1.0, 1.0), (1.0, 2.0),
                                       (0.5, 1.5), (0.25, 3.0)])
    @pytest.mark.parametrize("xi", [1e-4, 0.3, 2.0, 30.0])
    def test_matches_direct_s_integral(self, eqn, t, t2, xi):
        integrate = pytest.importorskip("scipy.integrate")

        def integrand(s):
            a = float(fourier_kernel(eqn, t - s, np.array([xi]))[0])
            b = float(fourier_kernel(eqn, t2 - s, np.array([xi]))[0])
            return a * b

        oracle, est = integrate.quad(integrand, 0.0, t,
                                     epsabs=1e-14, epsrel=1e-12, limit=200)
        value = float(time_kernel(eqn, t, t2, np.array([xi]))[0])
        assert abs(value - oracle) <= max(1e-12, 10.0 * est)

    def test_unordered_times_rejected(self):
        xi = np.array([0.5])
        for eqn in EquationKind:
            with pytest.raises(ValueError):
                time_kernel(eqn, 1.7, 0.4, xi)

    def test_wave_small_phase_series_continuity(self):
        # The series branch and the trig branch must agree at the switch
        # point, total phase (t + t2) xi = 0.1.
        t = t2 = 1.0
        xi_star = 0.1 / (t + t2)
        below = float(time_kernel(EquationKind.WAVE, t, t2,
                                  np.array([xi_star * (1.0 - 1e-9)]))[0])
        above = float(time_kernel(EquationKind.WAVE, t, t2,
                                  np.array([xi_star * (1.0 + 1e-9)]))[0])
        assert rel_err(below, above) < 1e-9


class TestDalangIntegral:
    def test_pinned_values_at_alpha_zero(self):
        assert rel_err(dalang_integral_closed(EquationKind.WAVE, 0.0, 1.0),
                       math.pi / 2.0) < 1e-14
        assert rel_err(dalang_integral_closed(EquationKind.HEAT, 0.0, 1.0),
                       2.0 * math.sqrt(math.pi)) < 1e-14
        assert rel_err(dalang_integral_closed(EquationKind.HEAT, 0.0, 4.0),
                       4.0 * math.sqrt(math.pi)) < 1e-14

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_closed_matches_quadrature(self, eqn, alpha):
        closed = dalang_integral_closed(eqn, alpha, 1.0)
        quad = dalang_integral_quad(eqn, alpha, 1.0)
        assert quad.converged
        assert rel_err(closed, quad.value) < 1e-9

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_monotone_in_horizon(self, eqn):
        values = [dalang_integral_closed(eqn, 0.25, t)
                  for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_divergent_exponent_rejected(self, alpha):
        with pytest.raises(ValueError):
            dalang_integral_closed(EquationKind.WAVE, alpha, 1.0)


class TestLemmaConstant:
    # The space-shift bound's constant int_R (1 - cos u) |u|^(alpha-2) du
    # is twice the half-line closed form of cos_integral_constant, which
    # goes through Gamma(alpha) or Gamma(1+alpha); the reflection form -2
    # Gamma(alpha-1) sin(pi alpha / 2) is an independent formula (itself
    # cross-checked by oscillation-aware numerical integration before
    # freezing).
    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.25, 0.5])
    def test_cos_integral_reflection_form(self, alpha):
        expected = (-2.0 * math.gamma(alpha - 1.0)
                    * math.sin(math.pi * alpha / 2.0))
        value = 2.0 * cos_integral_constant(alpha)
        assert rel_err(value, expected) < 1e-13

    def test_cos_integral_at_zero(self):
        value = 2.0 * cos_integral_constant(0.0)
        assert rel_err(value, math.pi) < 1e-13

    @pytest.mark.parametrize("alpha", [-1.0, 1.0, math.nan])
    def test_cos_integral_divergent_exponent_rejected(self, alpha):
        with pytest.raises(ValueError):
            cos_integral_constant(alpha)


class TestGammaPort:
    # The call sites' argument ranges: (-1, 0) and (1/2, 3/2) in the heat
    # covariance, (0, 1) in the cos-integral constant and the heat Dalang
    # integral, (1, 3) in noise_constant, (2, 4) in the wave time rows,
    # and (1/2, inf) in gaussian_abs_moment, whose Stirling branch starts
    # at 33 and overflows at 171.62.
    @pytest.mark.parametrize("lo, hi", [
        (-1.0, 0.0), (0.0, 1.0), (0.5, 1.5), (1.0, 3.0), (2.0, 4.0),
        (0.5, 33.0), (33.0, 172.0)])
    def test_bit_identical_to_scipy(self, lo, hi):
        special = pytest.importorskip("scipy.special")
        xs = np.random.default_rng(int(100 * (lo + 2) + hi)).uniform(
            lo, hi, 100_000)
        got = np.array([_gamma(x) for x in xs.tolist()])
        assert np.array_equal(got, special.gamma(xs))

    def test_branch_edges_bit_identical_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        edges = [-1e-9, 1e-9, 1.0, 2.0, 3.0, 33.0, 143.01608,
                 171.624376956302725, 0.5, 1.5, 2.5]
        xs = np.array([np.nextafter(e, d) for e in edges
                       for d in (-np.inf, np.inf)] + edges
                      + [-1e-300, 1e-300, -0.999999, 171.7, np.inf])
        got = np.array([_gamma(x) for x in xs.tolist()])
        assert np.array_equal(got, special.gamma(xs))

    def test_math_gamma_is_not_the_same_function(self):
        # Why the port exists: libm's gamma differs in the last bits.
        xs = np.random.default_rng(0).uniform(1.0, 3.0, 1000).tolist()
        assert any(math.gamma(x) != _gamma(x) for x in xs)

    def test_pole_raises(self):
        for x in (0.0, -1.0):
            with pytest.raises(ZeroDivisionError):
                _gamma(x)
