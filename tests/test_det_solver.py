"""Tests for the deterministic fixed-point solver.

Oracles: closed-form solutions of the scalar integral equations (t,
t^2/2, e^t, cos t), exact Gaussian smoothing of sines, d'Alembert
averages, structural facts (light-cone support, spatial-constancy
preservation, contraction of the Picard map), global Picard iteration
to a tight tolerance, and whole-stack references that the row sweeps of
the convolutions must match bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fracfield import det_solver
from fracfield import (DriftSpec, EquationKind, GridFunction, HurstIndex,
                       InitialData, NumericalError, PointGrid,
                       cov_matrix, drift_truncate, factor_psd, initial_term,
                       initial_term_grid, make_drift, make_initial_data,
                       picard_apply, sample_field, solve_replicates)

from oracle import ode_oracle, picard_oracle

HEAT = EquationKind.HEAT
WAVE = EquationKind.WAVE


def const_field(grid, value):
    return GridFunction(grid=grid,
                        values=np.full((grid.n_t + 1, grid.n_x + 1),
                                       float(value)))


def heat_grid(n_t=200):
    return PointGrid(horizon=1.0, half_width=0.5, n_t=n_t, n_x=8)


def wave_grid(n_t=100, n_x=16):
    # dx == dt == 1/n_t when half_width = n_x / (2 n_t).
    return PointGrid(horizon=1.0, half_width=0.5 * n_x / n_t,
                     n_t=n_t, n_x=n_x)


# Clipped identity drift: b(z) = z wherever |z| <= 10, which covers
# every value the tests below reach, so the clip never acts.
BLIN = drift_truncate(make_drift("linear", a=1.0), 10.0)

# A drift that declares L = 1 and passes the probe on [-8, 8], but has
# slope -15.9 beyond it.  On LYING_GRID (dt = 1/8) a heat node near
# z = 50 then contracts by 15.9 dt / 2 = 0.994 per evaluation, not by
# dt / 2, and cannot settle within the cap that dt / 2 sets.
LYING = DriftSpec(
    func=lambda z: np.where(np.abs(z) <= 8.0, np.tanh(z),
                            np.tanh(z) - 15.9 * (z - 50.0)),
    lipschitz_constant=1.0, name="lying")
LYING_GRID = PointGrid(horizon=1.0, half_width=0.5, n_t=8, n_x=4)


def ulps_of_sup(residual, field):
    """A residual in units of the spacing of doubles at the field's sup."""
    return residual / np.spacing(np.max(np.abs(field)))


class TestPointGrid:
    def test_spacings_and_nodes(self):
        g = PointGrid(horizon=2.0, half_width=1.0, n_t=4, n_x=8)
        assert g.dt == 0.5
        assert g.dx == 0.25
        assert np.array_equal(g.times(), np.linspace(0.0, 2.0, 5))
        assert np.array_equal(g.positions(), np.linspace(-1.0, 1.0, 9))
        t, x = g.nodes()
        assert t.shape == x.shape == (45,)
        assert (t[0], x[0]) == (0.0, -1.0)
        assert (t[-1], x[-1]) == (2.0, 1.0)
        # Time-major: the positions run fastest.
        assert np.array_equal(t.reshape(5, 9), np.repeat(
            g.times()[:, None], 9, axis=1))
        assert np.array_equal(x.reshape(5, 9), np.tile(g.positions(), (5, 1)))

    def test_alignment_flag(self):
        assert wave_grid().is_aligned
        assert not PointGrid(horizon=1.0, half_width=1.0,
                             n_t=10, n_x=10).is_aligned

    @pytest.mark.parametrize("kwargs", [
        dict(horizon=0.0, half_width=1.0, n_t=4, n_x=4),
        dict(horizon=1.0, half_width=-1.0, n_t=4, n_x=4),
        dict(horizon=1.0, half_width=1.0, n_t=1, n_x=4),
        dict(horizon=1.0, half_width=1.0, n_t=4, n_x=0),
        dict(horizon=math.inf, half_width=1.0, n_t=4, n_x=4),
        dict(horizon=1.0, half_width=math.inf, n_t=4, n_x=4),
        dict(horizon=math.nan, half_width=1.0, n_t=4, n_x=4),
        dict(horizon=1.0, half_width=math.nan, n_t=4, n_x=4),
    ])
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PointGrid(**kwargs)


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        g = heat_grid(n_t=4)
        with pytest.raises(ValueError):
            GridFunction(grid=g, values=np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        g = heat_grid(n_t=4)
        vals = np.zeros((5, 9))
        vals[2, 2] = np.inf
        with pytest.raises(ValueError):
            GridFunction(grid=g, values=vals)


class TestDriftSpec:
    def test_understated_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(func=lambda z: 2.0 * np.asarray(z, dtype=float),
                      lipschitz_constant=1.0)

    def test_negative_metadata_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(func=np.tanh, lipschitz_constant=-1.0)

    def test_non_finite_drift_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            DriftSpec(func=lambda z: 1.0 / np.asarray(z, dtype=float),
                      lipschitz_constant=100.0)

    def test_honest_specs_pass(self):
        bounded = DriftSpec(func=np.tanh, lipschitz_constant=1.0)
        linear = DriftSpec(func=lambda z: np.asarray(z, dtype=float),
                           lipschitz_constant=1.0)
        assert bounded.name == linear.name == "custom"

    def test_scalar_only_drift_rejected(self):
        # math.tanh takes one float; the solver would fail on its first
        # array call with a bare TypeError.
        with pytest.raises(ValueError, match="drift must be vectorized"):
            DriftSpec(func=math.tanh, lipschitz_constant=1.0)

    def test_drift_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="drift must be vectorized"):
            DriftSpec(func=lambda z: 0.0, lipschitz_constant=0.0)


class TestMakeDrift:
    def test_registry_values(self):
        z = np.array([-2.0, 0.0, 1.5])
        assert np.array_equal(make_drift("zero")(z), np.zeros(3))
        assert np.array_equal(make_drift("const", c=2.5)(z),
                              np.full(3, 2.5))
        assert np.array_equal(make_drift("linear", a=3.0)(z), 3.0 * z)
        assert np.allclose(make_drift("tanh_scaled", a=2.0)(z),
                           2.0 * np.tanh(z), rtol=1e-15)

    def test_registry_metadata(self):
        assert make_drift("const", c=-4.0).lipschitz_constant == 0.0
        assert make_drift("linear", a=3.0).lipschitz_constant == 3.0
        assert make_drift("tanh_scaled", a=-2.0).lipschitz_constant == 2.0

    def test_table_drift(self):
        d = make_drift("table", xs=[-1.0, 0.0, 1.0], ys=[1.0, 0.0, 1.0])
        assert d(0.5) == 0.5
        assert d(3.0) == 1.0
        assert d.lipschitz_constant == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_drift("banana")

    @pytest.mark.parametrize("kwargs", [
        dict(xs=[1.0, 0.0], ys=[0.0, 1.0]),
        dict(xs=[0.0, 1.0], ys=[0.0, 1.0, 2.0]),
        dict(xs=[0.0], ys=[0.0]),
        dict(),
    ])
    def test_bad_table_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_drift("table", **kwargs)

    @pytest.mark.parametrize("kind, params, key", [
        ("tanh_scaled", {"A": 5.0}, "A"),
        ("tanh_scaled", {"a": 2.0, "b": 1.0}, "b"),
        ("zero", {"a": 1.0}, "a"),
        ("const", {"c": math.nan}, "c"),
        ("linear", {"a": math.inf}, "a"),
        ("linear", {"a": True}, "a"),
        ("linear", {"a": "2"}, "a"),
        ("table", {"xs": [0.0, 1.0], "ys": [0.0, math.nan]}, "ys"),
        ("table", {"xs": [0.0, 1.0], "ys": [0.0, 1.0], "zs": [1.0]}, "zs"),
        # A list where one number goes used to fail in float(), unnamed.
        ("linear", {"a": [1, 2]}, "a"),
        ("const", {"c": [1.0]}, "c"),
    ])
    def test_unknown_or_non_finite_parameter_rejected(self, kind, params,
                                                       key):
        # A misspelt key used to build the default drift silently.
        with pytest.raises(ValueError, match=f"^drift {kind} .*parameter "
                                             f"{key} "):
            make_drift(kind, **params)


class TestDriftTruncate:
    def test_clips_outside_level(self):
        clipped = drift_truncate(make_drift("linear", a=1.0), 2.0)
        assert clipped(3.0) == 2.0
        assert clipped(-5.0) == -2.0
        assert clipped(1.5) == 1.5

    def test_metadata(self):
        base = make_drift("linear", a=1.0)
        clipped = drift_truncate(base, 2.0)
        assert clipped.lipschitz_constant == base.lipschitz_constant
        assert clipped.name.endswith("|clip2")

    def test_level_above_sup_keeps_values(self):
        # Truncating at or above sup |b| leaves every value as it is.
        base = make_drift("tanh_scaled", a=1.0)
        z = np.linspace(-50.0, 50.0, 1001)
        for level in (1.0, 5.0):
            assert np.array_equal(drift_truncate(base, level)(z), base(z))

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            drift_truncate(make_drift("zero"), 0.0)


class TestInitialTerm:
    def test_heat_constant_is_preserved(self):
        data = make_initial_data(u0=("const", {"c": 3.0}))
        assert initial_term(HEAT, data, 0.7, 1.2) == pytest.approx(
            3.0, rel=1e-13)

    @pytest.mark.parametrize("k", [1.0, 3.0])
    def test_heat_damps_sine_modes(self, k):
        # Gaussian smoothing multiplies sin(kx) by exp(-t k^2 / 2).
        data = make_initial_data(u0=("sin", {"a": 1.0, "k": k}))
        xs = np.linspace(-2.0, 2.0, 9)
        got = initial_term(HEAT, data, 0.7, xs)
        want = math.exp(-0.7 * k * k / 2.0) * np.sin(k * xs)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_wave_unit_speed_gives_time(self):
        data = make_initial_data(u0=("zero", {}), v0=("const", {"c": 1.0}))
        for t in (0.25, 1.0, 2.0):
            assert initial_term(WAVE, data, t, 0.3) == pytest.approx(
                t, rel=1e-9)

    def test_wave_sine_profile_stands(self):
        # d'Alembert's average (sin(x+t) + sin(x-t))/2 is sin x cos t.
        data = make_initial_data(u0=("sin", {}))
        for t, x in ((0.4, 1.3), (2.0, -0.7)):
            assert initial_term(WAVE, data, t, x) == pytest.approx(
                math.sin(x) * math.cos(t), abs=1e-12)

    def test_time_zero_returns_u0(self):
        data = make_initial_data(u0=("bump", {"a": 2.0, "w": 0.5}))
        xs = np.array([-1.0, 0.0, 0.5])
        got = initial_term(HEAT, data, 0.0, xs)
        assert np.array_equal(got, 2.0 * np.exp(-xs ** 2 / 0.5))

    def test_negative_time_rejected(self):
        data = make_initial_data()
        with pytest.raises(ValueError):
            initial_term(HEAT, data, -0.1, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eqn", [HEAT, WAVE])
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, eqn, t):
        # Both used to return nan at every x, the wave with a warning.
        data = make_initial_data(u0=("sin", {}))
        with pytest.raises(ValueError, match=f"^time must be >= 0 and "
                                             f"finite, got {t}$"):
            initial_term(eqn, data, t, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_heat_initial_speed_rejected(self, t):
        # The heat equation is first order in time: a v0 would be ignored.
        data = make_initial_data(u0=("sin", {}), v0=("bump", {"w": 0.5}))
        with pytest.raises(ValueError, match=" v0 "):
            initial_term(HEAT, data, t, 0.0)
        with pytest.raises(ValueError, match=" v0 "):
            initial_term_grid(HEAT, data, heat_grid(n_t=4))
        assert math.isfinite(initial_term(WAVE, data, t, 0.0))

    @pytest.mark.parametrize("profile, key", [
        (("sin", {"K": 2.0}), "K"),
        (("bump", {"a": 1.0, "width": 0.5}), "width"),
        (("zero", {"c": 1.0}), "c"),
        (("const", {"c": math.nan}), "c"),
        (("bump", {"w": -math.inf}), "w"),
        (("sin", {"a": [1.0, "x"]}), "a"),
        (("bump", {"w": [0.5, 1.0]}), "w"),
    ])
    def test_unknown_or_non_finite_profile_parameter_rejected(self, profile,
                                                               key):
        for arg in ("u0", "v0"):
            with pytest.raises(ValueError, match=f"^initial profile "
                                                 f"{profile[0]} .*parameter "
                                                 f"{key} "):
                make_initial_data(**{arg: profile})

    @pytest.mark.parametrize("name, given", [
        ("u0", {"u0": np.sin}),
        ("v0", {"u0": make_initial_data(u0=("sin", {})).u0, "v0": np.cos})])
    def test_callable_profiles_rejected(self, name, given):
        # Initial data are registry profiles, whose terms are closed forms.
        with pytest.raises(ValueError, match=f"^{name} must be a registry "
                                             f"profile built by "
                                             f"make_initial_data, got "):
            InitialData(**given)

    # v0=None is zero initial speed; u0 has no such meaning.
    @pytest.mark.parametrize("arg, description", [
        (arg, description) for arg in ("u0", "v0")
        for description in (np.sin, ("sin",), "sin", ("sin", {}, {}),
                            ("sin", [1.0]), (2, {}))] + [("u0", None)])
    def test_malformed_profile_description_rejected(self, arg, description):
        with pytest.raises(ValueError, match=fr"^{arg} must be a \(kind, "
                                             fr"params\) pair such as "):
            make_initial_data(**{arg: description})

    def test_scalar_in_scalar_out(self):
        data = make_initial_data(u0=("const", {"c": 1.0}))
        out = initial_term(HEAT, data, 0.5, 0.0)
        assert isinstance(out, float)

    def test_grid_evaluation(self):
        g = heat_grid(n_t=4)
        data = make_initial_data(u0=("sin", {"a": 1.0, "k": 2.0}))
        field = initial_term_grid(HEAT, data, g)
        assert field.values.shape == (5, 9)
        assert np.allclose(field.values[0], np.sin(2.0 * g.positions()),
                           rtol=0, atol=1e-15)


    @pytest.mark.parametrize("v0", [
        ("zero", {}), ("const", {"c": -2.5}), ("sin", {"a": 1.5, "k": 3.0}),
        ("sin", {"a": 2.0, "k": 0.0}), ("bump", {"a": 2.0, "w": 0.4}),
        ("bump", {"a": -1.0, "w": 3.0})])
    def test_wave_v0_closed_form_matches_quadrature(self, v0):
        # A registry v0 is integrated in closed form; scipy's adaptive
        # quadrature is the independent route.
        quad = pytest.importorskip("scipy.integrate").quad

        data = make_initial_data(v0=v0)
        xs = np.linspace(-3.0, 3.0, 13)
        for t in (1e-6, 0.3, 2.0):
            got = initial_term(WAVE, data, t, xs)
            want = [0.5 * quad(data.v0.func, x - t, x + t, epsabs=1e-13,
                               epsrel=1e-12, limit=200)[0] for x in xs]
            assert np.max(np.abs(got - want)) <= 1e-12


# The heat term of every registry profile, with its amplitude: the
# Gaussian average's closed form against two independent routes.  The
# inputs include x = 0.3, t = 1, where a 64-point Gauss-Hermite rule is
# 64% off for the bump of width 0.05, 2e-4 off for width 0.2, 1.9e-4 off
# for sin(20x) and 7.6e-11 off for sin(10x).
HEAT_PROFILES = [
    *[(("bump", {"a": 2.0, "w": w}), 2.0) for w in (0.05, 0.2, 0.5, 1.0)],
    *[(("sin", {"a": -1.5, "k": k}), 1.5) for k in (0.0, 1.0, 5.0, 10.0,
                                                     20.0)],
    (("const", {"c": -2.5}), 2.5), (("zero", {}), 0.0)]
HEAT_XS = np.array([-2.0, -0.7, 0.0, 0.3, 0.45, 1.0, 3.0])


def heat_profile_id(case):
    (kind, params), _ = case
    return kind + "".join(f"-{k}{v:g}" for k, v in params.items())


@pytest.mark.parametrize("t", [1e-6, 0.25, 1.0, 10.0])
@pytest.mark.parametrize("case", HEAT_PROFILES, ids=heat_profile_id)
class TestHeatClosedForm:
    def test_matches_trapezoid(self, case, t):
        # E[u0(x + sqrt(t) Z)] by the trapezoid rule in z on [-40, 40]
        # with step h = 1/200, whose ends carry no weight; numpy alone
        # computes it.  The integrands are entire and no narrower than
        # 0.0158 in z, so the rule is exact to rounding: it agrees with
        # the closed forms within 5e-16 of the amplitude.  The nodes are
        # multiples of h, so that the weights sum to 1 to rounding.
        description, amplitude = case
        data = make_initial_data(u0=description)
        h = 1.0 / 200.0
        z = h * np.arange(-8000, 8001)
        density = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)
        want = data.u0(HEAT_XS[:, None] + math.sqrt(t) * z) @ density * h
        got = initial_term(HEAT, data, t, HEAT_XS)
        assert np.max(np.abs(got - want)) <= 1e-12 * amplitude

    def test_matches_adaptive_quadrature(self, case, t):
        # scipy's QUADPACK: a sine profile through its cosine and sine
        # weights in z, the others as the integral of u0(y) against the
        # heat kernel at x, with the bump's centre as a break point.
        quad = pytest.importorskip("scipy.integrate").quad

        description, amplitude = case
        data = make_initial_data(u0=description)
        s = math.sqrt(t)
        opts = dict(epsabs=1e-14, epsrel=1e-12, limit=400)

        def gauss(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        def average(x):
            if description[0] == "sin":
                a, k = description[1]["a"], description[1]["k"]
                cos_part, sin_part = (
                    quad(gauss, -40.0, 40.0, weight=weight, wvar=k * s,
                         **opts)[0] for weight in ("cos", "sin"))
                return a * (math.sin(k * x) * cos_part
                            + math.cos(k * x) * sin_part)
            lo, hi = x - 40.0 * s, x + 40.0 * s
            return quad(lambda y: float(data.u0(y)) * gauss((y - x) / s) / s,
                        lo, hi, points=[0.0] if lo < 0.0 < hi else None,
                        **opts)[0]

        want = [average(float(x)) for x in HEAT_XS]
        got = initial_term(HEAT, data, t, HEAT_XS)
        assert np.max(np.abs(got - want)) <= 1e-12 * amplitude


class TestOdeOracle:
    def test_zero_drift_returns_forcing_exactly(self):
        ts = np.linspace(0.0, 1.0, 2001)
        got = ode_oracle(HEAT, make_drift("zero"), math.sin, 1.0,
                         n_steps=2000)
        assert np.array_equal(got, np.sin(ts))

    def test_heat_identity_drift_grows_exponentially(self):
        got = ode_oracle(HEAT, BLIN, 1.0, 1.0, n_steps=100000)
        ts = np.linspace(0.0, 1.0, 100001)
        assert np.max(np.abs(got - np.exp(ts))) <= 1e-8

    def test_wave_unit_drift_gives_half_square(self):
        got = ode_oracle(WAVE, make_drift("const", c=1.0), 0.0, 2.0,
                         n_steps=2000)
        ts = np.linspace(0.0, 2.0, 2001)
        assert np.max(np.abs(got - ts ** 2 / 2.0)) <= 1e-12

    def test_wave_restoring_drift_oscillates(self):
        got = ode_oracle(WAVE, make_drift("linear", a=-1.0), 1.0, 1.0,
                         n_steps=2000)
        ts = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(got - np.cos(ts))) <= 1e-6

    def test_constant_forcing_accepted_as_scalar(self):
        got = ode_oracle(HEAT, make_drift("zero"), 2.5, 1.0, n_steps=100)
        assert np.array_equal(got, np.full(101, 2.5))

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            ode_oracle(HEAT, make_drift("zero"), 1.0, 1.0, n_steps=50)


class TestPicardApply:
    def test_heat_unit_drift_integrates_time(self):
        g = heat_grid()
        out = picard_apply(HEAT, make_drift("const", c=1.0),
                           const_field(g, 0.0), const_field(g, 0.0))
        want = g.times()[:, None] * np.ones((1, g.n_x + 1))
        assert np.max(np.abs(out.values - want)) <= 1e-12

    def test_wave_unit_drift_integrates_cone(self):
        g = wave_grid()
        out = picard_apply(WAVE, make_drift("const", c=1.0),
                           const_field(g, 0.0), const_field(g, 0.0))
        want = (g.times() ** 2 / 2.0)[:, None] * np.ones((1, g.n_x + 1))
        assert np.max(np.abs(out.values - want)) <= 1e-13

    def test_heat_time_quadrature_exact_on_linear(self):
        # Trapezoid in time: integrating f(s) = s must give t^2/2 to
        # rounding, and spatial constancy must survive the convolution.
        g = heat_grid()
        zt = GridFunction(grid=g, values=g.times()[:, None]
                          * np.ones((1, g.n_x + 1)))
        out = picard_apply(HEAT, BLIN, zt, const_field(g, 0.0))
        want = (g.times() ** 2 / 2.0)[:, None]
        assert np.max(np.abs(out.values - want)) <= 1e-13
        assert max(np.ptp(row) for row in out.values) == 0.0

    def test_wave_time_quadrature_second_order(self):
        g = wave_grid()
        zt = GridFunction(grid=g, values=g.times()[:, None]
                          * np.ones((1, g.n_x + 1)))
        out = picard_apply(WAVE, make_drift("linear", a=1.0),
                           zt, const_field(g, 0.0))
        want = (g.times() ** 3 / 6.0)[:, None]
        assert np.max(np.abs(out.values - want)) <= 5e-5

    def test_wave_respects_light_cone(self):
        # A source supported at x = 0 cannot reach |x| > t (plus a
        # two-cell discretization halo).
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=100, n_x=100)
        vals = np.zeros((101, 101))
        vals[:, 50] = 1.0
        out = picard_apply(WAVE, make_drift("tanh_scaled", a=1.0),
                           GridFunction(grid=g, values=vals),
                           const_field(g, 0.0))
        for i, t in enumerate(g.times()):
            outside = np.abs(g.positions()) > t + 2.0 * g.dx
            if outside.any():
                assert np.max(np.abs(out.values[i, outside])) == 0.0

    def test_grid_mismatch_rejected(self):
        z = const_field(heat_grid(), 0.0)
        eta = const_field(heat_grid(n_t=100), 0.0)
        with pytest.raises(ValueError):
            picard_apply(HEAT, make_drift("zero"), z, eta)

    def test_heat_accepts_unbounded_drift(self):
        # Any globally Lipschitz drift, bounded or not: G * z for z = 1
        # is t, as the unit drift of the first test gives.
        g = heat_grid()
        out = picard_apply(HEAT, make_drift("linear", a=1.0),
                           const_field(g, 1.0), const_field(g, 0.0))
        want = g.times()[:, None] * np.ones((1, g.n_x + 1))
        assert np.max(np.abs(out.values - want)) <= 1e-12

    def test_wave_requires_aligned_grid(self):
        g = PointGrid(horizon=1.0, half_width=1.0, n_t=10, n_x=10)
        with pytest.raises(ValueError, match="alignment"):
            picard_apply(WAVE, make_drift("zero"),
                         const_field(g, 0.0), const_field(g, 0.0))


class TestSolveF:
    def test_heat_unit_drift_settles_in_two_evaluations(self):
        # A constant drift makes each node's map constant: the first
        # evaluation lands on the fixed point, the second confirms it.
        g = heat_grid()
        (z,), record = solve_replicates(HEAT, make_drift("const", c=1.0),
                                        g, const_field(g, 0.0).values[None])
        want = g.times()[:, None] * np.ones((1, g.n_x + 1))
        assert np.max(np.abs(z - want)) <= 1e-12
        assert record.method == "pointwise_march"
        assert record.pointwise_iterations == (0, 0, g.n_t * (g.n_x + 1))

    def test_wave_unit_drift(self):
        g = wave_grid()
        (z,), record = solve_replicates(WAVE, make_drift("const", c=1.0),
                                        g, const_field(g, 0.0).values[None])
        want = (g.times() ** 2 / 2.0)[:, None] * np.ones((1, g.n_x + 1))
        assert np.max(np.abs(z - want)) <= 1e-13
        assert record.method == "explicit_march"
        assert record.pointwise_iterations == ()

    def test_heat_identity_drift_tracks_exponential(self):
        g = PointGrid(horizon=1.0, half_width=0.016, n_t=1000, n_x=32)
        (z,), record = solve_replicates(HEAT, BLIN, g,
                                        const_field(g, 1.0).values[None])
        err = np.max(np.abs(z - np.exp(g.times())[:, None]))
        assert err <= 1e-3
        # dt / 2 = 5e-4 gains 11 bits per evaluation.
        assert len(record.pointwise_iterations) - 1 <= 8
        assert sum(record.pointwise_iterations) == g.n_t * (g.n_x + 1)

    def test_wave_restoring_drift_tracks_cosine(self):
        errs = []
        for n_t, n_x in ((100, 16), (200, 32)):
            g = wave_grid(n_t=n_t, n_x=n_x)
            (z,), _ = solve_replicates(WAVE, make_drift("linear", a=-1.0),
                                       g, const_field(g, 1.0).values[None])
            errs.append(np.max(np.abs(z - np.cos(g.times())[:, None])))
        assert errs[0] <= 1.2e-5
        assert errs[1] <= 3e-6
        assert errs[1] < errs[0]

    def test_increments_shrink(self):
        # The global Picard map contracts: the oracle's increments fall.
        g = heat_grid()
        eta = const_field(g, 1.0)
        _, inc = picard_oracle(HEAT, make_drift("tanh_scaled", a=1.0), eta)
        assert all(b < a for a, b in zip(inc[1:], inc[2:]))

    @pytest.mark.parametrize("a, n_t", [(4.0, 2), (16.0, 8), (20.0, 8)])
    def test_heat_contraction_checked_up_front(self, a, n_t):
        # dt L / 2 >= 1 leaves the pointwise map without a contraction;
        # the error names the grid before any row is solved.
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=n_t, n_x=4)
        with pytest.raises(NumericalError, match="dt L / 2 < 1") as exc:
            solve_replicates(HEAT, make_drift("tanh_scaled", a=a), g,
                             np.zeros((1, n_t + 1, 5)))
        assert f"{n_t} steps over horizon 1" in str(exc.value)
        assert type(exc.value) is NumericalError

    def test_iteration_budget_enforced(self):
        # 16 spare evaluations past 64 bits at dt L / 2 = 1/16.
        g = LYING_GRID
        with pytest.raises(NumericalError) as exc_info:
            solve_replicates(HEAT, LYING, g,
                             const_field(g, 50.0).values[None])
        assert type(exc_info.value) is NumericalError
        assert str(exc_info.value) == (
            "replicate 0: the node (t, x) = (0.125, -0.5) did not settle "
            "within 32 evaluations (last increment 3.216e-04): the drift is "
            "steeper there than its declared Lipschitz constant L = 1")

    @pytest.mark.parametrize("slope", [20.0, 40.0])
    def test_steep_drift_stall_raises(self, slope):
        # Beyond |z| = 8 these drifts are steeper than 2 / dt = 16, so a
        # node near z = 50 does not contract: its increment stops
        # shrinking far above rounding, and the march refuses the node
        # (the fields it would return leave mild residuals of 0.27 and
        # 1536).  A batch names the lowest such replicate with the node
        # and the increment of that replicate's solo solve.
        g = LYING_GRID
        steep = DriftSpec(
            func=lambda z: np.where(np.abs(z) <= 8.0, np.tanh(z),
                                    np.tanh(z) - slope * (z - 50.0)),
            lipschitz_constant=1.0, name="steep")
        etas = np.stack([const_field(g, 0.0).values,
                         const_field(g, 50.0).values,
                         const_field(g, 50.0).values])
        with pytest.raises(NumericalError) as batch:
            solve_replicates(HEAT, steep, g, etas)
        with pytest.raises(NumericalError) as solo:
            solve_replicates(HEAT, steep, g, etas[1:2])
        assert type(batch.value) is NumericalError
        assert str(batch.value).startswith(
            "replicate 1: the node (t, x) = (0.125, -0.5) stalled at "
            "increment ")
        assert str(batch.value).endswith(
            " within 32 evaluations, far above its rounding: the drift is "
            "steeper there than its declared Lipschitz constant L = 1")
        assert str(batch.value) == str(solo.value).replace(
            "replicate 0", "replicate 1", 1)
        (z,), _ = solve_replicates(HEAT, steep, g, etas[:1])
        assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("q", [0.98, 0.99])
    def test_honest_stalls_pass_near_contraction_one(self, q):
        # An honest drift stalls within 1.64 tiny / (1 - q) of 0 (tiny
        # the rounding of a node's terms), below the 8 tiny / (1 - q)
        # that marks a steep one.  This sine drift of slope 2 q / dt
        # reaches 1.63 at q = 0.98 and 1.44 at q = 0.99, the largest
        # stalls measured.
        g = PointGrid(horizon=0.25, half_width=1.0, n_t=16, n_x=8)
        a = 2.0 * q / g.dt
        drift = DriftSpec(func=lambda z: np.sin(a * z), lipschitz_constant=a,
                          name="sin")
        etas = np.random.default_rng(5).normal(
            0.0, 3.0, (200, g.n_t + 1, g.n_x + 1))
        _, record = solve_replicates(HEAT, drift, g, etas)
        assert sum(record.pointwise_iterations) == 200 * g.n_t * (g.n_x + 1)

    def test_heat_settles_at_contraction_point_nine(self):
        # dt L / 2 = 0.9: a clipped linear drift of slope 2 on steps of
        # 0.9, its clip reached by part of the nodes.  Every node settles
        # within the cap, and the field is the fixed point.
        g = PointGrid(horizon=3.6, half_width=1.0, n_t=4, n_x=8)
        drift = drift_truncate(make_drift("linear", a=2.0), 3.0)
        etas = np.random.default_rng(9).normal(
            0.0, 2.0, (16, g.n_t + 1, g.n_x + 1))
        fields, record = solve_replicates(HEAT, drift, g, etas)
        assert sum(record.pointwise_iterations) == 16 * g.n_t * (g.n_x + 1)
        assert len(record.pointwise_iterations) - 1 > 100
        assert np.any(np.abs(fields[:, 1:]) > 3.0)
        assert np.any(np.abs(fields[:, 1:]) < 3.0)
        for eta, z in zip(etas, fields):
            # Global Picard contracts by 0.9 per sweep on each row's own
            # drift term, so it needs some hundreds of sweeps.
            want, _ = picard_oracle(HEAT, drift, GridFunction(g, eta),
                                    max_iter=1000)
            assert np.max(np.abs(z - want.values)) <= 1e-12


class TestSolveReplicates:
    def test_batch_failure_names_lowest_failing_replicate(self):
        # Replicate 0 settles; replicates 1 and 2 (forcing 50, where the
        # lying drift's slope is steep) do not, replicate 2 from a later
        # row on.  The error reports replicate 1 with the node and the
        # increment of its own solo solve.
        g = LYING_GRID
        etas = np.stack([const_field(g, 0.0).values,
                         const_field(g, 50.0).values,
                         const_field(g, 50.0).values])
        etas[2, 1] = 0.0
        with pytest.raises(NumericalError) as batch:
            solve_replicates(HEAT, LYING, g, etas)
        with pytest.raises(NumericalError) as solo:
            solve_replicates(HEAT, LYING, g, etas[1:2])
        assert type(batch.value) is type(solo.value) is NumericalError
        assert str(batch.value).startswith(
            "replicate 1: the node (t, x) = (0.125, -0.5) did not settle "
            "within 32 evaluations (last increment ")
        assert str(batch.value) == str(solo.value).replace(
            "replicate 0", "replicate 1", 1)
        with pytest.raises(NumericalError) as late:
            solve_replicates(HEAT, LYING, g, etas[2:])
        assert str(late.value).startswith(
            "replicate 0: the node (t, x) = (0.25, -0.5) did not settle ")

    def test_lowest_failing_replicate_wins_over_overflow(self):
        # Replicate 0 does not settle at t = 0.125; replicate 1, forced
        # to 1e6, where this drift returns 1e308, overflows at t = 0.25.
        # The error names replicate 0, as its solo solve does.
        g = LYING_GRID
        drift = DriftSpec(
            func=lambda z: np.where(
                np.abs(z) <= 8.0, np.tanh(z),
                np.where(z > 1e3, 1e308, np.tanh(z) - 15.9 * (z - 50.0))),
            lipschitz_constant=1.0, name="lying|huge")
        etas = np.stack([const_field(g, 50.0).values,
                         const_field(g, 1e6).values])
        with pytest.raises(NumericalError) as batch:
            solve_replicates(HEAT, drift, g, etas)
        with pytest.raises(NumericalError) as solo:
            solve_replicates(HEAT, drift, g, etas[:1])
        with pytest.raises(NumericalError) as blown:
            solve_replicates(HEAT, drift, g, etas[1:])
        assert str(batch.value) == str(solo.value)
        assert str(batch.value).startswith(
            "replicate 0: the node (t, x) = (0.125, -0.5) did not settle ")
        assert str(blown.value) == (
            "replicate 0: the node (t, x) = (0.25, -0.5) overflowed double "
            "precision; the drift declares Lipschitz constant L = 1")

    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_nodes_settle_at_their_own_iteration(self, eqn):
        # Forcings of different sizes settle after different numbers of
        # evaluations; each replicate must equal its solo solve bit for
        # bit, and the solo counts add up to the batch's.
        g = wave_grid(n_t=20, n_x=8) if eqn is WAVE else heat_grid(n_t=20)
        drift = make_drift("tanh_scaled", a=1.0)
        etas = np.stack([const_field(g, v).values
                         for v in (0.0, 0.1, 1.0, 5.0)])
        etas[1:, 3:] += np.random.default_rng(4).standard_normal(
            (3, g.n_t - 2, g.n_x + 1))
        fields, record = solve_replicates(eqn, drift, g, etas)
        counts = np.zeros(len(record.pointwise_iterations), dtype=int)
        for eta, field in zip(etas, fields):
            (z,), solo = solve_replicates(eqn, drift, g, eta[None])
            assert bit_equal(field, z)
            assert solo.method == record.method
            took = np.asarray(solo.pointwise_iterations, dtype=int)
            counts[:took.size] += took
        assert tuple(counts.tolist()) == record.pointwise_iterations
        if eqn is HEAT:
            assert np.count_nonzero(counts) > 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    def test_overflow_raises_numerical_error(self, eqn):
        # A drift that is honest on the probe but returns 1e308 far out
        # drives the field past double precision: a NumericalError, not
        # a field of infinities, and no numpy warning on the way.
        drift = DriftSpec(
            func=lambda z: np.where(np.abs(z) <= 8.0, np.tanh(z), 1e308),
            lipschitz_constant=1.0, name="huge")
        g = wave_grid(n_t=8, n_x=4) if eqn is WAVE else LYING_GRID
        with pytest.raises(NumericalError, match="overflowed double "
                           "precision; the drift declares Lipschitz "
                           "constant L = 1$") as exc:
            solve_replicates(eqn, drift, g, const_field(g, 50.0).values[None])
        assert type(exc.value) is NumericalError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eqn, drift, grid, node, lip", [
        (WAVE, make_drift("linear", a=100.0), PointGrid(1.0, 1.0, 8, 16),
         "(0.125, -1)", "100"),
        (HEAT, drift_truncate(make_drift("linear", a=1.0), 1e308),
         PointGrid(1.0, 1.0, 8, 8), "(0.25, -1)", "1")])
    def test_overflow_names_replicate_and_node(self, eqn, drift, grid, node,
                                               lip):
        # Both marches fail alike when a replicate leaves double
        # precision: one NumericalError naming the lowest non-finite
        # replicate and its first node, rows first.  The heat node at
        # t = 0.25 has a finite iterate but a map that overflows; it
        # counts as overflowed, not as a node that did not settle.
        zeros = np.zeros((grid.n_t + 1, grid.n_x + 1))
        etas = np.stack([zeros, zeros + 1.5e308])
        with pytest.raises(NumericalError) as exc:
            solve_replicates(eqn, drift, grid, etas)
        assert type(exc.value) is NumericalError
        assert str(exc.value) == (
            f"replicate 1: the node (t, x) = {node} overflowed double "
            f"precision; the drift declares Lipschitz constant L = {lip}")
        # Replicate 0 alone is finite.
        (z,), _ = solve_replicates(eqn, drift, grid, etas[:1])
        assert np.all(z == 0.0)

    def test_wave_cone_is_n_t_cells_on_near_aligned_grid(self):
        # dx equals dt to 5e-13, so the grid is aligned, but horizon / dx
        # exceeds n_t by more than the heat margin's 1e-9 slack: that
        # margin is n_t + 1 cells.  The wave's light cone is n_t cells
        # whatever the heat margin, and one more application of the map
        # leaves the marched field bit for bit: a residual of exactly 0.
        g = PointGrid(1.0, (1.0 - 5e-13) / 2500, 2500, 2)
        assert g.is_aligned and det_solver._margin_cells(g) == g.n_t + 1
        drift = make_drift("tanh_scaled", a=1.0)
        etas = np.random.default_rng(6).standard_normal(
            (2, g.n_t + 1, g.n_x + 1))
        fields, _ = solve_replicates(WAVE, drift, g, etas)
        for eta, z in zip(etas, fields):
            again = picard_apply(WAVE, drift, GridFunction(g, z),
                                 GridFunction(g, eta))
            assert bit_equal(again.values, z)

    def test_stack_shape_checked_before_iterating(self):
        # Every field of the stack must cover the grid: a 5-row stack on
        # a 9-row grid is refused, not solved on its rows.
        g = PointGrid(horizon=1.0, half_width=0.5, n_t=8, n_x=8)
        drift = make_drift("tanh_scaled", a=1.0)
        for shape in ((2, 5, 9), (9, 9), (0, 9, 9), (1, 9, 10)):
            with pytest.raises(ValueError, match="shape"):
                solve_replicates(HEAT, drift, g, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_forcing_rejected_before_iterating(self, bad):
        # A non-finite forcing is a bad input, not a numerical failure
        # after the whole iteration budget.
        g = heat_grid(n_t=20)
        etas = np.zeros((3, g.n_t + 1, g.n_x + 1))
        etas[2, 4, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_replicates(HEAT, make_drift("tanh_scaled", a=1.0), g, etas)


def table_drift(start, steps):
    """A table drift from ``start`` through knots ``dx`` apart with slope
    ``s`` on each ``(dx, s)`` step."""
    xs = start + np.cumsum([0.0] + [dx for dx, _ in steps])
    ys = np.cumsum([0.0] + [dx * s for dx, s in steps])
    return make_drift("table", xs=xs, ys=ys)


# Drifts of slope at most 2: with steps of at most 0.75 the heat map
# contracts by at most 0.75.
SLOPES = st.floats(-2.0, 2.0)
DRIFTS = st.one_of(
    st.builds(lambda a: make_drift("tanh_scaled", a=a), SLOPES),
    st.builds(lambda a, level: drift_truncate(make_drift("linear", a=a),
                                              level),
              SLOPES, st.floats(0.25, 16.0)),
    st.builds(table_drift, st.floats(-3.0, 0.0),
              st.lists(st.tuples(st.floats(0.1, 2.0), SLOPES),
                       min_size=1, max_size=6)))


@st.composite
def march_cases(draw, eqn):
    """A grid, a drift and two forcings: the linear field at a drawn H
    plus a constant initial term."""
    n_t, n_x = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    horizon = draw(st.floats(0.1, 1.5))
    half_width = (0.5 * horizon * n_x / n_t if eqn is WAVE
                  else draw(st.floats(0.1, 2.0)))
    grid = PointGrid(horizon=horizon, half_width=half_width, n_t=n_t,
                     n_x=n_x)
    hurst = HurstIndex(draw(st.floats(0.01, 0.99)))
    cov = cov_matrix(eqn, hurst, np.stack(grid.nodes(), axis=1))
    try:
        factor = factor_psd(cov)
    except NumericalError:
        # The wave covariance at H near 0 is not PSD on some aligned
        # grids (test_covariance.py,
        # test_wave_matrix_psd_near_h_zero_on_aligned_grid); that
        # defect is not the solver's subject.
        reject()
    noise = sample_field(factor, draw(st.integers(0, 2 ** 32 - 1)),
                         2).values.reshape(2, n_t + 1, n_x + 1)
    return grid, draw(DRIFTS), noise + draw(st.floats(-2.0, 2.0))


class TestMarchAgainstPicard:
    # The march against global Picard iteration to 1e-14 over the whole
    # box: H in (0, 1), three drift families, any grid.
    @pytest.mark.parametrize("eqn", [WAVE, HEAT])
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_march_matches_picard_oracle(self, eqn, data):
        grid, drift, etas = data.draw(march_cases(eqn))
        fields, _ = solve_replicates(eqn, drift, grid, etas)
        for eta, z in zip(etas, fields):
            eta = GridFunction(grid, eta)
            want, _ = picard_oracle(eqn, drift, eta, tol=1e-14)
            scale = max(1.0, float(np.max(np.abs(want.values))))
            assert np.max(np.abs(z - want.values)) <= 1e-12 * scale
            again = picard_apply(eqn, drift, GridFunction(grid, z), eta)
            if eqn is WAVE:
                assert bit_equal(again.values, z)
            else:
                assert ulps_of_sup(np.max(np.abs(again.values - z)), z) \
                    <= 16.0


def widen(f):
    """A ``(R, n_t + 1, width)`` stack edge-padded by n_t cells per side,
    the light cone of its window."""
    n_t = f.shape[1] - 1
    return np.pad(f, ((0, 0), (0, 0), (n_t, n_t)), mode="edge")


def convolve_wave(f, dt, dx):
    """``G * f`` for the wave kernel on ``(R, n_t + 1, width)`` stacks, by
    the solver's row sweep over each row edge-padded by n_t cells, as
    :func:`widen` pads the stack."""
    n_t = f.shape[1] - 1
    out = np.zeros_like(f)

    def widened(i):
        return np.pad(f[:, i], ((0, 0), (n_t, n_t)), mode="edge")

    def rows(i, conv):
        out[:, i] = conv
        return widened(i)

    det_solver._wave_sweep(rows, widened(0), n_t, dt, dx)
    return out


def convolve_heat(f, dt, w):
    """``G * f`` for the heat kernel on ``(R, n_t + 1, width)`` stacks, by
    the solver's row sweep and the trapezoid ``dt (B_i + f_i / 2)``."""
    out = np.zeros_like(f)

    def rows(i, b):
        out[:, i] = dt * (b + 0.5 * f[:, i])
        return f[:, i]

    det_solver._heat_sweep(rows, f[:, 0], f.shape[1] - 1, w)
    return out


def reference_convolve_wave(g, dt, dx):
    """``G * f`` on the window for the wave kernel from whole-stack
    diagonal prefix sums of the widened stack g, ``(R, n_t + 1, width + 2
    n_t)``.

    Row 0 is halved, its trapezoid weight; every row is prefix-summed in
    x, shifted by its row index with zero fill, and cumulatively summed
    in time, all at once; output row i gathers row i - 1 of those sums.
    The same arithmetic in the same order as the row sweep of
    ``det_solver._wave_sweep``.
    """
    def shift_rows(a, sign):
        # Zero-filled: out[..., j, c] = a[..., j, c + sign * j].
        rows, cols = a.shape[-2:]
        src = np.arange(cols) + sign * np.arange(rows)[:, None]
        out = a[..., np.arange(rows)[:, None], np.clip(src, 0, cols - 1)]
        out[..., (src < 0) | (src >= cols)] = 0.0
        return out

    n_t = g.shape[1] - 1
    g = np.concatenate([0.5 * g[:, :1], g[:, 1:]], axis=1)
    d = np.concatenate([np.zeros(g.shape[:2] + (1,)), np.cumsum(g, axis=2)],
                       axis=2)
    ad = np.cumsum(shift_rows(d, -1), axis=1)
    dg = np.cumsum(shift_rows(d, 1), axis=1)
    ga = np.cumsum(shift_rows(g, -1), axis=1)
    gd = np.cumsum(shift_rows(g, 1), axis=1)
    i = np.arange(1, n_t + 1)[:, None]
    cols = np.arange(g.shape[2] - 2 * n_t)
    prev, lo = i - 1, n_t - i + cols
    hi, hi_g = i + n_t + 1 + cols, i + n_t + cols
    out = np.zeros(g.shape[:2] + cols.shape)
    out[:, 1:] = 0.5 * dt * dx * (ad[:, prev, hi] - dg[:, prev, lo]
                                  - 0.5 * (ga[:, prev, hi_g]
                                           + gd[:, prev, lo]))
    return out


def bit_equal(a, b):
    """Equal bit for bit, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# Cell values for the wave sweep: signed zeros, subnormals, huge and
# ordinary magnitudes, so any change of arithmetic order shows.
WAVE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def wave_stacks(draw):
    # (R, n_t + 1, width) with R in 1..4, n_t in 2..24, width in 1..40,
    # every cell drawn from a small pool of values by a seeded generator.
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 24)) + 1,
             draw(st.integers(1, 40)))
    pool = np.array(draw(st.lists(WAVE_CELLS, min_size=1, max_size=16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return pool[rng.integers(0, pool.size, shape)]


def reference_convolve_heat(f, dt, w):
    """``G * f`` for the heat kernel by the semigroup recursion, each
    edge-padded row convolved on its own by ``np.convolve``."""
    r = (w.size - 1) // 2
    out = np.zeros_like(f)
    b = np.zeros_like(f[:, 0])
    for i in range(1, f.shape[1]):
        c = 0.5 if i == 1 else 1.0
        b = np.stack([np.convolve(np.pad(row, r, mode="edge"), w, "valid")
                      for row in b + c * f[:, i - 1]])
        out[:, i] = dt * (b + 0.5 * f[:, i])
    return out


def heat_stack(seed, n_rep, n_rows, width, r):
    """A normal ``(n_rep, n_rows, width)`` forcing and a positive
    symmetric stencil of ``2r + 1`` taps with unit sum."""
    rng = np.random.default_rng(seed)
    half = rng.random(r + 1)
    w = np.concatenate([half[:0:-1], half])
    return rng.standard_normal((n_rep, n_rows, width)), w / w.sum()


# Half-widths from two ranges, so that both regimes are drawn: numpy
# correlates stencils of up to 11 taps (r <= 5) by an unrolled loop
# whose order of summation differs from one dot product per output.
HEAT_STACKS = st.builds(
    heat_stack, st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
    st.integers(2, 5), st.integers(3, 300),
    st.one_of(st.integers(1, 5), st.integers(6, 150)))

# Stencils wider than the row, in both regimes.
WIDE_STENCILS = [heat_stack(1, 3, 4, 3, 150), heat_stack(2, 3, 4, 3, 5)]


class TestBatchedHelpers:
    # References for the convolutions: the wave sweep, and the heat step
    # above 11 taps, do the same arithmetic and must equal them bit for
    # bit.
    @settings(max_examples=300, deadline=None)
    @given(wave_stacks(), st.sampled_from([(0.1, 0.1), (1.0 / 3, 1.0 / 3),
                                           (2.0, 2.0)]))
    def test_wave_sweep_matches_reference(self, f, spacing):
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_convolve_wave(widen(f), *spacing)
            got = convolve_wave(f, *spacing)
        assert bit_equal(got, want)

    @pytest.mark.parametrize("shape", [(400, 17, 65), (3, 2, 5), (2, 9, 3)])
    def test_wave_sweep_matches_reference_with_signed_zeros(self, shape):
        f = np.random.default_rng(2).standard_normal(shape)
        f[f > 1.0] = -0.0
        f[f < -1.0] = 0.0
        assert bit_equal(convolve_wave(f, 0.05, 0.05),
                         reference_convolve_wave(widen(f), 0.05, 0.05))

    def test_wave_sweep_peak_memory(self):
        # The sweep keeps O(R * width) running sums besides its output;
        # the whole-stack form peaks at about 14 times the stack.
        f = np.random.default_rng(3).standard_normal((400, 17, 65))
        tracemalloc.start()
        try:
            convolve_wave(f, 0.05, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * f.nbytes

    @settings(max_examples=200, deadline=None)
    @given(HEAT_STACKS)
    @example(WIDE_STENCILS[0])
    @example(WIDE_STENCILS[1])
    def test_heat_step_matches_per_row_convolution(self, stack):
        f, w = stack
        if w.size > 11:
            assert bit_equal(convolve_heat(f, 0.1, w),
                             reference_convolve_heat(f, 0.1, w))
            return
        # One step from B_0 = 0 with dt = 1 and f_1 = 0 returns K * x
        # for f_0 = 2x.  A dot of n terms summed in any order is within
        # about n eps/2 sum |w_k x_k| of the exact one, so two orders
        # differ by n eps times that sum; the bound allows twice this.
        x = f[:, 0]
        got = convolve_heat(
            np.stack([2.0 * x, np.zeros_like(x)], axis=1), 1.0, w)[:, 1]
        padded = np.pad(x, ((0, 0), (w.size // 2,) * 2), mode="edge")
        want = np.stack([np.convolve(row, w, "valid") for row in padded])
        scale = np.stack([np.convolve(row, w, "valid")
                          for row in np.abs(padded)])
        assert np.all(np.abs(got - want)
                      <= 2.0 * w.size * np.finfo(float).eps * scale)

    @settings(max_examples=100, deadline=None)
    @given(HEAT_STACKS)
    @example(WIDE_STENCILS[0])
    @example(WIDE_STENCILS[1])
    def test_heat_step_replicates_as_if_alone(self, stack):
        f, w = stack
        alone = [convolve_heat(f[k:k + 1], 0.1, w)
                 for k in range(f.shape[0])]
        assert bit_equal(convolve_heat(f, 0.1, w),
                         np.concatenate(alone))

    @settings(max_examples=100, deadline=None)
    @given(HEAT_STACKS)
    @example(WIDE_STENCILS[0])
    @example(WIDE_STENCILS[1])
    def test_heat_step_keeps_rows_constant_in_x(self, stack):
        f, w = stack
        f = np.repeat(f[:, :, :1], f.shape[2], axis=2)
        out = convolve_heat(f, 0.1, w)
        assert np.all(out == out[:, :, :1])
