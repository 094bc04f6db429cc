"""Spectral-domain building blocks: noise density and the finiteness
integrals that control whether a solution exists.

The driving noise is white in time and fractional in space with Hurst
index H in (0, 1); its spatial spectral measure has density
``noise_constant(H) * |xi|^(1-2H)``.  All existence and regularity
statements funnel through weighted integrals of the squared propagator
multipliers.  They are closed forms here; the tests integrate the
multipliers numerically as an independent check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "EquationKind",
    "HurstIndex",
    "noise_constant",
    "cos_integral_constant",
    "gaussian_abs_moment",
    "dalang_integral_closed",
]


# Moshier's Cephes ``Gamma`` (Methods and Programs for Mathematical
# Functions, 1989), the routine scipy.special.gamma compiles: a rational
# approximation on [2, 3) and Stirling's series above 33.
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_STIRLING = (7.87311395793093628397e-4, -2.29549961613378126380e-4,
             -2.68132617805781232825e-3, 3.47222221605458667310e-3,
             8.33333333333482257126e-2)
_SQRT_2PI = 2.50662827463100050242e0
_EULER = 0.5772156649015329
_GAMMA_OVERFLOW = 171.624376956302725
_STIRLING_SPLIT = 143.01608


def _polevl(x, coefs: tuple, monic: bool = False):
    """Horner's rule, highest power first, as Cephes ``polevl``; ``monic``
    prepends a leading coefficient 1, as Cephes ``p1evl``."""
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma function of a float.

    A port of Cephes ``Gamma`` with its operations in the same order, so
    that it returns the bits of ``scipy.special.gamma``; ``math.gamma``
    differs from both in the last bits at most arguments.  Negative
    arguments are shifted up by the recursion, which covers the range
    (-1, 0) of the heat covariance; Cephes' reflection branch for x < -33
    is left out.  A pole (0, -1, -2, ...) raises ZeroDivisionError.
    """
    if x > 33.0:
        if x >= _GAMMA_OVERFLOW:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIRLING)
        y = math.exp(x)
        if x > _STIRLING_SPLIT:
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQRT_2PI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return z / ((1.0 + _EULER * x) * x)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + _EULER * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


class EquationKind(enum.Enum):
    """Which evolution equation drives the field."""

    WAVE = "wave"
    HEAT = "heat"

    @classmethod
    def parse(cls, name: str) -> "EquationKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown equation kind {name!r}; expected 'wave' or 'heat'"
            ) from None


@dataclass(frozen=True)
class HurstIndex:
    """Hurst index of the spatial noise, strictly inside (0, 1).

    The derived ``spectral_exponent`` alpha = 1 - 2H is the power of |xi|
    weighting every spectral integral; alpha in (-1, 1) mirrors H in (0, 1).
    """

    value: float

    def __post_init__(self):
        v = self.value
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValueError(f"Hurst index must be a finite number, got {v!r}")
        if not 0.0 < v < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {v}")

    @property
    def spectral_exponent(self) -> float:
        return 1.0 - 2.0 * self.value


def noise_constant(H: float | HurstIndex) -> float:
    """Spectral density constant ``Gamma(2H+1) sin(pi H) / (2 pi)``.

    Continuous on (0, 1), bounded by 1/pi, and equal to ``1/(2 pi)`` at
    H = 1/2 where the noise is spatially white.
    """
    h = H.value if isinstance(H, HurstIndex) else HurstIndex(H).value
    return _gamma(2.0 * h + 1.0) * math.sin(math.pi * h) / (2.0 * math.pi)


def cos_integral_constant(alpha: float) -> float:
    """Closed form of ``int_0^inf (1 - cos u) u^(alpha-2) du``.

    Finite exactly for ``alpha in (-1, 1)``; continuous at 0 with value
    ``pi/2``.  The negative-alpha branch is written through ``Gamma(1+alpha)``
    to avoid evaluating Gamma at negative arguments.  Below ``|alpha| =
    1e-300`` the value is ``pi/2`` to double precision, while
    ``Gamma(alpha)`` would overflow and ``sin(pi alpha/2)`` lose its digits
    as a subnormal, so ``pi/2`` is returned there.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    if abs(alpha) < 1e-300:
        return math.pi / 2.0
    if alpha > 0.0:
        return _gamma(alpha) * math.sin(math.pi * alpha / 2.0) / (1.0 - alpha)
    return (_gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
            / (alpha * (1.0 - alpha)))


def gaussian_abs_moment(p: float) -> float:
    """Absolute moment ``E|Z|^p`` of a standard Gaussian, p > 0.

    Equals ``2^(p/2) Gamma((p+1)/2) / sqrt(pi)``; reduces to the double
    factorial ``(2k-1)!!`` at even integer p = 2k and to ``sqrt(2/pi)``
    at p = 1.
    """
    if not p > 0.0:
        raise ValueError(f"moment order must be positive, got {p}")
    return 2.0 ** (p / 2.0) * _gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def dalang_integral_closed(eqn: EquationKind, alpha: float,
                           horizon: float) -> float:
    """Closed form of the time-integrated squared-multiplier integral.

    The quantity is ``int_0^T int_R |m(t, xi)|^2 |xi|^alpha dxi dt``,
    with m the propagator's Fourier multiplier (``sin(t |xi|) / |xi|``
    for the wave, ``exp(-t xi^2 / 2)`` for the heat), finite exactly for
    alpha in (-1, 1).

    Wave: ``2^(1-alpha) * C(alpha) * T^(2-alpha) / (2-alpha)`` with
    C(alpha) = :func:`cos_integral_constant`.
    Heat: ``(2/(1-alpha)) * Gamma((alpha+1)/2) * T^((1-alpha)/2)``.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(
            f"spectral exponent must lie in (-1, 1), got {alpha}")
    if not horizon > 0.0:
        raise ValueError(f"time horizon must be positive, got {horizon}")
    T = horizon
    if eqn is EquationKind.WAVE:
        return (2.0 ** (1.0 - alpha) * cos_integral_constant(alpha)
                * T ** (2.0 - alpha) / (2.0 - alpha))
    if eqn is EquationKind.HEAT:
        return (2.0 / (1.0 - alpha)) * _gamma((alpha + 1.0) / 2.0) \
            * T ** ((1.0 - alpha) / 2.0)
    raise TypeError(f"expected EquationKind, got {eqn!r}")
