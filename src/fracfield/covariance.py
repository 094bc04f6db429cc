"""Second-order structure of the linear stochastic fields.

The centered solution of the linear equation has covariance

``E[u(t1,x1) u(t2,x2)] = noise_constant(H) * int_R cos(xi (x1-x2))
* TK(t1, t2, xi) * |xi|^(1-2H) dxi``

where TK is the time integral of the product of the propagator's Fourier
multipliers.  Covariances and increment moments are closed forms here,
in the coordinates of point pairs through one pair geometry for every
caller; the tests integrate the spectral form as their independent
check.  Sampling lives in :mod:`fracfield.sampler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import (EquationKind, HurstIndex, _as_hurst, _gamma,
                       noise_constant)

__all__ = [
    "CovarianceMatrix",
    "conv_cov",
    "cov_matrix",
    "increment_moment2",
    "noise_field_cov",
]

# Power series replace differences that cancel.  A second difference
# u^p [(1+r)^p + (1-r)^p - 2] is summed from its binomial series for
# r <= 1/2, and the wave covariance from its series in (t1+t2)/|dx| once
# |dx| >= 2 (t1+t2); there 30 terms in r^2 or 30 even terms leave less
# than 1e-17 relative.  Kummer's M - 1 is summed for arguments of size
# <= 1, where 20 terms leave less than 1e-18.  A series of unbounded
# length stops in each lane once that lane's last term is below _EPS of
# its sum, so no lane's bits depend on the others'.
_SERIES_RATIO = 0.5
_SERIES_TERMS = 30
_KUMMER_ARG = 1.0
_KUMMER_TERMS = 20
_EPS = 2.0 ** -53
# Heat covariances and increment moments are summed from the
# large-argument expansion of Kummer's function once |dx|^2 / (2 (t1+t2))
# >= 40, where two Kummer terms of size |dx|^(2H) would cancel.  There
# the exponentially small part of the expansion is below 1e-17 relative,
# and 40 terms reach the smallest term of the asymptotic series.
_HEAT_FAR_ARG = 40.0
_HEAT_FAR_TERMS = 40
# The two Kummer terms of a heat covariance, at B = (t1+t2)/2 and B - t1,
# differ by a part of relative size about t1/B and cancel when it is
# small.  Up to this ratio t1/B they are summed as one Taylor series in
# it, of at most 26 terms.
_HEAT_PAIR_RATIO = 0.25
# Rows of the covariance matrix per closed-form call: the transient
# arrays of cov_matrix span one block of rows, not the whole matrix.
_COV_BLOCK_ROWS = 64


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance of the centered linear field on a finite point set.

    Attributes
    ----------
    points : ndarray, shape (k, 2)
        The (t, x) nodes, one per row.
    entries : ndarray, shape (k, k)
        Exactly symmetric covariance values, PSD up to roundoff.
    """

    points: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        k = len(self.points)
        if self.entries.shape != (k, k):
            raise ValueError("entry matrix shape does not match point count")


def _nodes(points) -> np.ndarray:
    """Space-time points as a new ``(k, 2)`` float array of (t, x) rows.

    Raises ValueError unless there is at least one point, every
    coordinate is finite and every time is >= 0.
    """
    nodes = np.array(points, dtype=float)
    if nodes.size == 0:
        raise ValueError("point list must not be empty")
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise ValueError(f"points must be (t, x) pairs, got an array of "
                         f"shape {nodes.shape}")
    bad = ~np.isfinite(nodes).all(axis=1)
    if bad.any():
        t, x = nodes[np.argmax(bad)].tolist()
        raise ValueError(f"point coordinates must be finite, got ({t}, {x})")
    early = nodes[:, 0] < 0.0
    if early.any():
        raise ValueError(f"time coordinate must be >= 0, got "
                         f"{nodes[np.argmax(early), 0].tolist()}")
    return nodes


def _spow(p: float, v):
    """``sign(v) |v|^p``."""
    return np.sign(v) * np.abs(v) ** p


def _second_diff(p: float, u, e, pm1: float | None = None):
    """``f(u+e) + f(u-e) - 2 f(u)`` for ``f = _spow(p, .)`` and u > 0.

    Summed as ``2 u^p sum_k binom(p, 2k) r^(2k)`` with ``r = e/u`` when
    r <= 1/2, where the direct difference would cancel; direct otherwise.
    Near p = 1 the value is of size ``p - 1``.  A caller that knows that
    factor exactly passes it as ``pm1``: every series term then carries
    it, and only the series is returned, for the caller to take where
    r <= 1/2.
    """
    r2 = (e / u) ** 2
    coef, power, series = 1.0, 1.0, 0.0
    for k in range(2, 2 * _SERIES_TERMS + 1, 2):
        low = pm1 if k == 2 and pm1 is not None else p - k + 1.0
        coef *= (p - k + 2.0) * low / ((k - 1.0) * k)
        power = power * r2
        series = series + coef * power
    if pm1 is not None:
        return 2.0 * u ** p * series
    direct = _spow(p, u + e) + _spow(p, u - e) - 2.0 * _spow(p, u)
    return np.where(r2 <= _SERIES_RATIO ** 2, 2.0 * u ** p * series, direct)


def _kummer(h, x):
    """``M(-h, 1/2, -x)`` for ``0 <= x <= _HEAT_FAR_ARG``, h broadcast
    against x.

    Kummer's transformation ``e^-x M(1/2+h, 1/2, x)`` (DLMF 13.2.39),
    summed from its power series (DLMF 13.2.2), whose terms are positive
    for h in (0, 1).  Each lane stops once its own term is below
    ``_EPS`` of its own sum of absolute terms and adds zeros after that,
    so its value depends on its own h and x only.
    """
    shape = np.broadcast(h, x).shape
    term, total, size = np.ones(shape), np.ones(shape), np.ones(shape)
    mag = np.empty(shape)
    n = 0
    while True:
        n += 1
        term *= x
        term *= (n - 0.5 + h) / ((n - 0.5) * n)
        total += term
        np.abs(term, out=mag)
        size += mag
        live = mag > _EPS * size
        if not live.any():
            return np.exp(-x) * total
        term *= live


def _kummer_m1(h: float, x):
    """``M(-h, 1/2, -x) - 1`` for ``0 <= x <= _HEAT_FAR_ARG``: summed from
    its power series (DLMF 13.2.2) for ``x <= 1``, above by
    :func:`_kummer`."""
    xs = -x
    term, series = 1.0, 0.0
    for n in range(1, _KUMMER_TERMS + 1):
        term = term * xs * (n - 1.0 - h) / ((n - 0.5) * n)
        series = series + term
    big = x > _KUMMER_ARG
    if np.any(big):
        series = np.where(big, _kummer(h, np.where(big, x, 0.0)) - 1.0,
                          series)
    return series


def _heat_near(h: float, z, a):
    """``a^H M(-H, 1/2, -z/a)`` for ``z, a >= 0``: by :func:`_kummer` for
    ``z <= 40 a``, and beyond from the large-argument expansion ``z^H
    sqrt(pi) / Gamma(1/2+H) sum_s c_s (a/z)^s`` of :func:`_heat_far`, whose
    value at ``a = 0`` is the limit ``z^H sqrt(pi) / Gamma(1/2+H)``.

    Each form sees only its own lanes' arguments, the other lanes a 0.
    The expansion stops in each lane after that lane's first term below
    ``_EPS`` (the terms fall while ``a/z <= 1/40``), and adds zeros from
    then on.
    """
    near = (z <= _HEAT_FAR_ARG * a) & (a > 0.0)
    series = expansion = 0.0
    if near.any():
        a_near = np.where(near, a, 1.0)
        series = a_near ** h * _kummer(h, np.where(near, z, 0.0) / a_near)
    if not near.all():
        r = np.where(near, 0.0, a / np.where(z > 0.0, z, 1.0))
        term, total, coef = np.ones_like(r), 1.0, 1.0
        for n in range(1, _HEAT_FAR_TERMS + 1):
            coef *= (n - 1.0 - h) * (n - 0.5 - h) / n
            term *= r
            step = coef * term
            total = total + step
            term *= np.abs(step) > _EPS
            if not term.any():
                break
        expansion = z ** h * math.sqrt(math.pi) / _gamma(0.5 + h) * total
    return np.where(near, series, expansion)


def _heat_pair(h: float, t1, z, b):
    """Heat bracket ``a^H M(-H, 1/2, -z/a) - b^H M(-H, 1/2, -z/b)``, ``a =
    b - t1``, for ``t1 <= b/4`` and ``z < 40 b``, where its two terms
    nearly cancel.

    Summed as one Taylor series in t1: with ``F(u) = u^H M(-H, 1/2,
    -z/u)``, ``F^(k)(u) = (-1)^k (-H)_k u^(H-k) M(k-H, 1/2, -z/u)``, so
    the bracket is ``b^H sum_{k>=1} (-H)_k / k! (t1/b)^k M(k-H, 1/2,
    -z/b)``.  Its terms fall like ``(t1/b)^k``; every lane takes the
    terms up to the first with ``|(-H)_k / k!| _HEAT_PAIR_RATIO^(k-1)``
    below ``_EPS H``.
    """
    r = t1 / b
    w = [-h]
    while abs(w[-1]) * _HEAT_PAIR_RATIO ** (len(w) - 1) > _EPS * h:
        k = len(w) + 1.0
        w.append(w[-1] * (k - 1.0 - h) / k)
    ks = np.arange(1.0, len(w) + 1.0)
    m = _kummer(h - ks, (z / b)[:, None])
    return b ** h * np.sum(np.array(w) * r[:, None] ** ks * m, axis=1)


def _heat_far(h: float, t1, z, a, b):
    """Heat bracket of :func:`_closed_cov` for ``z >= _HEAT_FAR_ARG * b``,
    from the large-argument expansion ``M(-H, 1/2, -x) ~ sqrt(pi) /
    Gamma(1/2+H) x^H sum_s c_s x^(-s)``, ``c_s = (-H)_s (1/2-H)_s / s!``
    (DLMF 13.7.2), whose exponentially small part is dropped.

    The s = 0 terms of ``a^H M(-H, 1/2, -z/a)`` and ``b^H M(-H, 1/2,
    -z/b)`` cancel analytically.  With ``sig = b/z``, ``dl = a/z``, ``h_s
    = (sig^s - dl^s) / (sig-dl)`` and ``z (sig-dl) = t1``, the rest is
    ``-sqrt(pi) / Gamma(1/2+H) z^(H-1) t1 sum_{s>=1} c_s h_s``; at H = 1/2
    every ``c_s`` vanishes.
    """
    sig, dl = b / z, a / z
    hs, dpow = np.ones_like(sig), dl
    coef, total = 1.0, 0.0
    for n in range(1, _HEAT_FAR_TERMS + 1):
        coef *= (n - 1.0 - h) * (n - 0.5 - h) / n
        total = total + coef * hs
        hs = sig * hs + dpow
        dpow = dpow * dl
    return (-math.sqrt(math.pi) / _gamma(0.5 + h)
            * z ** (h - 1.0) * t1 * total)


def _wave_far(q: float, t1, t2, c):
    """Wave bracket of :func:`_closed_cov` for ``c > s``, from its series
    in ``sig = s/c`` and ``dl = d/c``.

    The bracket is ``c^(q+1) (sig-dl)^2 sum_{n even >= 2} binom(q, n)
    Q_n / (n+1)`` with ``h_i = (sig^i - dl^i) / (sig-dl)`` and ``Q_n =
    sum_{i<=n} dl^(n-i) h_i``, and ``c (sig-dl) = 2 t1``.  The n = 0
    terms cancel analytically, every later term has the sign of q - 1,
    and at q = 1 they all vanish.
    """
    sig, dl = (t1 + t2) / c, (t2 - t1) / c
    hi = qn = np.ones_like(sig)
    dpow, coef, total = dl, q, 0.0
    for n in range(2, 2 * _SERIES_TERMS + 1):
        hi = sig * hi + dpow
        dpow = dpow * dl
        qn = dl * qn + hi
        coef *= (q - n + 1.0) / n
        if n % 2 == 0:
            total = total + coef / (n + 1.0) * qn
    return 4.0 * t1 * t1 * c ** (q - 1.0) * total


def _closed_cov(eqn: EquationKind, hurst: HurstIndex, ta, xa, tb, xb):
    """Covariance of the points ``(ta, xa)`` and ``(tb, xb)`` on
    broadcast arrays, in :func:`_geometry`'s times ``t1 <= t2``, ``c =
    |xa - xb|`` and cone lag, the wave's ``|c - d|``.

    With ``q = 2H``, ``s = t1 + t2``, ``d = t2 - t1`` and nc =
    :func:`noise_constant`.  Wave: ``1/8 (1/2 [G(s+c) - G(d+c) + G(s-c)
    - G(d-c)] - t1 (|c-d|^q + |c+d|^q))``, ``G(u) = sign(u)
    |u|^(q+1)/(q+1)``; the factor is ``nc C(1-2H)/2``, C =
    :func:`~fracfield.spectral.cos_integral_constant`, which Gamma
    reflection makes exactly 1/8 for every H.  For ``c >= 2s`` the
    bracket is summed by :func:`_wave_far`, since its terms are of size
    ``c^(q+1)`` and the value of size ``t1^2 c^(q-1)``.  Heat: ``nc
    Gamma(-H) [A^H M(-H, 1/2, -c^2/4A) - B^H M(-H, 1/2, -c^2/4B)]``,
    ``A = d/2``, ``B = s/2``, M Kummer's function (DLMF 13.2), with the
    limit ``(c^2/4)^H sqrt(pi) / Gamma(1/2+H)`` of the first term at A = 0;
    for ``c^2/4 >= 40 B`` the bracket is summed by :func:`_heat_far`, since
    its two terms are of size ``c^(2H)`` and the value of size ``t1
    c^(2H-2)``, and below that for ``t1 <= B/4`` by :func:`_heat_pair`,
    since its two terms differ by a part of relative size ``t1/B``.
    Exactly zero at ``t1 == 0``, and for the wave at H = 1/2 outside the
    light cones (``c >= s``), where the formula would leave roundoff.
    """
    h = hurst.value
    t1, t2, c, lag = _geometry(ta, xa, tb, xb)
    s, d = t1 + t2, t2 - t1
    # Non-finite intermediates are masked below or raise.
    with np.errstate(all="ignore"):
        if eqn is EquationKind.WAVE:
            q = 2.0 * h

            def prim(u):
                return _spow(q + 1.0, u) / (q + 1.0)

            out = np.asarray(
                0.5 * (prim(s + c) - prim(d + c) + prim(s - c) - prim(d - c))
                - t1 * (lag ** q + (c + d) ** q))
            far = (c >= 2.0 * s) & (t1 > 0.0)
            if far.any():
                out[far] = _wave_far(q, t1[far], t2[far], c[far])
            out = np.where((h == 0.5) & (c >= s), 0.0, out)
            out *= 0.125
        elif eqn is EquationKind.HEAT:
            z, a, b = c * c / 4.0, d / 2.0, s / 2.0
            live = t1 > 0.0
            far = live & (z >= _HEAT_FAR_ARG * b)
            x = np.where(live & ~far, z, 0.0) / np.where(live, b, 1.0)
            out = np.asarray(_heat_near(h, z, a) - b ** h * _kummer(h, x))
            pair = live & ~far & (t1 <= _HEAT_PAIR_RATIO * b)
            if pair.any():
                out[pair] = _heat_pair(h, t1[pair], z[pair], b[pair])
            if far.any():
                out[far] = _heat_far(h, t1[far], z[far], a[far], b[far])
            out *= _gamma(-h)
            out *= noise_constant(hurst)
        else:
            raise TypeError(f"expected EquationKind, got {eqn!r}")
    out = np.where(t1 == 0.0, 0.0, out)
    if not np.all(np.isfinite(out)):
        raise NumericalError("closed-form covariance overflowed: a time or "
                             "separation is too large for double precision")
    return out


def _closed_incr(eqn: EquationKind, hurst: HurstIndex, ta, xa, tb, xb):
    """Increment moment ``E[(u(tb, xb) - u(ta, xa))^2]`` on broadcast
    arrays of coordinates, in the terms of :func:`_closed_cov`.

    The two variances minus twice :func:`_closed_cov`, regrouped so that
    no terms of size one are subtracted; notation as there, with
    ``D2_e f(u) = f(u+e) + f(u-e) - 2 f(u)`` from :func:`_second_diff`.
    Wave: ``1/8 [D2_d G(s) - D2_c G(s) + G(d+c) + G(d-c) + 2 t1
    (|c-d|^q + (c+d)^q)]``, and for ``c >= 2s``, where those terms
    are of size ``c^(q+1)``, 1/8 of the two variances ``G(2 t_i)`` minus
    twice :func:`_wave_far`.  Heat: ``nc Gamma(-H) [-D2_A(u^H)(B) + 2 B^H
    (M(-H, 1/2, -z/B) - 1) - 2 A^H M(-H, 1/2, -z/A)]``, ``z = c^2/4``,
    and for ``z >= 40 B`` the two variances ``-nc Gamma(-H) t_i^H`` minus
    twice :func:`_heat_far`.
    Exactly zero at ``t2 == 0``.  Roundoff below zero down to -1e-10 is
    clamped to 0; a more negative or a non-finite value raises
    :class:`NumericalError`.
    """
    h = hurst.value
    t1, t2, c, lag = _geometry(ta, xa, tb, xb)
    s, d = t1 + t2, t2 - t1
    with np.errstate(all="ignore"):
        if eqn is EquationKind.WAVE:
            q = 2.0 * h
            p = q + 1.0

            def prim(u):
                return _spow(p, u) / p

            out = np.asarray(
                (_second_diff(p, s, d) - _second_diff(p, s, c)) / p
                + prim(d + c) + prim(d - c)
                + 2.0 * t1 * (lag ** q + (c + d) ** q))
            far = (c >= 2.0 * s) & (t2 > 0.0)
            if far.any():
                out[far] = (prim(2.0 * t1[far]) + prim(2.0 * t2[far])
                            - 2.0 * _wave_far(q, t1[far], t2[far], c[far]))
            out *= 0.125
        elif eqn is EquationKind.HEAT:
            z, a, b = c * c / 4.0, d / 2.0, s / 2.0
            live = t2 > 0.0
            far = live & (z >= _HEAT_FAR_ARG * b)
            x = np.where(live & ~far, z, 0.0) / np.where(live, b, 1.0)
            out = np.asarray(-_second_diff(h, b, a)
                             + 2.0 * b ** h * _kummer_m1(h, x)
                             - 2.0 * _heat_near(h, z, a))
            if far.any():
                out[far] = (-(t1[far] ** h + t2[far] ** h)
                            - 2.0 * _heat_far(h, t1[far], z[far], a[far],
                                              b[far]))
            out *= _gamma(-h)
            out *= noise_constant(hurst)
        else:
            raise TypeError(f"expected EquationKind, got {eqn!r}")
    out = np.where(t2 == 0.0, 0.0, out)
    if not np.all(np.isfinite(out)):
        raise NumericalError("closed-form increment moment is not finite: a "
                             "time or separation is too large for double "
                             "precision")
    if np.any(out < -1e-10):
        raise NumericalError(f"increment second moment came out "
                             f"{np.min(out):.3e} < -1e-10")
    return np.maximum(out, 0.0)


def _two_sum(a, b) -> tuple:
    """``a + b`` rounded, and its rounding error exactly (Knuth's
    TwoSum)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _cone_lag(ta, xa, tb, xb):
    """``||xa - xb| - |ta - tb||``, the wave forms' ``|c - d|``: the
    smaller distance of the nodes in the light-cone coordinates ``x + t``
    and ``x - t``, each kept with its rounding error.

    So the lag is 0 exactly on a common light cone, and elsewhere within
    two roundings of the exact lag of the coordinates.  From the rounded
    c and d some lags of 1e-17 come out 0 and others do not, and at H =
    0.01 ``t1 |c - d|^(2H)`` jumps from 0 to about t1/2 between them:
    the matrix would be no point set's covariance.
    """
    lags = []
    for sign in (1.0, -1.0):
        (wa, ea), (wb, eb) = _two_sum(xa, sign * ta), _two_sum(xb, sign * tb)
        # Near the cone wa and wb are within a factor 2, so wa - wb is
        # exact (Sterbenz).
        lags.append(np.abs((wa - wb) + (ea - eb)))
    return np.minimum(*lags)


def _geometry(ta, xa, tb, xb) -> tuple:
    """Ordered times ``t1 <= t2``, separation ``c = |xa - xb|`` and
    :func:`_cone_lag` of the points ``(ta, xa)`` and ``(tb, xb)``, as
    broadcast arrays of at least one dimension: arithmetic on 0-d arrays
    calls libm ``pow`` and arrays numpy's own, so a single pair takes the
    route of the matrix."""
    ta, xa, tb, xb = (np.asarray(v, dtype=float) for v in (ta, xa, tb, xb))
    return np.broadcast_arrays(*np.atleast_1d(
        np.minimum(ta, tb), np.maximum(ta, tb), np.abs(xa - xb),
        _cone_lag(ta, xa, tb, xb)))


def conv_cov(eqn: EquationKind, hurst: HurstIndex | float, p1, p2) -> float:
    """Covariance of the centered linear field at two space-time points.

    Symmetric in its point arguments, stationary in space (depends only
    on |x1 - x2|), and zero whenever either time is zero.  Closed form,
    summed as a series in ``(t1+t2)/|x1-x2|`` far outside the wave light
    cones; bit for bit the matching entry of :func:`cov_matrix`.
    """
    return float(_closed_cov(eqn, _as_hurst(hurst),
                             *_nodes((p1, p2)).ravel())[0])


def cov_matrix(eqn: EquationKind, hurst: HurstIndex | float,
               points) -> CovarianceMatrix:
    """Covariance matrix of the centered linear field on ``(k, 2)`` (t, x)
    points.

    Vectorized closed-form evaluations over ``_COV_BLOCK_ROWS`` rows of
    points at a time against all points, so the transient arrays span
    one block; the matrix is exactly symmetric, and each entry depends on
    its own two points only.
    """
    h = _as_hurst(hurst)
    nodes = _nodes(points)
    t, x = nodes.T
    entries = np.empty((t.size, t.size))
    for start in range(0, t.size, _COV_BLOCK_ROWS):
        rows = slice(start, start + _COV_BLOCK_ROWS)
        entries[rows] = _closed_cov(eqn, h, t[rows, None], x[rows, None],
                                    t, x)
    return CovarianceMatrix(points=nodes, entries=entries)


def increment_moment2(eqn: EquationKind, hurst: HurstIndex | float,
                      p1, p2) -> float:
    """Second moment ``E[(u(p2) - u(p1))^2]`` of a linear-field increment.

    Closed form written as one sum, not as a difference of covariances,
    which would cancel catastrophically at small lags.  Slightly
    negative results above -1e-10 (pure roundoff) are clamped to zero;
    anything below that, or a non-finite result, raises
    :class:`NumericalError`.
    """
    return float(_closed_incr(eqn, _as_hurst(hurst),
                              *_nodes((p1, p2)).ravel())[0])


def noise_field_cov(hurst: HurstIndex | float, p1, p2) -> float:
    """Covariance of the integrated noise field itself.

    ``min(t1, t2)`` times the fractional Brownian covariance
    ``(|x1|^2H + |x2|^2H - |x1-x2|^2H) / 2``; vanishes whenever either
    time is zero or either spatial coordinate is at the origin.
    """
    (t1, x1), (t2, x2) = _nodes((p1, p2)).tolist()
    two_h = 2.0 * _as_hurst(hurst).value
    r = 0.5 * (abs(x1) ** two_h + abs(x2) ** two_h - abs(x1 - x2) ** two_h)
    return min(t1, t2) * r
