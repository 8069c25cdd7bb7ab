"""Densities for the inverse Gaussian (stable-1/2) case of the base point.

The inverse Gaussian process ``I`` is the hitting-time process of the
two-sided running maximum of standard Brownian motion in space direction.
Throughout, the standard-Brownian-motion scaling is used:

    f_I(t)(v) = t / sqrt(2 pi) * v^(-3/2) * exp(-t^2 / (2 v)),   t, v > 0,

mirrored for negative times.  Building blocks:

* ``triple_density``       joint density of hitting time, undershoot and
                           overshoot at a level ``x > 0``,
* ``hit_under_density``    joint density of hitting time and undershoot
                           (overshoot integrated out; at ``x < 0`` an
                           ``erfcx`` closed form),
* ``bridge_density``       density of the process pinned to ``I(s) = y``,
* ``basepoint_cdf``        the exact CDF of the base point ``I(I*(x) - t)``
                           (Owen's T functions), at points of any shape,
* ``basepoint_density``    the base-point law tabulated on an increasing
                           grid: closed-form density ``f``, CDF ``F`` and
                           the grid's mass, in one ``DensityCurve``, from
                           which ``density`` and ``validate`` both write
                           ``density.csv`` and ``cdf.csv``,
* ``hit_under_bin_masses`` exact hitting/undershoot masses over rectangular
                           bins, by the same Owen's T form.

Base-point law for a level ``x > 0``.  Total probability over the hitting
data, with the bridge denominator cancelling against the undershoot density,
integrates in closed form.  Above the origin (the bridge region)

    f(z) = exp(-t^2 / (2 (x - z))) / (pi sqrt(z (x - z))),   0 < z < x,

which carries the mass ``erfc(t / sqrt(2 x))``.  Below the origin the base
point is an independent copy run backwards from the hitting time, mixed over
the half-normal running maximum ``s`` of the hitting time:

    f(-a) = int_0^t f_I(t-s)(a) sqrt(2/(pi x)) exp(-s^2/(2x)) ds
          = a^(-3/2) / (pi sqrt(x)) * [ sigma^2 D
              + mu sigma sqrt(pi/2) exp(-t^2/(2(a+x)))
                * (erf((t-mu)/(sigma sqrt 2)) + erf(mu/(sigma sqrt 2))) ],

with ``sigma^2 = a x/(a+x)``, ``mu = a t/(a+x)`` and
``D = exp(-t^2/(2x)) - exp(-t^2/(2a))``.  ``D`` is evaluated as the larger
exponential times an ``expm1`` of a non-positive argument, so that small
``t`` loses no digits and far-apart exponents (``t^2/(2x)`` in the
hundreds) cannot overflow; the powers of ``a`` are folded into ``sigma`` and
``mu`` so that no intermediate over- or underflows where the result does
not.  The density has an integrable ``|z|^(-1/2)``
spike at the origin (the value 0 is returned at ``z = 0``), a heavy
``|z|^(-3/2)`` negative tail, and vanishes identically at and above ``x``.
At ``x = 0`` hitting is immediate and the law is ``f_I(t)(-z)``.

The CDF ``F(z) = P(Z < z)`` is a sum of Owen's T functions (Owen 1956,
Ann. Math. Statist. 27): ``F(z) = erf(t/sqrt(2x)) + 4 T(t/sqrt(x), sqrt(z/(x-z)))``
on ``0 <= z < x``, ``F = 1`` from ``x`` on, and below the origin
``F(-a) = 1 - 4 [T(k, sqrt(x/a)) + T(k, sqrt(a/x))]`` with ``k = t/sqrt(x+a)``,
four times the bivariate normal mass of the triangle ``u, v > 0``,
``sqrt(x) u + sqrt(a) v < t``.  Owen's identity for ``T(h, c) + T(ch, 1/c)``
rewrites the latter as ``erf(k/sqrt 2) erf(m/sqrt 2) + 4 [T(m, r) - T(k, r)]``
with ``r = sqrt(min(a, x)/max(a, x))`` and ``m = k/r``, which keeps its
relative accuracy in the ``|z|^(-1/2)`` tail; where both legs ``t/sqrt(x)``
and ``t/sqrt(a)`` of the triangle are below ``2e-2`` the T difference cancels
and the triangle's moment series replaces it.  At ``x = 0`` both reduce to
``erf(t/sqrt(2|z|))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf, erfc, erfcx, owens_t

from .csvio import write_csv, write_json

__all__ = [
    "DensityCurve",
    "ig_marginal_density",
    "triple_density",
    "hit_under_density",
    "running_max_density",
    "bridge_density",
    "basepoint_density",
    "basepoint_cdf",
    "hit_under_bin_masses",
    "default_z_grid",
    "write_density_csv",
    "write_cdf_csv",
    "write_query_json",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_PI = float(np.log(np.pi))


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """The base-point law of level ``x`` and elapsed time ``t`` tabulated on
    the increasing grid ``z``: density ``f``, its per-point error estimate
    ``err`` and the CDF ``F``.

    ``err`` is 0 wherever ``f`` comes from a closed form, which is every
    point :func:`basepoint_density` returns.
    """

    x: float
    t: float
    z: np.ndarray
    f: np.ndarray
    err: np.ndarray
    F: np.ndarray

    @property
    def mass(self) -> float:
        """The exact probability of ``[z[0], z[-1]]``, ``F(z[-1]) - F(z[0])``."""
        return float(self.F[-1] - self.F[0])


def _log_ig(t: float, v) -> np.ndarray:
    """``log f_I(t)(v)`` for ``t > 0`` on ``v > 0`` (callers guard supports)."""
    v = np.asarray(v, dtype=float)
    return np.log(t) - 0.5 * _LOG_2PI - 1.5 * np.log(v) - t * t / (2.0 * v)


def ig_marginal_density(t: float, v):
    """Marginal density of ``I(t)``, ``t != 0``.

    Positive times are supported on ``v > 0``, negative times mirror onto
    ``v < 0``.  The distribution degenerates at ``t = 0``.
    """
    if t == 0.0:
        raise ValueError("the marginal at t=0 is degenerate at the origin")
    v_arr = np.asarray(v, dtype=float)
    out = np.zeros_like(v_arr)
    if t > 0.0:
        mask = v_arr > 0.0
        if mask.any():
            out[mask] = np.exp(_log_ig(t, v_arr[mask]))
    else:
        mask = v_arr < 0.0
        if mask.any():
            out[mask] = np.exp(_log_ig(-t, -v_arr[mask]))
    return float(out) if np.isscalar(v) else out


def triple_density(x: float, s, a, b):
    """Joint density of (hitting time, undershoot, overshoot) at level ``x > 0``:

        1{s>=0, 0<=a<=x<=b} * s / (2 pi sqrt(a^3 (b-a)^3)) * exp(-s^2/(2a))
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    s_arr, a_arr, b_arr = np.broadcast_arrays(
        np.asarray(s, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    out = np.zeros(s_arr.shape)
    # the factor s makes the density vanish at s = 0, so the open condition
    # s > 0 below matches the closed indicator s >= 0 pointwise
    mask = (s_arr > 0.0) & (a_arr > 0.0) & (a_arr <= x) & (b_arr >= x) & (b_arr > a_arr)
    if mask.any():
        sm, am, bm = s_arr[mask], a_arr[mask], b_arr[mask]
        log_val = (
            np.log(sm)
            - np.log(2.0 * np.pi)
            - 1.5 * (np.log(am) + np.log(bm - am))
            - sm * sm / (2.0 * am)
        )
        out[mask] = np.exp(log_val)
    if np.isscalar(s) and np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _log_hit_under_pos(x: float, s, y) -> np.ndarray:
    """log of the hitting-time/undershoot joint density on its positive-side
    support ``s >= 0, 0 < y < x``."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.log(s) - 1.5 * np.log(y) - 0.5 * np.log(x - y) - _LOG_PI - s * s / (2.0 * y)


def _g_tail(w: float) -> float:
    """``g(w) = 1 - sqrt(pi) w erfcx(w)`` for ``w >= 0``.  Above ``w = 8`` the
    difference cancels, and the asymptotic series
    ``sum_(k>=1) (-1)^(k+1) (2k-1)!! / (2 w^2)^k`` takes over; its 20 terms
    (Horner form) leave a truncation error below 1e-16 relative there."""
    if w <= 8.0:
        return 1.0 - np.sqrt(np.pi) * w * erfcx(w)
    v = 0.5 / (w * w)
    g = 1.0
    for k in range(20, 1, -1):
        g = 1.0 - (2 * k - 1) * v * g
    return v * g


def hit_under_density(x: float, s: float, y: float) -> float:
    """Joint density of hitting time ``s`` and undershoot ``y`` at level ``x``.

    For ``x > 0`` the overshoot has been integrated out in closed form.  For
    ``x < 0`` the undershoot is the mirrored overshoot at ``X = -x``, and the
    integral over the mirrored undershoot ``b`` of :func:`triple_density`,
    ``int_0^X |s| b^(-3/2) (Y-b)^(-3/2) exp(-c/b) db / (2 pi)`` with
    ``Y = -y`` and ``c = s^2/2``, is closed form after ``u = 1/b - 1/Y``:

        Y^(-3/2) exp(-c/X) / (2 pi) * [ sqrt(2 pi) erfcx(w)
                                        + 2 sqrt(2) w g(w) X/(Y-X) ],

    with ``w = |s| sqrt((Y-X)/(2 X Y))`` and ``g`` of :func:`_g_tail`.  The
    exponents are merged into ``exp(-c/X)``, so no factor under- or
    overflows apart from the result, and ``Y - X`` is taken as one
    difference, which stays exact next to ``y = x``.  Zero outside the
    supports; the boundary ``y == x`` carries an integrable blow-up and
    evaluates to ``inf``.
    """
    if x > 0.0:
        if s < 0.0 or y < 0.0 or y > x:
            return 0.0
        if y == x:
            return np.inf
        if y == 0.0 or s == 0.0:
            return 0.0
        return float(np.exp(_log_hit_under_pos(x, s, y)))
    if x < 0.0:
        if s >= 0.0 or y > x:
            return 0.0
        if y == x:
            return np.inf
        X, Y, d = -x, -y, x - y
        w = -s * np.sqrt(d / X / Y / 2.0)
        bracket = np.sqrt(2.0 * np.pi) * erfcx(w) + np.sqrt(8.0) * w * _g_tail(w) * (X / d)
        return float(Y**-1.5 * bracket * np.exp(-s * s / (2.0 * X)) / (2.0 * np.pi))
    return 0.0


def running_max_density(x: float, s) -> np.ndarray | float:
    """Half-normal density of the running maximum of Brownian motion over
    ``[0, x]``: ``sqrt(2/(pi x)) exp(-s^2/(2x))`` for ``s >= 0``."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    s_arr = np.asarray(s, dtype=float)
    out = np.where(s_arr >= 0.0, np.sqrt(2.0 / (np.pi * x)) * np.exp(-s_arr * s_arr / (2.0 * x)), 0.0)
    return float(out) if np.isscalar(s) else out


def bridge_density(r: float, s: float, y: float, z):
    """Density at time ``r`` of the process pinned to ``I(s) = y``:

        f_I(r)(z) * f_I(s-r)(y - z) / f_I(s)(y),   0 < z < y,

    for ``s > r > 0`` and ``y > 0``; zero outside ``(0, y)``.
    """
    if not (s > r > 0.0):
        raise ValueError(f"need s > r > 0, got r={r}, s={s}")
    if not y > 0.0:
        raise ValueError(f"need y > 0, got y={y}")
    log_denom = _log_ig(s, y)
    if not np.isfinite(log_denom) or np.exp(log_denom) == 0.0:
        raise ValueError(
            f"conditioning on a numerically null event: f_I({s})({y}) underflows"
        )
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros_like(z_arr)
    mask = (z_arr > 0.0) & (z_arr < y)
    if mask.any():
        zm = z_arr[mask]
        out[mask] = np.exp(_log_ig(r, zm) + _log_ig(s - r, y - zm) - log_denom)
    return float(out) if np.isscalar(z) else out


# ---------------------------------------------------------------------------
# base-point density

_TINY, _MAX = np.finfo(float).tiny, np.finfo(float).max


def _half_square_over(t: float, y: np.ndarray) -> np.ndarray:
    """``t^2 / (2 y)`` for ``y > 0``, formed as written except where ``t t``
    or ``2 y`` overflows (``y`` above ``max/2``, where the bridge and negative
    side exponents took ``inf / inf`` or ``t t / inf``); there it is
    ``(t / y)(t / 2)``, whose overflow is the right limit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(np.isinf(t * t) | np.isinf(2.0 * y), (t / y) * (0.5 * t), t * t / (2.0 * y))


def _sqrt_2x(x: float) -> float:
    """``sqrt(2 x)``, also above ``max/2``, where ``2 x`` overflows."""
    return np.sqrt(2.0 * x) if x <= 0.5 * _MAX else np.sqrt(2.0) * np.sqrt(x)


def _halved_where_sum_overflows(side, x: float, t: float, a: np.ndarray, power: int) -> np.ndarray:
    """``side(x, t, a)``, except where ``x + a`` overflows: the law scales as
    ``(x, t, z) -> (c^2 x, c t, c^2 z)`` with its density divided by ``c^2``,
    so there it is ``side(x/4, t/2, a/4) / 4**power`` (``power`` 0 for the
    CDF, 1 for the density), and these divisions by powers of 2 are exact."""
    if not math.isinf(x + float(a.max(initial=0.0))):
        return side(x, t, a)
    with np.errstate(over="ignore"):
        big = np.isinf(x + a)
    out = np.empty_like(a)
    out[~big] = side(x, t, a[~big])
    out[big] = side(0.25 * x, 0.5 * t, 0.25 * a[big]) * 0.25**power
    return out


def _erf_sqrt_ratio(t: float, b, c, s: np.ndarray) -> np.ndarray:
    """``erf(t sqrt(b / (2 c s)))`` for ``s = b + c`` (broadcast), as
    ``erf(t sqrt(0.5 (b/c) / s))``.  Where ``(b/c)/s`` overflows, which
    needs ``b >> c``, the argument is ``t/sqrt(c) sqrt(0.5 b/s)`` instead:
    ``b/s <= 1``, so only the true argument's own overflow is left."""
    q = 0.5 * (b / c) / s
    arg = t * np.sqrt(q)
    if not np.isfinite(q.max(initial=0.0)):  # a NaN max may hide an inf
        big = np.isinf(q)
        b, c = np.broadcast_arrays(b, c)
        arg[big] = t / np.sqrt(c[big]) * np.sqrt(0.5 * (b[big] / s[big]))
    return erf(arg)


def _basepoint_negative_side(x: float, t: float, a: np.ndarray) -> np.ndarray:
    """Closed-form base-point density at ``z = -a < 0`` for a level ``x > 0``
    (see the module docstring), arranged so that no intermediate overflows
    or vanishes where the result does not."""
    # D = exp(-t^2/(2x)) - exp(-t^2/(2a)) with the larger exponential factored
    # out: expm1 then sees an argument <= 0, so it cannot overflow when the
    # two exponents are far apart, and small t loses no digits.  An argument
    # that overflows to inf gives the limit: d = 0 and erf(inf) = 1
    # sigma^2 a^(-3/2) / sqrt(x) = sqrt(x/s) / (sqrt(a) sqrt(s)) and
    # mu sigma a^(-3/2) / sqrt(x) = (t/s) / sqrt(s); where an exponential is
    # 0, a factor beside it may overflow, and its term is the limit 0
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + x
        ratio = (a - x) / a
        e = 0.5 * t * t * ratio / x
        # where t t or t t ratio over- or underflowed but e need not: a
        # product that does so only with e, or -t^2/(2a) where ratio
        # overflowed, as then a << x
        if t * t < _TINY or not np.isfinite(e).all():
            redo = ~np.isfinite(e) | (t * t < _TINY)
            r = ratio[redo]
            e[redo] = np.where(np.isinf(r), -(0.5 * t) * (t / a[redo]), (0.5 * t) * (t / x) * r)
        e[a == x] = 0.0  # D = 0, where t t = inf gave inf * 0
        d = np.sign(e) * np.exp(-_half_square_over(t, np.maximum(a, x))) * np.expm1(-np.abs(e))
        # (t - mu)/(sigma sqrt 2) and mu/(sigma sqrt 2)
        erfs = _erf_sqrt_ratio(t, x, a, s) + _erf_sqrt_ratio(t, a, x, s)
        g = np.exp(-_half_square_over(t, s))
        if t * t < _TINY:
            # both terms are of order t t: dividing by sqrt(s) last would
            # come after a product that underflows
            first = np.sqrt(x / s) * (d / np.sqrt(a) / np.sqrt(s))
            second = np.sqrt(0.5 * np.pi) * g * erfs * ((t / s) / np.sqrt(s))
        else:
            first = np.sqrt(x / s) * (d / np.sqrt(a)) / np.sqrt(s)
            second = np.sqrt(0.5 * np.pi) * g * erfs * (t / s) / np.sqrt(s)
    return (first + np.where(g > 0.0, second, 0.0)) / np.pi


def basepoint_density(x: float, t: float, z_grid) -> DensityCurve:
    """The law of the base point ``I(I*(x) - t)`` tabulated on the strictly
    increasing grid ``z_grid``: its density and its CDF.

    Closed forms (module docstring) for levels ``x > 0``; at ``x = 0`` the
    law is ``f_I(t)(-z)``.  The value 0 is returned at the integrable spike
    ``z = 0`` and at and above the level.  Negative levels raise
    ``ValueError``: no correct law is implemented for them.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or z.size < 2 or not np.all(np.diff(z) > 0.0):
        raise ValueError("z_grid must be a strictly increasing 1-d sequence")
    F = basepoint_cdf(x, t, z)  # refuses x < 0 and t not positive and finite
    if x == 0.0:
        # hitting is immediate: the base point is an independent copy run
        # backwards from the origin
        f = ig_marginal_density(t, -z)
    else:
        f = np.zeros_like(z)
        pos = (z > 0.0) & (z < x)
        zp = z[pos]
        with np.errstate(over="ignore"):  # pi sqrt(z (x - z)) > max: f is below tiny
            f[pos] = np.exp(-_half_square_over(t, x - zp)) / (np.pi * np.sqrt(zp) * np.sqrt(x - zp))
        neg = z < 0.0
        f[neg] = _halved_where_sum_overflows(_basepoint_negative_side, x, t, -z[neg], 1)
    return DensityCurve(x, t, z, f, np.zeros_like(f), F)


def _cdf_negative_side(x: float, t: float, a: np.ndarray) -> np.ndarray:
    """``F(-a)`` for ``a > 0`` and a level ``x >= 0`` (module docstring)."""
    lo, hi = np.minimum(a, x), np.maximum(a, x)
    r = np.sqrt(lo / hi)
    with np.errstate(divide="ignore", over="ignore"):  # owens_t(inf, r) = 0
        k = t / np.sqrt(x + a)
        m = t * np.sqrt(hi / (x + a)) / np.sqrt(lo)
        l1, l2 = np.broadcast_arrays(t / np.sqrt(x), t / np.sqrt(a))
    F = erf(k / np.sqrt(2.0)) * erf(m / np.sqrt(2.0)) + 4.0 * (owens_t(m, r) - owens_t(k, r))
    # 4/(2 pi) int_triangle exp(-(u^2+v^2)/2) to fourth order in the legs
    small = np.maximum(l1, l2) < 2e-2
    l1, l2 = l1[small], l2[small]
    q1, q2 = l1 * l1, l2 * l2
    F[small] = l1 * l2 / np.pi * (
        1.0 - (q1 + q2) / 12.0 + (3.0 * (q1 * q1 + q2 * q2) + q1 * q2) / 360.0
    )
    return F


def basepoint_cdf(x: float, t: float, z) -> np.ndarray:
    """Exact CDF ``F(z) = P(Z < z)`` of the base point ``Z = I(I*(x) - t)``
    at points ``z`` of any shape and order (module docstring).

    ``F`` is 1 at and above the level and 0 at ``-inf``.  Negative levels raise
    ``ValueError``: no correct law is implemented for them.
    """
    if not 0.0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if not x >= 0.0:
        raise ValueError(
            f"the base-point law is implemented for levels x >= 0 only, got x={x}"
        )
    z = np.asarray(z, dtype=float)
    F = np.ones(z.shape)
    with np.errstate(divide="ignore", over="ignore"):  # erf(inf) = 1
        f0 = erf(t / _sqrt_2x(x))
    # each side clipped to its bound, F(0) or 1, which the sums may exceed
    # by an ulp next to the origin and the level; F(-inf) = 0 is set apart,
    # as the negative side's closed form takes inf / inf there
    F[z == -np.inf] = 0.0
    neg = (z < 0.0) & (z > -np.inf)
    F[neg] = np.minimum(_halved_where_sum_overflows(_cdf_negative_side, x, t, -z[neg], 0), f0)
    pos = (z >= 0.0) & (z < x)
    if pos.any():
        F[pos] = np.minimum(f0 + _undershoot_tail_mass(x, t, z[pos]), 1.0)
    return F


def _undershoot_tail_mass(x: float, s, w: np.ndarray) -> np.ndarray:
    """``int_(x-w)^x exp(-s^2/(2y)) / (pi sqrt(y (x-y))) dy`` for
    ``0 <= w <= x``: the substitution ``y = x / (1 + u^2)`` turns it into
    ``4 T(s/sqrt(x), sqrt(w/(x-w)))`` with Owen's T function, and the full
    range ``w = x`` into ``erfc(s/sqrt(2x))``.  At ``s = t`` this is the
    base-point mass ``P(0 < Z < w)`` of the bridge region."""
    full = w >= x
    ratio = np.sqrt(w / np.where(full, 1.0, x - w))
    with np.errstate(over="ignore"):  # erfc(inf) = owens_t(inf, r) = 0
        return np.where(
            full, erfc(s / _sqrt_2x(x)), 4.0 * owens_t(s / np.sqrt(x), ratio)
        )


def hit_under_bin_masses(
    x: float,
    s_edges: Sequence[float],
    y_edges: Sequence[float],
) -> np.ndarray:
    """Exact masses of the hitting/undershoot density over a rectangular bin
    grid (level ``x > 0``).

    The hitting-time variable integrates in closed form,
    ``int_s1^s2 s exp(-s^2/(2y)) ds = y (exp(-s1^2/(2y)) - exp(-s2^2/(2y)))``,
    and the remaining undershoot integral is a difference of Owen's T
    functions: with ``P`` the tail mass of :func:`_undershoot_tail_mass`,
    the mass of ``[s1, s2] x [lo, hi]`` is ``M(s1) - M(s2)``, where
    ``M(s) = P(s, x - lo) - P(s, x - hi)``.
    """
    s_edges = np.asarray(s_edges, dtype=float)
    y_edges = np.asarray(y_edges, dtype=float)
    if y_edges[0] < 0.0 or y_edges[-1] > x:
        raise ValueError("undershoot bins must lie inside [0, x]")
    s = s_edges[:, None]
    m = _undershoot_tail_mass(x, s, x - y_edges[None, :-1]) - _undershoot_tail_mass(
        x, s, x - y_edges[None, 1:]
    )
    return m[:-1] - m[1:]


#: innermost grid point on either side of 0, relative to the level ``x``
_REL_INNER = 1e-5

#: the levels whose grid holds: its innermost point ``_REL_INNER x`` is a
#: normal double and its band end ``1.1 x`` is finite
_X_RANGE = (_TINY / _REL_INNER, _MAX / 1.1)


def default_z_grid(x: float, n: int = 512, z_neg_far: float = -1e6) -> np.ndarray:
    """Two-sided evaluation grid for a positive level ``x``.

    Geometric refinement toward the integrable spike at 0 on both sides, a
    linear band across the density cutoff at ``z = x``, and a geometric far
    negative tail (the negative side is heavy-tailed)."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if not _X_RANGE[0] <= x <= _X_RANGE[1]:
        raise ValueError(
            f"x must lie in [{_X_RANGE[0]:g}, {_X_RANGE[1]:g}], where the innermost grid point "
            f"{_REL_INNER:g} x is a normal double and the band end 1.1 x is finite, got {x!r}"
        )
    if n < 64:
        raise ValueError(f"need at least 64 grid points, got {n}")
    inner = _REL_INNER * x
    if not np.isfinite(z_neg_far):
        raise ValueError(f"the far negative end must be finite, got {z_neg_far!r}")
    if not z_neg_far < -inner:
        raise ValueError(
            f"the far negative end must lie below the innermost point -{inner:g}, got {z_neg_far!r}"
        )
    n_neg = int(0.45 * n)
    n_pos_geo = int(0.40 * n)
    n_band = n - n_neg - n_pos_geo
    neg = -np.geomspace(-z_neg_far, inner, n_neg)
    pos_geo = np.geomspace(inner, 0.9 * x, n_pos_geo)
    band = np.linspace((0.9 + 1e-9) * x, 1.1 * x, n_band)
    return np.unique(np.concatenate([neg, [0.0], pos_geo, band]))


def write_density_csv(curve: DensityCurve, out: Path | str) -> None:
    write_csv(out, "z,f,err", curve.z, curve.f, curve.err)


def write_cdf_csv(curve: DensityCurve, out: Path | str) -> None:
    write_csv(out, "z,F", curve.z, curve.F)


def write_query_json(curve: DensityCurve, out: Path | str) -> None:
    write_json(out, {
        "x": curve.x,
        "t": curve.t,
        "convention": "standard-brownian-motion",
        "z_min": float(curve.z[0]),
        "z_max": float(curve.z[-1]),
        "n_points": curve.z.size,
        "mass": curve.mass,
    })
