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
``D = exp(-t^2/(2x)) - exp(-t^2/(2a))``.  The law is evaluated as written
here, in numpy's ``longdouble``, and rounded to double once at the end.
On x86-64 that type has a 64-bit mantissa and a 15-bit exponent
(``maxexp`` 16384), so every intermediate of double inputs, from ``t^2``
up to 1e616 to ``a x`` down to 1e-647, is a normal number: nothing over-
or underflows where the result does not, and the 11 extra mantissa bits
absorb the rounding of the operations before the last.  ``D`` is still
the larger exponential times an ``expm1`` of a non-positive argument,
which keeps the digits the difference cancels at small ``t``.  scipy's
``erf`` has no extended loop: it takes its argument rounded to double, and
below 1e-10 ``erf(u)`` is ``2u/sqrt(pi)``.  Where ``longdouble`` is only a
double (MSVC, macOS on arm64) the law is refused.

The density has an integrable ``|z|^(-1/2)`` spike at the origin (the
value 0 is returned at ``z = 0``), a heavy ``|z|^(-3/2)`` negative tail,
and vanishes identically at and above ``x``.  At ``x = 0`` hitting is
immediate and the law is ``f_I(t)(-z)``.

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
and the triangle's moment series replaces it.  ``r``, ``k``, ``m`` and the
legs are formed in the extended type and rounded to double for scipy's
``owens_t`` and ``erf``.  At ``x = 0`` both reduce to
``erf(t/sqrt(2|z|))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf, erfc, erfcx, owens_t

from .csvio import write_csv

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

    with ``w = |s| sqrt((Y-X)/(2 X Y))`` and ``g`` of :func:`_g_tail`, in
    the extended type of the base-point law, so that no factor under- or
    overflows apart from the result; ``erfcx`` and ``g`` take ``w`` rounded
    to double.  ``Y - X`` is taken as one difference, which stays exact
    next to ``y = x``.  Zero outside the
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
        X, Y, s = _extended(-x, -y, s)
        d = Y - X
        w = -s * np.sqrt(d / (2.0 * X * Y))
        # where w rounds to inf, erfcx and g read 0, and exp(-c/X) is 0 as w^2 < c/X
        bracket = np.sqrt(_PI) * erfcx(float(w)) + 2.0 * w * _g_tail(float(w)) * (X / d)
        return float(bracket * np.exp(-s * s / (2.0 * X)) / (_PI * Y * np.sqrt(2.0 * Y)))
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

#: the extended type the law is evaluated in: with a 15-bit exponent it
#: holds every intermediate of double inputs, from ``t^2`` up to 1e616 to
#: ``a x`` down to 1e-647
_EXT = np.longdouble
_PI = np.arccos(_EXT(-1.0))


def _extended(*values) -> list:
    """``values`` (floats or arrays) in the extended type, which must have
    a wider exponent range than a double: where numpy's ``longdouble`` is
    only a double (MSVC, macOS on arm64) the law is refused, not evaluated
    in a type whose intermediates over- and underflow."""
    if np.finfo(_EXT).maxexp < 16384:
        raise RuntimeError("the stable-1/2 law needs numpy's longdouble with maxexp 16384 (x86-64)")
    return [_EXT(v) for v in values]


def _erf(u: np.ndarray) -> np.ndarray:
    """``erf`` of an extended ``u >= 0``: ``2u/sqrt(pi)`` below 1e-10, where
    the next term is ``u^2/3`` relative, and scipy's double ``erf``, which
    has no extended loop, of ``min(u, 6)`` above (``erf(6)`` rounds to 1)."""
    return np.where(u < 1e-10, 2.0 / np.sqrt(_PI) * u, erf(np.minimum(u, 6.0).astype(float)))


def _basepoint_negative_side(x, t, a: np.ndarray) -> np.ndarray:
    """Closed-form base-point density at ``z = -a < 0`` for a level ``x > 0``
    (module docstring), all three in the extended type."""
    s = a + x
    # D = exp(-t^2/(2x)) - exp(-t^2/(2a)) with the larger exponential factored
    # out, so that small t loses no digits to the difference
    e = t * t * (a - x) / (2.0 * a * x)
    d = np.sign(e) * np.exp(-t * t / (2.0 * np.maximum(a, x))) * np.expm1(-np.abs(e))
    # (t - mu)/(sigma sqrt 2) and mu/(sigma sqrt 2)
    erfs = _erf(t * np.sqrt(x / (2.0 * a * s))) + _erf(t * np.sqrt(a / (2.0 * x * s)))
    first = np.sqrt(x) * d / np.sqrt(a)
    second = np.sqrt(_PI / 2.0) * np.exp(-t * t / (2.0 * s)) * erfs * t / np.sqrt(s)
    return (first + second) / (s * _PI)


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
        X, T, Z = _extended(x, t, z)
        f = np.zeros_like(Z)
        pos = (z > 0.0) & (z < x)
        y = X - Z[pos]
        f[pos] = np.exp(-T * T / (2.0 * y)) / (_PI * np.sqrt(Z[pos] * y))
        neg = (z < 0.0) & (z > -np.inf)  # f(-inf) = 0
        f[neg] = _basepoint_negative_side(X, T, -Z[neg])
        with np.errstate(over="ignore"):  # beyond the double range f reads inf
            f = f.astype(float)
    return DensityCurve(z, f, np.zeros_like(f), F)


def _cdf_negative_side(x: float, t: float, a: np.ndarray) -> np.ndarray:
    """``F(-a)`` for ``a > 0`` and a level ``x >= 0`` (module docstring)."""
    x, t, a = _extended(x, t, a)
    r = np.sqrt(np.minimum(a, x) / np.maximum(a, x))
    k = t / np.sqrt(x + a)
    # rounded to double, beyond whose range owens_t(inf, r) = 0; at x = 0,
    # m = l1 = inf and owens_t(inf, 0) = 0
    with np.errstate(divide="ignore", over="ignore"):
        m, l1 = k / r, t / np.sqrt(x)
        r, k, m, l1, l2 = (v.astype(float) for v in np.broadcast_arrays(r, k, m, l1, t / np.sqrt(a)))
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

    ``F`` is 1 at and above the level, 0 at ``-inf`` and NaN at NaN.
    Negative and non-finite levels raise ``ValueError``: no correct law is
    implemented for them.
    """
    if not 0.0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if not 0.0 <= x < np.inf:
        raise ValueError(
            f"the base-point law is implemented for finite levels x >= 0 only, got x={x}"
        )
    z = np.asarray(z, dtype=float)
    F = np.where(np.isnan(z), np.nan, 1.0)
    X, T = _extended(x, t)
    f0 = erf(float(T / np.sqrt(2.0 * X))) if x > 0.0 else 1.0
    # each side clipped to its bound, F(0) or 1, which the sums may exceed
    # by an ulp next to the origin and the level; F(-inf) = 0 is set apart,
    # as the negative side's closed form takes inf / inf there
    F[z == -np.inf] = 0.0
    neg = (z < 0.0) & (z > -np.inf)
    F[neg] = np.minimum(_cdf_negative_side(x, t, -z[neg]), f0)
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
    X, S = _extended(x, s)
    with np.errstate(over="ignore"):  # erfc(inf) = owens_t(inf, r) = 0
        u, h = (S / np.sqrt(2.0 * X)).astype(float), s / np.sqrt(x)
    return np.where(full, erfc(u), 4.0 * owens_t(h, ratio))


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

    Edges that make no bins are refused: both lists must be strictly
    increasing from 0 or above (the last hitting-time edge may be ``inf``),
    and the undershoot edges must end at ``x`` or below.
    """
    s_edges = np.asarray(s_edges, dtype=float)
    y_edges = np.asarray(y_edges, dtype=float)
    if not 0.0 < x < np.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    for name, e in (("s_edges", s_edges), ("y_edges", y_edges)):
        if e.ndim != 1 or e.size < 2 or not (e[0] >= 0.0 and np.all(e[1:] > e[:-1])):
            raise ValueError(
                f"{name} must be strictly increasing from 0 or above, with >= 2 entries"
            )
    if y_edges[-1] > x:
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
_X_RANGE = (np.finfo(float).tiny / _REL_INNER, np.finfo(float).max / 1.1)


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
