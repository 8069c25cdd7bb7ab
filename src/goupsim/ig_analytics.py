"""Densities for the inverse Gaussian (stable-1/2) case of the base point.

The inverse Gaussian process ``I`` is the hitting-time process of the
two-sided running maximum of standard Brownian motion in space direction.
Throughout, the standard-Brownian-motion scaling is used:

    f_I(t)(v) = t / sqrt(2 pi) * v^(-3/2) * exp(-t^2 / (2 v)),   t, v > 0,

mirrored for negative times.  Building blocks:

* ``triple_density``       joint density of hitting time, undershoot and
                           overshoot at a level ``x > 0``,
* ``hit_under_density``    joint density of hitting time and undershoot
                           (overshoot integrated out; for ``x < 0`` this is a
                           one-dimensional quadrature),
* ``bridge_density``       density of the process pinned to ``I(s) = y``,
* ``conditional_past_density``  law of ``I(s - t)`` given hitting data at a
                           level ``x >= 0``, split into the bridge and
                           independent-copy regions,
* ``basepoint_density``    the base-point law ``I(I*(x) - t)`` in closed form.

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from .csvio import write_csv
from .quadrature import QuadratureSpec, integrate_adaptive, integrate_sqrt_endpoint

__all__ = [
    "IGQuery",
    "DensityCurve",
    "ig_marginal_density",
    "triple_density",
    "hit_under_density",
    "hit_under_y_mass",
    "running_max_density",
    "bridge_density",
    "conditional_past_density",
    "basepoint_density",
    "basepoint_cdf",
    "cdf_from_curve",
    "default_z_grid",
    "write_density_csv",
    "write_cdf_csv",
    "write_query_json",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_PI = float(np.log(np.pi))

# exp(-s^2/(2y)) underflows for y below s^2 / _EXP_UNDERFLOW_SCALE
_EXP_UNDERFLOW_SCALE = 1490.0


@dataclass(frozen=True, eq=False)
class IGQuery:
    """Base-point density query: level ``x``, elapsed time ``t > 0``, and an
    increasing grid of evaluation points ``z_grid``."""

    x: float
    t: float
    z_grid: np.ndarray

    def __post_init__(self) -> None:
        if not self.t > 0.0:
            raise ValueError(f"t must be positive, got {self.t}")
        z = np.asarray(self.z_grid, dtype=float)
        if z.ndim != 1 or z.size < 2 or not np.all(np.diff(z) > 0.0):
            raise ValueError("z_grid must be a strictly increasing 1-d sequence")


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Tabulated density with per-point error estimates.

    ``err`` is 0 wherever ``f`` comes from a closed form, which is every
    point :func:`basepoint_density` returns.  ``mass`` is the trapezoid
    integral of ``f`` over ``z``.
    """

    z: np.ndarray
    f: np.ndarray
    err: np.ndarray
    mass: float


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


def hit_under_density(x: float, s: float, y: float, spec: QuadratureSpec | None = None) -> float:
    """Joint density of hitting time ``s`` and undershoot ``y`` at level ``x``.

    For ``x > 0`` the overshoot has been integrated out in closed form; for
    ``x < 0`` the value is a one-dimensional quadrature over the overshoot
    location of the mirrored level (the undershoot at ``x < 0`` is the
    negative overshoot at ``-x``).  Zero outside the supports; the boundary
    ``y == x`` carries an integrable blow-up and evaluates to ``inf``.
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
        if spec is None:
            spec = QuadratureSpec()
        # integrand dies at a -> 0-; drop the dead zone where exp underflows
        a_hi = -s * s / _EXP_UNDERFLOW_SCALE
        if a_hi <= x:
            return 0.0
        def f(a):
            return (-s) / (
                2.0 * np.pi * np.sqrt(np.abs(a) ** 3 * np.abs(y - a) ** 3)
            ) * np.exp(s * s / (2.0 * a))

        return integrate_adaptive(f, x, a_hi, spec).value
    return 0.0


def running_max_density(x: float, s) -> np.ndarray | float:
    """Half-normal density of the running maximum of Brownian motion over
    ``[0, x]``: ``sqrt(2/(pi x)) exp(-s^2/(2x))`` for ``s >= 0``."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    s_arr = np.asarray(s, dtype=float)
    out = np.where(s_arr >= 0.0, np.sqrt(2.0 / (np.pi * x)) * np.exp(-s_arr * s_arr / (2.0 * x)), 0.0)
    return float(out) if np.isscalar(s) else out


def hit_under_y_mass(x: float, s: float, spec: QuadratureSpec | None = None) -> float:
    """Quadrature of the hitting/undershoot density over the undershoot,
    ``int_0^x f(s, y) dy`` for ``x > 0``.

    The integrand is steep near ``y ~ s^2`` (where the exponential turns on)
    and has a square-root singularity at ``y = x``; the pass is split
    accordingly.  Equals the running-maximum density of ``s`` analytically.
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if spec is None:
        spec = QuadratureSpec()
    if s == 0.0:
        # removable discontinuity: the y-integral vanishes at s = 0 exactly
        return 0.0
    lo = s * s / _EXP_UNDERFLOW_SCALE
    if lo >= x:
        return 0.0

    def f(y):
        return np.exp(_log_hit_under_pos(x, s, y))

    mid = 0.5 * x
    total = 0.0
    if lo < mid:
        total += integrate_adaptive(f, lo, mid, spec).value
        total += integrate_sqrt_endpoint(f, mid, x, "right", spec).value
    else:
        total += integrate_sqrt_endpoint(f, lo, x, "right", spec).value
    return total


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


def conditional_past_density(x: float, t: float, s: float, y: float, z):
    """Density of the characteristic base point given hitting data.

    Regions (for ``t > 0``):

    * ``x >= y > 0`` and ``s >= t``: bridge pinned at ``(s, y)`` evaluated at
      time ``s - t`` (at the measure-zero boundary ``s == t`` the limit value
      0 is returned for ``z != 0``),
    * ``x >= 0`` and ``0 <= s < t``: an independent copy run backwards,
      ``f_I(t-s)(-z)``, supported on ``z < 0``.

    Inputs outside all regions, negative levels included, raise, naming the
    offending combination.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    z_arr = np.asarray(z, dtype=float)
    scalar = np.isscalar(z)
    if x >= 0.0 and s >= t and x >= y > 0.0:
        if s == t:
            out = np.zeros_like(z_arr)
            return float(out) if scalar else out
        return bridge_density(s - t, s, y, z)
    if x >= 0.0 and 0.0 <= s < t and 0.0 <= y <= x:
        return ig_marginal_density(t - s, -z_arr) if not scalar else ig_marginal_density(t - s, -float(z_arr))
    raise ValueError(
        f"inputs match no conditional region: x={x}, t={t}, s={s}, y={y}"
    )


# ---------------------------------------------------------------------------
# base-point density


def _basepoint_negative_side(x: float, t: float, a: np.ndarray) -> np.ndarray:
    """Closed-form base-point density at ``z = -a < 0`` for a level ``x > 0``
    (see the module docstring), arranged so that no intermediate overflows
    or vanishes where the result does not."""
    s = a + x
    # D = exp(-t^2/(2x)) - exp(-t^2/(2a)) with the larger exponential factored
    # out: expm1 then sees an argument <= 0, so it cannot overflow when the
    # two exponents are far apart, and small t loses no digits
    e = 0.5 * t * t * ((a - x) / a) / x
    d = np.sign(e) * np.exp(-t * t / (2.0 * np.maximum(a, x))) * np.expm1(-np.abs(e))
    # (t - mu)/(sigma sqrt 2) and mu/(sigma sqrt 2)
    erfs = erf(t * np.sqrt(0.5 * (x / a) / s)) + erf(t * np.sqrt(0.5 * (a / x) / s))
    # sigma^2 a^(-3/2) / sqrt(x) = sqrt(x/s) / (sqrt(a) sqrt(s)) and
    # mu sigma a^(-3/2) / sqrt(x) = (t/s) / sqrt(s)
    return (
        np.sqrt(x / s) * (d / np.sqrt(a)) / np.sqrt(s)
        + np.sqrt(0.5 * np.pi) * np.exp(-t * t / (2.0 * s)) * erfs * (t / s) / np.sqrt(s)
    ) / np.pi


def basepoint_density(query: IGQuery) -> DensityCurve:
    """Density of the base point ``I(I*(x) - t)`` on ``query.z_grid``.

    Closed forms (module docstring) for levels ``x > 0``; at ``x = 0`` the
    law is ``f_I(t)(-z)``.  The value 0 is returned at the integrable spike
    ``z = 0`` and at and above the level.  Negative levels raise
    ``ValueError``: no correct law is implemented for them.
    """
    x, t = query.x, query.t
    if not x >= 0.0:
        raise ValueError(
            f"the base-point law is implemented for levels x >= 0 only, got x={x}"
        )
    z = np.asarray(query.z_grid, dtype=float)
    if x == 0.0:
        # hitting is immediate: the base point is an independent copy run
        # backwards from the origin
        f = ig_marginal_density(t, -z)
    else:
        f = np.zeros_like(z)
        pos = (z > 0.0) & (z < x)
        zp = z[pos]
        f[pos] = np.exp(-t * t / (2.0 * (x - zp))) / (np.pi * np.sqrt(zp) * np.sqrt(x - zp))
        neg = z < 0.0
        f[neg] = _basepoint_negative_side(x, t, -z[neg])
    mass = float(np.trapezoid(f, z))
    return DensityCurve(z, f, np.zeros_like(f), mass)


def cdf_from_curve(curve: DensityCurve) -> np.ndarray:
    """Running trapezoid integral of a density curve, clipped to [0, 1].

    Returns an ``(n, 2)`` array of ``(z, F)`` rows.
    """
    dz = np.diff(curve.z)
    increments = 0.5 * (curve.f[1:] + curve.f[:-1]) * dz
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    return np.column_stack([curve.z, np.clip(cdf, 0.0, 1.0)])


def basepoint_cdf(query: IGQuery) -> np.ndarray:
    """CDF of the base point on ``query.z_grid`` as ``(z, F)`` rows."""
    return cdf_from_curve(basepoint_density(query))


def default_z_grid(
    x: float,
    n: int = 512,
    z_neg_far: float = -1e6,
    rel_inner: float = 1e-5,
) -> np.ndarray:
    """Two-sided evaluation grid for a positive level ``x``.

    Geometric refinement toward the integrable spike at 0 on both sides, a
    linear band across the density cutoff at ``z = x``, and a geometric far
    negative tail (the negative side is heavy-tailed)."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if n < 64:
        raise ValueError("need at least 64 grid points")
    inner = rel_inner * x
    n_neg = int(0.45 * n)
    n_pos_geo = int(0.40 * n)
    n_band = n - n_neg - n_pos_geo
    neg = -np.geomspace(-z_neg_far, inner, n_neg)
    pos_geo = np.geomspace(inner, 0.9 * x, n_pos_geo)
    band = np.linspace(0.9 * x + 1e-9, 1.1 * x, n_band)
    return np.unique(np.concatenate([neg, [0.0], pos_geo, band]))


def write_density_csv(curve: DensityCurve, out: Path | str) -> None:
    write_csv(
        out, "z,f,err", "{:.17g},{:.17g},{:.17g}", curve.z, curve.f, curve.err
    )


def write_cdf_csv(cdf: np.ndarray, out: Path | str) -> None:
    cdf = np.asarray(cdf)
    write_csv(out, "z,F", "{:.17g},{:.17g}", cdf[:, 0], cdf[:, 1])


def write_query_json(query: IGQuery, mass: float, out: Path | str) -> None:
    payload = {
        "x": query.x,
        "t": query.t,
        "convention": "standard-brownian-motion",
        "z_min": float(query.z_grid[0]),
        "z_max": float(query.z_grid[-1]),
        "n_points": int(np.asarray(query.z_grid).size),
        "mass": mass,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
