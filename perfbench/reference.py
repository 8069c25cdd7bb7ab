"""Independent reference for the stable-1/2 base-point density.

Written from the closed forms, not from the program's quadrature:

* ``0 < z < x``:  ``f(z) = exp(-t^2 / (2 (x - z))) / (pi sqrt(z (x - z)))``
* ``z < 0``:      ``f(z) = int_0^t f_I(t - s)(-z) sqrt(2 / (pi x)) exp(-s^2 / (2 x)) ds``
  with ``f_I(tau)(v) = tau (2 pi)^(-1/2) v^(-3/2) exp(-tau^2 / (2 v))``,
  one ``scipy.integrate.quad`` per point,
* ``z >= x``:     ``f(z) = 0``.

The positive side carries mass ``erfc(t / sqrt(2 x))`` and the negative side
``erf(t / sqrt(2 x))``; :func:`normalization_error` integrates the reference
itself and compares its total with 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def _ig(tau: float, v: float) -> float:
    return tau / math.sqrt(2.0 * math.pi) * v**-1.5 * math.exp(-tau * tau / (2.0 * v))


def density_at(x: float, t: float, z: float) -> float:
    """Reference base-point density at one point (level ``x > 0``, time ``t > 0``)."""
    if z >= x or z == 0.0:
        return 0.0
    if z > 0.0:
        return math.exp(-t * t / (2.0 * (x - z))) / (math.pi * math.sqrt(z * (x - z)))
    c = math.sqrt(2.0 / (math.pi * x))
    value, _ = integrate.quad(
        lambda s: _ig(t - s, -z) * c * math.exp(-s * s / (2.0 * x)),
        0.0,
        t,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return value


def density(x: float, t: float, z) -> np.ndarray:
    return np.array([density_at(x, t, float(v)) for v in np.asarray(z, dtype=float)])


def max_rel_err(x: float, t: float, z, f) -> float:
    """``max |f - f_ref| / f_ref`` over points with ``z != 0``, ``z < x`` and
    ``f_ref > 0``."""
    z = np.asarray(z, dtype=float)
    f = np.asarray(f, dtype=float)
    keep = (z != 0.0) & (z < x)
    ref = density(x, t, z[keep])
    pos = ref > 0.0
    if not pos.any():
        raise ValueError("no grid point with a positive reference density")
    return float(np.max(np.abs(f[keep][pos] - ref[pos]) / ref[pos]))


def normalization_error(x: float, t: float) -> float:
    """``|total mass - 1|`` of the reference, integrated numerically."""
    pos, _ = integrate.quad(
        lambda z: density_at(x, t, z), 0.0, x, epsabs=0.0, epsrel=1e-11, limit=400,
        points=[x * 1e-6, x * 1e-3],
    )
    neg_near, _ = integrate.quad(
        lambda z: density_at(x, t, z), -x, 0.0, epsabs=0.0, epsrel=1e-11, limit=400,
        points=[-x * 1e-3],
    )
    neg_far, _ = integrate.quad(
        lambda z: density_at(x, t, z), -math.inf, -x, epsabs=0.0, epsrel=1e-11, limit=400
    )
    exact_pos = float(special.erfc(t / math.sqrt(2.0 * x)))
    return max(abs(pos + neg_near + neg_far - 1.0), abs(pos - exact_pos))
