"""Adaptive one-dimensional quadrature with endpoint-singularity support.

Every law in ``goupsim`` is evaluated in closed form; this engine is the test
suite's independent oracle, which integrates the defining densities
numerically and checks the closed forms against the results.

The engine is a 15-point Kronrod / 7-point Gauss embedded pair with
bisection-based adaptivity (largest-error-first).  On top of the plain
adaptive rule two substitution wrappers are provided:

* ``integrate_sqrt_endpoint`` removes an integrable ``dist^(-1/2)``
  singularity at one endpoint via ``y = b - u^2`` (or ``y = a + u^2``),
* ``integrate_semi_infinite`` maps ``(a, inf)`` onto a finite interval via
  ``x = a + u/(1-u)``; the ``u -> 1`` end is additionally regularized with
  the square-root substitution so that slowly decaying tails (down to
  ``x^(-3/2)``) converge at full tolerance.

Integrands are evaluated on 1-d numpy arrays of abscissas and must return an
array of the same shape (plain arithmetic expressions qualify).  Abscissas
are always strictly inside the integration interval, so integrands are never
evaluated at a singular endpoint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "integrate_adaptive",
    "integrate_sqrt_endpoint",
    "integrate_semi_infinite",
]

# 15-point Kronrod abscissas and weights with the embedded 7-point Gauss
# weights (the classical QUADPACK dqk15 constants).
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK, [_WGK_CENTER], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5]] = _WG
_W_GAUSS[7] = _WG_CENTER
_W_GAUSS[[9, 11, 13]] = _WG[::-1]

# Intervals narrower than this (relative to their position) cannot be
# meaningfully bisected in float64.
_MIN_REL_WIDTH = 1e-15


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and work limit for one adaptive integration pass."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot meet its tolerance contract.

    ``best`` carries the best available estimate (a :class:`QuadratureResult`)
    when the failure is non-convergence; ``abscissa`` identifies the point of
    a non-finite integrand evaluation.
    """

    def __init__(
        self,
        message: str,
        best: QuadratureResult | None = None,
        abscissa: float | None = None,
    ) -> None:
        super().__init__(message)
        self.best = best
        self.abscissa = abscissa


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 value and |K15 - G7| error estimate on [a, b]."""
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    x = center + halfwidth * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0:
        y = np.full(15, float(y))
    if y.shape != x.shape:
        raise TypeError(
            "integrand must map a 1-d abscissa array to an array of the "
            f"same shape, got shape {y.shape} for input {x.shape}"
        )
    bad = ~np.isfinite(y)
    if bad.any():
        where = float(x[np.argmax(bad)])
        raise QuadratureError(
            f"integrand returned a non-finite value at x={where!r}",
            abscissa=where,
        )
    value = halfwidth * float(y @ _W_KRONROD)
    gauss = halfwidth * float(y @ _W_GAUSS)
    return value, abs(value - gauss)


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate ``f`` over ``(a, b)`` to the tolerances in ``spec``.

    The worst interval (by error estimate) is bisected until the summed
    error estimate drops below ``max(abs_tol, rel_tol * |value|)``.  Raises
    :class:`QuadratureError` carrying the best estimate when the budget of
    ``max_subdivisions`` bisections is exhausted, and on NaN/inf integrand
    values (identifying the abscissa).
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")

    value, error = _gk15(f, a, b)
    heap = [(-error, a, b, value, error)]
    total_value = value
    total_error = error
    subdivisions = 0

    while total_error > max(spec.abs_tol, spec.rel_tol * abs(total_value)):
        if not heap:
            # every remaining interval is at float resolution
            raise QuadratureError(
                f"tolerance not reachable: residual error {total_error:.3e} "
                f"on intervals at float resolution",
                best=QuadratureResult(total_value, total_error, subdivisions),
            )
        if subdivisions >= spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence within {spec.max_subdivisions} subdivisions "
                f"(residual error {total_error:.3e})",
                best=QuadratureResult(total_value, total_error, subdivisions),
            )
        _, ia, ib, ivalue, ierror = heapq.heappop(heap)
        if ib - ia <= _MIN_REL_WIDTH * max(1.0, abs(ia), abs(ib)):
            # too narrow to split; its error stays in the running total
            continue
        mid = 0.5 * (ia + ib)
        v1, e1 = _gk15(f, ia, mid)
        v2, e2 = _gk15(f, mid, ib)
        total_value += v1 + v2 - ivalue
        total_error += e1 + e2 - ierror
        heapq.heappush(heap, (-e1, ia, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, ib, v2, e2))
        subdivisions += 1

    return QuadratureResult(total_value, total_error, subdivisions)


def integrate_sqrt_endpoint(
    f: Callable,
    a: float,
    b: float,
    singular_end: str,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate ``f`` over ``(a, b)`` with a square-root endpoint singularity.

    ``singular_end`` is ``"left"`` or ``"right"``.  The substitution
    ``y = a + u^2`` (resp. ``y = b - u^2``) turns a bounded
    ``f(y) * dist(y, end)^(1/2)`` into a regular integrand, after which the
    plain adaptive contract applies.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    width = np.sqrt(b - a)
    if singular_end == "right":
        g = lambda u: 2.0 * u * f(b - u * u)
    elif singular_end == "left":
        g = lambda u: 2.0 * u * f(a + u * u)
    else:
        raise ValueError(f"singular_end must be 'left' or 'right', got {singular_end!r}")
    return integrate_adaptive(g, 0.0, width, spec)


def integrate_semi_infinite(
    f: Callable,
    a: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate a decaying ``f`` over ``(a, inf)``.

    Change of variables ``x = a + u/(1-u)`` with ``u in (0, 1)``, composed
    with ``u = 1 - v^2`` so that the image of ``x -> inf`` is a square-root
    regularized endpoint at ``v = 0``; with this composition
    ``x = a - 1 + 1/v^2`` and tails as heavy as ``x^(-3/2)`` integrate at
    full tolerance.  Contract as :func:`integrate_adaptive`.
    """
    a = float(a)

    def g(v):
        x = (a - 1.0) + 1.0 / (v * v)
        return 2.0 * f(x) / (v * v * v)

    return integrate_adaptive(g, 0.0, 1.0, spec)
