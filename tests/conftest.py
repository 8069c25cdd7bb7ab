import numpy as np
import pytest

from goupsim.ig_analytics import _log_hit_under_pos
from goupsim.levy_paths import (
    PATH_PURPOSE,
    DyadicGrid,
    GammaDrift,
    LevyPathSample,
    RngSeed,
    jump_quantile,
    stream_for,
)
from quadrature import QuadratureSpec, integrate_adaptive, integrate_sqrt_endpoint

# exp(-s^2/(2y)) underflows for y below s^2 / _EXP_UNDERFLOW_SCALE
_EXP_UNDERFLOW_SCALE = 1490.0


def make_drift_path(level: int, k_min: int, k_max: int, drift: float = 1.0) -> LevyPathSample:
    """Deterministic pure-drift path x_k = drift * t_k (test fixture)."""
    grid = DyadicGrid(level, k_min, k_max)
    ks = np.arange(k_min, k_max + 1, dtype=float)
    values = drift * ks * grid.dt
    return LevyPathSample(grid, values, GammaDrift(1.0, 1.0, drift))


def reference_increments(spec, dt: float, rng, n: int) -> np.ndarray:
    """``n`` draws of ``L(dt)``, one ``Generator.random`` uniform each
    (clamped away from 0), through the public quantile (test oracle)."""
    return jump_quantile(spec, dt, np.maximum(rng.random(n), 1e-300)) + spec.drift * dt


def path_by_concatenation(spec, n_max: int, k_min: int, k_max: int, seed: RngSeed) -> np.ndarray:
    """Reference build from public API only: each side is
    ``reference_increments`` on its own ``stream_for(seed, PATH_PURPOSE,
    direction)`` stream, then one cumsum per side (test oracle for
    ``build_two_sided_path``)."""
    dt = 2.0**-n_max

    def run(direction, count):
        return reference_increments(spec, dt, stream_for(seed, PATH_PURPOSE, direction), count)

    fwd, bwd = run(0, k_max), run(1, -k_min)
    return np.concatenate([-np.cumsum(bwd)[::-1], [0.0], np.cumsum(fwd)])


@pytest.fixture
def drift_path():
    return make_drift_path(level=6, k_min=-256, k_max=256, drift=1.0)


def hit_under_y_mass(x: float, s: float, spec: QuadratureSpec | None = None) -> float:
    """Quadrature of the hitting/undershoot density over the undershoot,
    ``int_0^x f(s, y) dy`` for ``x > 0`` (test oracle).

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


def hit_under_negative_level(x: float, s: float, y: float) -> float:
    """Quadrature of the hitting/undershoot density at a level ``x < 0``
    (test oracle): the mirrored overshoot integral over the mirrored
    undershoot ``b in (0, X)``,

        int |s| / (2 pi) b^(-3/2) (Y - b)^(-3/2) exp(-s^2/(2b)) db,

    with ``X = -x`` and ``Y = -y``.  The integrand dies below
    ``b ~ s^2/1490``, where the range is cut, peaks near ``b ~ s^2/3`` and,
    when ``Y - X`` is small against ``X``, climbs over the last few ``Y - X``
    below ``b = X``.  The upper half ``b > X/2`` is integrated in the
    distance ``e = X - b`` to the level, so that ``Y - b = (Y - X) + e``
    keeps its relative precision, and each half is split at a geometric
    ladder around its feature, so that every piece is smooth on its own
    scale.
    """
    X, Y = -x, -y
    d = Y - X
    c = 0.5 * s * s
    spec = QuadratureSpec(1e-300, 1e-14, 2000)

    def f(b, gap):
        return -s / (2.0 * np.pi) * np.exp(-1.5 * (np.log(b) + np.log(gap)) - c / b)

    def pieces(g, lo, hi, ladder):
        points = sorted({lo, hi, *(p for p in ladder if lo < p < hi)})
        return sum(integrate_adaptive(g, a, b, spec).value for a, b in zip(points[:-1], points[1:]))

    total = pieces(lambda e: f(X - e, d + e), 0.0, 0.5 * X, [d * 4.0**k for k in range(60)])
    lo = s * s / _EXP_UNDERFLOW_SCALE
    if lo < 0.5 * X:
        peak = [c / 1.5 * 4.0**k for k in range(-3, 4)]
        total += pieces(lambda b: f(b, Y - b), lo, 0.5 * X, peak)
    return total
