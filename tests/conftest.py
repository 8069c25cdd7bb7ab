import numpy as np
import pytest

from goupsim.ig_analytics import _EXP_UNDERFLOW_SCALE, _log_hit_under_pos
from goupsim.levy_paths import (
    DyadicGrid,
    GammaDrift,
    LevyPathSample,
    RngSeed,
)
from goupsim.quadrature import QuadratureSpec, integrate_adaptive, integrate_sqrt_endpoint


def make_drift_path(level: int, k_min: int, k_max: int, drift: float = 1.0) -> LevyPathSample:
    """Deterministic pure-drift path x_k = drift * t_k (test fixture)."""
    grid = DyadicGrid(level, k_min, k_max)
    ks = np.arange(k_min, k_max + 1, dtype=float)
    values = drift * ks * grid.dt
    return LevyPathSample(grid, values, RngSeed(0), GammaDrift(1.0, 1.0, drift))


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
