import numpy as np
import pytest

from goupsim.goupillaud import (
    GoupillaudMedium,
    basepoint,
    build_medium,
    characteristic,
)
from goupsim.levy_paths import (
    DyadicGrid,
    GammaDrift,
    LevyPathSample,
    PoissonDrift,
    RngSeed,
    StableHalf,
    WindowError,
    aggregate_to_level,
    build_two_sided_path,
    hitting_time,
    step_eval,
)
from conftest import make_drift_path

SEED = RngSeed(31415)


def test_build_medium_pure_drift():
    path = make_drift_path(level=4, k_min=-16, k_max=16, drift=2.5)
    medium = build_medium(path, 4)
    assert np.allclose(medium.speeds, 2.5)
    # thickness = speed * dt holds exactly (power-of-two scaling)
    assert np.array_equal(medium.speeds * 2.0**-4, np.diff(medium.boundaries))


def test_build_medium_known_increments():
    grid = DyadicGrid(1, 0, 2)
    path = LevyPathSample(grid, np.array([0.0, 0.5, 0.75]), StableHalf())
    medium = build_medium(path, 1)
    assert np.array_equal(medium.speeds, np.array([1.0, 0.5]))


def test_build_medium_random_positive_speeds():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 8, -64, 64, SEED)
    medium = build_medium(path, 5)
    assert medium.speeds.min() > 0.0
    # speeds follow from the boundaries: a zero speed (a tie of the path) is
    # a layer, a negative or NaN one is refused
    assert np.array_equal(GoupillaudMedium(0, 0, np.array([0.0, 1.0, 1.0])).speeds, [1.0, 0.0])
    driftless = build_two_sided_path(GammaDrift(1.0, 1.0, 0.0), 12, -2**12, 2**12, SEED)
    assert np.any(build_medium(driftless, 12).speeds == 0.0)
    for bad in ([0.0, 1.0, 0.5], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite and non-decreasing"):
            GoupillaudMedium(0, 0, np.array(bad))


def test_characteristic_grid_identity_small():
    path = build_two_sided_path(PoissonDrift(1.0, 1.0, 1.0), 6, -512, 512, SEED)
    for n in (2, 4, 6):
        agg = aggregate_to_level(path, n)
        dt = agg.grid.dt
        ks = np.arange(-8, 9)
        for l in (-3, 0, 2):
            for j in (-5, 0, 7):
                got = characteristic(path, n, agg.values[ks - agg.grid.k_min], l * dt, j * dt)
                assert np.array_equal(got, agg.values[j + ks - l - agg.grid.k_min])


def test_characteristic_n_initial_condition():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 7, -128, 128, SEED)
    rng = np.random.default_rng(2)
    xs = rng.uniform(path.values[10], path.values[-10], size=50)
    ts = rng.uniform(-0.4, 0.4, size=50)
    for n in (3, 7):
        got = characteristic(path, n, xs, ts, ts)
        assert np.max(np.abs(got - xs)) <= 1e-12


def test_characteristic_n_pure_drift():
    path = make_drift_path(level=8, k_min=-512, k_max=512, drift=2.0)
    assert abs(characteristic(path, 8, 0.5, 0.25, 0.75) - (0.5 + 2.0 * 0.5)) <= 1e-12


def test_characteristic_limit_adjunction_instance():
    path = build_two_sided_path(StableHalf(), 8, -64, 256, SEED)
    # at tau = t the limiting curve returns the path value at the hitting
    # time, which dominates x and equals it where x is attained
    xs = path.values[5:-5:7]
    got = characteristic(path, None, xs, 0.5, 0.5)
    assert np.array_equal(got, xs)
    rng = np.random.default_rng(3)
    levels = rng.uniform(path.values[0], path.values[-1], size=100)
    got = characteristic(path, None, levels, 0.5, 0.5)
    assert np.all(got >= levels)


def test_characteristic_limit_pure_drift_bound():
    path = make_drift_path(level=10, k_min=-2048, k_max=2048, drift=1.0)
    got = characteristic(path, None, 0.3, 0.7, 0.2)
    assert abs(got - (0.3 + 1.0 * (0.2 - 0.7))) <= 2.0**-10


def test_characteristic_limit_monotone_in_tau():
    path = build_two_sided_path(PoissonDrift(1.0, 1.0, 1.0), 9, -512, 1024, SEED)
    taus = np.linspace(-0.5, 1.5, 301)
    got = characteristic(path, None, 0.8, 0.3, taus)
    assert np.all(np.diff(got) >= 0.0)


def test_characteristic_right_continuous_at_jumps():
    path = build_two_sided_path(PoissonDrift(3.0, 1.0, 1.0), 10, -64, 2048, SEED)
    inc = np.diff(path.values)
    j = int(np.argmax(inc))  # largest jump, between t_{j} and t_{j+1}
    k = path.grid.k_min + j + 1
    t_jump = k * path.grid.dt
    # step semantics: the value at the jump time is the post-jump value
    assert step_eval(path, t_jump) == path.values[k - path.grid.k_min]


def test_basepoint_cases():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 8, -512, 512, SEED)
    xs = path.values[20:-20:11]
    assert np.array_equal(basepoint(path, xs, 0.0), xs)

    drift = make_drift_path(level=12, k_min=-(2**13), k_max=10 * 2**12, drift=1.0)
    assert abs(basepoint(drift, 8.0, 1.0) - 7.0) <= 2.0**-12

    rng = np.random.default_rng(4)
    lo = step_eval(path, -1.0)
    levels = np.sort(rng.uniform(lo, path.values[-30], size=200))
    base = basepoint(path, levels, 0.7)
    assert np.all(np.diff(base) >= 0.0)


def test_window_violation_messages():
    path = build_two_sided_path(StableHalf(), 6, -8, 64, SEED)
    with pytest.raises(WindowError, match="window"):
        characteristic(path, None, float(path.values[-1]), 5.0, 0.0)
    with pytest.raises(WindowError, match="range"):
        basepoint(path, path.values[-1] + 100.0, 0.1)


def test_broken_curves_converge_to_limit():
    # |gamma_N - gamma_limit| at tau=0 over a mesh drops below
    # 2^-(N_max - 2) * range as N -> N_max, excluding a small fraction of
    # points at jump locations
    n_max = 10
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), n_max, -4096, 8192, SEED)
    rng = np.random.default_rng(7)
    xs = rng.uniform(path.values[-1] * 0.05, path.values[-1] * 0.45, size=400)
    ts = rng.uniform(0.0, 1.0, size=400)
    limit = basepoint(path, xs, ts)
    path_range = path.values[-1] - path.values[0]
    bound = 2.0 ** -(n_max - 2) * path_range
    medians = []
    for n in (4, 6, 8, 10):
        approx = characteristic(path, n, xs, ts, np.zeros_like(ts))
        err = np.abs(approx - limit)
        medians.append(np.median(err))
        if n == n_max:
            assert np.mean(err <= bound) >= 0.97
    assert medians[-1] <= medians[0]
