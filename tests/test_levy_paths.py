import hashlib
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincinv, gammaln
from scipy.stats import poisson

from goupsim.levy_paths import (
    MAX_LEVEL,
    PATH_PURPOSE,
    DyadicGrid,
    GammaDrift,
    LevyPathSample,
    PoissonDrift,
    RngSeed,
    StableHalf,
    WindowError,
    _CHUNK,
    _gamma_log_cut,
    _increment_run,
    _increments_from_raw,
    _increments_from_uniforms,
    _quiet_words,
    aggregate_to_level,
    build_two_sided_path,
    hitting_time,
    polygon_eval,
    poisson_icdf,
    polygon_inverse,
    step_eval,
    stream_for,
    write_path_csv,
)
from conftest import make_drift_path, path_by_concatenation, reference_increments

SEED = RngSeed(20240817)

#: a run of increments: the unit of the window sizes below and of the
#: comparisons against the Brownian oracle's streams
BLOCK = 4096


def test_spec_validation():
    with pytest.raises(ValueError):
        GammaDrift(0.0, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        for params in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                GammaDrift(*params)
            with pytest.raises(ValueError, match="finite"):
                PoissonDrift(*params)
    with pytest.raises(ValueError):
        GammaDrift(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        PoissonDrift(1.0, 1.0, 0.0)  # strict increase needs positive drift
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        DyadicGrid(3, 1, 8)  # must contain k=0
    # the finest step is the smallest normal double; one level finer is subnormal
    assert DyadicGrid(MAX_LEVEL, 0, 1).dt == 2.0**-1022
    with pytest.raises(ValueError, match="level must lie in 0..1022, got 1023"):
        DyadicGrid(MAX_LEVEL + 1, 0, 1)


def test_grid_spanning_is_the_float_window_and_checks_the_level_first():
    # the k window of the exact integer products is the window that ldexp
    # gives wherever ldexp is finite
    for level, lo, hi in [(14, -1.01, 14.0), (6, -0.5, 0.5), (40, -1e-9, 3.3), (0, 0.25, 3.0),
                          (MAX_LEVEL, -5e-324, 5e-324), (52, -0.75, 1.0 - 2.0**-53)]:
        grid = DyadicGrid.spanning(level, lo, hi)
        k_lo, k_hi = math.floor(math.ldexp(lo, level)), math.ceil(math.ldexp(hi, level))
        assert (grid.level, grid.k_min, grid.k_max) == (level, min(k_lo, 0), max(k_hi, 0))
    # a bad level is named before 2^level is formed or a window checked
    for level in (-1, MAX_LEVEL + 1, 10**9):
        with pytest.raises(ValueError, match=f"level must lie in 0..1022, got {level}$"):
            DyadicGrid.spanning(level, 0.0, 1e308)
    # |k| < 2^53: every grid time is an exact double
    assert DyadicGrid(0, -(2**53) + 1, 2**53 - 1).k_max == 2**53 - 1
    for level, lo, hi in [(53, 0.0, 1.0), (0, -(2.0**53), 0.0), (MAX_LEVEL, -1.01, 14.0)]:
        with pytest.raises(ValueError, match="reaches 2\\^53 grid steps from k = 0"):
            DyadicGrid.spanning(level, lo, hi)


def test_gamma_increment_mean():
    # E[Gamma(1,1) + drift*1] = 2; Monte Carlo mean over 1e6 draws within 3 SE
    draws = reference_increments(GammaDrift(1.0, 1.0, 1.0), 1.0, stream_for(SEED, 1), 10**6)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 2.0) <= 3.0 * se


def test_poisson_increment_zero_count_is_pure_drift():
    # a uniform below exp(-lam) forces a zero Poisson count, leaving drift*dt
    spec = PoissonDrift(1.0, 1.0, 1.0)
    u = np.array([0.5 * math.exp(-1.0)])
    assert _increments_from_uniforms(spec, 1.0, u)[0] == 1.0


LN2 = math.log(2.0)

#: (scale, drift) pairs of the bitwise test
GAMMA_SCALE_DRIFT = [
    (0.7, 0.3),
    (2.0, 0.0),  # no drift: the quantile-underflow cut alone
    (0.7, 1.0),  # drift * dt an exact power of two
    (1e-10, 1e10),  # drift / scale = 1e20: the -q term matters
    (1e-300, 1e300),  # drift / scale overflows: q is held at 1
    (1e150, 1e-150),  # drift / scale = 1e-300: q near 2^-1100
    (1e160, 1e-160),  # drift / scale = 1e-320: q falls to 2^-1100
    (0.5, 1e-300),  # drift * dt subnormal below dt = 2^-26
    (1e-30, 5e-324),  # drift * dt rounds to 0 below dt = 1
]


def _log_cuts(a, dt):
    """``log u`` of the quantile-underflow cut ``a log(2^-1100) - gammaln(1 +
    a)`` and of the cut ``a log q - gammaln(1 + a) - q``, ``q = min(1,
    max(2^-1100, 2^-60 drift dt / scale))``, for every pair above."""
    cuts = [a * -1100.0 * LN2 - gammaln(1.0 + a)]
    for scale, drift in GAMMA_SCALE_DRIFT:
        if drift > 0.0:
            log_q = math.log(drift) + math.log(dt) - math.log(scale) - 60.0 * LN2
            log_q = min(max(log_q, -1100.0 * LN2), 0.0)
            cuts.append(a * log_q - gammaln(1.0 + a) - math.exp(log_q))
    return cuts


def _gamma_test_uniforms(log_cuts):
    """Random words, a log sweep, a sweep towards 1, and the neighbours of
    each cut."""
    near = []
    for log_cut in log_cuts:
        cut = math.exp(log_cut)
        near.append(cut)
        for toward in (0.0, 2.0):
            u = cut
            for _ in range(3):
                u = np.nextafter(u, toward)
                near.append(u)
    u = np.concatenate(
        [
            np.maximum(np.random.default_rng(11).random(2048), 1e-300),
            np.geomspace(1e-300, 1.0, 1024),
            1.0 - np.geomspace(1e-16, 1.0, 1024),
            near,
        ]
    )
    return u[u > 0.0]  # a stream never yields 0


def _word_uniforms(words):
    return np.maximum((words >> 11) * 2.0**-53, 1e-300)


def test_gamma_transform_equals_gammaincinv_bitwise():
    # the raw-word prefilter changes no bit of any increment: the words of
    # the uniforms above (their top 53 bits), the words at M << 11 +- 3 and
    # | 2047 around the kernel's bound M, and the largest word
    shapes = [(rate, 2.0**-n) for n in range(41) for rate in (0.25, 1.0, 3.0)]
    shapes += [(1e-17, 1.0), (1e-30, 1.0)]
    for rate, dt in shapes:
        u = _gamma_test_uniforms(_log_cuts(rate * dt, dt))
        base = np.floor(u[u < 1.0] * 2.0**53).astype(np.uint64) << 11
        base_quantiles = gammaincinv(rate * dt, _word_uniforms(base))
        for scale, drift in GAMMA_SCALE_DRIFT:
            spec = GammaDrift(rate, scale, drift)
            m = _quiet_words(spec, dt)
            near = [(m << 11) + d for d in range(-3, 4)] + [((m + d) << 11) | 2047 for d in (-1, 0)]
            near = np.array([w for w in (*near, 2**64 - 1) if 0 <= w < 2**64], dtype=np.uint64)
            quantiles = np.concatenate([base_quantiles, gammaincinv(rate * dt, _word_uniforms(near))])
            want = scale * quantiles + drift * dt
            words = np.concatenate([base, near])
            got = _increments_from_raw(spec, dt, m, words, np.empty(words.size))
            assert got.tobytes() == want.tobytes(), (rate, dt, scale, drift)


def test_gamma_cut_skips_all_but_a_sliver_at_fine_levels(monkeypatch):
    # at a = 2^-16 with drift = scale = 1 about 0.077% of words need a quantile
    calls = []

    def counting(a, u):
        calls.append(u.size)
        return gammaincinv(a, u)

    monkeypatch.setattr("goupsim.levy_paths.gammaincinv", counting)
    words = np.random.default_rng(12).bit_generator.random_raw(10**6)
    spec, dt = GammaDrift(1.0, 1.0, 1.0), 2.0**-16
    _increments_from_raw(spec, dt, _quiet_words(spec, dt), words, np.empty(words.size))
    assert 0.0005 < sum(calls) / words.size < 0.001


def _poisson_icdf_full_loop(lam, u):
    """Reference: the per-k loop over the whole array."""
    out = np.zeros(u.shape, dtype=np.int64)
    term = np.exp(-lam)
    cdf = np.full(u.shape, term)
    unresolved = u >= cdf
    k = 0
    k_cap = int(lam + 12.0 * np.sqrt(lam) + 60.0)
    while unresolved.any():
        k += 1
        if k > k_cap:
            out[unresolved] = k
            break
        term *= lam / k
        cdf += term
        hit = unresolved & (u < cdf)
        out[hit] = k
        unresolved &= ~hit
    return out


# at lam = 0.01 the partial sums stop at 1 - 2^-52 in floating point, so the
# largest word a stream yields, 1 - 2^-53, runs into the cap
@pytest.mark.parametrize("lam", [2.0**-16, 0.01, 1.0, 50.0])
def test_poisson_icdf_equals_full_array_loop(lam):
    # u near 1, and the neighbours of every partial sum up to the cap
    k_cap = int(lam + 12.0 * np.sqrt(lam) + 60.0)
    term, partial = np.exp(-lam), [np.exp(-lam)]
    for k in range(1, k_cap + 1):
        term *= lam / k
        partial.append(partial[-1] + term)
    partial = np.array(partial)
    u = np.concatenate(
        [
            np.maximum(np.random.default_rng(3).random(4096), 1e-300),
            1.0 - np.geomspace(2.0**-53, 0.5, 512),
            partial,
            np.nextafter(partial, 0.0),
            np.nextafter(partial, 2.0),
        ]
    )
    u = u[(u > 0.0) & (u < 1.0)]
    got = poisson_icdf(lam, u)
    assert got.dtype == np.int64
    assert np.array_equal(got, _poisson_icdf_full_loop(lam, u))
    # any shape: the bridge tree draws (sample, node) arrays
    n = u.size - u.size % 4
    assert np.array_equal(poisson_icdf(lam, u[:n].reshape(4, -1)), got[:n].reshape(4, -1))
    # all of one block resolving at k = 0 takes the no-tail branch
    assert np.array_equal(poisson_icdf(lam, u[u < partial[0]]), np.zeros(np.sum(u < partial[0])))


def test_poisson_counts_past_exp_underflow():
    # exp(-2000) underflows to 0.0; the counts used to be 2597 for every word
    # and the path a straight line of slope 2598
    lam = 2000.0
    path = build_two_sided_path(PoissonDrift(lam, 1.0, 1.0), 0, -BLOCK, BLOCK, SEED)
    counts = np.diff(path.values) - 1.0
    assert abs(counts.mean() - lam) <= 3.0 * math.sqrt(lam / counts.size)
    assert abs(counts.var() / lam - 1.0) <= 5.0 * math.sqrt(2.0 / counts.size)


@pytest.mark.parametrize("lam", [720.0, 744.0])
def test_poisson_icdf_equals_scipy_where_exp_is_subnormal(lam):
    # exp(-lam) is subnormal for lam in (708.4, 745.1); a sum started there
    # lost bits in every term (at lam = 744 every count was off)
    assert 0.0 < math.exp(-lam) < np.finfo(float).tiny
    u = np.maximum(np.random.default_rng(int(lam)).random(2**16), 1e-300)
    assert np.array_equal(poisson_icdf(lam, u), poisson.ppf(u, lam))


@pytest.mark.parametrize(
    "lam, digest",
    [
        (700.0, "0f5c25988b593d1ede651c059f40de799c93843ef33028cf2ca81d2a4c16e27e"),
        (746.0, "ee79ede55bb990fbc97493c8cc7dc558407de8b0fcd3f1ba45902a08ad0892a6"),
    ],
)
def test_poisson_icdf_unchanged_outside_subnormal_band(lam, digest):
    # counts of the sum from exp(-lam) (700) and from k_lo (746) are pinned
    u = np.maximum(np.random.default_rng(744).random(2**16), 1e-300)
    got = poisson_icdf(lam, u)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "k_min, k_max",
    [
        (-BLOCK - 5, 2 * BLOCK + 7),
        (0, BLOCK + 3),
        (-2 * BLOCK - 1, 0),
        (0, 0),
        (-3, 1),
        (-_CHUNK - 1, 2 * _CHUNK + 3),  # both sides cross a chunk boundary
    ],
)
def test_build_in_place_equals_concatenated_reference(k_min, k_max):
    for spec in (GammaDrift(0.5, 1.0, 0.25), PoissonDrift(3.0, 1.0, 0.5), StableHalf()):
        path = build_two_sided_path(spec, 12, k_min, k_max, SEED)
        want = path_by_concatenation(spec, 12, k_min, k_max, SEED)
        assert path.values.tobytes() == want.tobytes()


def test_build_keeps_ties_and_refuses_only_a_non_finite_end():
    # a driftless Gamma path at level 16 has increments whose quantiles
    # underflow to 0.0: the build keeps its flat steps, bitwise as the
    # reference sums them
    spec = GammaDrift(1.0, 1.0, 0.0)
    k_min, k_max = -BLOCK - 9, BLOCK + 9
    path = build_two_sided_path(spec, 16, k_min, k_max, SEED)
    assert path.values.tobytes() == path_by_concatenation(spec, 16, k_min, k_max, SEED).tobytes()
    steps = np.diff(path.values)
    assert np.all(steps >= 0.0) and np.any(steps == 0.0)
    # increments near the largest float overflow: the build names the first
    # value that is not finite, with no overflow warning before it
    spec = GammaDrift(1.0, 1e308, 0.0)
    with np.errstate(over="ignore"):
        values = path_by_concatenation(spec, 0, -3, 3, SEED)
    bad = -3 + int(np.argmin(np.isfinite(values)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=rf"^sampled path value at k={bad} is -?inf, not finite$"):
            build_two_sided_path(spec, 0, -3, 3, SEED)


def test_open_uniforms_are_generator_random_clamped(monkeypatch):
    # the raw-word rule of every path stream is Generator.random's, which
    # reference_increments reads
    monkeypatch.setattr("goupsim.levy_paths._increments_from_uniforms", lambda spec, dt, u: u)
    seed = RngSeed(SEED.root_seed, stream_id=5)
    got = _increment_run(StableHalf(), 1.0, seed, 0, np.empty(10**5))
    want = np.maximum(stream_for(seed, PATH_PURPOSE, 0).random(10**5), 1e-300)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [GammaDrift(0.5, 1.0, 0.25), PoissonDrift(3.0, 1.0, 0.5), StableHalf()])
def test_keyed_blocks_equal_their_stream_for_streams(spec):
    # side `direction` of a run is stream_for(seed, PATH_PURPOSE, direction)
    # read through reference_increments, across a chunk boundary, for every
    # stream id
    dt = 2.0**-12
    for stream_id in (0, 6, 2**33 + 1):
        seed = RngSeed(2**63 + 11, stream_id)
        for direction in (0, 1):
            count = _CHUNK + 9
            got = _increment_run(spec, dt, seed, direction, np.empty(count))
            rng = stream_for(seed, PATH_PURPOSE, direction)
            want = reference_increments(spec, dt, rng, count)
            assert got.tobytes() == want.tobytes(), (stream_id, direction)


def test_path_streams_are_apart_from_oracle_streams():
    # the Brownian oracle reads stream_for(seed, b, k) for its batch b; no run
    # of BLOCK increments of either side of a path may repeat one of them
    spec, dt, runs = StableHalf(), 2.0**-12, 3
    sides = [_increment_run(spec, dt, SEED, d, np.empty(runs * BLOCK)) for d in (0, 1)]
    for b in (0, 1):
        for k in (0, 1, 2):
            oracle = reference_increments(spec, dt, stream_for(SEED, b, k), BLOCK).tobytes()
            for direction, side in enumerate(sides):
                for j in range(runs):
                    run = side[j * BLOCK : (j + 1) * BLOCK].tobytes()
                    assert run != oracle, (direction, j, b, k)


#: specs of the quiet-word grid; every one runs at levels 0..16
QUIET_SPECS = [
    GammaDrift(1.0, 1.0, 1.0),
    GammaDrift(0.25, 0.7, 0.3),
    GammaDrift(3.0, 2.0, 0.0),  # no drift: the quantile-underflow cut
    GammaDrift(1e-12, 1.0, 1.0),  # tiny a: the bound sits next to u = 1
    GammaDrift(1.0, 1e-300, 1e300),  # q held at 1
    GammaDrift(1.0, 1e150, 1e-150),  # q near 2^-1100
    PoissonDrift(1.0, 1.0, 1.0),
    PoissonDrift(3.0, 0.5, 0.5),
    PoissonDrift(1e-20, 1.0, 1.0),  # exp(-lam dt) rounds to 1: every word is quiet
    PoissonDrift(2000.0, 1.0, 1.0),  # exp(-lam dt) underflows at coarse levels
    PoissonDrift(720.0, 1.0, 1.0),  # subnormal exp(-lam dt) at level 0: k_lo > 0
    StableHalf(),
]


def _expected_quiet_words(spec, dt):
    """The bound as documented: ``ceil(u_q 2^53)`` for ``u_q > 1e-300``."""
    u_q = 0.0
    if isinstance(spec, GammaDrift):
        a = spec.shape_rate * dt
        u_q = math.exp(_gamma_log_cut(spec, a, dt)) * (1.0 - 2.0**-30)
    elif isinstance(spec, PoissonDrift):
        lam = spec.intensity * dt
        u_q = float(np.exp(-lam)) if np.exp(-lam) >= np.finfo(float).tiny else 0.0
    return math.ceil(u_q * 2.0**53) if u_q > 1e-300 else 0


def test_quiet_words_are_exactly_the_words_below_the_bound(monkeypatch):
    # every word equals the elementwise reference, and exactly the words at
    # or above M << 11 reach it, so a bound moved by one word fails
    seen = []

    def recording(spec, dt, u):
        seen.append(u.copy())
        return _increments_from_uniforms(spec, dt, u)

    monkeypatch.setattr("goupsim.levy_paths._increments_from_uniforms", recording)
    random_words = np.random.default_rng(17).integers(0, 2**64, 512, dtype=np.uint64, endpoint=False)
    n_bounds = {"none": 0, "near 1": 0}
    for spec in QUIET_SPECS:
        for level in range(17):
            dt = 2.0**-level
            m = _quiet_words(spec, dt)
            assert m == _expected_quiet_words(spec, dt), (spec, level)
            n_bounds["none"] += m == 0
            n_bounds["near 1"] += m > 2**53 - 2**30
            edge = m << 11
            near = [edge + d for d in (-(2**11) - 1, -(2**11), -1, 0, 1, 2**11 - 1, 2**11)]
            words = np.array(
                [w for w in (0, 1, 2**11, 2**64 - 1, *near) if 0 <= w < 2**64], dtype=np.uint64
            )
            words = np.concatenate([words, random_words])
            u = np.maximum((words >> 11) * 2.0**-53, 1e-300)
            want = _increments_from_uniforms(spec, dt, u)
            seen.clear()
            got = _increments_from_raw(spec, dt, m, words, np.empty(words.size))
            assert got.tobytes() == want.tobytes(), (spec, level)
            sent = np.concatenate(seen) if seen else np.empty(0)
            assert np.array_equal(sent, u[words >> 11 >= m] if m else u), (spec, level)
    assert n_bounds["none"] >= 17 + 3 and n_bounds["near 1"] >= 17


#: sha256 of the level-16 values over -4:14, each side read from its one
#: PATH_PURPOSE stream
BUILD_DIGESTS = {
    "gamma": "cd46c82ce9860e72d574af8e0d1550c58ebdb4b9252e4f79c61582e2a2a41d5a",
    "poisson": "04127e613b9ba60132c0874564aa1c4b23148798f800c63d295faa95893b53a3",
}


@pytest.mark.parametrize(
    "family, spec", [("gamma", GammaDrift(1.0, 1.0, 1.0)), ("poisson", PoissonDrift(1.0, 1.0, 1.0))]
)
def test_level_16_build_digest(family, spec):
    path = build_two_sided_path(spec, 16, -4 * 2**16, 14 * 2**16, RngSeed(1))
    assert hashlib.sha256(path.values.tobytes()).hexdigest() == BUILD_DIGESTS[family]


def test_concurrent_builds_equal_serial_builds():
    # each run owns its Philox, so threads building at once (more threads
    # than cores, switching often) cannot interleave their key resets
    specs = (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0))
    window = (14, -2 * 2**14, 6 * 2**14)
    serial = [build_two_sided_path(spec, *window, SEED).values for spec in specs]
    n_threads = min(9, max(3, (os.cpu_count() or 1) + 1))
    barrier = threading.Barrier(n_threads, timeout=60)
    results = [[None] * len(specs) for _ in range(n_threads)]

    def build(slot):
        for i, spec in enumerate(specs):
            barrier.wait()
            results[slot][i] = build_two_sided_path(spec, *window, SEED).values

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        for want, values in zip(serial, got):
            assert values is not None and values.tobytes() == want.tobytes()


def test_stable_half_median():
    # median of 1/Z^2 = 1/median(chi2_1); chi2_1 median from root-finding on
    # its CDF P(X <= m) = gammainc(1/2, m/2) = 1/2
    chi2_median = brentq(lambda m: gammainc(0.5, 0.5 * m) - 0.5, 1e-6, 4.0, xtol=1e-12)
    expected = 1.0 / chi2_median
    assert abs(expected - 2.1981) < 5e-4
    draws = reference_increments(StableHalf(), 1.0, stream_for(SEED, 2), 10**6)
    med = np.median(draws)
    # SE of the sample median: 1 / (2 f(m) sqrt(n)) with the exact density
    dens = (2.0 * math.pi) ** -0.5 * expected**-1.5 * math.exp(-0.5 / expected)
    se = 1.0 / (2.0 * dens * math.sqrt(draws.size))
    assert abs(med - expected) <= 3.0 * se


def test_mean_variance_sanity_at_1e5():
    cases = [
        (GammaDrift(1.0, 1.0, 1.0), 2.0, 1.0),
        (GammaDrift(2.0, 0.5, 0.25), 2.0 * 0.5 + 0.25, 2.0 * 0.25),
        (PoissonDrift(1.0, 1.0, 1.0), 2.0, 1.0),
        (PoissonDrift(2.0, 0.5, 0.5), 2.0 * 0.5 + 0.5, 2.0 * 0.25),
    ]
    for i, (spec, mean, var) in enumerate(cases):
        draws = reference_increments(spec, 1.0, stream_for(SEED, 3, i), 10**5)
        n = draws.size
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - mean) <= 3.0 * se_mean
        centered = draws - draws.mean()
        m2 = np.mean(centered**2)
        m4 = np.mean(centered**4)
        se_var = math.sqrt(max(m4 - m2**2, 0.0) / n)
        assert abs(draws.var(ddof=1) - var) <= 3.0 * se_var


def test_build_invariants():
    for spec in (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0), StableHalf()):
        path = build_two_sided_path(spec, 3, -4, 4, SEED)
        assert path.values[-path.grid.k_min] == 0.0
        assert np.all(np.diff(path.values) > 0.0)


def test_build_poisson_zero_jump_window_is_pure_drift():
    # with no jumps in the window the path is exactly x_k = t_k
    spec = PoissonDrift(1.0, 1.0, 1.0)
    grid = DyadicGrid(3, -4, 4)
    for root in range(200):
        path = build_two_sided_path(spec, 3, -4, 4, RngSeed(root))
        expected = np.arange(-4, 5) * grid.dt
        if np.array_equal(path.values, expected):
            break
    else:
        pytest.fail("no zero-jump window found in 200 seeds (p ~ 0.32 each)")


def test_build_gamma_growth_rate():
    # mean of x_kmax / t_kmax over 1e4 paths -> E L(1) = 2 within 3 SE
    spec = GammaDrift(1.0, 1.0, 1.0)
    k_max = 256
    ratios = np.empty(10**4)
    t_end = k_max * 2.0**-10
    for i in range(ratios.size):
        path = build_two_sided_path(spec, 10, -2, k_max, RngSeed(777, stream_id=i))
        ratios[i] = path.values[-1] / t_end
    se = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 2.0) <= 3.0 * se


def test_lazy_block_extension_is_bitwise_stable():
    spec = StableHalf()
    small = _increment_run(spec, 2.0**-8, SEED, 0, np.empty(100))
    large = _increment_run(spec, 2.0**-8, SEED, 0, np.empty(3 * BLOCK + 17))
    assert np.array_equal(small, large[:100])
    bsmall = _increment_run(spec, 2.0**-8, SEED, 1, np.empty(50))
    blarge = _increment_run(spec, 2.0**-8, SEED, 1, np.empty(BLOCK + 50))
    assert np.array_equal(bsmall, blarge[:50])


def test_build_windows_nest_bitwise():
    spec = GammaDrift(1.0, 1.0, 1.0)
    wide = build_two_sided_path(spec, 6, -300, 500, SEED)
    narrow = build_two_sided_path(spec, 6, -100, 200, SEED)
    sl = slice(-100 - wide.grid.k_min, 201 - wide.grid.k_min)
    assert np.array_equal(wide.values[sl], narrow.values)


def test_aggregate_equal_increments():
    path = make_drift_path(level=3, k_min=-8, k_max=8, drift=1.0)
    coarse = aggregate_to_level(path, 0)
    assert np.array_equal(np.diff(coarse.values), np.ones(2))
    assert coarse.grid.k_min == -1 and coarse.grid.k_max == 1


def test_aggregate_identity():
    path = build_two_sided_path(StableHalf(), 5, -32, 32, SEED)
    assert aggregate_to_level(path, 5) is path


def test_aggregate_subsamples_bitwise():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 12, -(2**12), 2**12, SEED)
    coarse = aggregate_to_level(path, 5)
    ks = np.arange(coarse.grid.k_min, coarse.grid.k_max + 1)
    assert np.array_equal(coarse.values, path.values[ks * 2**7 - path.grid.k_min])


def test_aggregate_consistency_sum_identity():
    path = build_two_sided_path(StableHalf(), 10, -(2**10), 2**10, SEED)
    fine_inc = np.diff(path.values)
    for n in range(0, 10):
        factor = 2 ** (10 - n)
        coarse = aggregate_to_level(path, n)
        coarse_inc = np.diff(coarse.values)
        starts = np.arange(coarse_inc.size) * factor
        sums = np.add.reduceat(fine_inc, starts)
        rel = np.abs(coarse_inc - sums) / coarse_inc
        assert rel.max() <= 1e-12


def test_aggregate_rejects_refinement():
    path = build_two_sided_path(StableHalf(), 4, -4, 4, SEED)
    with pytest.raises(ValueError):
        aggregate_to_level(path, 6)


def test_polygon_eval_nodes_bitwise():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 7, -64, 64, SEED)
    ks = np.arange(-64, 65)
    taus = ks * path.grid.dt
    vals = polygon_eval(path, taus)
    assert np.array_equal(vals, path.values)


def test_polygon_eval_midpoint(drift_path):
    path = build_two_sided_path(StableHalf(), 6, -16, 16, SEED)
    dt = path.grid.dt
    for k in (-10, -1, 0, 5, 15):
        mid = (k + 0.5) * dt
        expected = 0.5 * (path.values[k - path.grid.k_min] + path.values[k + 1 - path.grid.k_min])
        assert abs(polygon_eval(path, mid) - expected) <= 1e-15


def test_polygon_eval_pure_drift(drift_path):
    taus = np.linspace(-3.9, 3.9, 101)
    assert np.allclose(polygon_eval(drift_path, taus), taus, atol=1e-14)


def test_polygon_eval_window_errors(drift_path):
    with pytest.raises(WindowError):
        polygon_eval(drift_path, 4.1)
    with pytest.raises(WindowError):
        polygon_eval(drift_path, -4.1)


@pytest.mark.parametrize("query", [polygon_eval, step_eval, polygon_inverse, hitting_time])
def test_nan_arguments_raise_window_errors(drift_path, query):
    # polygon_eval and step_eval used to fail with IndexError on NaN,
    # hitting_time returned a time past t_max
    for arg in (np.nan, np.array([0.5, np.nan, 1.0]), np.array([np.nan, -9.0])):
        with pytest.raises(WindowError):
            query(drift_path, arg)


def test_window_errors_name_the_offending_end(drift_path):
    with pytest.raises(WindowError, match="time -4.5 below sampled window start t_min=-4.0"):
        polygon_eval(drift_path, np.array([[0.0, -4.5], [4.2, 1.0]]))
    with pytest.raises(WindowError, match="time 4.25 above sampled window end t_max=4.0"):
        step_eval(drift_path, np.array([[0.0, 4.25], [4.2, 1.0]]))
    # the first query in C order is named, not the farthest one
    with pytest.raises(WindowError, match="time -4.5 below sampled window start t_min=-4.0"):
        step_eval(drift_path, np.array([[0.0, -4.5], [-9.0, 1.0]]))
    assert polygon_eval(drift_path, np.empty((0, 3))).shape == (0, 3)
    for query, arg, message in [
        (polygon_inverse, [0.0, -4.5], "level -4.5 below sampled range min -4.0"),
        (hitting_time, [4.25, 1.0], "level 4.25 above sampled range max 4.0"),
        (polygon_inverse, [np.nan], r"level nan is not in the sampled range \[-4.0, 4.0\]"),
        (polygon_eval, [np.nan], r"time nan is not in the sampled window \[-4.0, 4.0\]"),
    ]:
        with pytest.raises(WindowError, match=message) as info:
            query(drift_path, np.array(arg))
        assert "np.float64(" not in str(info.value)


def test_polygon_inverse_nodes_and_roundtrip():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 8, -128, 128, SEED)
    ks = np.arange(-128, 129)
    assert np.array_equal(polygon_inverse(path, path.values), ks * path.grid.dt)
    rng = np.random.default_rng(5)
    xs = rng.uniform(path.values[0], path.values[-1], size=500)
    taus = polygon_inverse(path, xs)
    assert np.max(np.abs(polygon_eval(path, taus) - xs)) <= 1e-12
    # and the other composition direction on times
    ts = rng.uniform(path.grid.k_min * path.grid.dt, path.grid.k_max * path.grid.dt, size=500)
    assert np.max(np.abs(polygon_inverse(path, polygon_eval(path, ts)) - ts)) <= 1e-12


def test_polygon_inverse_takes_the_first_crossing_of_ties():
    # on a flat window start the first crossing of values[0] is t_min (it
    # was 0/0 = nan); on a driftless Gamma path every node value is first
    # crossed at its hitting time
    grid = DyadicGrid(1, -2, 2)
    flat = LevyPathSample(grid, np.array([0.0, 0.0, 0.0, 1.0, 1.0]), StableHalf())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polygon_inverse(flat, 0.0) == grid.k_min * grid.dt
        assert np.array_equal(polygon_inverse(flat, np.array([0.0, 0.5, 1.0])), [-1.0, 0.25, 0.5])
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 0.0), 12, -2**12, 2**12, SEED)
    assert np.any(np.diff(path.values) == 0.0)
    assert np.array_equal(polygon_inverse(path, path.values), hitting_time(path, path.values))


def test_polygon_inverse_pure_drift():
    path = make_drift_path(level=5, k_min=-32, k_max=32, drift=2.0)
    assert abs(polygon_inverse(path, 1.0) - 0.5) <= 1e-15


def test_polygon_monotone():
    path = build_two_sided_path(StableHalf(), 8, -64, 64, SEED)
    taus = np.linspace(path.grid.k_min * path.grid.dt, path.grid.k_max * path.grid.dt, 4001)
    vals = polygon_eval(path, taus)
    assert np.all(np.diff(vals) > 0.0)


def test_step_eval_nodes_and_right_continuity():
    path = build_two_sided_path(StableHalf(), 6, -32, 32, SEED)
    dt = path.grid.dt
    for k in (-32, -7, 0, 13, 32):
        assert step_eval(path, k * dt) == path.values[k - path.grid.k_min]
    for k in (-7, 0, 13):
        assert step_eval(path, k * dt + 2.0 ** (-6 - 3)) == path.values[k - path.grid.k_min]


def test_step_eval_drift_discretization_bound():
    path = make_drift_path(level=16, k_min=-8, k_max=2**16, drift=1.0)
    assert abs(step_eval(path, 0.5) - 0.5) <= 2.0**-16


def test_hitting_time_nodes():
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 6, -32, 32, SEED)
    ks = np.arange(-32, 33)
    assert np.array_equal(hitting_time(path, path.values), ks * path.grid.dt)
    assert hitting_time(path, 0.0) == 0.0
    with pytest.raises(WindowError):
        hitting_time(path, path.values[-1] + 1.0)


def test_hitting_step_adjunction():
    # hitting_time(x) <= t  iff  step_eval(t) >= x, over grid times and random x
    rng = np.random.default_rng(99)
    for spec in (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0), StableHalf()):
        path = build_two_sided_path(spec, 6, -128, 128, SEED)
        ts = np.arange(-128, 129) * path.grid.dt
        step_vals = step_eval(path, ts)
        xs = rng.uniform(path.values[0], path.values[-1], size=200)
        hits = hitting_time(path, xs)
        lhs = hits[:, None] <= ts[None, :]
        rhs = step_vals[None, :] >= xs[:, None]
        assert np.array_equal(lhs, rhs)
        # closure: the path value at the hitting time dominates the level
        assert np.all(step_eval(path, hits) >= xs)


def test_export_files(tmp_path):
    path = build_two_sided_path(GammaDrift(1.0, 1.0, 1.0), 4, -8, 8, SEED)
    csv_file = tmp_path / "path.csv"
    write_path_csv(path, csv_file)
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "k,t,x"
    assert len(lines) == 1 + 17
    k0, t0, x0 = lines[1].split(",")
    assert int(k0) == -8 and float(t0) == -0.5
    xs = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.array_equal(xs, path.values)
