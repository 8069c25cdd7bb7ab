import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import erf

from goupsim import montecarlo_validation
from goupsim.goupillaud import basepoint
from goupsim.ig_analytics import running_max_density
from goupsim.levy_paths import (
    DyadicGrid,
    GammaDrift,
    PoissonDrift,
    RngSeed,
    StableHalf,
    build_two_sided_path,
)
from goupsim.montecarlo_validation import (
    Histogram,
    bm_functionals_oracle,
    spike_refined_bin_edges,
    histogram,
    hit_under_bin_masses,
    ks_distance,
    l1_distance,
    sample_basepoints,
    write_histogram_csv,
    write_samples_csv,
)
from quadrature import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
)
from conftest import make_drift_path

SEED = RngSeed(97531)


def test_mc_config_validation(monkeypatch):
    # the sample count is refused before any tree is searched
    def no_search(*args):
        raise AssertionError("searched a tree for a refused sample count")

    monkeypatch.setattr(montecarlo_validation, "hit_index", no_search)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sample_basepoints(StableHalf(), 8.0, 1.0, n, DyadicGrid(10, -8, 8), SEED)
    # the bins rule is spike_refined_bin_edges's, which names it
    for bins in (1, 5):
        with pytest.raises(ValueError, match=f"bins must be >= 8, got {bins}"):
            spike_refined_bin_edges(8.5, bins)


def test_sample_basepoints_matches_full_path_route():
    # tree base points of all three families against base points taken
    # through the path operations on full path builds of the same level and
    # window: the two are drawn from independent streams, so they agree in
    # law, not bitwise (a two-sample KS test per run)
    cases = [
        (2.0, DyadicGrid(8, -2 * 2**8, 6 * 2**8)),
        (8.0, DyadicGrid(10, -2**10, 14 * 2**10)),
    ]
    runs = [
        *itertools.product(cases, (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0))),
        # driftless: full paths keep their floating-point ties, as trees do
        ((2.0, DyadicGrid(8, -2 * 2**8, 14 * 2**8)), GammaDrift(1.0, 1.0, 0.0)),
        (cases[1], StableHalf()),
    ]
    for (x0, grid), spec in runs:
        got = sample_basepoints(spec, x0, 1.0, 400, grid, SEED)
        assert got.n_failed == 0
        assert np.all(got.values < x0)
        direct = np.array(
            [
                basepoint(
                    build_two_sided_path(
                        spec, grid.level, grid.k_min, grid.k_max,
                        RngSeed(SEED.root_seed, stream_id=i),
                    ),
                    x0,
                    1.0,
                )
                for i in range(400)
            ]
        )
        # a correct sampler fails each run with probability 0.1%, so the
        # six runs together about 0.6% of the time
        assert stats.ks_2samp(got.values, direct).pvalue > 1e-3, (x0, spec)


def test_sample_basepoints_worker_invariance():
    # a sample's value follows from its index alone, not from how the
    # samples are split up (here into tree chunks of 3)
    run = (60, DyadicGrid(10, -2**10, 8 * 2**10), SEED)
    for spec in (StableHalf(), GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0)):
        serial = sample_basepoints(spec, 4.0, 1.0, *run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo_validation, "_TREE_CHUNK", 3)
            parallel = sample_basepoints(spec, 4.0, 1.0, *run)
        assert np.array_equal(serial.values, parallel.values)
        assert np.array_equal(serial.indices, parallel.indices)


def test_sample_basepoints_below_level():
    out = sample_basepoints(StableHalf(), 8.0, 1.0, 200, DyadicGrid(10, -2**10 - 4, 14 * 2**10), SEED)
    assert out.n_failed == 0
    assert np.all(out.values < 8.0)


@pytest.mark.parametrize("x0", [-1.0, 0.0, float("nan"), float("inf")])
def test_sample_basepoints_refuses_nonpositive_level(x0):
    # the lazy search runs forward only; at x0 = -1 it used to return base
    # points at or above x0, and at x0 = 0 it hit one grid step late; no
    # path reaches x0 = inf, which used to be reported as a short window
    grid = DyadicGrid(10, -4 * 2**10, 14 * 2**10)
    with pytest.raises(ValueError, match="x0"):
        sample_basepoints(StableHalf(), x0, 1.0, 200, grid, RngSeed(5))


@pytest.mark.parametrize("t0", [0.0, -1.0, float("nan"), float("inf")])
def test_sample_basepoints_refuses_a_nonpositive_or_infinite_shift(t0):
    # t0 = inf used to pass and then fail every sample as before the window,
    # with advice to widen a range that no width can fix
    grid = DyadicGrid(10, -4 * 2**10, 14 * 2**10)
    with pytest.raises(ValueError, match=f"t0 must be positive and finite, got {t0}"):
        sample_basepoints(StableHalf(), 8.0, t0, 200, grid, RngSeed(5))


def test_sample_basepoints_window_exhaustion():
    # one time unit rarely reaches 8: the upper end of the window is short
    grid = DyadicGrid(8, -2**8, 2**8)
    with pytest.raises(
        RuntimeError,
        match=r"(\d+)/100 samples .*: \1 paths do not reach x0 = 8.0 by k_max = 256 "
        r"\(widen the upper end of --range\), 0 shifted times",
    ):
        sample_basepoints(StableHalf(), 8.0, 0.5, 100, grid, SEED)


def test_sample_basepoints_counts_shifted_times_before_the_window():
    # level 8 is hit by time 14 but rarely after time 11, so hitting time
    # minus 12 falls before the window's start at time -1
    grid = DyadicGrid(8, -2**8, 14 * 2**8)
    with pytest.raises(
        RuntimeError,
        match=r"(\d+)/100 samples .*: 0 paths do not reach .*, \1 shifted times fall "
        r"before k_min = -256 \(widen the lower end of --range\)",
    ):
        sample_basepoints(StableHalf(), 8.0, 12.0, 100, grid, SEED)


def test_basepoint_discretization_consistency():
    # pure drift: doubling the level moves each base point by at most the
    # old grid resolution times the drift
    for n in (8, 10):
        coarse = make_drift_path(n, -(2**n) * 2, 10 * 2**n, drift=1.0)
        fine = make_drift_path(n + 1, -(2 ** (n + 1)) * 2, 10 * 2 ** (n + 1), drift=1.0)
        for x0, t0 in ((8.0, 1.0), (3.3, 0.7)):
            d = abs(basepoint(coarse, x0, t0) - basepoint(fine, x0, t0))
            assert d <= 2.0**-n * 1.0


def test_oracle_shapes_and_ranges():
    res = bm_functionals_oracle(1.0, 1e-2, 500, SEED)
    assert np.all(res.hit >= 0.0)
    assert np.all((res.undershoot >= 0.0) & (res.undershoot <= 1.0))
    finite = np.isfinite(res.overshoot)
    assert np.all(res.overshoot[finite] > 1.0)
    assert np.all(res.undershoot[finite] <= res.overshoot[finite])
    assert res.n_capped == int(np.sum(~finite))
    res2 = bm_functionals_oracle(1.0, 1e-2, 500, SEED)
    assert np.array_equal(res.hit, res2.hit)
    assert np.array_equal(res.overshoot, res2.overshoot, equal_nan=True)


def test_oracle_skip_overshoot():
    res = bm_functionals_oracle(1.0, 1e-2, 100, SEED, include_overshoot=False)
    assert np.all(np.isnan(res.overshoot))
    assert res.n_capped == 0


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        bm_functionals_oracle(1.0, 0.3, 10, SEED)  # not an integer multiple
    with pytest.raises(ValueError):
        bm_functionals_oracle(-1.0, 1e-2, 10, SEED)
    with pytest.raises(ValueError):
        bm_functionals_oracle(1.0, 2.0, 10, SEED)
    with pytest.raises(ValueError, match="n must be >= 1"):
        bm_functionals_oracle(1.0, 1e-2, 0, SEED)
    for cap in (0.0, -1.0, 0.004):
        with pytest.raises(ValueError, match="cap_length"):
            bm_functionals_oracle(1.0, 1e-2, 10, SEED, cap_length=cap)
    # without the overshoot search the cap is never used
    res = bm_functionals_oracle(1.0, 1e-2, 10, SEED, include_overshoot=False, cap_length=0.0)
    assert res.n_capped == 0


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_oracle_refuses_a_nonfinite_level(x):
    # x = inf used to raise a bare OverflowError from int(inf)
    with pytest.raises(ValueError, match=f"x must be positive and finite, got {x}"):
        bm_functionals_oracle(x, 1e-2, 10, SEED)


@pytest.mark.parametrize("cap", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("include_overshoot", [True, False])
def test_oracle_refuses_a_nonfinite_cap(cap, include_overshoot):
    # cap_length = nan used to raise "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"cap_length must be finite, got {cap}"):
        bm_functionals_oracle(
            1.0, 1e-2, 10, SEED, include_overshoot=include_overshoot, cap_length=cap
        )


def _oracle_digest(res) -> str:
    h = hashlib.sha256()
    for a in (res.hit, res.undershoot, res.overshoot):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(str(res.n_capped).encode())
    return h.hexdigest()


# 2500 samples make two full batches and a short last one; with a cap of
# 2 x about 40% of the overshoot searches stop at the cap, and with a cap
# of one step all but about 4%.  The hitting/undershoot digest is shared by
# every case and was taken from the whole-batch implementation that preceded
# the streamed one; the overshoot digests from the passage-time search.
HIT_UNDER_GOLDEN = "8602490bf08ca7e45539eff9ba6227aeb7f46e704a57e579992c60fba57ed71c"
ORACLE_GOLDEN = [
    (
        dict(cap_length=0.01),
        2408,
        "e072a72645aeae899b9ac528a549abe1ea8f77c6c8923a0e453ab7186e47074a",
    ),
    (
        dict(cap_length=2.0),
        1038,
        "cde19384d2b3b8a0cd6d5a839bba1d42e1bb5a03c4abfac64d54dc683782e537",
    ),
    (
        dict(include_overshoot=False),
        0,
        "d92fd41d0e7efe2d731c3c5990547d561b9cdec28346f54ccf83886b1110c4c0",
    ),
]


@pytest.mark.parametrize("cpus,row_group", [(1, 16), (3, 16), (2, 5)])
@pytest.mark.parametrize(
    "kwargs,n_capped,digest", ORACLE_GOLDEN, ids=["one-step-cap", "capped", "no-overshoot"]
)
def test_oracle_bitwise_golden_for_any_thread_count(
    monkeypatch, cpus, row_group, kwargs, n_capped, digest
):
    monkeypatch.setattr(montecarlo_validation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo_validation, "_ROW_GROUP", row_group)
    res = bm_functionals_oracle(1.0, 1e-2, 2500, RngSeed(2024), **kwargs)
    h = hashlib.sha256()
    for a in (res.hit, res.undershoot):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == HIT_UNDER_GOLDEN
    assert res.n_capped == n_capped
    assert _oracle_digest(res) == digest


def test_oracle_streams_rows_of_a_batch():
    # one 1024-row batch at step 1e-4 used to hold its normals, their
    # scaled copy and the path at once, about 250 MB
    tracemalloc.start()
    try:
        bm_functionals_oracle(1.0, 1e-4, 1024, SEED, cap_length=0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, f"peak {peak / 1e6:.1f} MB"


def test_oracle_overshoot_search_holds_no_walk_buffer(monkeypatch):
    # the mesh walk past x held a (rows x 2048) buffer of steps, 16.8 MB,
    # and peaked at 23.1 MB here; the passage-time search holds a few
    # values per row
    monkeypatch.setattr(montecarlo_validation, "_usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        bm_functionals_oracle(1.0, 1e-4, 1024, SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


def _walk_overshoot(w, s, rng, step, cap_steps):
    """Mesh index past x of the first mesh point above ``s``, 0 where the
    cap is reached first: the walk over the mesh that the passage-time
    search replaced, 64 normal steps at a time."""
    out = np.zeros(w.size, dtype=np.int64)
    active, current = np.arange(w.size), w.copy()
    done = 0
    while active.size and done < cap_steps:
        cs = min(64, cap_steps - done)
        wc = np.cumsum(rng.standard_normal((active.size, cs)) * np.sqrt(step), axis=1)
        wc += current[:, None]
        above = wc > s[active, None]
        found = above.any(axis=1)
        out[active[found]] = done + np.argmax(above[found], axis=1) + 1
        current, active = wc[~found, -1], active[~found]
        done += cs
    return out


def _walk_oracle(x, step, n, seed, cap_length):
    """Overshoot mesh indices (0 where capped) of ``n`` Brownian paths meshed
    at ``step`` over ``[0, x]``, with exact bridge maxima, and the walk."""
    rng = np.random.default_rng(seed)
    n_steps, cap_steps = round(x / step), round(cap_length / step)
    out = []
    for lo in range(0, n, 4096):
        rows = min(4096, n - lo)
        w = np.zeros((rows, n_steps + 1))
        np.cumsum(rng.standard_normal((rows, n_steps)) * np.sqrt(step), axis=1, out=w[:, 1:])
        s, _ = montecarlo_validation._first_max_segments(w, step, rng)
        out.append(_walk_overshoot(w[:, -1], s, rng, step, cap_steps))
    return np.concatenate(out)


def test_passage_time_search_has_the_law_of_the_mesh_walk():
    # the search and the walk it replaced, from independent streams, at
    # x = 1, step 1e-2, a cap of 200 steps and 2e4 samples each.  Capped
    # counts: Fisher's exact test of the 2 x 2 table, whose false-alarm
    # rate is at most its level 1e-3.  Mesh indices of the found samples:
    # a chi-square test of homogeneity over the index bins 1, 2, 3-5, 6-20,
    # 21-100 and 101-200, false-alarm rate 1e-3 (asymptotic; every expected
    # count is above 100).
    x, step, n, cap = 1.0, 1e-2, 2 * 10**4, 2.0
    res = bm_functionals_oracle(x, step, n, SEED, cap_length=cap)
    found = np.isfinite(res.overshoot)
    search = np.rint((res.overshoot[found] - x) / step).astype(np.int64)
    walk = _walk_oracle(x, step, n, 4242, cap)
    assert res.n_capped == n - found.sum()
    n_capped_walk = int(np.sum(walk == 0))
    table = [[res.n_capped, n - res.n_capped], [n_capped_walk, n - n_capped_walk]]
    assert stats.fisher_exact(table).pvalue > 1e-3, table
    bins = np.array([1, 2, 3, 6, 21, 101, 201])
    counts = [np.histogram(k, bins)[0] for k in (search, walk[walk > 0])]
    assert stats.contingency.expected_freq(counts).min() > 100, counts
    assert stats.chi2_contingency(counts).pvalue > 1e-3, counts


def test_next_mesh_crossing_edge_cases():
    from goupsim.montecarlo_validation import _next_mesh_crossing

    step, cap = 0.25, 10
    k = np.array([0, 3, 2, 4, 0, 0, 7])
    s = np.ones(7)
    # D = ((s - w)/z0)^2 / step: 4 (an integer), 4 again, then two zero
    # gaps (w = s), then z0 = 0 (an infinite passage time), z0 so small
    # that z0^2 underflows, and a zero gap with z0 = 0
    w = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    z = np.array(
        [[1.0, -1.0, 0.5, 2.0, 0.0, 1e-300, 0.0], [2.0, -2.0, 1.0, -1.0, 1.0, 1.0, 1.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k2, w2, found = _next_mesh_crossing(k, w, s, z, step, cap)
    # an integer D = j lands on k + j + 1, one full step after the passage
    assert k2[:2].tolist() == [5, 8]
    assert w2[:2].tolist() == [1.0 + 0.5 * 2.0, 1.0 - 0.5 * 2.0]
    assert found[:2].tolist() == [True, False]
    # a zero gap still moves on one mesh point
    assert k2[2:4].tolist() == [3, 5]
    assert w2[2:4].tolist() == [1.5, 0.5]
    assert found[2:4].tolist() == [True, False]
    # an infinite passage time is capped, with an exact index past the cap
    assert k2.dtype == np.int64
    assert k2[4:].tolist() == [cap + 2, cap + 2, 7 + cap + 2]
    assert np.all(np.isfinite(w2)) and not found[4:].any()


def test_oracle_overshoot_indices_are_mesh_points_within_the_cap():
    for cap, n_cap in ((0.01, 1), (0.37, 37), (2.0, 200)):
        res = bm_functionals_oracle(1.0, 1e-2, 3000, SEED, cap_length=cap)
        found = np.isfinite(res.overshoot)
        j = (res.overshoot[found] - 1.0) / 1e-2
        assert np.all(np.abs(j - np.rint(j)) <= 1e-9 * n_cap)
        assert np.rint(j).min() >= 1 and np.rint(j).max() <= n_cap
        assert np.all(res.overshoot[found] <= 1.0 + n_cap * 1e-2 * (1 + 1e-12))
        assert res.n_capped == int(np.sum(~found))
        assert 0 < res.n_capped < 3000


def test_oracle_search_ends_when_no_row_rises_above_its_level(monkeypatch):
    # a search stream whose second normal is always -1 never puts a mesh
    # point above the level; every round still moves each row on at least
    # one mesh point, so every row is capped within cap + 1 rounds
    stream_for = montecarlo_validation.stream_for
    rounds = []

    class Falling:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            rounds.append(size[1])
            z = self.rng.standard_normal(size)
            z[0] = 1e3  # passage times far below one step
            z[1] = -1.0
            return z

    def fake(seed, *key):
        rng = stream_for(seed, *key)
        return Falling(rng) if key[1:] == (2,) else rng

    monkeypatch.setattr(montecarlo_validation, "stream_for", fake)
    monkeypatch.setattr(montecarlo_validation, "_BATCH", 128)
    res = bm_functionals_oracle(1.0, 1e-2, 300, SEED, cap_length=0.2)
    assert res.n_capped == 300 and np.all(np.isnan(res.overshoot))
    assert len(rounds) == 3 * 21  # 20 steps: every row moves on one per round


def test_oracle_running_max_half_normal():
    # histogram of s against the half-normal law, reduced-scale instance
    x, n = 1.0, 2 * 10**4
    res = bm_functionals_oracle(x, 1e-3, n, SEED, include_overshoot=False)
    edges = np.array([0.0, 0.25, 0.5, 0.8, 1.2, 1.7, 2.4, 3.2])
    h = histogram(res.hit, edges)
    # a sampler of the exact law fails at least one of the 7 per-bin 3-sigma
    # bounds 1.8% of the time (multinomial simulation over the exact masses,
    # 2*10^5 draws)
    for i in range(edges.size - 1):
        mass = integrate_adaptive(
            lambda s: running_max_density(x, s), edges[i], edges[i + 1], QuadratureSpec()
        ).value
        se = math.sqrt(n * mass * (1.0 - mass))
        assert abs(h.counts[i] - n * mass) <= 3.0 * se
    # and a KS check against the closed-form CDF
    ks = ks_distance(res.hit, lambda s: erf(s / math.sqrt(2.0 * x)))
    assert ks <= 1.628 / math.sqrt(n)


def test_oracle_overshoot_law():
    # overshoot location density derived from the triple law by integrating
    # out the hitting time (closed form) and the undershoot:
    #   f_b(b) = (1/2pi) int_0^x a^(-1/2) (b-a)^(-3/2) da
    #          = sqrt(x/(b-x)) / (pi b),  b > x.
    from goupsim.ig_analytics import triple_density

    x, n, cap = 1.0, 2 * 10**4, 8.0

    def overshoot_density(b):
        return np.sqrt(x / (b - x)) / (np.pi * b)

    # spot-check the closed form against brute quadrature of the triple law
    for b in (1.3, 2.5):
        brute = integrate_sqrt_endpoint(
            lambda a: np.array(
                [
                    integrate_semi_infinite(
                        lambda s: triple_density(x, s, float(aa), b), 0.0, QuadratureSpec()
                    ).value
                    for aa in np.atleast_1d(a)
                ]
            ),
            0.0,
            x,
            "left",
            QuadratureSpec(1e-7, 1e-6, 2000),
        ).value
        assert abs(brute - overshoot_density(b)) <= 1e-5

    res = bm_functionals_oracle(x, 1e-3, n, SEED, cap_length=cap)
    finite = np.isfinite(res.overshoot)
    # b is mesh-granular while the threshold is the exact maximum, so the
    # (b-x)^(-1/2) spike within a few steps of x is systematically shifted;
    # compare outside that boundary layer (10 steps wide)
    edges = np.array([1.01, 1.1, 1.3, 1.7, 2.4, 4.0, 7.0])
    h = histogram(res.overshoot[finite], edges)
    # a sampler of the exact law fails at least one of the 6 per-bin bounds
    # 1.5% of the time (multinomial simulation over the exact masses, 2*10^5
    # draws)
    for i in range(edges.size - 1):
        mass = integrate_adaptive(
            overshoot_density, edges[i], edges[i + 1], QuadratureSpec()
        ).value
        se = math.sqrt(n * mass * (1.0 - mass))
        assert abs(h.counts[i] - n * mass) <= 3.0 * se + 1.0


def test_histogram_conventions():
    h = histogram(np.array([0.5, 1.5, 1.0]), np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(h.counts, np.array([1, 2]))  # 1.0 lands left-closed
    assert h.n == 3

    h = histogram(np.array([2.0]), np.array([0.0, 1.0, 2.0]))
    assert h.n == 1 and h.counts.sum() == 0  # last edge is exclusive

    h = histogram(np.full(7, 0.3), np.array([0.0, 1.0]))
    assert h.counts[0] == 7

    h = histogram(np.array([]), np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(h.counts, np.zeros(2, dtype=int))

    h = histogram(np.array([-5.0, 0.5, 9.0]), np.array([0.0, 1.0]))
    assert h.n == 3 and h.counts.sum().item() == 1

    with pytest.raises(ValueError):
        histogram(np.array([1.0]), np.array([1.0, 0.5]))


def test_l1_distance_exact_match_is_zero():
    edges = np.array([0.0, 1.0, 2.0])
    samples = np.array([0.25, 0.75, 1.25, 1.75])
    h = histogram(samples, edges)
    assert l1_distance(h, lambda z: 0.5 * z) == 0.0  # uniform law on [0, 2]


def test_l1_distance_disjoint_supports():
    # unit empirical mass on [0,1), unit analytic mass on [2,3): distance 2
    edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    samples = np.linspace(0.05, 0.95, 50)
    h = histogram(samples, edges)
    assert l1_distance(h, lambda z: np.clip(z - 2.0, 0.0, 1.0)) == 2.0


def test_l1_distance_self_consistency_budget():
    # exponential samples against the exact exponential law
    rng = np.random.default_rng(8)
    n = 10**5
    samples = -np.log(np.maximum(rng.random(n), 1e-300))
    edges = np.linspace(0.0, 6.0, 25)
    h = histogram(samples, edges)
    got = l1_distance(h, lambda z: -np.expm1(-z))
    widths = np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    budget = float(np.sum(widths * np.sqrt(np.exp(-centers) / (n * widths))))
    assert got <= 2.0 * budget


def test_ks_distance_properties():
    rng = np.random.default_rng(21)
    n = 10**4
    samples = -np.log(np.maximum(rng.random(n), 1e-300))
    ks = ks_distance(samples, lambda x: 1.0 - np.exp(-x))
    assert ks <= 1.63 / math.sqrt(n)

    assert ks_distance(np.array([1.0, 2.0]), lambda x: np.zeros_like(x)) == 1.0
    assert ks_distance(np.array([0.0]), lambda x: np.full_like(x, 0.5)) == 0.5


def test_hit_under_bin_masses_totals():
    x = 1.0
    s_edges = np.array([0.0, 0.3, 0.7, 1.2, 2.0, 6.0])
    y_edges = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    masses = hit_under_bin_masses(x, s_edges, y_edges)
    assert masses.min() >= 0.0
    assert abs(masses.sum() - 1.0) <= 2e-4  # residual mass beyond s = 6 only

    # one interior bin against direct two-dimensional nested quadrature
    from goupsim.ig_analytics import hit_under_density

    def inner(s_vals):
        out = np.empty_like(np.atleast_1d(s_vals))
        for i, s in enumerate(np.atleast_1d(s_vals)):
            out[i] = integrate_adaptive(
                lambda y: np.array([hit_under_density(x, float(s), float(yy)) for yy in np.atleast_1d(y)]),
                0.2,
                0.5,
                QuadratureSpec(),
            ).value
        return out

    direct = integrate_adaptive(inner, 0.3, 0.7, QuadratureSpec(1e-7, 1e-6, 2000)).value
    assert abs(masses[1, 1] - direct) <= 1e-6


def test_hit_under_bin_masses_marginals():
    # rows sum to the half-normal running-maximum law, columns (over all
    # hitting times) to the arcsine law of the undershoot; the edges touch
    # 0 and x, where the masses switch to their erfc and zero limits
    x = 2.0
    s_edges = np.array([0.0, 0.5, 1.5, 4.0, np.inf])
    y_edges = np.array([0.0, 0.3, 1.1, 1.9, 2.0])
    masses = hit_under_bin_masses(x, s_edges, y_edges)
    rows = np.diff(erf(s_edges / math.sqrt(2.0 * x)))
    cols = np.diff(2.0 / math.pi * np.arcsin(np.sqrt(y_edges / x)))
    assert np.max(np.abs(masses.sum(axis=1) - rows)) <= 1e-14
    assert np.max(np.abs(masses.sum(axis=0) - cols)) <= 1e-14


def test_spike_refined_bin_edges():
    edges = spike_refined_bin_edges(8.5, 60)
    assert edges.size == 61
    assert edges[0] == 0.0 and edges[-1] == 8.5
    assert np.all(np.diff(edges) > 0.0)
    widths = np.diff(edges)
    assert widths[0] < widths[-1] / 10.0  # refined near zero


def test_headline_validation_passes_with_ks():
    # default configuration of the validate command: 1e4 samples at level 14
    # against the analytic density, including the KS comparison
    n_max = 14
    grid = DyadicGrid(n_max, -(2**n_max) - 164, 14 * 2**n_max)
    from goupsim.montecarlo_validation import validate_basepoints

    result = validate_basepoints(StableHalf(), 8.0, 1.0, 10**4, grid, RngSeed(20230915), bins=60)
    report = result.report
    # a correct sampler fails L1 <= 0.10 at n = 10^4 and 60 bins in none of
    # 10^5 multinomial draws over the exact bin masses, and the KS and
    # concentration verdicts 1% of the time each: at most 2% together
    assert report["pass"] is True
    assert report["l1"] <= 0.10
    assert report["ks"] <= report["ks_threshold"]
    assert 0.98 <= report["mass"] <= 1.02


def test_ks_threshold_counts_the_samples_it_scores():
    # the 1% critical value is 1.628/sqrt(m) for the m samples KS scores:
    # 6 of these 2000 paths leave the window, and the threshold read
    # 1.628/sqrt(2000) = 0.036403 for the 1994 kept
    from goupsim.montecarlo_validation import validate_basepoints

    grid = DyadicGrid.spanning(14, -1.01, 8.0)
    result = validate_basepoints(StableHalf(), 8.0, 1.0, 2000, grid, RngSeed(31), bins=12)
    (ks,) = [c for c in result.checks if c.name == "ks"]
    assert result.report["n_failed"] == 6
    assert ks.threshold == 1.628 / math.sqrt(1994)


def test_validation_scores_on_the_exact_cdf():
    # L1 from the exact bin masses, KS from F at the samples, mass and the
    # exported tables on the density command's grid
    from goupsim.ig_analytics import basepoint_cdf, default_z_grid
    from goupsim.montecarlo_validation import validate_basepoints

    x0, t0 = 4.0, 1.0
    grid = DyadicGrid(9, -(2**9) - 8, 10 * 2**9)
    result = validate_basepoints(StableHalf(), x0, t0, 300, grid, SEED, bins=12)
    report, h = result.report, result.hist
    F = basepoint_cdf(x0, t0, h.edges)
    assert report["l1"] == float(np.sum(np.abs(h.counts / h.n - np.diff(F))))
    xs = np.sort(result.samples.values)
    Fs = basepoint_cdf(x0, t0, xs)
    n = xs.size
    ks = max(np.max(np.arange(1, n + 1) / n - Fs), np.max(Fs - np.arange(n) / n))
    assert report["ks"] == ks
    grid = default_z_grid(x0)
    assert np.array_equal(result.curve.z, grid)
    assert np.array_equal(result.curve.F, basepoint_cdf(x0, t0, grid))
    assert report["mass"] == result.curve.F[-1] - result.curve.F[0]


def test_concentration_verdict_is_a_one_percent_binomial_test():
    # a correct sampler's bin-0 count is Binomial(n, mass): the shortfall
    # below its 1% quantile is positive with probability below 1% at any n,
    # and a sample with half the bin-0 mass falls short almost surely
    from scipy.stats import binom

    from goupsim.montecarlo_validation import concentration_shortfall

    for n, mass in [(50, 0.3), (200, 0.0175), (2500, 0.01322), (10**4, 0.01322), (10**6, 1e-4)]:
        q = concentration_shortfall(0, n, mass)
        assert q == binom.ppf(0.01, n, mass)
        assert binom.cdf(q - 1, n, mass) < 0.01 <= binom.cdf(q, n, mass)
        assert concentration_shortfall(q, n, mass) == 0
        assert concentration_shortfall(q - 1, n, mass) == 1
    q = concentration_shortfall(0, 10**4, 0.01322)
    assert binom.cdf(q - 1, 10**4, 0.01322 / 2) > 0.999


def test_concentration_verdict_scores_bin_zero():
    from goupsim.ig_analytics import basepoint_cdf
    from goupsim.montecarlo_validation import concentration_shortfall, validate_basepoints

    grid = DyadicGrid(10, -(2**10) - 8, 14 * 2**10)
    result = validate_basepoints(StableHalf(), 8.0, 1.0, 2500, grid, SEED, bins=40)
    h = result.hist
    mass = float(np.diff(basepoint_cdf(8.0, 1.0, h.edges[:2]))[0])
    (check,) = [c for c in result.checks if c.name == "concentration"]
    assert check.value == concentration_shortfall(int(h.counts[0]), h.n, mass)
    assert check.passed is result.report["concentration_pass"] is (check.value <= 0)


def _samplers_with_one_at(x0):
    """The sampler, and one that moves its sample 7 to ``x0``, each with the
    number of samples at ``x0`` or above that a correct sampler's run has."""
    from dataclasses import replace

    sample = montecarlo_validation.sample_basepoints

    def one_at_the_level(*args):
        samples = sample(*args)
        values = samples.values.copy()
        values[7] = x0
        return replace(samples, values=values)

    return [(sample, 0.0), (one_at_the_level, 1.0)]


def test_support_verdict_counts_samples_at_or_above_the_level(monkeypatch):
    # the base point lies strictly below the level: a correct sampler has no
    # sample at x0 or above, and one sample equal to x0 fails the verdict
    from goupsim.montecarlo_validation import validate_basepoints

    x0, t0 = 4.0, 1.0
    run = (300, DyadicGrid(9, -(2**9) - 8, 10 * 2**9), SEED)
    for sampler, above in _samplers_with_one_at(x0):
        monkeypatch.setattr(montecarlo_validation, "sample_basepoints", sampler)
        result = validate_basepoints(StableHalf(), x0, t0, *run, bins=12)
        (check,) = [c for c in result.checks if c.name == "support"]
        assert check.value == result.report["support"] == above
        assert check.passed is result.report["support_pass"] is (above == 0.0)
    assert result.report["pass"] is False


@pytest.mark.parametrize(
    "spec", [GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0)], ids=["gamma", "poisson"]
)
def test_support_verdict_needs_no_law(monkeypatch, spec):
    # the Gamma and Poisson runs had no verdict at all and passed whatever
    # they sampled; the support rule holds for every family
    from goupsim.montecarlo_validation import validate_basepoints

    x0, t0 = 4.0, 1.0
    run = (300, DyadicGrid(9, -4 * 2**9, 10 * 2**9), SEED)
    for sampler, above in _samplers_with_one_at(x0):
        monkeypatch.setattr(montecarlo_validation, "sample_basepoints", sampler)
        result = validate_basepoints(spec, x0, t0, *run, bins=12)
        assert [c.name for c in result.checks] == ["support"]
        assert result.report["support"] == above
        assert result.report["support_pass"] is result.report["pass"] is (above == 0.0)
        assert result.curve is None and len(result.report["skipped"]) == 1


def test_ks_fails_a_sample_of_equal_values(monkeypatch):
    # a sampler of this continuous law that returns one value 50 times is
    # broken: KS lies at least 1/2 from the law, above 1.628 / sqrt(50), and
    # must fail rather than be skipped
    from dataclasses import replace

    from goupsim.montecarlo_validation import validate_basepoints

    x0, t0 = 4.0, 1.0
    run = (50, DyadicGrid(9, -(2**9) - 8, 10 * 2**9), SEED)
    sample = montecarlo_validation.sample_basepoints

    def all_equal(*args):
        samples = sample(*args)
        return replace(samples, values=np.full(samples.values.size, 0.5))

    monkeypatch.setattr(montecarlo_validation, "sample_basepoints", all_equal)
    result = validate_basepoints(StableHalf(), x0, t0, *run, bins=12)
    (check,) = [c for c in result.checks if c.name == "ks"]
    assert check.value == result.report["ks"] >= 0.5
    assert check.passed is result.report["ks_pass"] is False
    assert result.report["skipped"] == []
    assert result.report["pass"] is False


def test_exports(tmp_path):
    out = sample_basepoints(StableHalf(), 2.0, 0.5, 20, DyadicGrid(8, -2**8, 6 * 2**8), SEED)
    f = tmp_path / "samples.csv"
    write_samples_csv(out, f)
    lines = f.read_text().splitlines()
    assert lines[0] == "i,z" and len(lines) == 21

    h = histogram(out.values, np.linspace(-1.0, 2.0, 7))
    g = tmp_path / "hist.csv"
    write_histogram_csv(h, g)
    lines = g.read_text().splitlines()
    assert lines[0] == "left,right,count" and len(lines) == 7
