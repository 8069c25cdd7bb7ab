import hashlib

import numpy as np
import pytest
from scipy import stats
from scipy.special import bdtr, betainc, erfc, gammainc, gammaln, ndtr, pdtr

from goupsim import bridge_tree, montecarlo_validation
from goupsim.bridge_tree import (
    BACKWARD,
    FORWARD,
    hit_index,
    philox4x64,
    split,
    top_jumps,
    tree_key,
    values_at,
)
from goupsim.goupillaud import basepoint
from goupsim.ig_analytics import basepoint_cdf, bridge_density
from goupsim.levy_paths import (
    DyadicGrid,
    GammaDrift,
    LevyPathSample,
    PoissonDrift,
    RngSeed,
    StableHalf,
    jump_quantile,
)
from goupsim.montecarlo_validation import McConfig, ks_distance, sample_basepoints
from quadrature import QuadratureSpec, integrate_adaptive

SEED = RngSeed(97531)
KEY = tree_key(SEED)
_MASK64 = (1 << 64) - 1
STABLE = StableHalf()
GAMMA = GammaDrift(1.0, 1.0, 1.0)
POISSON = PoissonDrift(1.0, 1.0, 1.0)
JUMP_FAMILIES = [pytest.param(GAMMA, id="gamma"), pytest.param(POISSON, id="poisson")]


def marginal_cdf(t):
    """CDF of the stable-1/2 increment L(t) =d t^2 / Z^2."""
    return lambda v: erfc(t / np.sqrt(2.0 * np.asarray(v)))


def split_drawn(spec, side, sample, depth, index, v):
    """The split of the depth-``depth`` nodes ``index``, each from its own
    keyed uniform (broadcast), its block hashed on its own."""
    block, code, word = bridge_tree._slot(depth + 1, index)
    u = bridge_tree._unit(np.choose(word, bridge_tree._block(KEY, code, block, side, sample)))
    return split(spec, depth, v, u)


def test_philox_matches_numpy_bitwise():
    # numpy's Philox adds 1 to its counter before each block of 4 words, so
    # its first block under counter c is philox4x64(c + 1); the counters
    # include carries across all four words
    rng = np.random.default_rng(11)
    counters = [[_MASK64, _MASK64, _MASK64, 7], [_MASK64, 3, 0, 0]]
    counters += [[int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64)] for _ in range(30)]
    keys = rng.integers(0, 2**64, (len(counters), 2), dtype=np.uint64)
    plus_one = []
    for ctr in counters:
        c = (sum(w << (64 * i) for i, w in enumerate(ctr)) + 1) & ((1 << 256) - 1)
        plus_one.append([(c >> (64 * i)) & _MASK64 for i in range(4)])
    for ctr, key, nxt in zip(counters, keys, plus_one):
        want = np.random.Philox(counter=np.array(ctr, dtype=np.uint64), key=key).random_raw(4)
        got = philox4x64([np.uint64(w) for w in nxt], key)
        assert np.array_equal(got, want)
    # one vectorised call over many counters under one key
    key = keys[0]
    batch = philox4x64(np.array(plus_one, dtype=np.uint64).T, key)
    for i, ctr in enumerate(counters):
        want = np.random.Philox(counter=np.array(ctr, dtype=np.uint64), key=key).random_raw(4)
        assert np.array_equal(batch[:, i], want)


def test_tree_key_is_purpose_tagged():
    from numpy.random import SeedSequence

    assert tree_key(RngSeed(5, 2)).dtype == np.uint64
    assert not np.array_equal(tree_key(RngSeed(5, 0)), tree_key(RngSeed(5, 1)))
    # the path blocks' key (stream_id, direction, block) = (0, 0, 0) differs
    block = SeedSequence(5, spawn_key=(0, 0, 0)).generate_state(2, np.uint64)
    assert not np.array_equal(tree_key(RngSeed(5)), block)


def test_every_draw_has_its_own_word():
    # the (counter, word) pairs of a sample's top nodes 0 .. 11 and of the
    # splits of every node below top nodes 0 .. 2 down to depth 5, so of
    # every descent to a level-6 leaf there, on both sides, are all distinct
    level, slots = 6, []
    for side in (FORWARD, BACKWARD):
        block, code, word = bridge_tree._slot(0, np.arange(12))
        slots += [(b, code << 1 | side, w) for b, w in zip(block.tolist(), word.tolist())]
        for depth in range(level):
            node = np.arange(3 << depth)
            block, code, word = bridge_tree._slot(depth + 1, node)
            word = np.broadcast_to(word, node.shape)
            slots += [(b, code << 1 | side, w) for b, w in zip(block.tolist(), word.tolist())]
    assert len(slots) == 2 * (12 + 3 * (2**level - 1))
    assert len(set(slots)) == len(slots)


def test_word_map_reads_the_raw_blocks():
    # top node 6 is word 2 of block 1 under code 0; the depth-2 node 2 splits
    # by word 0 of its own block under code 3, and its children, the depth-3
    # nodes 4 and 5, by words 1 and 2 of that block
    sample, v = 17, np.array([0.25])

    def unit(index, code, word):
        w = philox4x64((index, code << 1 | BACKWARD, sample, 0), KEY)[word]
        return ((w >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53

    assert tuple(map(int, bridge_tree._slot(0, 6))) == (1, 0, 2)
    assert tuple(map(int, bridge_tree._slot(4, 5))) == (2, 3, 2)
    want = jump_quantile(STABLE, 1.0, unit(1, 0, 2))
    assert top_jumps(STABLE, KEY, BACKWARD, sample, 6, 7)[0] == want
    assert top_jumps(STABLE, KEY, BACKWARD, sample, 3, 9)[3] == want
    for depth, node, word in ((2, 2, 0), (3, 4, 1), (3, 5, 2)):
        got = split_drawn(STABLE, BACKWARD, sample, depth, node, v)
        want = split(STABLE, depth, v, unit(2, 3, word))
        assert np.array_equal(got, want), (depth, node)
    # a depth-0 split is word 0 of the top node's own block under code 1
    got = split_drawn(STABLE, BACKWARD, sample, 0, 6, v)
    assert np.array_equal(got, split(STABLE, 0, v, unit(6, 1, 0)))


def test_split_law_is_the_exact_bridge():
    # the split's CDF  P(left <= v r) = Phi((2r-1)/sqrt(r(1-r)) h/sqrt(v))
    # against a quadrature of f_h(u) f_h(v-u) / f_2h(v), then the drawn
    # halves against that CDF
    spec = QuadratureSpec(1e-13, 1e-11, 2000)
    n = 20000
    sample = np.arange(n)
    for depth, v in ((0, 0.3), (0, 4.0), (3, 1e-3), (9, 5e-7)):
        h = 2.0 ** -(depth + 1)

        def cdf(u):
            r = np.asarray(u) / v
            return ndtr((2.0 * r - 1.0) / np.sqrt(r * (1.0 - r)) * h / np.sqrt(v))

        for r in (0.05, 0.2, 0.5, 0.7, 0.97):
            want = integrate_adaptive(
                lambda u: bridge_density(h, 2.0 * h, v, u), 0.0, r * v, spec
            ).value
            assert abs(cdf(r * v) - want) <= 1e-9
        left, right = split_drawn(STABLE, FORWARD, sample, depth, 5, np.full(n, v))
        assert np.all(left >= 0.0) and np.all(right >= 0.0)
        assert np.max(np.abs(left + right - v)) <= 4e-16 * v
        # fails a correct sampler with probability 0.1%, 0.4% over the cases
        assert stats.kstest(left, cdf).pvalue > 1e-3


def test_split_halves_follow_the_marginal():
    # a top node's L(1) splits into two L(1/2) halves
    n = 50000
    sample = np.arange(n)
    v = top_jumps(STABLE, KEY, BACKWARD, sample, 3, 4)[:, 0]
    # each KS test fails a correct sampler with probability 0.1%, the three
    # together at most 0.3% of the time
    assert stats.kstest(v, marginal_cdf(1.0)).pvalue > 1e-3
    left, right = split_drawn(STABLE, BACKWARD, sample, 0, 3, v)
    for half in (left, right):
        assert stats.kstest(half, marginal_cdf(0.5)).pvalue > 1e-3


def node_sums(spec, n: int, depths: int):
    """Jump sums of one node per sample at depths 0 .. depths, down a path
    picked by the sample's bits."""
    sample = np.arange(n)
    node = np.full(n, 2)
    v = top_jumps(spec, KEY, FORWARD, sample, 2, 3)[:, 0]
    sums = [v]
    for depth in range(depths):
        left, right = split_drawn(spec, FORWARD, sample, depth, node, v)
        go_right = (sample * 2654435761 >> depth) & 1 == 1
        v = np.where(go_right, right, left)
        node = 2 * node + go_right
        sums.append(v)
    return sums


def test_node_increments_follow_the_marginal_at_every_level():
    # the node sum at depth d follows L(2^-d); each depth's KS test fails a
    # correct sampler with probability 0.1%, the 12 together at most 1.2%
    for depth, v in enumerate(node_sums(STABLE, 20000, 12)):
        if depth:
            assert stats.kstest(v, marginal_cdf(2.0**-depth)).pvalue > 1e-3, depth


def inner_ks_pvalue(p) -> float:
    """KS p-value of the probability transforms ``p`` of draws against the
    uniform law, taken only at ``0 < p < 1``.  A Gamma half below the
    smallest normal float is 0 and a half that leaves its sibling 0 rounds to
    the whole sum, so their transforms are exactly 0 or 1; their true values
    lie below or above every other one, so they keep their ranks and the
    statistic at the other points is what it would be without rounding."""
    p = np.sort(np.asarray(p))
    n = p.size
    i = np.arange(1, n + 1)[(p > 0.0) & (p < 1.0)]
    inner = p[(p > 0.0) & (p < 1.0)]
    d = max(np.max(i / n - inner), np.max(inner - (i - 1) / n))
    return stats.kstwo.sf(d, n)


def atom_ks_pvalue(counts, cdf) -> float:
    """KS p-value of integer draws against the integer law ``cdf``: both
    CDFs jump only at the integers, so the sup of their difference is taken
    there, and the continuous law's p-value is conservative."""
    atoms = np.arange(int(counts.max()) + 1)
    ecdf = np.searchsorted(np.sort(counts), atoms, side="right") / counts.size
    return stats.kstwo.sf(np.max(np.abs(ecdf - cdf(atoms))), counts.size)


def log_gamma_pdf(a, u):
    return (a - 1.0) * np.log(u) - u - gammaln(a)


def log_poisson_pmf(lam, k):
    return k * np.log(lam) - lam - gammaln(k + 1.0)


@pytest.mark.parametrize(
    "spec, cases",
    [
        # (depth, jump sum); Gamma shapes a = 2^-(depth+1) down to 2^-17
        (GAMMA, [(0, 0.3), (1, 4.0), (3, 1e-3), (13, 0.7), (16, 2.0)]),
        (POISSON, [(0, 1.0), (0, 4.0), (6, 2.0)]),
        (PoissonDrift(2000.0, 1.0, 1.0), [(0, 2000.0), (0, 1917.0), (4, 131.0)]),
    ],
    ids=["gamma", "poisson", "poisson-2000"],
)
def test_jump_split_law_is_the_exact_conditional(spec, cases):
    # the closed-form split law against f_h(u) f_h(v-u) / f_2h(v), then the
    # drawn left halves against that law, by KS p-values that are
    # conservative: each fails a correct sampler at most 0.1% of the time
    n = 20000
    sample = np.arange(n)
    for depth, v in cases:
        left, right = split_drawn(spec, FORWARD, sample, depth, 5, np.full(n, v))
        assert np.all(left >= 0.0) and np.all(right >= 0.0)
        if isinstance(spec, PoissonDrift):
            lam = spec.intensity * 2.0 ** -(depth + 1)
            k = np.arange(v + 1.0)
            exact = np.exp(
                log_poisson_pmf(lam, k) + log_poisson_pmf(lam, v - k) - log_poisson_pmf(2 * lam, v)
            )
            # at v = 2000 the log-pmfs, near gammaln(2001) = 1.3e4, carry
            # absolute errors near 1e-12
            assert np.max(np.abs(np.cumsum(exact) - bdtr(k.astype(int), int(v), 0.5))) <= 1e-10
            assert np.array_equal(left + right, np.full(n, v))
            assert np.all(left == np.round(left))
            assert atom_ks_pvalue(left, lambda k: bdtr(k, int(v), 0.5)) > 1e-3, (depth, v)
            continue
        a = spec.shape_rate * 2.0 ** -(depth + 1)
        u = v * np.array([1e-9, 0.01, 0.3, 0.5, 0.8, 0.999])
        exact = log_gamma_pdf(a, u) + log_gamma_pdf(a, v - u) - log_gamma_pdf(2 * a, v)
        beta = stats.beta.logpdf(u / v, a, a) - np.log(v)
        assert np.max(np.abs(exact - beta)) <= 1e-9
        assert np.max(np.abs(left + right - v)) <= 4e-16 * v
        p = np.where(left <= right, betainc(a, a, left / v), 1.0 - betainc(a, a, right / v))
        assert inner_ks_pvalue(p) > 1e-3, (depth, v)


@pytest.mark.parametrize("spec", JUMP_FAMILIES)
def test_jump_node_sums_follow_the_marginal_at_every_level(spec):
    # the jump sum of a node at depth d follows L(2^-d) - drift 2^-d; each
    # depth's conservative KS p-value fails a correct sampler at most 0.1% of
    # the time, the 13 depths together at most 1.3%
    for depth, v in enumerate(node_sums(spec, 20000, 12)):
        if isinstance(spec, PoissonDrift):
            lam = spec.intensity * 2.0**-depth
            assert atom_ks_pvalue(v / spec.jump_size, lambda k: pdtr(k, lam)) > 1e-3, depth
        else:
            p = gammainc(spec.shape_rate * 2.0**-depth, v / spec.scale)
            assert inner_ks_pvalue(p) > 1e-3, depth


def test_values_are_shared_across_levels():
    sample = np.repeat(np.arange(6), 50)
    k = np.tile(np.arange(-25, 25) * 3, 6)
    fine = values_at(STABLE, KEY, 10, 4 * k, sample)
    coarse = values_at(STABLE, KEY, 8, k, sample)
    assert np.array_equal(fine, coarse)
    assert np.all(coarse[k == 0] == 0.0)
    assert np.all(np.sign(coarse) == np.sign(k))


def expand_side(spec, side: int, sample: int, level: int, count: int) -> np.ndarray:
    """Values of one side at grid indices 0 .. count 2^level, every node of
    every depth split breadth first."""
    drift = 0.0 if isinstance(spec, StableHalf) else spec.drift
    jumps = top_jumps(spec, KEY, side, sample, 0, count)
    values = np.concatenate([[0.0], np.cumsum(jumps + drift)])
    sums = jumps
    for depth in range(level):
        left, right = split_drawn(spec, side, sample, depth, np.arange(sums.size), sums)
        finer = np.empty(2 * values.size - 1)
        finer[0::2] = values
        finer[1::2] = np.minimum(values[:-1] + (drift * 2.0 ** -(depth + 1) + left), values[1:])
        values = finer
        sums = np.column_stack([left, right]).ravel()
    return values


# (x0, t0, cfg); a jump family's path climbs at about 2 per unit of time,
# so its shifted times are brought near 0 by a larger t0, and the window
# reaches down to -4
DESCENT_CASES = {
    "": [
        (2.0, 1.0, McConfig(40, DyadicGrid(8, -2 * 2**8, 6 * 2**8), SEED)),
        (8.0, 1.0, McConfig(40, DyadicGrid(10, -(2**10) - 3, 14 * 2**10 + 5), SEED)),
    ],
    "jumps": [
        (2.0, 1.5, McConfig(40, DyadicGrid(8, -2 * 2**8, 6 * 2**8), SEED)),
        (8.0, 4.0, McConfig(40, DyadicGrid(10, -4 * 2**10 - 3, 14 * 2**10 + 5), SEED)),
    ],
}


@pytest.mark.parametrize(
    "spec, x0, t0, cfg",
    [
        pytest.param(spec, x0, t0, cfg, id=f"{family}{x0}-cfg{i}")
        for family, spec, cases in (
            ("", STABLE, DESCENT_CASES[""]),
            ("gamma-", GAMMA, DESCENT_CASES["jumps"]),
            ("poisson-", POISSON, DESCENT_CASES["jumps"]),
        )
        for i, (x0, t0, cfg) in enumerate(cases)
    ],
)
def test_descent_matches_breadth_first_expansion(spec, x0, t0, cfg):
    # the sampler descends into two nodes per sample; expanding every node
    # of the same keyed tree and taking the base point through the path
    # operations must give the same bits
    got = sample_basepoints(spec, x0, t0, cfg)
    assert got.n_failed == 0
    assert np.any(got.values < 0.0) and np.any(got.values > 0.0)
    n, k_min, k_max = cfg.grid.level, cfg.grid.k_min, cfg.grid.k_max
    direct = []
    for i in range(cfg.n_samples):
        fwd = expand_side(spec, FORWARD, i, n, -(-k_max >> n))[1 : k_max + 1]
        bwd = expand_side(spec, BACKWARD, i, n, -(-(-k_min) >> n))[1 : 1 - k_min]
        values = np.concatenate([-bwd[::-1], [0.0], fwd])
        assert np.all(np.diff(values) >= 0.0)
        path = LevyPathSample(DyadicGrid(n, k_min, k_max), values, SEED, spec)
        direct.append(basepoint(path, x0, t0))
        hit = hit_index(spec, KEY, n, x0, k_max, [i])[0]
        assert fwd[hit - 1] >= x0 > (fwd[hit - 2] if hit > 1 else 0.0)
    assert np.array_equal(got.values, np.array(direct))


def test_hit_index_reports_unreached_samples():
    # level 8 is rarely reached within one time unit
    hit = hit_index(STABLE, KEY, 6, 8.0, 64, np.arange(200))
    reached = hit > 0
    assert 0 < reached.sum() < 200 and np.all(hit <= 64)
    ends = values_at(STABLE, KEY, 6, np.full(200, 64), np.arange(200))
    assert np.array_equal(reached, ends >= 8.0)


def test_hit_index_past_depth_62_stays_in_the_window():
    # past depth 62 the node of a crossing beyond the window doubled past
    # 2^63 and wrapped to a negative leaf, read as a hit: 31 and 26 of these
    # 200 samples did so.  A stable-1/2 path reaches 8 within 2^40 steps of level
    # 64, 2^-24 time units, with probability 1.7e-8, so a correct search
    # fails this 3.4e-6 of the time
    for level in (64, 1022):
        hit = hit_index(STABLE, KEY, level, 8.0, 2**40, np.arange(200))
        assert np.all(hit == 0), level


def values_by_levels(spec, level: int, k, sample):
    """Path values at grid indices ``k``, drawn node by node: the top nodes
    one Philox call per node and summed in order, then one call per level
    for the split on the way down, each node's block hashed on its own.
    Also returns how many splits met a node with no jumps."""
    k, sample = np.asarray(k), np.asarray(sample)
    side = (k < 0).astype(np.int64)
    leaf = np.maximum(np.abs(k) - 1, 0)
    top = np.where(k == 0, -1, leaf >> level)
    drift = spec.drift
    total, lo, hi, v = (np.zeros(k.size) for _ in range(4))
    for j in range(int(top.max()) + 1):
        jumps = top_jumps(spec, KEY, side, sample, j, j + 1)[:, 0]
        at = top == j
        lo[at], v[at] = total[at], jumps[at]
        total = total + (jumps + drift)
        hi[at] = total[at]
    node, empty = np.maximum(top, 0), 0
    for depth in range(level):
        empty += int(np.sum((v == 0.0) & (k != 0)))
        left, right = split_drawn(spec, side, sample, depth, node, v)
        mid = np.minimum(lo + (drift * 2.0 ** -(depth + 1) + left), hi)
        go_right = (leaf >> (level - depth - 1)) & 1 == 1
        node = 2 * node + go_right
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        v = np.where(go_right, right, left)
    return np.where(k == 0, 0.0, np.where(side == BACKWARD, -hi, hi)), empty


@pytest.mark.parametrize("batch", [None, 1, 7], ids=["default", "batch1", "batch7"])
@pytest.mark.parametrize(
    "spec", [STABLE, GAMMA, GammaDrift(0.05, 2.0, 0.5), POISSON],
    ids=["stable", "gamma", "gamma-sparse", "poisson"],
)
def test_values_at_equals_the_per_level_descent(monkeypatch, spec, batch):
    # values_at hashes the whole descent in a few Philox calls; every value
    # must equal the node-by-node and level-by-level draw bitwise, on both
    # sides, at k = 0, across several top nodes and through nodes with no
    # jumps, whatever the batch size
    if batch is not None:
        monkeypatch.setattr(bridge_tree, "_HASH_BATCH", batch)
    rng = np.random.default_rng(2024)
    empty = 0
    for level in (0, 1, 6, 11):
        k = rng.integers(-5 * 2**level, 9 * 2**level + 1, 240)
        k[:4] = [0, 1, -1, 9 * 2**level]
        k[::11] = 0
        sample = rng.integers(0, 60, k.size)
        want, n_empty = values_by_levels(spec, level, k, sample)
        empty += n_empty
        for rows in (slice(None), slice(0, 3), slice(5, 6)):  # 3 rows: 2 blocks per call at batch 7
            got = values_at(spec, KEY, level, k[rows], sample[rows])
            assert np.array_equal(got, want[rows]), (level, rows)
        assert np.all(np.sign(want) == np.sign(k))
    if not isinstance(spec, StableHalf):
        assert empty > 0  # the jump families split nodes with no jumps


def test_values_at_refuses_a_top_node_that_overflows():
    # a drift near the largest double overflows the sum at the second node
    spec = GammaDrift(1.0, 1.0, 1e308)
    with pytest.raises(RuntimeError, match=r"^sample 4: backward top node 1 ends at inf"):
        values_at(spec, KEY, 2, np.array([3, -8, 2]), np.array([3, 4, 5]))


def test_output_is_the_same_for_any_chunk_size(monkeypatch):
    cfg = McConfig(300, DyadicGrid(12, -(2**12) - 40, 14 * 2**12), RngSeed(8))
    for spec in (STABLE, GAMMA, POISSON):
        monkeypatch.undo()
        whole = sample_basepoints(spec, 8.0, 1.0, cfg)
        monkeypatch.setattr(montecarlo_validation, "_TREE_CHUNK", 7)
        monkeypatch.setattr(bridge_tree, "_TOP_BATCH", 3)
        monkeypatch.setattr(bridge_tree, "_HASH_BATCH", 5)
        chunked = sample_basepoints(spec, 8.0, 1.0, cfg)
        assert np.array_equal(whole.values, chunked.values), spec
        assert np.array_equal(whole.indices, chunked.indices), spec


# sha256 of the indices and values of 500 headline base points, re-pinned
# when the top nodes and odd-depth splits moved to words 1-3 of their
# blocks; any change to the key, the counter layout, the uniform or the
# split formula changes it
GOLDEN = "c0859184b57f65ba55d005c9bd64533a87cb9f29cb43c3c28ddf560986419cb2"


def test_stable_half_basepoints_golden_digest():
    cfg = McConfig(500, DyadicGrid(14, -(2**14) - 164, 14 * 2**14), RngSeed(20230915))
    out = sample_basepoints(StableHalf(), 8.0, 1.0, cfg)
    h = hashlib.sha256()
    h.update(out.indices.astype(np.int64).tobytes())
    h.update(out.values.tobytes())
    assert out.n_failed == 0
    assert h.hexdigest() == GOLDEN


def test_level_24_headline_run_passes_ks():
    # the headline law at level 24: the block walk would sum about 2.3e8
    # increments per sample to find the hit
    n_max, n = 24, 10**4
    cfg = McConfig(n, DyadicGrid(n_max, -(2**n_max) - 2**12, 14 * 2**n_max), RngSeed(24))
    out = sample_basepoints(StableHalf(), 8.0, 1.0, cfg)
    assert out.n_failed == 0
    assert np.all(out.values < 8.0)
    ks = ks_distance(out.values, lambda z: basepoint_cdf(8.0, 1.0, z))
    # 1.628 is the Kolmogorov law's 99% quantile: a correct sampler fails
    # this 1% of the time
    assert ks <= 1.628 / np.sqrt(n)



# sha256 of the indices and values of 500 Gamma(1,1,1) and Poisson(1,1,1)
# base points at the validate defaults (x0 = 8, t0 = 1, level 14), pinned
# when these families moved onto the tree and re-pinned with ``GOLDEN``
JUMP_GOLDEN = {
    "gamma": "368211c0b1a58fa9fe34ef84a6ed1a10b748072fdc4c1207f8bceb6eed0d9f81",
    "poisson": "a3c56c93564e1f8b14158edb50ee495ac449e9069157ecb0f72f3f89e1fe2395",
}


@pytest.mark.parametrize(
    "family, spec", [("gamma", GAMMA), ("poisson", POISSON)], ids=["gamma", "poisson"]
)
def test_jump_family_basepoints_golden_digest(family, spec):
    cfg = McConfig(500, DyadicGrid(14, -(2**14) - 164, 14 * 2**14), RngSeed(20230915))
    out = sample_basepoints(spec, 8.0, 1.0, cfg)
    h = hashlib.sha256()
    h.update(out.indices.astype(np.int64).tobytes())
    h.update(out.values.tobytes())
    assert out.n_failed == 0
    assert h.hexdigest() == JUMP_GOLDEN[family]
