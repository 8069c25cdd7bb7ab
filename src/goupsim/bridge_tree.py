"""Levy paths as keyed dyadic bridge trees, sampled coarse to fine.

Each side of a path (forward from ``t = 0``, or backward, where the side's
value at time ``s >= 0`` is ``-x(-s)``) is a row of unit-length top nodes.
A node carries its jump sum ``v``, the part of its increment beyond the
deterministic ``drift * length``.  Top node ``j`` covers ``(j, j+1]`` and its
increment ``L(1) = v + drift`` comes from the unit-time quantile of one
uniform, ``v = levy_paths.jump_quantile(spec, 1, u)``, the same law the
eager path builds use (stable-1/2 has no drift).  The side's values at
the integers are the running sum of those increments.  A node of length
``2h`` splits its jump sum into two halves of length ``h`` by one exact
draw from the law of the left half given ``v``,
``f_h(u) f_h(v-u) / f_2h(v)`` (:func:`split`): a closed-form bridge for
stable-1/2, Beta(``shape_rate h``, ``shape_rate h``) for Gamma (Avramidis,
L'Ecuyer & Tremblay, WSC 2003; Ribeiro & Webber, J. Comput. Finance 7, 2004)
and Binomial(count, 1/2) for the Poisson count.  A node with no jumps splits
into two without a draw.  The value at a node's midpoint is
``min(lo + (drift h + left), hi)``, with ``lo`` and ``hi`` the values at its
ends, so every dyadic time has one value, shared by every level, and the
values never decrease.

Every uniform is the top 53 bits of one 64-bit word of Philox4x64-10
(Salmon et al., SC'11), computed here for whole arrays of counters at once.
The key comes from the run's seed under the purpose tag ``PURPOSE``; the
counter of a draw is ``(node index, code << 1 | side, sample, 0)``, where
``code`` is 0 for a top node's increment and ``d + 1`` for the split of a
node at depth ``d``, the same for every family.  Any node of any sample can
therefore be drawn on its own, in any order, with bitwise the same value.  A
search that knows which node it needs (the one holding a crossing, or a grid
time) descends into that node alone: a level-n value costs at most ``n``
draws, not the ``2^n`` increments of a unit of time.  A crossing is found
level by level, since each split's node depends on the one before, so each
level is one Philox call.  A grid time's descent is known from its index
before the first draw, so all of its counters, the top nodes up to it and
the split at every depth, are hashed together, ``_HASH_BATCH`` at a time:
one call's fixed numpy cost, a few hundred microseconds, is then spread
over thousands of counters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.random import SeedSequence
from scipy.special import bdtr, betaincinv, ndtri

from .levy_paths import GammaDrift, PoissonDrift, ProcessSpec, RngSeed, jump_quantile

__all__ = [
    "PURPOSE",
    "FORWARD",
    "BACKWARD",
    "tree_key",
    "philox4x64",
    "top_jumps",
    "split",
    "hit_index",
    "values_at",
]

#: spawn-key tag of the tree's Philox key, apart from every path stream
#: (``levy_paths.PATH_PURPOSE``)
PURPOSE = 0x74726565  # "tree"

#: side bit of a counter
FORWARD = 0
BACKWARD = 1

#: top nodes drawn per pass of a scan
_TOP_BATCH = 4

#: counters hashed per Philox call where every counter is known before the
#: first draw: a call's fixed numpy cost, a few hundred us, is spread over
#: this many, and its temporaries stay near half a MB
_HASH_BATCH = 8192

# Philox4x64 round multipliers and key (Weyl) increments, as in Random123
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)

#: smallest normal float
_TINY = np.finfo(float).tiny


def tree_key(seed: RngSeed) -> np.ndarray:
    """The two Philox key words of the tree under ``seed``."""
    ss = SeedSequence(seed.root_seed, spawn_key=(seed.stream_id, PURPOSE))
    return ss.generate_state(2, np.uint64)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``m * x``, from 32-bit
    halves: every partial product, and every partial product plus the carry
    word added to it, fits in 64 bits (Warren, Hacker's Delight, 8-2)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LOW32
    x_hi = x >> _32
    t = x_lo * m_lo
    t >>= _32
    t += x_hi * m_lo  # plus the carry of x_lo m_lo
    w = t & _LOW32
    t >>= _32
    x_lo *= m_hi
    w += x_lo  # x_lo m_hi + low half of t
    x_hi *= m_hi
    x_hi += t
    w >>= _32
    x_hi += w
    return x_hi, x * np.uint64(m)


def philox4x64(counter, key) -> np.ndarray:
    """Philox4x64-10 of ``counter`` (4 broadcastable ``uint64`` words) under
    ``key`` (2 words); returns the 4 output words stacked on a new first
    axis.  ``numpy.random.Philox`` adds 1 to its counter before each block of
    4 words, so its first block is this function of ``counter + 1``."""
    c0, c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    k0, k1 = (int(k) for k in key)
    with np.errstate(over="ignore"):  # products wrap modulo 2^64 by design
        for rnd in range(10):
            if rnd:
                k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            hi1 ^= c1
            hi1 ^= np.uint64(k0)
            hi0 ^= c3
            hi0 ^= np.uint64(k1)
            c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack([c0, c1, c2, c3])


def _node_uniforms(key, index, code, side, sample) -> np.ndarray:
    """One uniform per counter ``(index, code << 1 | side, sample, 0)``
    (broadcast): the first output word's top 53 bits, at the midpoint of its
    2^-53 cell, so ``u`` is never 0, 1 or 1/2."""
    index, code, side, sample = (
        np.asarray(a, dtype=np.uint64) for a in (index, code, side, sample)
    )
    word = philox4x64((index, (code << np.uint64(1)) | side, sample, 0), key)[0]
    return ((word >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53


def top_jumps(spec: ProcessSpec, key, side, sample, index) -> np.ndarray:
    """Jump sums ``L(1) - drift`` of the top nodes ``index`` (broadcast), by
    the unit-time quantile of each node's uniform."""
    return jump_quantile(spec, 1.0, _node_uniforms(key, index, 0, side, sample))


def _binomial_half_icdf(n: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest ``k`` with ``u < bdtr(k, n, 1/2)``, by bisection on ``0 .. n``
    (``bdtr(n, n, 1/2) = 1 > u``)."""
    lo, hi = np.zeros_like(n), n.copy()
    rows = np.flatnonzero(hi > 0)
    while rows.size:
        mid = (lo[rows] + hi[rows]) >> 1
        left = u[rows] < bdtr(mid, n[rows], 0.5)
        hi[rows] = np.where(left, mid, hi[rows])
        lo[rows] = np.where(left, lo[rows], mid + 1)
        rows = rows[lo[rows] < hi[rows]]
    return lo


def split(spec: ProcessSpec, depth: int, v, u) -> tuple[np.ndarray, np.ndarray]:
    """Left and right jump sums of depth-``depth`` nodes with jump sums ``v``,
    from one uniform ``u`` each (broadcast), the node's draw under code
    ``depth + 1``.  A node with ``v = 0`` splits into zeros and leaves its
    uniform unused.

    * Stable-1/2: with ``s = ndtri(u) sqrt(v)/h`` the left half is ``v r``,
      ``r = (1 + s/q)/2`` and ``q = sqrt(s^2 + 4)``, because under the bridge
      law the quantity ``(2r - 1)/sqrt(r(1 - r)) h/sqrt(v)`` is standard
      normal.  The smaller half is ``2v / (q (q + |s|))``, the same as
      ``v min(r, 1 - r)`` without the cancellation in ``1 - r`` for large
      ``|s|``.
    * Gamma: the smaller half is ``v betaincinv(a, a, min(u, 1 - u))``, with
      ``a = shape_rate h``; a quotient at or below the smallest normal float
      is 0, as ``betaincinv`` returns that float for every quantile that
      underflows.
    * Either way the smaller half is the right one where ``u > 1/2``, and the
      larger one is ``v`` minus it, so no ``1 - r`` is ever formed.
    * Poisson: the left count is the exact Binomial(count, 1/2) quantile of
      ``u``, the right one the rest.
    """
    v, u = np.broadcast_arrays(np.asarray(v, dtype=float), u)
    live = v > 0.0
    if not live.all():
        left, right = np.zeros(v.shape), np.zeros(v.shape)
        if live.any():
            left[live], right[live] = split(spec, depth, v[live], u[live])
        return left, right
    if isinstance(spec, PoissonDrift):
        n = np.rint(v / spec.jump_size).astype(np.int64)
        k = _binomial_half_icdf(n, u)
        return spec.jump_size * k, spec.jump_size * (n - k)
    if isinstance(spec, GammaDrift):
        a = spec.shape_rate * 2.0 ** -(depth + 1)
        r = betaincinv(a, a, np.minimum(u, 1.0 - u))
        small = v * np.where(r > _TINY, r, 0.0)
    else:
        # an s that overflows (depths near MAX_LEVEL) gives small = 0, the
        # limit: the true smaller half, about h^2/ndtri(u)^2, underflows too
        with np.errstate(over="ignore"):
            s = ndtri(u) * np.sqrt(v) * 2.0 ** (depth + 1)
            q = np.sqrt(s * s + 4.0)
            small = 2.0 * v / (q * (q + np.abs(s)))
    large = v - small
    right_small = u > 0.5
    return np.where(right_small, large, small), np.where(right_small, small, large)


def _refuse_overflow(rows, side, sample, node, hi, v) -> None:
    """Refuse the first of ``rows`` whose top node ``node`` ends at a value,
    or holds a jump sum, that is not finite, naming its sample."""
    bad = ~(np.isfinite(hi[rows]) & np.isfinite(v[rows]))
    if bad.any():
        b = rows[np.argmax(bad)]
        raise RuntimeError(
            f"sample {sample[b]}: {('forward', 'backward')[side[b]]} top node {node[b]} "
            f"ends at {hi[b]:g} with jump sum {v[b]:g}, not finite"
        )


def _first_top_node(
    spec: ProcessSpec, key, side: np.ndarray, sample: np.ndarray, count: int, x0: float
) -> tuple[np.ndarray, ...]:
    """Per sample, the first top node among ``0 .. count-1`` whose right end
    reaches ``x0``, with the values at its ends and its jump sum; node -1
    where none does.

    Top nodes are drawn ``_TOP_BATCH`` at a time for the samples still
    searching, and each batch's sum starts from the running sum carried into
    its first increment, so every value equals one sequential sum.  Values
    never decrease, so an overflow reaches every later node: a found node
    whose right end or jump sum is not finite is refused, naming its sample
    (its left end is at most its right one)."""
    n = sample.size
    drift = spec.drift
    node = np.full(n, -1, dtype=np.int64)
    lo, hi, v = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = np.arange(n)
    carry = np.zeros(n)
    for j0 in range(0, count, _TOP_BATCH):
        if rows.size == 0:
            break
        j = np.arange(j0, min(j0 + _TOP_BATCH, count))
        with np.errstate(over="ignore"):  # an overflow is refused below
            jumps = top_jumps(spec, key, side[rows, None], sample[rows, None], j[None, :])
            cum = jumps + drift
            cum[:, 0] += carry
            np.cumsum(cum, axis=1, out=cum)
        hit = cum >= x0
        found = hit.any(axis=1)
        f = np.flatnonzero(found)
        c = np.argmax(hit[f], axis=1)
        r = rows[f]
        node[r] = j[c]
        hi[r] = cum[f, c]
        v[r] = jumps[f, c]
        _refuse_overflow(r, side, sample, node, hi, v)
        lo[r] = np.where(c > 0, cum[f, c - 1], carry[f])
        carry = cum[~found, -1]
        rows = rows[~found]
    return node, lo, hi, v


def _hashed(key, index, code: int, side, sample) -> np.ndarray:
    """The uniforms of the counters ``(index, code << 1 | side, sample, 0)``
    (equal-length 1-d arrays), ``_HASH_BATCH`` counters per Philox call."""
    u = np.empty(index.size)
    for lo in range(0, index.size, _HASH_BATCH):
        part = slice(lo, lo + _HASH_BATCH)
        u[part] = _node_uniforms(key, index[part], code, side[part], sample[part])
    return u


def _known_tops(
    spec: ProcessSpec, key, side: np.ndarray, sample: np.ndarray, top: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per sample, the values at the ends of its side's top node ``top`` and
    that node's jump sum.

    The nodes ``0 .. top`` of every sample are known before the first draw,
    so they are hashed together (:func:`_hashed`) and summed in one running
    sum per sample, bitwise the batch-carried sums of
    :func:`_first_top_node`.  The samples are taken by descending ``top``:
    those still summing node ``j`` come first, and the counters are laid out
    node by node in that order.  A right end or jump sum that is not finite
    is refused, naming the first such sample."""
    n = top.size
    order = np.argsort(-top, kind="stable")
    reach = np.cumsum(np.bincount(top)[::-1])[::-1]  # samples whose top is >= j
    start = np.cumsum(reach) - reach
    j = np.repeat(np.arange(reach.size), reach)
    row = order[np.arange(j.size) - start[j]]
    total = np.zeros(n)  # the running sums, in ``order``
    lo, v = np.zeros(n), np.zeros(n)
    with np.errstate(over="ignore"):  # an overflow is refused below
        jumps = jump_quantile(spec, 1.0, _hashed(key, j, 0, side[row], sample[row]))
        # rows e .. c-1 of ``order`` end at node j: the last reach[j] - reach[j+1]
        for a, c, e in zip(start.tolist(), reach.tolist(), [*reach[1:].tolist(), 0]):
            inc = jumps[a : a + c]
            lo[order[e:c]] = total[e:c]
            v[order[e:c]] = inc[e:]
            total[:c] += inc + spec.drift
    hi = np.empty(n)
    hi[order] = total
    _refuse_overflow(np.arange(n), side, sample, top, hi, v)
    return lo, hi, v


def _known_splits(key, level: int, leaf: np.ndarray, side, sample):
    """The uniforms of the splits on the way down to the depth-``level``
    nodes ``leaf``, one array per depth ``d = 0 .. level-1``, whose node is
    ``leaf >> (level - d)``: ``_HASH_BATCH // leaf.size`` depths (at least
    one) are hashed per Philox call."""
    per = max(1, _HASH_BATCH // leaf.size)
    for d0 in range(0, level, per):
        depth = np.arange(d0, min(d0 + per, level))[:, None]
        yield from _node_uniforms(key, leaf >> (level - depth), depth + 1, side, sample)


def _descend(spec, node, lo, hi, v, levels: int, uniforms: Callable, go_left: Callable) -> tuple:
    """Walk ``levels`` levels down from depth-0 nodes, splitting only the
    node walked into: ``uniforms(depth, node)`` gives each sample's split
    uniform and ``go_left(depth, mid)`` picks its half.  Returns the leaf
    indices and the values at their ends."""
    drift = spec.drift
    for depth in range(levels):
        left, right = split(spec, depth, v, uniforms(depth, node))
        mid = np.minimum(lo + (drift * 2.0 ** -(depth + 1) + left), hi)
        to_left = go_left(depth, mid)
        node = 2 * node + ~to_left
        lo = np.where(to_left, lo, mid)
        hi = np.where(to_left, mid, hi)
        v = np.where(to_left, left, right)
    return node, lo, hi


def hit_index(spec: ProcessSpec, key, level: int, x0: float, k_max: int, sample) -> np.ndarray:
    """Per sample, the first grid index ``1 <= k <= k_max`` at ``level``
    whose forward value reaches ``x0 > 0``, or 0 where none does.  Each
    split's node depends on the one before, so every level is hashed on
    its own."""
    sample = np.asarray(sample, dtype=np.int64)
    count = -(-k_max >> level)  # top nodes covering (0, k_max]
    side = np.full(sample.size, FORWARD)
    node, lo, hi, v = _first_top_node(spec, key, side, sample, count, x0)
    out = np.zeros(sample.size, dtype=np.int64)
    ok = np.flatnonzero(node >= 0)
    side, sample = side[ok], sample[ok]
    leaf, _, _ = _descend(
        spec, node[ok], lo[ok], hi[ok], v[ok], level,
        lambda depth, node: _node_uniforms(key, node, depth + 1, side, sample),
        lambda depth, mid: mid >= x0,
    )
    out[ok] = np.where(leaf < k_max, leaf + 1, 0)
    return out


def values_at(spec: ProcessSpec, key, level: int, k, sample) -> np.ndarray:
    """Path values ``x_k`` at grid indices ``k`` of ``level``, one index per
    sample (1-d arrays; either side, ``x_0 = 0``).  The value at ``k != 0`` is
    the right end of its side's leaf ``|k| - 1``, found by descending along
    that leaf's bits.  The whole descent is known from ``k`` before the first
    draw, so its counters are hashed in a few batches (:func:`_known_tops`,
    :func:`_known_splits`) rather than one Philox call per level."""
    k = np.asarray(k, dtype=np.int64)
    sample = np.asarray(sample, dtype=np.int64)
    out = np.zeros(k.shape)
    nz = np.flatnonzero(k != 0)
    if nz.size == 0:
        return out
    side = (k[nz] < 0).astype(np.int64)
    sample = sample[nz]
    leaf = np.abs(k[nz]) - 1
    top = leaf >> level
    lo, hi, v = _known_tops(spec, key, side, sample, top)
    u = _known_splits(key, level, leaf, side, sample)

    def go_left(depth, mid):
        return (leaf >> (level - depth - 1)) & 1 == 0

    _, _, value = _descend(spec, top, lo, hi, v, level, lambda depth, node: next(u), go_left)
    out[nz] = np.where(side == BACKWARD, -value, value)
    return out
