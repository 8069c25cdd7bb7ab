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
The key comes from the run's seed under the purpose tag ``PURPOSE``.  A
counter ``(block, code << 1 | side, sample, 0)`` gives a block of four words
(:func:`_slot`): top node ``j``'s increment is word ``j & 3`` of block
``j >> 2`` under code 0, and the block at a node of even depth ``d``, under
code ``d + 1``, holds that node's split in word 0 and the splits of its
left and right children in words 1 and 2 (word 3 is unused).  The layout is
the same for every family.  Any node of any sample can therefore be drawn
on its own, in any order, with bitwise the same value.  A search that knows
which node it needs (the one holding a crossing, or a grid time) descends
into that node alone: a level-n value costs at most ``n`` draws, not the
``2^n`` increments of a unit of time.  Both searches first scan the top
nodes, one block of four per pass, in one running sum
(:func:`_first_top_node`).  A crossing is found level by level, since each
split's node depends on the one before, so its scan hashes each block as
it goes and its descent hashes one block per two levels.  A grid time's
descent is known from its index before the first draw, so all of its
blocks, the top nodes' up to it and one per two depths, are hashed
together, ``_HASH_BATCH`` at a time: one call's fixed numpy cost, a few
hundred microseconds, is then spread over thousands of counters.
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

#: a node index at or past this lies beyond every window (``|k| < 2^53``) at
#: any depth: a crossing search holds such a node here instead of doubling
#: it past 2^63, where it wrapped to a leaf inside the window
_NODE_CAP = 1 << 61

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


def _block(key, code, index, side, sample) -> np.ndarray:
    """The 4 Philox words of the counters ``(index, code << 1 | side,
    sample, 0)`` (broadcast), stacked on a new first axis."""
    code, side = np.asarray(code, dtype=np.uint64), np.asarray(side, dtype=np.uint64)
    return philox4x64((index, (code << np.uint64(1)) | side, sample, 0), key)


def _slot(code: int, index):
    """Where the draw ``code`` of the nodes ``index`` lives: its block's
    index and code, and its word in that block.

    * Top node ``j``'s increment (code 0) is word ``j & 3`` of block
      ``j >> 2`` under code 0.
    * The split of a node at even depth ``d`` (code ``d + 1``, odd) is
      word 0 of the block at that node under code ``d + 1``.
    * The split of a node at odd depth ``d`` (code ``d + 1``, even) is word
      1 or 2, for a left or right child, of its parent's block: block
      ``index >> 1`` under code ``d``.  Word 3 is not used.
    """
    index = np.asarray(index, dtype=np.int64)
    if code == 0:
        return index >> 2, 0, index & 3
    if code & 1:
        return index, code, 0
    return index >> 1, code - 1, 1 + (index & 1)


def _unit(word: np.ndarray) -> np.ndarray:
    """The uniform of each 64-bit word: its top 53 bits ``m`` at the
    midpoint ``(m + 1/2) 2^-53`` of their cell.  Above 1/2 the midpoint
    rounds to a neighbouring double, and the two words that would round to
    1/2 and to 1 take the doubles next to those, ``1/2 + 2^-53`` and
    ``1 - 2^-53``, which no other word gives: ``u`` is never 0, 1/2 or 1."""
    u = ((word >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
    return np.minimum(np.where(u == 0.5, 0.5 + 2.0**-53, u), 1.0 - 2.0**-53)


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
    spec: ProcessSpec, side: np.ndarray, sample: np.ndarray, count: int,
    jumps_of: Callable, reached: Callable,
) -> tuple[np.ndarray, ...]:
    """Per sample, the first top node ``j`` among ``0 .. count-1`` where
    ``reached(rows, j, right_end)`` holds, with the values at its ends and
    its jump sum; node -1 where there is none.  Once ``reached`` holds for
    a sample it must hold at every later node, as ``right_end`` never
    decreases.

    The scan takes one block of four top nodes per pass (:func:`_slot`):
    ``jumps_of(b, rows)`` gives block ``b``'s jump sums, one row per node
    and one column per sample still scanning, and each block's sum starts
    from the running sum carried into it, so every value equals one
    sequential sum.  An overflow reaches every later node: after the scan,
    the first sample in row order whose node's right end or jump sum is not
    finite is refused (its left end is at most its right one)."""
    n = sample.size
    node = np.full(n, -1, dtype=np.int64)
    lo, hi, v = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = np.arange(n)
    carry = np.zeros(n)
    for j0 in range(0, count, 4):
        if rows.size == 0:
            break
        with np.errstate(over="ignore"):  # an overflow is refused below
            jumps = jumps_of(j0 >> 2, rows)[: count - j0]
            cum = np.vstack([carry, jumps + spec.drift])  # row i: the value at time j0 + i
            for i in range(1, len(cum)):
                cum[i] += cum[i - 1]
        hit = reached(rows, np.arange(j0, j0 + len(jumps))[:, None], cum[1:])
        c = len(hit) - hit.sum(axis=0)  # the nodes before the first one reached
        found = c < len(hit)
        f = np.flatnonzero(found)
        c = c[f]
        r = rows[f]
        node[r] = j0 + c
        lo[r] = cum[c, f]
        hi[r] = cum[c + 1, f]
        v[r] = jumps[c, f]
        carry = cum[-1, ~found]
        rows = rows[~found]
    _refuse_overflow(np.flatnonzero(node >= 0), side, sample, node, hi, v)
    return node, lo, hi, v


def _hashed(key, index, code: int, side, sample) -> np.ndarray:
    """The blocks of the counters ``(index, code << 1 | side, sample, 0)``
    (equal-length 1-d arrays), ``_HASH_BATCH`` counters per Philox call."""
    words = np.empty((4, index.size), dtype=np.uint64)
    for lo in range(0, index.size, _HASH_BATCH):
        part = slice(lo, lo + _HASH_BATCH)
        words[:, part] = _block(key, code, index[part], side[part], sample[part])
    return words


def _known_splits(key, level: int, leaf: np.ndarray, side, sample):
    """The blocks of the splits on the way down to the depth-``level``
    nodes ``leaf``, one ``(4, n)`` array per even depth ``d < level``, whose
    node is ``leaf >> (level - d)``: ``_HASH_BATCH // leaf.size`` blocks (at
    least one) are hashed per Philox call."""
    per = max(1, _HASH_BATCH // leaf.size)
    for d0 in range(0, level, 2 * per):
        depth = np.arange(d0, min(d0 + 2 * per, level), 2)[:, None]
        # copies, and the del, free each batch before the next is hashed
        blocks = _block(key, depth + 1, leaf >> (level - depth), side, sample).swapaxes(0, 1)
        yield from (words.copy() for words in blocks)
        del blocks


def _descend(spec, node, lo, hi, v, levels: int, blocks: Callable, go_left: Callable) -> tuple:
    """Walk ``levels`` levels down from depth-0 nodes, splitting only the
    node walked into: ``blocks(depth, node)`` gives, at each even depth,
    each sample's block there, which holds the splits of the node and of
    both its children (:func:`_slot`), and ``go_left(depth, mid)`` picks
    its half.  Returns the leaf indices, held at ``_NODE_CAP`` past every
    window, and the values at their ends."""
    drift = spec.drift
    for depth in range(levels):
        if depth % 2 == 0:
            words = blocks(depth, node)
        word = _slot(depth + 1, node)[2]  # 0 at an even depth, else 1 or 2 per node
        u = _unit(words[word] if depth % 2 == 0 else np.where(word == 1, words[1], words[2]))
        left, right = split(spec, depth, v, u)
        mid = np.minimum(lo + (drift * 2.0 ** -(depth + 1) + left), hi)
        to_left = go_left(depth, mid)
        node = np.minimum(2 * node + ~to_left, _NODE_CAP)
        lo = np.where(to_left, lo, mid)
        hi = np.where(to_left, mid, hi)
        v = np.where(to_left, left, right)
    return node, lo, hi


def hit_index(spec: ProcessSpec, key, level: int, x0: float, k_max: int, sample) -> np.ndarray:
    """Per sample, the first grid index ``1 <= k <= k_max`` at ``level``
    whose forward value reaches ``x0 > 0``, or 0 where none does.  Each
    split's node depends on the one before, so the descent hashes one block
    per two levels, at each even depth.  A crossing beyond every window is
    held at node ``_NODE_CAP`` and reads 0 at any level."""
    sample = np.asarray(sample, dtype=np.int64)
    count = -(-k_max >> level)  # top nodes covering (0, k_max]
    side = np.full(sample.size, FORWARD)
    node, lo, hi, v = _first_top_node(
        spec, side, sample, count,
        # word w of block b is top node 4b + w: one row per node (:func:`_slot`)
        lambda b, rows: jump_quantile(
            spec, 1.0, _unit(_block(key, 0, b, side[rows], sample[rows]))
        ),
        lambda rows, j, right_end: right_end >= x0,
    )
    out = np.zeros(sample.size, dtype=np.int64)
    ok = np.flatnonzero(node >= 0)
    side, sample = side[ok], sample[ok]
    leaf, _, _ = _descend(
        spec, node[ok], lo[ok], hi[ok], v[ok], level,
        lambda depth, node: _block(key, depth + 1, node, side, sample),
        lambda depth, mid: mid >= x0,
    )
    out[ok] = np.where(leaf < k_max, leaf + 1, 0)
    return out


def values_at(spec: ProcessSpec, key, level: int, k, sample) -> np.ndarray:
    """Path values ``x_k`` at grid indices ``k`` of ``level``, one index per
    sample (1-d arrays; either side, ``x_0 = 0``).  The value at ``k != 0`` is
    the right end of its side's leaf ``|k| - 1``, found by descending along
    that leaf's bits.  The whole descent is known from ``k`` before the first
    draw, so its counters are hashed in a few batches, the top nodes' blocks
    (:func:`_hashed`) before the scan of :func:`_first_top_node` and the
    splits' by :func:`_known_splits`, rather than one Philox call per two
    levels."""
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
    n_blocks = (top >> 2) + 1  # blocks 0 .. top >> 2 of each row, laid out row by row
    first = np.cumsum(n_blocks) - n_blocks
    row = np.repeat(np.arange(top.size), n_blocks)
    block = np.arange(row.size) - first[row]
    need = np.arange(4)[:, None] <= top[row] - 4 * block  # the scan stops at node top
    jumps = np.zeros(need.shape)
    with np.errstate(over="ignore"):  # an overflow is refused by the scan
        jumps[need] = jump_quantile(
            spec, 1.0, _unit(_hashed(key, block, 0, side[row], sample[row])[need])
        )
    _, lo, hi, v = _first_top_node(
        spec, side, sample, 4 * int(n_blocks.max()),
        lambda b, rows: jumps[:, first[rows] + b],
        lambda rows, j, right_end: j >= top[rows],
    )
    blocks = _known_splits(key, level, leaf, side, sample)

    def go_left(depth, mid):
        return (leaf >> (level - depth - 1)) & 1 == 0

    _, _, value = _descend(spec, top, lo, hi, v, level, lambda depth, node: next(blocks), go_left)
    out[nz] = np.where(side == BACKWARD, -value, value)
    return out
