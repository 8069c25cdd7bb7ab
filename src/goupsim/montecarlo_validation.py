"""Seeded Monte Carlo generators and goodness-of-fit comparisons.

Two sample sources:

* ``sample_basepoints``      base points of limiting characteristics, one
                             sampled path per sample, searched in its keyed
                             bridge tree (``bridge_tree``) for every process
                             family: two descents per sample, all samples in
                             one process, every draw keyed by its sample,
* ``bm_functionals_oracle``  Brownian-motion functionals (running maximum,
                             first argmax location, overshoot location) on a
                             fine spatial mesh; exact per-segment bridge
                             maxima free the maximum of the O(sqrt(step))
                             bias of the bare mesh maximum, and Levy passage
                             times find the overshoot without a mesh walk.

Comparison tools: left-closed histograms, and the L1 distance (bin masses)
and Kolmogorov-Smirnov statistic of samples against a CDF;
``validate_basepoints`` scores the samples against the exact base-point CDF
of ``ig_analytics``, whose ``hit_under_bin_masses`` is re-exported here,
returns the law tabulated once by ``basepoint_density``, and records each
verdict once, as a ``Check`` that the report's entries are written from.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import bdtr

from .bridge_tree import hit_index, tree_key, values_at
from .csvio import write_csv
from .ig_analytics import (
    DensityCurve,
    basepoint_cdf,
    basepoint_density,
    default_z_grid,
    hit_under_bin_masses,
)
from .levy_paths import DyadicGrid, ProcessSpec, RngSeed, StableHalf, stream_for

__all__ = [
    "BasepointSamples",
    "OracleSamples",
    "Histogram",
    "Check",
    "ValidationResult",
    "sample_basepoints",
    "bm_functionals_oracle",
    "histogram",
    "l1_distance",
    "ks_distance",
    "hit_under_bin_masses",
    "spike_refined_bin_edges",
    "concentration_shortfall",
    "validate_basepoints",
    "write_samples_csv",
    "write_histogram_csv",
]

@dataclass(frozen=True, eq=False)
class BasepointSamples:
    values: np.ndarray    # successful samples, in sample-index order
    indices: np.ndarray   # originating sample indices
    n_requested: int
    n_unreached: int      # paths that do not reach the level by the window's k_max
    n_before_window: int  # shifted times that fall before the window's k_min

    @property
    def n_failed(self) -> int:
        return self.n_unreached + self.n_before_window


@dataclass(frozen=True, eq=False)
class OracleSamples:
    hit: np.ndarray          # running maximum over [0, x]
    undershoot: np.ndarray   # location of the first argmax
    overshoot: np.ndarray    # first mesh point past x exceeding the maximum
    n_capped: int            # overshoot searches stopped at the cap
    x: float
    step: float


@dataclass(frozen=True, eq=False)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    n: int


# ---------------------------------------------------------------------------
# base-point sampling


#: samples whose trees are searched together
_TREE_CHUNK = 4096


def sample_basepoints(
    spec: ProcessSpec, x0: float, t0: float, n: int, grid: DyadicGrid, seed: RngSeed
) -> BasepointSamples:
    """Base points of ``n`` independently sampled paths under the root
    ``seed``, each searched in its keyed bridge tree
    (:mod:`goupsim.bridge_tree`), all in this process: one descent to the
    hit, one to the shifted time, ``_TREE_CHUNK`` samples at a time.  Every
    draw is keyed by its sample, so the chunking changes no value.

    ``grid`` is the level and k window of the sampled paths; its window must
    be wide enough for the paths to reach the level ``x0`` and for the
    shifted time to stay inside.  Per-sample window exhaustion is counted by
    the end of the window it hits; a failure rate above 1% raises with both
    counts and the end of the window to widen.
    """
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < t0 < np.inf:
        raise ValueError(f"t0 must be positive and finite, got {t0}")
    if not 0.0 < x0 < np.inf:
        raise ValueError(
            f"x0 must be positive and finite (forward hitting search only), got {x0}"
        )
    key = tree_key(seed)
    n_max, k_min, k_max = grid.level, grid.k_min, grid.k_max
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    n_unreached = n_before_window = 0
    for lo in range(0, n, _TREE_CHUNK):
        sample = np.arange(lo, min(lo + _TREE_CHUNK, n))
        hit = hit_index(spec, key, n_max, x0, k_max, sample)
        # grid index of the shifted time  hitting_time - t0  (step semantics)
        m = np.floor(hit - t0 * 2.0**n_max)
        unreached = hit == 0  # the level is not reached by k_max
        before = ~unreached & (m < k_min)  # the shifted time falls before k_min
        ok = ~(unreached | before)
        n_unreached += int(unreached.sum())
        n_before_window += int(before.sum())
        indices.append(sample[ok])
        values.append(values_at(spec, key, n_max, m[ok].astype(np.int64), sample[ok]))
    samples = BasepointSamples(
        values=np.concatenate(values),
        indices=np.concatenate(indices),
        n_requested=n,
        n_unreached=n_unreached,
        n_before_window=n_before_window,
    )
    if samples.n_failed > 0.01 * n:
        raise RuntimeError(
            f"{samples.n_failed}/{n} samples exhausted the window ({k_min}, {k_max}): "
            f"{samples.n_unreached} paths do not reach x0 = {x0!r} by k_max = {k_max} "
            f"(widen the upper end of --range), {samples.n_before_window} shifted "
            f"times fall before k_min = {k_min} (widen the lower end of --range)"
        )
    return samples


# ---------------------------------------------------------------------------
# Brownian-motion functional oracle

#: rows of an oracle batch meshed, refined and reduced at a time; at step
#: 1e-4 a group's normals and path take 1.3 MB each
_ROW_GROUP = 16

#: rows of an oracle batch
_BATCH = 1024


def _first_max_segments(
    w: np.ndarray, step: float, rng_bridge
) -> tuple[np.ndarray, np.ndarray]:
    """Exact running maximum and its first-argmax segment, per row of ``w``.

    Candidate segments (those whose endpoint maximum comes within
    ``6 sqrt(step)`` of the discrete maximum; the continuum maximum exceeds
    that band with probability < exp(-72)) get an exact Brownian-bridge
    segment maximum, drawn in canonical row-major order."""
    n_rows, n_cols = w.shape
    discrete_max = w.max(axis=1)
    # a segment is a candidate when either end is in the band; the flat
    # indices of the candidates keep the row-major order of np.nonzero
    near = w > (discrete_max[:, None] - 6.0 * np.sqrt(step))
    cand = near[:, :-1] | near[:, 1:]
    rows, cols = np.divmod(np.flatnonzero(cand), n_cols - 1)
    u = np.maximum(rng_bridge.random(rows.size), 1e-300)
    w0 = w[rows, cols]
    w1 = w[rows, cols + 1]
    bridge_max = 0.5 * (w0 + w1 + np.sqrt((w1 - w0) ** 2 - 2.0 * step * np.log(u)))

    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    group_max = np.maximum.reduceat(bridge_max, starts)
    # first maximizing segment per row ("first argmax" tie-break)
    masked_cols = np.where(
        bridge_max == np.repeat(group_max, np.diff(np.r_[starts, rows.size])),
        cols,
        n_cols,
    )
    group_seg = np.minimum.reduceat(masked_cols, starts)
    return group_max, group_seg


def _next_mesh_crossing(k, w, s, z, step: float, cap_steps: int):
    """One overshoot-search round per row, from mesh index ``k`` past ``x``
    where the path is ``w <= s``: it stays below ``s`` for the passage time,
    ``D = ((s - w)/z[0])^2 / step`` steps (Levy; Karatzas & Shreve 1991, 2.6)
    clamped at ``cap_steps + 1``, and is ``s + sqrt((k' - k - D) step) z[1]``
    at the next mesh point ``k' = k + floor(D) + 1`` (strong Markov property).
    Returns ``k'``, the path there, and whether it is above ``s`` within the cap."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.fmin((s - w) ** 2 / (step * z[0] ** 2), cap_steps + 1.0)
    k_next = k + d.astype(np.int64) + 1  # d >= 0: truncation is floor
    w_next = s + np.sqrt((k_next - k - d) * step) * z[1]
    return k_next, w_next, (w_next > s) & (k_next <= cap_steps)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bm_functionals_oracle(
    x: float,
    step: float,
    n: int,
    seed: RngSeed,
    include_overshoot: bool = True,
    cap_length: float | None = None,
) -> OracleSamples:
    """Simulate standard Brownian motion on a spatial mesh of width ``step``
    and record, per sample, the running maximum ``s`` over ``[0, x]``, the
    first argmax location ``a`` (at segment resolution), and the first mesh
    location ``b > x`` where the path strictly exceeds ``s``.

    The recorded maximum is the exact continuum maximum given the mesh
    skeleton (per-segment bridge maxima), not the biased mesh maximum.  The
    overshoot search jumps from passage time to passage time
    (:func:`_next_mesh_crossing`) to at most ``cap_length`` (default ``4 x``)
    past ``x``; samples that exceed the cap keep ``b = NaN`` and are counted
    in ``n_capped`` (their ``(s, a)`` pair is retained: dropping them would
    bias the undershoot marginal, since overshoot search length and
    undershoot location are correlated).  ``include_overshoot=False`` skips
    the search when only the hitting/undershoot functionals are needed.

    Samples come in batches of ``_BATCH`` rows; batch ``b`` draws only
    from its own streams ``stream_for(seed, b, .)``.  A batch is meshed 16
    rows at a time (``_ROW_GROUP``) into reused buffers, so it holds a few MB
    instead of its whole mesh.  The batches run on a thread pool as wide as
    the CPUs this process may use: numpy fills and sums arrays without
    holding the GIL, and each batch's generators have their own locks.  The
    output is bitwise the same for any thread count.
    """
    if not 0.0 < x < np.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    if not 0.0 < step < x:
        raise ValueError("need 0 < step < x")
    n_steps = int(round(x / step))
    if abs(n_steps * step - x) > 1e-9 * x:
        raise ValueError(f"x={x} is not an integer multiple of step={step}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if cap_length is None:
        cap_length = 4.0 * x
    if not np.isfinite(cap_length):
        raise ValueError(f"cap_length must be finite, got {cap_length}")
    cap_steps = int(round(cap_length / step))
    if include_overshoot and cap_steps < 1:
        raise ValueError(f"cap_length must cover at least one step of {step}, got {cap_length}")

    sqrt_step = np.sqrt(step)
    hit = np.empty(n)
    undershoot = np.empty(n)
    overshoot = np.full(n, np.nan)

    def run_batch(batch: int) -> int:
        """Fill the batch's slices of the outputs; return its capped count."""
        lo = batch * _BATCH
        hi = min(lo + _BATCH, n)
        rng_path = stream_for(seed, batch, 0)
        rng_bridge = stream_for(seed, batch, 1)
        group = min(_ROW_GROUP, hi - lo)
        z = np.empty((group, n_steps))
        w = np.empty((group, n_steps + 1))
        w[:, 0] = 0.0
        current = np.empty(hi - lo)  # path value at x, per row
        for g in range(lo, hi, group):
            rows = min(group, hi - g)
            zg, wg = z[:rows], w[:rows]
            rng_path.standard_normal(out=zg)
            zg *= sqrt_step
            np.cumsum(zg, axis=1, out=wg[:, 1:])
            s, seg = _first_max_segments(wg, step, rng_bridge)
            hit[g : g + rows] = s
            undershoot[g : g + rows] = (seg + 0.5) * step
            current[g - lo : g - lo + rows] = wg[:, -1]
        if not include_overshoot:
            return 0

        rng_search = stream_for(seed, batch, 2)
        levels = hit[lo:hi]
        active = np.arange(hi - lo)
        k = np.zeros(hi - lo, dtype=np.int64)  # mesh index past x, per active row
        while active.size:
            zs = rng_search.standard_normal((2, active.size))
            k, current, found = _next_mesh_crossing(k, current, levels[active], zs, step, cap_steps)
            overshoot[lo + active[found]] = x + k[found] * step
            live = ~found & (k <= cap_steps)
            active, k, current = active[live], k[live], current[live]
        return int(np.isnan(overshoot[lo:hi]).sum())

    n_batches = -(-n // _BATCH)
    with ThreadPoolExecutor(max_workers=min(n_batches, _usable_cpus())) as pool:
        n_capped = sum(pool.map(run_batch, range(n_batches)))
    return OracleSamples(hit, undershoot, overshoot, n_capped, x, step)


# ---------------------------------------------------------------------------
# goodness-of-fit tools


def histogram(samples, edges) -> Histogram:
    """Left-closed binning ``[e_i, e_(i+1))``; samples outside the edges
    (the last edge is exclusive) count in ``n`` only."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0.0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    samples = np.asarray(samples, dtype=float)
    idx = np.searchsorted(edges, samples, side="right") - 1
    inside = idx[(idx >= 0) & (idx < edges.size - 1)]
    counts = np.bincount(inside, minlength=edges.size - 1)
    return Histogram(edges, counts, int(samples.size))


def l1_distance(h: Histogram, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum over bins of |empirical mass - exact mass|, the exact masses being
    the increments of ``cdf`` over the bin edges.

    Empirical masses use the total sample count ``h.n`` (out-of-range
    samples deplete the in-range mass on both sides consistently).
    """
    analytic = np.diff(np.asarray(cdf(h.edges), dtype=float))
    return float(np.sum(np.abs(h.counts / h.n - analytic)))


def ks_distance(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of ``samples`` against ``cdf``."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def spike_refined_bin_edges(hi: float = 8.5, bins: int = 60) -> np.ndarray:
    """Histogram edges on ``[0, hi]`` with geometric refinement near 0 (the
    base-point density has an integrable ``z^(-1/2)`` spike there).

    The first bin keeps width ``split/128`` so that its expected occupancy
    stays statistically meaningful at typical sample sizes."""
    if bins < 8:
        raise ValueError(f"bins must be >= 8, got {bins}")
    if not 0.0 < hi < np.inf:
        raise ValueError(f"the histogram upper edge must be positive and finite, got {hi}")
    n_geo = max(bins // 3, 4)
    n_lin = bins - n_geo
    split = hi / 17.0
    geo = np.geomspace(split / 128.0, split, n_geo)
    lin = np.linspace(split, hi, n_lin + 1)[1:]
    return np.concatenate([[0.0], geo, lin])


#: false-alarm rate of the concentration verdict, the level of the KS verdict
CONCENTRATION_ALPHA = 0.01


def concentration_shortfall(count: int, n: int, mass: float) -> int:
    """How far ``count`` falls below the ``CONCENTRATION_ALPHA`` lower
    quantile of Binomial(``n``, ``mass``), the law of a bin's count among
    ``n`` samples of a correct sampler: positive with probability below
    ``CONCENTRATION_ALPHA`` at any ``n``, and 0 or less otherwise."""
    # the quantile is at most the median, which is at most ceil(n mass)
    k = np.arange(int(np.ceil(n * mass)) + 1)
    quantile = int(np.searchsorted(bdtr(k, n, mass), CONCENTRATION_ALPHA))
    return quantile - count


@dataclass(frozen=True)
class Check:
    """One verdict of :func:`validate_basepoints`: ``value`` (a ``what``)
    passes when it is at most ``threshold`` (the concentration verdict also
    needs the exact law's densest bin to be bin 0).  The report records it
    as ``report[name] = value``, ``report[name + "_threshold"] = threshold``
    and ``report[name + "_pass"] = passed``."""

    name: str
    what: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ValidationResult:
    report: dict
    samples: BasepointSamples
    hist: Histogram
    curve: DensityCurve | None
    checks: list[Check]


def validate_basepoints(
    spec: ProcessSpec, x0: float, t0: float, n: int, grid: DyadicGrid, seed: RngSeed,
    *, bins: int = 60, l1_max: float = 0.10, hist_hi: float = 8.5,
) -> ValidationResult:
    """Monte Carlo base points (:func:`sample_basepoints` of ``n``, ``grid``
    and ``seed``) against the exact base-point law.

    Checks: L1 distance of the histogram (``bins`` bins, see
    :func:`spike_refined_bin_edges`) from the exact bin masses of the
    analytic CDF below ``l1_max``, no sample at or above the level (the
    base point lies strictly below it), mass concentration at the origin
    (the exact law's densest bin is the bin nearest 0, and the sample's
    count there is not below the 1% lower quantile of its exact binomial
    law, see :func:`concentration_shortfall`), and a Kolmogorov-Smirnov test
    of the exact CDF at the samples at the 1% asymptotic critical value
    ``1.628/sqrt(m)`` of the ``m = n - n_failed`` samples it scores.
    ``checks`` lists the verdicts of the checks that ran, named ``l1``,
    ``concentration``, ``support`` and ``ks``.  The report holds only what
    the run found, the inputs being the caller's to record: ``n_failed``,
    ``skipped`` (the skip notices), ``mass`` for stable-1/2, each check as
    ``name`` (its value), ``name_threshold`` and ``name_pass``, and
    ``pass``, true when every check that ran passed.  ``curve`` tabulates
    the law, density and CDF, on :func:`default_z_grid` of ``x0``;
    ``report["mass"]`` is its mass.

    The support check needs no law and runs for every process family.  Only
    the stable-1/2 process has an implemented analytic law; for other
    process families every analytic comparison is skipped with an explicit
    notice.  The L1 and concentration checks are likewise skipped with a
    notice when no sample lands in the histogram range ``[0, hist_hi]``: an
    empty histogram tests nothing.  The KS test always runs for stable-1/2.
    A sample of equal values, which only a broken sampler of this
    continuous law gives, lies at least 1/2 from the law, and the KS check
    fails it from ``n = 11`` on.  A level that the law's grid cannot hold
    is refused before any sampling.
    """
    if not 0.0 <= l1_max < np.inf:
        raise ValueError(f"l1_max must be nonnegative and finite, got {l1_max}")
    edges = spike_refined_bin_edges(hist_hi, bins)
    exact = isinstance(spec, StableHalf)
    if exact and 0.0 < x0 < np.inf:  # the sampler refuses x0 <= 0, inf and nan
        z = default_z_grid(x0)
    samples = sample_basepoints(spec, x0, t0, n, grid, seed)
    hist = histogram(samples.values, edges)

    report: dict = {"n_failed": samples.n_failed, "skipped": []}
    above = float(np.count_nonzero(samples.values >= x0))
    support = Check("support", "samples at or above x0", above, 0, above <= 0)

    if not exact:
        report["skipped"].append(
            "analytic comparison: no closed-form base-point law for this "
            "process family (only stable-half)"
        )
        checks, curve = [support], None
    else:
        cdf = partial(basepoint_cdf, x0, t0)
        curve = basepoint_density(x0, t0, z)
        report["mass"] = curve.mass
        checks = []
        if np.any(hist.counts):
            l1 = l1_distance(hist, cdf)
            checks.append(Check("l1", "histogram L1 distance", l1, l1_max, l1 <= l1_max))
            masses = np.diff(cdf(edges))
            shortfall = concentration_shortfall(int(hist.counts[0]), hist.n, float(masses[0]))
            law_densest = int(np.argmax(masses / np.diff(edges)))
            checks.append(
                Check(
                    "concentration",
                    "bin-0 count below its 1% binomial quantile",
                    shortfall,
                    0,
                    law_densest == 0 and shortfall <= 0,
                )
            )
        else:
            report["skipped"].append(
                f"l1 and concentration: no sample in the histogram range [0, {hist_hi!r}] "
                "(--hist-hi); an empty histogram tests nothing"
            )
        checks.append(support)
        ks = ks_distance(samples.values, cdf)
        ks_max = float(1.628 / np.sqrt(hist.n))  # the samples scored, failures left out
        checks.append(Check("ks", "Kolmogorov-Smirnov distance", ks, ks_max, ks <= ks_max))

    for c in checks:
        report[c.name] = c.value
        report[c.name + "_threshold"] = c.threshold
        report[c.name + "_pass"] = c.passed
    report["pass"] = all(c.passed for c in checks)
    return ValidationResult(report, samples, hist, curve, checks)


# ---------------------------------------------------------------------------
# exports


def write_samples_csv(samples: BasepointSamples, out: Path | str) -> None:
    write_csv(out, "i,z", samples.indices, samples.values)


def write_histogram_csv(h: Histogram, out: Path | str) -> None:
    n = h.counts.size
    write_csv(out, "left,right,count", h.edges[:n], h.edges[1 : n + 1], h.counts)
