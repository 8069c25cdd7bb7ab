"""Seeded Monte Carlo generators and goodness-of-fit comparisons.

Two sample sources:

* ``sample_basepoints``      base points of limiting characteristics, one
                             sampled path per sample, keyed substreams per
                             sample index (deterministic under any degree of
                             parallelism; discarded samples consume their own
                             streams),
* ``bm_functionals_oracle``  Brownian-motion functionals (running maximum,
                             first argmax location, overshoot location) on a
                             fine spatial mesh; the recorded maximum is
                             refined with exact per-segment Brownian-bridge
                             maxima so that it is free of the O(sqrt(step))
                             discretization bias of the bare mesh maximum.

Comparison tools: left-closed histograms with overflow tracking, an L1
distance between a histogram and a tabulated density, the Kolmogorov-Smirnov
statistic against a CDF, and exact bin masses of the hitting/undershoot
density for binwise oracle checks.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc, owens_t

from .csvio import write_csv
from .ig_analytics import (
    DensityCurve,
    IGQuery,
    basepoint_density,
    cdf_from_curve,
)
from .levy_paths import (
    BLOCK,
    ProcessSpec,
    RngSeed,
    StableHalf,
    _increment_block,
    backward_increments,
    process_to_dict,
    stream_for,
)

__all__ = [
    "McConfig",
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
    "validation_z_grid",
    "validate_basepoints",
    "write_samples_csv",
    "write_histogram_csv",
    "write_report_json",
]

_FORWARD = 0


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration.

    ``window`` is the k-index range of the sampled path at level ``n_max``;
    it must be wide enough for the paths to reach the queried level and for
    the shifted evaluation time to stay inside (failures are counted per
    sample and the run aborts above a 1% failure rate).
    """

    n_samples: int
    n_max: int
    window: tuple[int, int]
    root_seed: RngSeed
    bins: int = 60

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if not self.window[0] <= 0 <= self.window[1]:
            raise ValueError("window must contain k = 0")


@dataclass(frozen=True, eq=False)
class BasepointSamples:
    values: np.ndarray   # successful samples, in sample-index order
    indices: np.ndarray  # originating sample indices
    n_requested: int
    n_failed: int


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
    n_under: int
    n_over: int


# ---------------------------------------------------------------------------
# base-point sampling


def _one_basepoint(
    spec: ProcessSpec,
    x0: float,
    t0: float,
    cfg: McConfig,
    sample: int,
) -> float | None:
    """Base point of one sampled path, materializing only the blocks that the
    evaluation actually reads (bitwise identical to building the full
    window).  Returns None when the window is exhausted."""
    dt = 2.0**-cfg.n_max
    k_min, k_max = cfg.window
    sub = (sample,)

    hit_k = None
    chunks: list[np.ndarray] = []
    total = 0.0
    k_done = 0
    block = 0
    while k_done < k_max:
        count = min(BLOCK, k_max - k_done)
        inc = _increment_block(spec, dt, cfg.root_seed, _FORWARD, block, count, sub)
        cum = total + np.cumsum(inc)
        chunks.append(cum)
        if cum[-1] >= x0:
            in_chunk = int(np.searchsorted(cum, x0, side="left"))
            hit_k = k_done + in_chunk + 1
            break
        total = cum[-1]
        k_done += count
        block += 1
    if hit_k is None:
        return None  # level not attained inside the window

    # grid index of the shifted time  hitting_time - t0  (step semantics)
    m = int(np.floor(hit_k - t0 * 2.0**cfg.n_max))
    if m < k_min:
        return None  # shifted time leaves the sampled window
    if m >= 0:
        if m == 0:
            return 0.0
        chunk_idx, offset = divmod(m - 1, BLOCK)
        return float(chunks[chunk_idx][offset])
    bwd = backward_increments(spec, dt, cfg.root_seed, -m, sub)
    return float(-np.cumsum(bwd)[-1])


def _basepoint_chunk(args) -> tuple[list[int], list[float]]:
    spec, x0, t0, cfg, lo, hi = args
    indices: list[int] = []
    values: list[float] = []
    for i in range(lo, hi):
        v = _one_basepoint(spec, x0, t0, cfg, i)
        if v is not None:
            indices.append(i)
            values.append(v)
    return indices, values


def sample_basepoints(
    spec: ProcessSpec,
    x0: float,
    t0: float,
    cfg: McConfig,
    workers: int = 1,
) -> BasepointSamples:
    """Base points of ``cfg.n_samples`` independently sampled paths.

    Sample ``i`` draws from substream ``(root_seed, i)``, so the output is
    bitwise independent of ``workers``.  Per-sample window exhaustion is
    counted; a failure rate above 1% raises with advice to widen the window.
    """
    if not t0 > 0.0:
        raise ValueError(f"t0 must be positive, got {t0}")
    n = cfg.n_samples
    if workers > 1:
        bounds = np.linspace(0, n, workers * 4 + 1, dtype=int)
        tasks = [
            (spec, x0, t0, cfg, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_basepoint_chunk, tasks))
        indices = [i for part in parts for i in part[0]]
        values = [v for part in parts for v in part[1]]
    else:
        indices, values = _basepoint_chunk((spec, x0, t0, cfg, 0, n))

    n_failed = n - len(values)
    if n_failed > 0.01 * n:
        raise RuntimeError(
            f"{n_failed}/{n} samples exhausted the window {cfg.window}; "
            "widen the k range"
        )
    return BasepointSamples(
        values=np.asarray(values, dtype=float),
        indices=np.asarray(indices, dtype=np.int64),
        n_requested=n,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# Brownian-motion functional oracle


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
    seg_max = np.maximum(w[:, :-1], w[:, 1:])
    cand = seg_max > (discrete_max[:, None] - 6.0 * np.sqrt(step))
    rows, cols = np.nonzero(cand)
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


def bm_functionals_oracle(
    x: float,
    step: float,
    n: int,
    seed: RngSeed,
    include_overshoot: bool = True,
    cap_length: float | None = None,
    batch_size: int = 1024,
    chunk_steps: int = 2048,
) -> OracleSamples:
    """Simulate standard Brownian motion on a spatial mesh of width ``step``
    and record, per sample, the running maximum ``s`` over ``[0, x]``, the
    first argmax location ``a`` (at segment resolution), and the first mesh
    location ``b > x`` where the path strictly exceeds ``s``.

    The recorded maximum is the exact continuum maximum given the mesh
    skeleton (per-segment bridge maxima), not the biased mesh maximum.  The
    overshoot search runs to at most ``cap_length`` (default ``4 x``) past
    ``x``; samples that exceed the cap keep ``b = NaN`` and are counted in
    ``n_capped`` (their ``(s, a)`` pair is retained: dropping them would bias
    the undershoot marginal, since overshoot search length and undershoot
    location are correlated).  ``include_overshoot=False`` skips the search
    when only the hitting/undershoot functionals are needed.
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if not 0.0 < step < x:
        raise ValueError("need 0 < step < x")
    n_steps = int(round(x / step))
    if abs(n_steps * step - x) > 1e-9 * x:
        raise ValueError(f"x={x} is not an integer multiple of step={step}")
    if cap_length is None:
        cap_length = 4.0 * x
    cap_steps = int(round(cap_length / step))

    sqrt_step = np.sqrt(step)
    hit = np.empty(n)
    undershoot = np.empty(n)
    overshoot = np.full(n, np.nan)
    n_capped = 0

    for batch, lo in enumerate(range(0, n, batch_size)):
        hi = min(lo + batch_size, n)
        rows = hi - lo
        rng_path = stream_for(seed, batch, 0)
        rng_bridge = stream_for(seed, batch, 1)

        w = np.empty((rows, n_steps + 1))
        w[:, 0] = 0.0
        np.cumsum(rng_path.standard_normal((rows, n_steps)) * sqrt_step, axis=1, out=w[:, 1:])
        s_batch, seg = _first_max_segments(w, step, rng_bridge)
        hit[lo:hi] = s_batch
        undershoot[lo:hi] = (seg + 0.5) * step

        if include_overshoot:
            active = np.arange(rows)
            current = w[:, -1].copy()
            levels = s_batch
            steps_done = 0
            chunk = 0
            while active.size and steps_done < cap_steps:
                cs = min(chunk_steps, cap_steps - steps_done)
                rng_over = stream_for(seed, batch, 2, chunk)
                wc = current[:, None] + np.cumsum(
                    rng_over.standard_normal((active.size, cs)) * sqrt_step, axis=1
                )
                above = wc > levels[active, None]
                found = above.any(axis=1)
                first = np.argmax(above, axis=1)
                overshoot[lo + active[found]] = x + (steps_done + first[found] + 1) * step
                current = wc[~found, -1]
                active = active[~found]
                steps_done += cs
                chunk += 1
            n_capped += active.size

    return OracleSamples(hit, undershoot, overshoot, n_capped, x, step)


# ---------------------------------------------------------------------------
# goodness-of-fit tools


def histogram(samples, edges) -> Histogram:
    """Left-closed binning ``[e_i, e_(i+1))``; out-of-range samples are
    tracked separately (the last edge is exclusive)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0.0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    samples = np.asarray(samples, dtype=float)
    idx = np.searchsorted(edges, samples, side="right") - 1
    n_under = int(np.sum(idx < 0))
    n_over = int(np.sum(idx >= edges.size - 1))
    inside = idx[(idx >= 0) & (idx < edges.size - 1)]
    counts = np.bincount(inside, minlength=edges.size - 1)
    return Histogram(edges, counts, int(samples.size), n_under, n_over)


def _curve_bin_means(curve: DensityCurve, edges: np.ndarray) -> np.ndarray:
    """Mean of a tabulated density over each bin, by trapezoid on the curve
    grid restricted to the bin (edge values interpolated)."""
    z, f = curve.z, curve.f
    if edges[0] < z[0] - 1e-12 or edges[-1] > z[-1] + 1e-12:
        raise ValueError(
            f"curve grid [{z[0]}, {z[-1]}] does not cover histogram support "
            f"[{edges[0]}, {edges[-1]}]"
        )
    means = np.empty(edges.size - 1)
    for i in range(edges.size - 1):
        lo, hi = edges[i], edges[i + 1]
        interior = z[(z > lo) & (z < hi)]
        pts = np.concatenate([[lo], interior, [hi]])
        vals = np.interp(pts, z, f)
        means[i] = np.trapezoid(vals, pts) / (hi - lo)
    return means


def l1_distance(h: Histogram, curve: DensityCurve) -> float:
    """Sum over bins of |empirical density - mean analytic density| * width.

    Empirical density uses the total sample count ``h.n`` (out-of-range
    samples deplete the in-range mass on both sides consistently).
    """
    widths = np.diff(h.edges)
    empirical = h.counts / (h.n * widths)
    analytic = _curve_bin_means(curve, h.edges)
    return float(np.sum(np.abs(empirical - analytic) * widths))


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


def _undershoot_tail_mass(x: float, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``int_(x-w)^x exp(-s^2/(2y)) / (pi sqrt(y (x-y))) dy`` for
    ``0 <= w <= x``: the substitution ``y = x / (1 + u^2)`` turns it into
    ``4 T(s/sqrt(x), sqrt(w/(x-w)))`` with Owen's T function, and the full
    range ``w = x`` into ``erfc(s/sqrt(2x))``."""
    full = w >= x
    ratio = np.sqrt(w / np.where(full, 1.0, x - w))
    return np.where(
        full, erfc(s / np.sqrt(2.0 * x)), 4.0 * owens_t(s / np.sqrt(x), ratio)
    )


def hit_under_bin_masses(
    x: float,
    s_edges: Sequence[float],
    y_edges: Sequence[float],
) -> np.ndarray:
    """Exact masses of the hitting/undershoot density over a rectangular bin
    grid (level ``x > 0``).

    The hitting-time variable integrates in closed form,
    ``int_s1^s2 s exp(-s^2/(2y)) ds = y (exp(-s1^2/(2y)) - exp(-s2^2/(2y)))``,
    and the remaining undershoot integral is a difference of Owen's T
    functions: with ``P`` the tail mass of :func:`_undershoot_tail_mass`,
    the mass of ``[s1, s2] x [lo, hi]`` is ``M(s1) - M(s2)``, where
    ``M(s) = P(s, x - lo) - P(s, x - hi)``.
    """
    s_edges = np.asarray(s_edges, dtype=float)
    y_edges = np.asarray(y_edges, dtype=float)
    if y_edges[0] < 0.0 or y_edges[-1] > x:
        raise ValueError("undershoot bins must lie inside [0, x]")
    s = s_edges[:, None]
    m = _undershoot_tail_mass(x, s, x - y_edges[None, :-1]) - _undershoot_tail_mass(
        x, s, x - y_edges[None, 1:]
    )
    return m[:-1] - m[1:]


def spike_refined_bin_edges(hi: float = 8.5, bins: int = 60) -> np.ndarray:
    """Histogram edges on ``[0, hi]`` with geometric refinement near 0 (the
    base-point density has an integrable ``z^(-1/2)`` spike there).

    The first bin keeps width ``split/128`` so that its expected occupancy
    stays statistically meaningful at typical sample sizes."""
    if bins < 8:
        raise ValueError("need at least 8 bins")
    n_geo = max(bins // 3, 4)
    n_lin = bins - n_geo
    split = hi / 17.0
    geo = np.geomspace(split / 128.0, split, n_geo)
    lin = np.linspace(split, hi, n_lin + 1)[1:]
    return np.concatenate([[0.0], geo, lin])


def validation_z_grid(
    edges: np.ndarray,
    x: float,
    with_negative_side: bool = True,
    per_bin: int = 4,
    n_negative: int = 96,
    z_neg_far: float = -1e6,
) -> np.ndarray:
    """Density evaluation grid aligned with histogram bins.

    Interior points per bin for binwise means, extra geometric points inside
    the first bin (integrable spike at 0), a short run beyond the level
    ``x`` (where the density vanishes), and optionally a geometric negative
    side for CDF/KS use (the negative tail is heavy, ``|z|^(-3/2)``)."""
    pts = [np.asarray(edges, dtype=float)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == 0.0:
            pts.append(np.geomspace(max(hi * 1e-3, 1e-7 * x), hi, per_bin + 4)[:-1])
        else:
            pts.append(np.linspace(lo, hi, per_bin + 1)[1:-1])
    tail_hi = max(float(edges[-1]), 1.05 * x)
    pts.append(np.linspace(x, tail_hi, 5)[1:])
    if with_negative_side:
        pts.append(-np.geomspace(-z_neg_far, 1e-5 * x, n_negative))
    return np.unique(np.concatenate(pts))


@dataclass(frozen=True)
class Check:
    """One verdict of :func:`validate_basepoints`: ``value`` (a ``what``)
    passes when it is at most ``threshold``."""

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
    curve: DensityCurve
    cdf: np.ndarray | None
    checks: list[Check]


def validate_basepoints(
    spec: ProcessSpec,
    x0: float,
    t0: float,
    cfg: McConfig,
    *,
    l1_max: float = 0.10,
    hist_hi: float = 8.5,
    workers: int = 1,
    with_ks: bool = True,
) -> ValidationResult:
    """Monte Carlo base points against the analytic base-point density.

    Checks: L1 histogram distance below ``l1_max``, vanishing analytic
    density above the level, mass concentration at the origin (the bin
    nearest 0 carries the maximal density on both sides of the comparison),
    and optionally a Kolmogorov-Smirnov test against the analytic CDF at the
    1% asymptotic critical value.  ``checks`` lists the verdicts of the
    checks that ran; ``report["pass"]`` is true when all of them passed.

    Only the stable-1/2 process has an implemented analytic law; for other
    process families the Monte Carlo side still runs but every analytic
    comparison is skipped with an explicit notice.  The KS test is likewise
    skipped with a notice when the sample law degenerates to a point mass,
    and the L1 and concentration checks when no sample lands in the
    histogram range ``[0, hist_hi]``: an empty histogram tests nothing.
    """
    samples = sample_basepoints(spec, x0, t0, cfg, workers=workers)
    edges = spike_refined_bin_edges(hist_hi, cfg.bins)
    hist = histogram(samples.values, edges)

    report: dict = {
        "process": process_to_dict(spec),
        "x0": x0,
        "t0": t0,
        "n": cfg.n_samples,
        "n_failed": samples.n_failed,
        "n_max": cfg.n_max,
        "window": list(cfg.window),
        "seed": {
            "root_seed": cfg.root_seed.root_seed,
            "stream_id": cfg.root_seed.stream_id,
        },
        "tolerances": {
            "l1_max": l1_max,
            "ks_max": float(1.628 / np.sqrt(cfg.n_samples)),
        },
        "skipped": [],
    }

    if not isinstance(spec, StableHalf):
        report["skipped"].append(
            "analytic comparison: no closed-form base-point law for this "
            "process family (only stable-half)"
        )
        report["pass"] = True
        return ValidationResult(report, samples, hist, None, None, [])

    grid = validation_z_grid(edges, x0, with_negative_side=with_ks)
    curve = basepoint_density(IGQuery(x0, t0, grid))

    report["mass"] = float(curve.mass)
    checks = []

    if np.any(hist.counts):
        l1 = float(l1_distance(hist, curve))
        report["l1"] = l1
        report["l1_pass"] = bool(l1 <= l1_max)
        checks.append(Check("l1", "histogram L1 distance", l1, l1_max, report["l1_pass"]))
        bin_means = _curve_bin_means(curve, edges)
        emp_density = hist.counts / (hist.n * np.diff(edges))
        densest = max(int(np.argmax(bin_means)), int(np.argmax(emp_density)))
        report["concentration_pass"] = densest == 0
        checks.append(Check("concentration", "densest bin index", densest, 0, densest == 0))
    else:
        report["skipped"].append(
            f"l1 and concentration: no sample in the histogram range [0, {hist_hi!r}] "
            "(--hist-hi); an empty histogram tests nothing"
        )

    beyond = curve.f[curve.z > x0]
    support_max = 1e-10
    worst = float(np.max(np.abs(beyond))) if beyond.size else None
    report["support_max_beyond_level"] = worst
    report["support_pass"] = bool(worst is not None and worst <= support_max)
    checks.append(
        Check(
            "support",
            "max |density| above x0",
            np.nan if worst is None else worst,
            support_max,
            report["support_pass"],
        )
    )

    cdf = None
    if with_ks:
        std = float(np.std(samples.values))
        if std <= 1e-12 * (1.0 + abs(float(np.mean(samples.values)))):
            report["skipped"].append(
                "ks: sample law is a point mass (degenerate); no density comparison"
            )
        else:
            cdf = cdf_from_curve(curve)
            ks = ks_distance(
                samples.values, lambda z: np.interp(z, cdf[:, 0], cdf[:, 1])
            )
            ks_max = report["tolerances"]["ks_max"]
            report["ks"] = float(ks)
            report["ks_pass"] = bool(ks <= ks_max)
            checks.append(
                Check("ks", "Kolmogorov-Smirnov distance", float(ks), ks_max, report["ks_pass"])
            )
    else:
        report["skipped"].append("ks: disabled by configuration")

    report["pass"] = all(c.passed for c in checks)
    return ValidationResult(report, samples, hist, curve, cdf, checks)


# ---------------------------------------------------------------------------
# exports


def write_samples_csv(samples: BasepointSamples, out: Path | str) -> None:
    write_csv(out, "i,z", "{},{:.17g}", samples.indices, samples.values)


def write_histogram_csv(h: Histogram, out: Path | str) -> None:
    n = h.counts.size
    write_csv(
        out, "left,right,count", "{:.17g},{:.17g},{}", h.edges[:n], h.edges[1 : n + 1], h.counts
    )


def write_report_json(report: dict, out: Path | str) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
