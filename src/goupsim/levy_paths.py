"""Two-sided strictly increasing Levy paths sampled on dyadic grids.

Paths are sampled once at the finest level; coarser levels are produced only
by aggregation, so the dyadic consistency relation (coarse increments are
exact sums of fine increments) holds by construction on a single realization.

Reproducibility: every increment is a deterministic transform of exactly one
uniform word drawn from a counter-based (Philox) stream.  Streams are keyed
by ``(root_seed, stream_id, direction, block)``, where blocks are fixed-size
runs of ``BLOCK`` consecutive grid increments, so any window of a path can be
re-materialized in any order, by any worker, with bitwise identical values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import gammaincinv, gammaln, ndtri

__all__ = [
    "GammaDrift",
    "PoissonDrift",
    "StableHalf",
    "ProcessSpec",
    "RngSeed",
    "DyadicGrid",
    "LevyPathSample",
    "WindowError",
    "stream_for",
    "sample_increment",
    "forward_values_until",
    "build_two_sided_path",
    "aggregate_to_level",
    "polygon_eval",
    "polygon_inverse",
    "step_eval",
    "hitting_time",
    "write_path_csv",
    "write_path_metadata",
    "process_to_dict",
    "process_from_dict",
]

#: increments per keyed RNG block
BLOCK = 4096

_FORWARD = 0
_BACKWARD = 1


class WindowError(ValueError):
    """An evaluation argument left the sampled window (no extrapolation)."""


@dataclass(frozen=True)
class GammaDrift:
    """Gamma subordinator plus linear drift.

    ``L(t) = Gamma(shape_rate * t, scale) + drift * t``.
    """

    shape_rate: float
    scale: float
    drift: float = 0.0

    def __post_init__(self) -> None:
        if not self.shape_rate > 0.0:
            raise ValueError("shape_rate must be positive")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if self.drift < 0.0:
            raise ValueError("drift must be nonnegative")


@dataclass(frozen=True)
class PoissonDrift:
    """Compound Poisson (fixed jump size) plus linear drift.

    Strict increase between jumps requires ``drift > 0``.
    """

    intensity: float
    jump_size: float
    drift: float

    def __post_init__(self) -> None:
        if not self.intensity > 0.0:
            raise ValueError("intensity must be positive")
        if not self.jump_size > 0.0:
            raise ValueError("jump_size must be positive")
        if not self.drift > 0.0:
            raise ValueError("drift must be positive")


@dataclass(frozen=True)
class StableHalf:
    """Stable-1/2 subordinator: first-passage process of standard Brownian
    motion, with ``L(dt) =d= dt^2 / Z^2`` for a standard normal ``Z``."""


ProcessSpec = GammaDrift | PoissonDrift | StableHalf


@dataclass(frozen=True)
class RngSeed:
    root_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.root_seed < 2**64:
            raise ValueError("root_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")


@dataclass(frozen=True)
class DyadicGrid:
    """Grid ``t_k = k * 2^(-level)`` for ``k_min <= k <= k_max``."""

    level: int
    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.k_min <= 0 <= self.k_max:
            raise ValueError("grid must contain k=0, need k_min <= 0 <= k_max")

    @property
    def dt(self) -> float:
        return 2.0 ** (-self.level)

    def time(self, k):
        return np.asarray(k, dtype=float) * self.dt

    @property
    def t_min(self) -> float:
        return self.k_min * self.dt

    @property
    def t_max(self) -> float:
        return self.k_max * self.dt


@dataclass(frozen=True, eq=False)
class LevyPathSample:
    """One realization: values ``x_k = L(t_k)`` on a dyadic grid, ``x_0 = 0``.

    ``values[i]`` holds ``x_(k_min + i)``; values are strictly increasing.
    """

    grid: DyadicGrid
    values: np.ndarray
    seed: RngSeed
    process: ProcessSpec

    def index_of(self, k: int) -> int:
        return int(k) - self.grid.k_min

    def value_at_index(self, k):
        return self.values[np.asarray(k) - self.grid.k_min]


def stream_for(seed: RngSeed, *key: int) -> Generator:
    """Deterministic Philox stream for ``(root_seed, stream_id, *key)``."""
    ss = SeedSequence(seed.root_seed, spawn_key=(seed.stream_id, *key))
    return Generator(Philox(ss))


def _open_uniforms(rng: Generator, size: int) -> np.ndarray:
    # one 64-bit word per value; clamp away the measure-2^-53 u == 0 event
    return np.maximum(rng.random(size), 1e-300)


def _poisson_icdf(lam: float, u: np.ndarray) -> np.ndarray:
    """Vectorized Poisson quantile: smallest k with u < P(K <= k).

    The cumulative probabilities do not depend on ``u``, so they are summed
    once as scalars, only as far as the largest ``u`` needs, and each ``u``
    of the tail ``u >= P(K = 0)`` is placed among them by binary search.
    """
    term = np.exp(-lam)
    out = np.zeros(u.shape, dtype=np.int64)
    tail = np.flatnonzero(u >= term)  # every other u has k = 0
    if tail.size:
        u_tail = u[tail]
        u_max = u_tail.max()
        cdf = [term]
        k_cap = int(lam + 12.0 * np.sqrt(lam) + 60.0)
        k = 0
        while cdf[-1] <= u_max and k < k_cap:
            k += 1
            term *= lam / k
            cdf.append(cdf[-1] + term)
        # u at or beyond cdf[k_cap] gets k_cap + 1 (probability < 1e-12)
        out[tail] = np.searchsorted(cdf, u_tail, side="right")
    return out


#: log of 2^-1100, far enough below the smallest subnormal 2^-1074 that a
#: Gamma quantile under 2^-1100 rounds to 0.0 with a wide margin
_LOG_TINY = -1100.0 * np.log(2.0)


def _increments_from_uniforms(spec: ProcessSpec, dt: float, u: np.ndarray) -> np.ndarray:
    """Map one uniform word per increment to one draw of ``L(dt)``.

    Gamma: ``scale * gammaincinv(a, u) + drift * dt`` with ``a = shape_rate *
    dt``, bit for bit, but without calling ``gammaincinv`` where it returns
    ``0.0``.  For every ``x > 0`` the regularized incomplete gamma function
    obeys ``P(a, x) >= e^(-x) x^a / Gamma(a + 1)``, so every ``u`` with
    ``log u <= a log(2^-1100) - gammaln(1 + a)`` has its quantile below
    ``2^-1100`` (the ``e^(-x)`` factor moves the log by only ``2^-1100``),
    and that quantile rounds to ``0.0``.  Rounding to ``0.0`` needs only a
    quantile below ``2^-1075``, so the cut keeps a margin of ``25 a log 2``
    in the log, against rounding errors near ``1e-15 |log u|`` in the two
    sides.  The comparison is made on ``log u`` rather than on ``u``: for
    tiny ``a`` the cut sits next to ``u = 1``, where ``exp`` of it would
    round by more than the margin, while ``log u`` keeps full relative
    precision.  The cut increments are set to ``scale * 0.0 + drift * dt``,
    the value the call gives; at fine dyadic levels that is almost all of
    them.
    """
    if isinstance(spec, GammaDrift):
        a = spec.shape_rate * dt
        q = np.zeros_like(u)
        live = np.log(u) > a * _LOG_TINY - gammaln(1.0 + a)
        q[live] = gammaincinv(a, u[live])
        return spec.scale * q + spec.drift * dt
    if isinstance(spec, PoissonDrift):
        counts = _poisson_icdf(spec.intensity * dt, u)
        return spec.jump_size * counts.astype(float) + spec.drift * dt
    if isinstance(spec, StableHalf):
        z = ndtri(u)
        return dt * dt / (z * z)
    raise TypeError(f"unsupported process spec: {spec!r}")


def sample_increment(spec: ProcessSpec, dt: float, rng: Generator, size: int | None = None):
    """Draw ``L(dt)`` (or an array of independent copies) from ``rng``.

    ``dt`` must be positive.  Each draw consumes exactly one uniform word.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = 1 if size is None else int(size)
    u = _open_uniforms(rng, n)
    draws = _increments_from_uniforms(spec, dt, u)
    return float(draws[0]) if size is None else draws


def _increment_block(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    direction: int,
    block: int,
    count: int = BLOCK,
    substream: tuple[int, ...] = (),
) -> np.ndarray:
    """First ``count`` increments of one keyed block.

    The uniform block is always generated in full (that is what pins the
    stream), but only the needed prefix goes through the increment transform;
    the transform is elementwise, so lazily materialized windows match
    eagerly built ones bitwise.
    """
    rng = stream_for(seed, *substream, direction, block)
    u = _open_uniforms(rng, BLOCK)
    return _increments_from_uniforms(spec, dt, u[:count])


def _increment_run(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    direction: int,
    out: np.ndarray,
    substream: tuple[int, ...],
) -> np.ndarray:
    """Fill ``out`` with the first ``out.size`` increments of one direction,
    one keyed block at a time; ``out`` may be a strided view."""
    for block, start in enumerate(range(0, out.size, BLOCK)):
        stop = min(start + BLOCK, out.size)
        out[start:stop] = _increment_block(
            spec, dt, seed, direction, block, stop - start, substream
        )
    return out


def forward_values_until(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    level: float,
    count: int,
    substream: tuple[int, ...] = (),
) -> np.ndarray | None:
    """Forward path values ``x_1 .. x_k`` up to and including the first
    ``k <= count`` with ``x_k >= level``, or None if ``x_count < level``.

    Keyed blocks are drawn one at a time and the walk stops at the block
    holding the hit, so no later block is materialized.  Each block's sum
    carries the previous block's last value into its first increment: one
    sequential sum, bitwise equal to the eager :func:`build_two_sided_path`.
    """
    chunks: list[np.ndarray] = []
    total = 0.0
    for block, start in enumerate(range(0, count, BLOCK)):
        inc = _increment_block(
            spec, dt, seed, _FORWARD, block, min(BLOCK, count - start), substream
        )
        inc[0] += total
        cum = np.cumsum(inc, out=inc)
        chunks.append(cum)
        if cum[-1] >= level:
            hit = start + int(np.searchsorted(cum, level, side="left")) + 1
            return np.concatenate(chunks)[:hit]
        total = cum[-1]
    return None


def forward_increments(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    count: int,
    substream: tuple[int, ...] = (),
) -> np.ndarray:
    """Increments ``dx_k`` for ``k = 1 .. count``."""
    return _increment_run(spec, dt, seed, _FORWARD, np.empty(count), substream)


def backward_increments(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    count: int,
    substream: tuple[int, ...] = (),
) -> np.ndarray:
    """Increments ``dx_k`` for ``k = 0, -1, .. -(count-1)`` (that order)."""
    return _increment_run(spec, dt, seed, _BACKWARD, np.empty(count), substream)


def build_two_sided_path(
    spec: ProcessSpec,
    n_max: int,
    k_min: int,
    k_max: int,
    seed: RngSeed,
    substream: tuple[int, ...] = (),
) -> LevyPathSample:
    """Sample ``x_k = L(t_k)`` for ``k_min <= k <= k_max`` at level ``n_max``.

    ``x_0 = 0`` exactly; the negative side uses independent increments
    accumulated backwards.  ``substream`` extends the stream key, giving
    independent realizations (for example one per Monte Carlo sample) under
    one root seed.  Strict monotonicity is asserted on every build.

    Increments are written straight into the output and summed in place (the
    backward side through a reversed view), so the build holds no full-length
    temporary besides the output.
    """
    grid = DyadicGrid(n_max, k_min, k_max)
    dt = grid.dt
    values = np.empty(k_max - k_min + 1)
    origin = -k_min
    values[origin] = 0.0
    fwd = values[origin + 1 :]
    bwd = values[:origin][::-1]
    _increment_run(spec, dt, seed, _FORWARD, fwd, substream)
    _increment_run(spec, dt, seed, _BACKWARD, bwd, substream)
    np.cumsum(fwd, out=fwd)
    np.cumsum(bwd, out=bwd)
    np.negative(bwd, out=bwd)

    increasing = values[1:] > values[:-1]
    if not increasing.all():
        bad = int(np.argmin(increasing))
        raise RuntimeError(
            f"sampled path is not strictly increasing at k={grid.k_min + bad}; "
            "the increment to the next grid point is below half an ulp of the "
            f"path value {float(values[bad])!r}, so adding it leaves the value unchanged"
        )
    return LevyPathSample(grid, values, seed, spec)


def aggregate_to_level(path: LevyPathSample, n: int) -> LevyPathSample:
    """Coarsen to level ``n <= path.grid.level`` by subsampling grid values.

    Coarse increments are then exact sums of fine increments up to float
    summation order.  The coarse index range is the largest one representable
    inside the fine window.
    """
    level = path.grid.level
    if n > level:
        raise ValueError(f"cannot aggregate level-{level} path to finer level {n}")
    if n == level:
        return path
    factor = 2 ** (level - n)
    k_min_c = -((-path.grid.k_min) // factor)
    k_max_c = path.grid.k_max // factor
    idx = np.arange(k_min_c, k_max_c + 1) * factor - path.grid.k_min
    return LevyPathSample(
        DyadicGrid(n, k_min_c, k_max_c), path.values[idx], path.seed, path.process
    )


def _check_window_tau(path: LevyPathSample, pos: np.ndarray) -> None:
    """Refuse grid positions outside ``[k_min, k_max]``, NaN included."""
    grid = path.grid
    if pos.size == 0:
        return
    lo, hi = np.min(pos), np.max(pos)
    if not (grid.k_min <= lo and hi <= grid.k_max):
        if lo < grid.k_min:
            raise WindowError(
                f"time {float(lo) * grid.dt!r} below sampled window start t_min={grid.t_min!r}"
            )
        if hi > grid.k_max:
            raise WindowError(
                f"time {float(hi) * grid.dt!r} above sampled window end t_max={grid.t_max!r}"
            )
        raise WindowError(
            f"time nan is not in the sampled window [{grid.t_min!r}, {grid.t_max!r}]"
        )


def _check_window_x(path: LevyPathSample, x: np.ndarray) -> None:
    """Refuse levels outside the sampled value range, NaN included."""
    lo, hi = float(path.values[0]), float(path.values[-1])
    if x.size == 0:
        return
    x_lo, x_hi = np.min(x), np.max(x)
    if not (lo <= x_lo and x_hi <= hi):
        if x_lo < lo:
            raise WindowError(f"level {float(x_lo)!r} below sampled range min {lo!r}")
        if x_hi > hi:
            raise WindowError(f"level {float(x_hi)!r} above sampled range max {hi!r}")
        raise WindowError(f"level nan is not in the sampled range [{lo!r}, {hi!r}]")


def polygon_eval(path: LevyPathSample, tau):
    """Piecewise affine interpolation through the grid points.

    On ``[t_(k-1), t_k)`` returns ``alpha * x_(k-1) + (1-alpha) * x_k`` with
    ``alpha = (t_k - tau) * 2^level``; exact (bitwise) at grid nodes.
    """
    grid = path.grid
    tau_arr = np.asarray(tau, dtype=float)
    pos = tau_arr.reshape(-1) * 2.0**grid.level
    _check_window_tau(path, pos)
    m = np.floor(pos)  # grid indices are exact in float
    np.minimum(m, grid.k_max - 1, out=m)
    alpha = np.add(m, 1.0)
    alpha -= pos
    m -= grid.k_min
    i = m.astype(np.intp)
    out = path.values[i]
    out *= alpha
    i += 1
    upper = path.values[i]
    np.subtract(1.0, alpha, out=alpha)
    upper *= alpha
    out += upper
    return float(out[0]) if np.isscalar(tau) else out.reshape(tau_arr.shape)


def polygon_inverse(path: LevyPathSample, x):
    """Unique ``tau`` with ``polygon_eval(path, tau) == x`` (strict increase)."""
    grid = path.grid
    x_arr = np.asarray(x, dtype=float)
    _check_window_x(path, x_arr)
    j = np.maximum(np.searchsorted(path.values, x_arr, side="left"), 1)
    frac = (x_arr - path.values[j - 1]) / (path.values[j] - path.values[j - 1])
    tau = (grid.k_min + (j - 1) + frac) * grid.dt
    return float(tau) if np.isscalar(x) else tau


def step_eval(path: LevyPathSample, tau):
    """Right-continuous step value: ``x_k`` for ``tau in [t_k, t_(k+1))``."""
    grid = path.grid
    tau_arr = np.asarray(tau, dtype=float)
    pos = tau_arr.reshape(-1) * 2.0**grid.level
    _check_window_tau(path, pos)
    np.floor(pos, out=pos)  # grid indices are exact in float
    np.minimum(pos, grid.k_max, out=pos)
    pos -= grid.k_min
    out = path.values[pos.astype(np.intp)]
    return float(out[0]) if np.isscalar(tau) else out.reshape(tau_arr.shape)


def hitting_time(path: LevyPathSample, x):
    """Smallest grid time ``t_k`` with ``x_k >= x`` (generalized inverse)."""
    grid = path.grid
    x_arr = np.asarray(x, dtype=float)
    _check_window_x(path, x_arr)
    j = np.searchsorted(path.values, x_arr, side="left")
    t = (grid.k_min + j) * grid.dt
    return float(t) if np.isscalar(x) else t


# ---------------------------------------------------------------------------
# serialization

def process_to_dict(spec: ProcessSpec) -> dict:
    if isinstance(spec, GammaDrift):
        return {
            "family": "gamma",
            "shape_rate": spec.shape_rate,
            "scale": spec.scale,
            "drift": spec.drift,
        }
    if isinstance(spec, PoissonDrift):
        return {
            "family": "poisson",
            "intensity": spec.intensity,
            "jump_size": spec.jump_size,
            "drift": spec.drift,
        }
    if isinstance(spec, StableHalf):
        return {"family": "stable-half"}
    raise TypeError(f"unsupported process spec: {spec!r}")


def process_from_dict(d: dict) -> ProcessSpec:
    family = d.get("family")
    if family == "gamma":
        return GammaDrift(d["shape_rate"], d["scale"], d["drift"])
    if family == "poisson":
        return PoissonDrift(d["intensity"], d["jump_size"], d["drift"])
    if family == "stable-half":
        return StableHalf()
    raise ValueError(f"unknown process family: {family!r}")


def write_path_csv(path: LevyPathSample, out: Path | str) -> None:
    """Write ``k,t,x`` rows, one per grid index, 17 significant digits."""
    from .csvio import write_csv  # csvio imports BLOCK from this module

    k = np.arange(path.grid.k_min, path.grid.k_max + 1)
    write_csv(out, "k,t,x", "{},{:.17g},{:.17g}", k, path.grid.time(k), path.values)


def write_path_metadata(path: LevyPathSample, out: Path | str) -> None:
    meta = {
        "process": process_to_dict(path.process),
        "n_max": path.grid.level,
        "seed": {"root_seed": path.seed.root_seed, "stream_id": path.seed.stream_id},
        "k_min": path.grid.k_min,
        "k_max": path.grid.k_max,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
