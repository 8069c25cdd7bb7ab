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
from scipy.special import gammaincinv, ndtri

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
    """Vectorized Poisson quantile: smallest k with u < P(K <= k)."""
    out = np.zeros(u.shape, dtype=np.int64)
    term = np.exp(-lam)
    cdf = np.full(u.shape, term)
    unresolved = u >= cdf
    k = 0
    k_cap = int(lam + 12.0 * np.sqrt(lam) + 60.0)
    while unresolved.any():
        k += 1
        if k > k_cap:
            out[unresolved] = k  # cumulative probability beyond cap < 1e-12
            break
        term *= lam / k
        cdf += term
        hit = unresolved & (u < cdf)
        out[hit] = k
        unresolved &= ~hit
    return out


def _increments_from_uniforms(spec: ProcessSpec, dt: float, u: np.ndarray) -> np.ndarray:
    """Map one uniform word per increment to one draw of ``L(dt)``."""
    if isinstance(spec, GammaDrift):
        return spec.scale * gammaincinv(spec.shape_rate * dt, u) + spec.drift * dt
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
    count: int,
    substream: tuple[int, ...],
) -> np.ndarray:
    n_blocks = (count + BLOCK - 1) // BLOCK
    blocks = [
        _increment_block(
            spec, dt, seed, direction, j, min(BLOCK, count - j * BLOCK), substream
        )
        for j in range(n_blocks)
    ]
    return np.concatenate(blocks) if blocks else np.empty(0)


def forward_increments(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    count: int,
    substream: tuple[int, ...] = (),
) -> np.ndarray:
    """Increments ``dx_k`` for ``k = 1 .. count``."""
    return _increment_run(spec, dt, seed, _FORWARD, count, substream)


def backward_increments(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    count: int,
    substream: tuple[int, ...] = (),
) -> np.ndarray:
    """Increments ``dx_k`` for ``k = 0, -1, .. -(count-1)`` (that order)."""
    return _increment_run(spec, dt, seed, _BACKWARD, count, substream)


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
    """
    grid = DyadicGrid(n_max, k_min, k_max)
    dt = grid.dt
    fwd = forward_increments(spec, dt, seed, k_max, substream)
    bwd = backward_increments(spec, dt, seed, -k_min, substream)

    values = np.empty(k_max - k_min + 1)
    origin = -k_min
    values[origin] = 0.0
    if k_max > 0:
        values[origin + 1 :] = np.cumsum(fwd)
    if k_min < 0:
        values[:origin] = -np.cumsum(bwd)[::-1]

    if not np.all(np.diff(values) > 0.0):
        bad = int(np.argmin(np.diff(values) > 0.0))
        raise RuntimeError(
            f"sampled path is not strictly increasing at k={grid.k_min + bad}; "
            "for a driftless Gamma process at fine levels this can be caused "
            "by float underflow of tiny increments"
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
    grid = path.grid
    if np.any(pos < grid.k_min):
        bad = float(np.min(pos)) * grid.dt
        raise WindowError(
            f"time {bad!r} below sampled window start t_min={grid.t_min!r}"
        )
    if np.any(pos > grid.k_max):
        bad = float(np.max(pos)) * grid.dt
        raise WindowError(
            f"time {bad!r} above sampled window end t_max={grid.t_max!r}"
        )


def _check_window_x(path: LevyPathSample, x: np.ndarray) -> None:
    lo, hi = path.values[0], path.values[-1]
    if np.any(x < lo):
        raise WindowError(f"level {float(np.min(x))!r} below sampled range min {lo!r}")
    if np.any(x > hi):
        raise WindowError(f"level {float(np.max(x))!r} above sampled range max {hi!r}")


def polygon_eval(path: LevyPathSample, tau):
    """Piecewise affine interpolation through the grid points.

    On ``[t_(k-1), t_k)`` returns ``alpha * x_(k-1) + (1-alpha) * x_k`` with
    ``alpha = (t_k - tau) * 2^level``; exact (bitwise) at grid nodes.
    """
    grid = path.grid
    tau_arr = np.asarray(tau, dtype=float)
    pos = tau_arr * 2.0**grid.level
    _check_window_tau(path, pos)
    m = np.minimum(np.floor(pos).astype(np.int64), grid.k_max - 1)
    alpha = (m + 1) - pos
    i = m - grid.k_min
    out = alpha * path.values[i] + (1.0 - alpha) * path.values[i + 1]
    return float(out) if np.isscalar(tau) else out


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
    pos = tau_arr * 2.0**grid.level
    _check_window_tau(path, pos)
    m = np.minimum(np.floor(pos).astype(np.int64), grid.k_max)
    out = path.values[m - grid.k_min]
    return float(out) if np.isscalar(tau) else out


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
