"""Two-sided non-decreasing Levy paths sampled on dyadic grids.

Paths are sampled once at the finest level; coarser levels are produced only
by aggregation, so the dyadic consistency relation (coarse increments are
exact sums of fine increments) holds by construction on a single realization.

Reproducibility: every increment is a deterministic transform of exactly one
uniform word drawn from a counter-based (Philox) stream, the quantile
:func:`jump_quantile` of the word's uniform plus ``drift * dt``.  Side
``direction`` of a path (0 forward, 1 backward) reads the single stream
``stream_for(seed, PATH_PURPOSE, direction)`` from counter 0, one word
per grid increment, outward from ``t = 0``.  The purpose tag keeps
these streams apart from every other stream under the same seed.  Because a
side is one stream read in order, a wider window extends a narrower one bit
for bit.

Monte Carlo base points do not read these streams: they descend keyed bridge
trees (:mod:`goupsim.bridge_tree`), whose unit-length top nodes take the
same :func:`jump_quantile` at ``dt = 1``.

Values are non-decreasing in floating point: every increment is at least 0,
and a rounded running sum of such terms never decreases.  A tie ``x_(k+1) ==
x_k`` is an increment below half an ulp of ``x_k`` (a driftless Gamma
quantile that underflows, or a small step after a large stable-1/2 jump).
The bridge trees follow the same rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import gammaincinv, gammaln, ndtri

from .csvio import write_csv

__all__ = [
    "GammaDrift",
    "PoissonDrift",
    "StableHalf",
    "ProcessSpec",
    "FAMILIES",
    "RngSeed",
    "PATH_PURPOSE",
    "MAX_LEVEL",
    "DyadicGrid",
    "LevyPathSample",
    "WindowError",
    "stream_for",
    "jump_quantile",
    "poisson_icdf",
    "build_two_sided_path",
    "aggregate_to_level",
    "polygon_eval",
    "polygon_inverse",
    "step_eval",
    "hitting_time",
    "write_path_csv",
    "process_to_dict",
]

#: spawn-key tag of a path side's Philox stream, apart from every other
#: stream under the same seed
PATH_PURPOSE = 0x70617468  # "path"

#: the finest level: its grid step 2^-1022 is the smallest normal double;
#: finer steps are subnormal or 0.0
MAX_LEVEL = 1022

#: raw words drawn and transformed together in a build
_CHUNK = 8 * 4096

_FORWARD = 0
_BACKWARD = 1


class WindowError(ValueError):
    """An evaluation argument left the sampled window (no extrapolation)."""


@dataclass(frozen=True)
class GammaDrift:
    """Gamma subordinator plus linear drift.

    ``L(t) = Gamma(shape_rate * t, scale) + drift * t``.
    """

    family: ClassVar[str] = "gamma"
    shape_rate: float
    scale: float
    drift: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.shape_rate < math.inf:
            raise ValueError(f"shape_rate must be positive and finite, got {self.shape_rate}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.drift < math.inf:
            raise ValueError(f"drift must be nonnegative and finite, got {self.drift}")


@dataclass(frozen=True)
class PoissonDrift:
    """Compound Poisson (fixed jump size) plus linear drift.

    ``drift > 0`` is required; a driftless path, flat between jumps, is not
    supported.
    """

    family: ClassVar[str] = "poisson"
    intensity: float
    jump_size: float
    drift: float

    def __post_init__(self) -> None:
        if not 0.0 < self.intensity < math.inf:
            raise ValueError(f"intensity must be positive and finite, got {self.intensity}")
        if not 0.0 < self.jump_size < math.inf:
            raise ValueError(f"jump_size must be positive and finite, got {self.jump_size}")
        if not 0.0 < self.drift < math.inf:
            raise ValueError(f"drift must be positive and finite, got {self.drift}")


@dataclass(frozen=True)
class StableHalf:
    """Stable-1/2 subordinator: first-passage process of standard Brownian
    motion, with ``L(dt) =d= dt^2 / Z^2`` for a standard normal ``Z``."""

    family: ClassVar[str] = "stable-half"
    drift: ClassVar[float] = 0.0


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
    """Grid ``t_k = k * 2^(-level)`` for ``k_min <= k <= k_max``.

    The one owner of the level and window rules: ``0 <= level <= MAX_LEVEL``,
    ``k_min <= 0 <= k_max``, and ``|k| < 2^53``, so that every grid time
    ``k 2^-level`` is an exact double.  They are checked in that order.
    """

    level: int
    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must lie in 0..{MAX_LEVEL}, got {self.level}")
        if not self.k_min <= 0 <= self.k_max:
            raise ValueError(f"the k window must contain k = 0, got ({self.k_min}, {self.k_max})")
        if max(-self.k_min, self.k_max) >= 2**53:
            raise ValueError(
                "the k window reaches 2^53 grid steps from k = 0, beyond which grid times "
                "are not exact doubles"
            )

    @classmethod
    def spanning(cls, level: int, t_lo: float, t_hi: float) -> DyadicGrid:
        """The level-``level`` grid over the smallest k window that holds the
        finite times ``t_lo`` and ``t_hi`` and ``k = 0``."""
        cls(level, 0, 0)  # the level first: 2^level is formed for a valid one only
        scale = 2**level
        (n_lo, d_lo), (n_hi, d_hi) = t_lo.as_integer_ratio(), t_hi.as_integer_ratio()
        # floor(t_lo 2^level) and ceil(t_hi 2^level) in exact integers, which
        # cannot overflow as a float product can
        return cls(level, min(n_lo * scale // d_lo, 0), max(-(-n_hi * scale // d_hi), 0))

    @property
    def dt(self) -> float:
        return 2.0 ** (-self.level)

    def time(self, k):
        return np.asarray(k, dtype=float) * self.dt


@dataclass(frozen=True, eq=False)
class LevyPathSample:
    """One realization: values ``x_k = L(t_k)`` on a dyadic grid, ``x_0 = 0``.

    ``values[i]`` holds ``x_(k_min + i)``; values are finite and
    non-decreasing (a tie is an increment below half an ulp).
    """

    grid: DyadicGrid
    values: np.ndarray
    process: ProcessSpec


def stream_for(seed: RngSeed, *key: int) -> Generator:
    """Deterministic Philox stream for ``(root_seed, stream_id, *key)``."""
    ss = SeedSequence(seed.root_seed, spawn_key=(seed.stream_id, *key))
    return Generator(Philox(ss))


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles ``(w >> 11) 2^-53`` from raw words,
    clamped away from the measure-2^-53 ``u == 0`` event."""
    return np.maximum((raw >> 11) * 2.0**-53, 1e-300)


#: smallest normal float
_TINY = np.finfo(float).tiny


def _poisson_start(lam: float) -> tuple[int, float]:
    """``(k_lo, P(K = k_lo))``: where :func:`poisson_icdf` starts its sum."""
    term = np.exp(-lam)
    if term >= _TINY:
        return 0, term
    k_lo = int(lam - 12.0 * np.sqrt(lam) - 60.0)
    return k_lo, np.exp(k_lo * np.log(lam) - lam - gammaln(k_lo + 1.0))


def poisson_icdf(lam: float, u: np.ndarray) -> np.ndarray:
    """Vectorized Poisson quantile: smallest k with u < P(K <= k), for ``u``
    of any shape.

    The cumulative probabilities do not depend on ``u``, so they are summed
    once as scalars, only as far as the largest ``u`` needs, and each ``u``
    of the tail ``u >= P(K = k_lo)`` is placed among them by binary search.

    The sum starts at ``k_lo = 0`` from ``exp(-lam)``.  Where that is not a
    normal float (``lam`` above about 708.4; a subnormal start loses bits in
    every later term) it starts instead at ``k_lo = lam - 12 sqrt(lam) - 60``
    from the log-space probability of ``k_lo``, and the mass below ``k_lo``
    (under ``e^-72``, far below the ``2^-53`` resolution of ``u``) is left
    out.
    """
    k_lo, term = _poisson_start(lam)
    out = np.zeros(u.shape, dtype=np.int64)
    tail = u >= term  # every other u has k = k_lo
    if tail.any():
        u_tail = u[tail]
        u_max = u_tail.max()
        cdf = [term]
        k_cap = int(lam + 12.0 * np.sqrt(lam) + 60.0)
        k = k_lo
        while cdf[-1] <= u_max and k < k_cap:
            k += 1
            term *= lam / k
            cdf.append(cdf[-1] + term)
        # u at or beyond cdf[k_cap] gets k_cap + 1 (probability < 1e-12)
        out[tail] = np.searchsorted(cdf, u_tail, side="right")
    if k_lo:
        out += k_lo
    return out


def jump_quantile(spec: ProcessSpec, dt: float, u) -> np.ndarray:
    """The quantile of ``L(dt) - drift * dt`` at uniforms ``u`` (any shape):
    ``scale * gammaincinv(shape_rate dt, u)`` for Gamma, ``jump_size *
    poisson_icdf(intensity dt, u)`` for Poisson and ``dt^2 / ndtri(u)^2``
    for stable-1/2."""
    if isinstance(spec, GammaDrift):
        return spec.scale * gammaincinv(spec.shape_rate * dt, u)
    if isinstance(spec, PoissonDrift):
        return spec.jump_size * poisson_icdf(spec.intensity * dt, u)
    if isinstance(spec, StableHalf):
        z = ndtri(u)
        return dt * dt / (z * z)
    raise TypeError(f"unsupported process spec: {spec!r}")


def _increments_from_uniforms(spec: ProcessSpec, dt: float, u: np.ndarray) -> np.ndarray:
    """Map one uniform word per increment to one draw of ``L(dt)``."""
    return jump_quantile(spec, dt, u) + spec.drift * dt


#: log of 2^-1100, far enough below the smallest subnormal 2^-1074 that a
#: Gamma quantile under 2^-1100 rounds to 0.0 with a wide margin
_LOG_TINY = -1100.0 * np.log(2.0)

#: log of 2^-60: a Gamma jump below 2^-60 drift*dt is lost when added to it
_LOG_MARGIN = -60.0 * np.log(2.0)


def _gamma_log_cut(spec: GammaDrift, a: float, dt: float) -> float:
    """``log`` of ``e^(-q) q^a / Gamma(1 + a)``, a lower bound of ``P(a, q)``,
    with ``q = max(2^-1100, 2^-60 drift dt / scale)`` held at most 1."""
    log_q = _LOG_TINY
    if spec.drift > 0.0:
        log_q = math.log(spec.drift) + math.log(dt) - math.log(spec.scale) + _LOG_MARGIN
        log_q = min(max(log_q, _LOG_TINY), 0.0)
    return a * log_q - gammaln(1.0 + a) - math.exp(log_q)


def _quiet_words(spec: ProcessSpec, dt: float) -> int:
    """``M`` such that every raw word below ``M << 11`` gives the base
    increment ``drift * dt`` (no jump), or 0 where no such bound is kept.

    A raw word ``w`` is the uniform ``max((w >> 11) 2^-53, 1e-300)``, so
    every word below ``M << 11`` with ``M = ceil(u_q 2^53)`` has a uniform
    below ``u_q`` when ``u_q > 1e-300``.

    * Gamma: the increment is ``scale * gammaincinv(a, u) + drift * dt``
      with ``a = shape_rate * dt``, and ``u_q = exp(cut) (1 - 2^-30)`` with
      ``cut = a log q - gammaln(1 + a) - q`` (:func:`_gamma_log_cut`).  Let
      ``q = max(2^-1100, 2^-60 drift dt / scale)``, held at most 1 (any
      smaller ``q`` only cuts less).  For every ``x > 0`` the regularized
      incomplete gamma function obeys ``P(a, x) >= e^(-x) x^a / Gamma(1 +
      a)``, so every ``u`` with ``log u <= cut`` has ``u <= P(a, q)``: its
      quantile is at most ``q``.  Two cases:

      - ``q = 2^-1100`` (always when ``drift = 0``): the quantile lies below
        ``2^-1075`` and rounds to ``0.0``, so ``gammaincinv`` returns
        ``0.0``.
      - ``q = 2^-60 drift dt / scale``: the jump ``scale * gammaincinv(a,
        u)`` is at most about ``2^-60 drift dt``, below a quarter ulp of
        ``fl(drift dt)`` whether that is normal, subnormal or 0, so the sum
        rounds to ``fl(drift dt)``.

      Either way the increment is ``scale * 0.0 + drift * dt``, which is
      ``drift * dt``.  The ``-q`` term keeps the bound true when ``drift /
      scale`` is large and ``q`` is not small against ``a``.  Between
      ``2^-60`` and a quarter ulp (at least ``2^-55`` of ``fl(drift dt)``)
      lies a factor ``2^5``, and between ``2^-1100`` and ``2^-1075`` a
      factor ``2^25``: they absorb the error of ``gammaincinv`` and the
      rounding of the two sides of the comparison, near ``1e-15 |log u|``
      each.  The cut is formed in log space: for tiny ``a`` it sits next to
      ``u = 1``, where a bound summed as a probability would round by more
      than the margin, while ``cut`` keeps full relative precision.  Below
      ``u_q``, ``log u`` is at least ``2^-30`` under ``cut``, far beyond the
      rounding of ``log`` and ``exp``, so ``log u <= cut`` holds for every
      word below ``M << 11``.  At fine dyadic levels almost every word is
      quiet: at ``a = 2^-16`` with ``drift = scale = 1``, all but about
      0.077% of them.
    * Poisson: ``u_q = exp(-lam dt) = P(K = 0)``, where the count is 0, kept
      only when :func:`poisson_icdf` sums from ``k_lo = 0``.
    * Stable-1/2: no bound; every increment is a jump.
    """
    u_q = 0.0
    if isinstance(spec, GammaDrift):
        u_q = math.exp(_gamma_log_cut(spec, spec.shape_rate * dt, dt)) * (1.0 - 2.0**-30)
    elif isinstance(spec, PoissonDrift):
        k_lo, term = _poisson_start(spec.intensity * dt)
        u_q = float(term) if k_lo == 0 else 0.0
    return math.ceil(u_q * 2.0**53) if u_q > 1e-300 else 0


def _increments_from_raw(
    spec: ProcessSpec, dt: float, quiet: int, raw: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write the increments of raw Philox words ``raw`` into ``out`` (which
    may be a strided view, and may share ``raw``'s memory) and return it;
    ``quiet`` is ``_quiet_words(spec, dt)``.

    Bitwise equal to :func:`_increments_from_uniforms` on the words'
    uniforms, which only the words at or above ``quiet << 11`` go through.
    Every other increment has no jump: ``scale * 0.0 + drift * dt``, which
    is ``drift * dt``.
    """
    if not quiet:
        out[...] = _increments_from_uniforms(spec, dt, _uniforms(raw))
        return out
    live = np.flatnonzero(raw > np.uint64((quiet << 11) - 1))
    u = _uniforms(raw[live])
    out[...] = spec.drift * dt
    if live.size:
        out[live] = _increments_from_uniforms(spec, dt, u)
    return out


def _increment_run(
    spec: ProcessSpec,
    dt: float,
    seed: RngSeed,
    direction: int,
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out`` (which may be a strided view) with the first
    ``out.size`` increments of side ``direction``: the words of
    ``stream_for(seed, PATH_PURPOSE, direction)`` in order,
    ``_CHUNK`` at a time.  The raw words are staged in ``out``'s own memory,
    so a run allocates no buffer beyond one chunk."""
    bitgen = stream_for(seed, PATH_PURPOSE, direction).bit_generator
    quiet = _quiet_words(spec, dt)
    raw = out.view(np.uint64)
    for lo in range(0, out.size, _CHUNK):
        words = raw[lo : lo + _CHUNK]
        words[...] = bitgen.random_raw(words.size)
        _increments_from_raw(spec, dt, quiet, words, out[lo : lo + _CHUNK])
    return out


def build_two_sided_path(
    spec: ProcessSpec,
    n_max: int,
    k_min: int,
    k_max: int,
    seed: RngSeed,
) -> LevyPathSample:
    """Sample ``x_k = L(t_k)`` for ``k_min <= k <= k_max`` at level ``n_max``.

    ``x_0 = 0`` exactly; the negative side uses independent increments
    accumulated backwards.  Each ``seed.stream_id`` gives an independent
    realization under one root seed.

    Values are non-decreasing by construction (module docstring), so a NaN
    or an overflow reaches one of the two ends: a build refuses a path whose
    end values are not finite, and checks nothing else.

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
    with np.errstate(over="ignore"):  # an overflow reaches an end, refused below
        _increment_run(spec, dt, seed, _FORWARD, fwd)
        _increment_run(spec, dt, seed, _BACKWARD, bwd)
        np.cumsum(fwd, out=fwd)
        np.cumsum(bwd, out=bwd)
    np.negative(bwd, out=bwd)
    if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        bad = int(np.argmin(np.isfinite(values)))
        raise RuntimeError(f"sampled path value at k={k_min + bad} is {values[bad]:g}, not finite")
    return LevyPathSample(grid, values, spec)


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
    return LevyPathSample(DyadicGrid(n, k_min_c, k_max_c), path.values[idx], path.process)


#: words of a window error: the query kind, the window's name and the names
#: of its two ends
_TIME_WORDS = ("time", "window", "start t_min=", "end t_max=")
_LEVEL_WORDS = ("level", "range", "min ", "max ")


def _check_window(query: np.ndarray, lo, hi, unit: float, words: tuple[str, ...]) -> None:
    """Refuse the first query in C order outside ``[lo, hi]``, NaN included;
    the query and the bounds are reported times ``unit``.  Grid positions
    are checked against ``[k_min, k_max]`` with ``unit = dt``."""
    if query.size == 0 or (lo <= np.min(query) and np.max(query) <= hi):
        return
    flat = query.reshape(-1)
    bad = flat[np.argmin((flat >= lo) & (flat <= hi))]  # first False
    kind, span, start, end = words
    value, low, high = (float(v) * unit for v in (bad, lo, hi))
    if bad < lo:
        raise WindowError(f"{kind} {value!r} below sampled {span} {start}{low!r}")
    if bad > hi:
        raise WindowError(f"{kind} {value!r} above sampled {span} {end}{high!r}")
    raise WindowError(f"{kind} nan is not in the sampled {span} [{low!r}, {high!r}]")


def polygon_eval(path: LevyPathSample, tau):
    """Piecewise affine interpolation through the grid points.

    On ``[t_(k-1), t_k)`` returns ``alpha * x_(k-1) + (1-alpha) * x_k`` with
    ``alpha = (t_k - tau) * 2^level``; exact (bitwise) at grid nodes.
    """
    grid = path.grid
    tau_arr = np.asarray(tau, dtype=float)
    pos = tau_arr.reshape(-1) * 2.0**grid.level
    _check_window(pos, grid.k_min, grid.k_max, grid.dt, _TIME_WORDS)
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
    """Smallest ``tau`` with ``polygon_eval(path, tau) == x``, the first
    crossing (every time of a flat step maps to the same value)."""
    grid = path.grid
    x_arr = np.asarray(x, dtype=float)
    _check_window(x_arr, path.values[0], path.values[-1], 1.0, _LEVEL_WORDS)
    j = np.maximum(np.searchsorted(path.values, x_arr, side="left"), 1)
    # the step into the first x_j >= x rises, except at x = values[0] on a
    # flat window start, where the crossing is t_min itself
    den = path.values[j] - path.values[j - 1]
    frac = np.divide(x_arr - path.values[j - 1], den, out=np.zeros(den.shape), where=den > 0.0)
    tau = (grid.k_min + (j - 1) + frac) * grid.dt
    return float(tau) if np.isscalar(x) else tau


def step_eval(path: LevyPathSample, tau):
    """Right-continuous step value: ``x_k`` for ``tau in [t_k, t_(k+1))``."""
    grid = path.grid
    tau_arr = np.asarray(tau, dtype=float)
    pos = tau_arr.reshape(-1) * 2.0**grid.level
    _check_window(pos, grid.k_min, grid.k_max, grid.dt, _TIME_WORDS)
    np.floor(pos, out=pos)  # grid indices are exact in float
    np.minimum(pos, grid.k_max, out=pos)
    pos -= grid.k_min
    out = path.values[pos.astype(np.intp)]
    return float(out[0]) if np.isscalar(tau) else out.reshape(tau_arr.shape)


def hitting_time(path: LevyPathSample, x):
    """Smallest grid time ``t_k`` with ``x_k >= x`` (generalized inverse)."""
    grid = path.grid
    x_arr = np.asarray(x, dtype=float)
    _check_window(x_arr, path.values[0], path.values[-1], 1.0, _LEVEL_WORDS)
    j = np.searchsorted(path.values, x_arr, side="left")
    t = (grid.k_min + j) * grid.dt
    return float(t) if np.isscalar(x) else t


# ---------------------------------------------------------------------------
# serialization

def process_to_dict(spec: ProcessSpec) -> dict:
    return {"family": spec.family, **asdict(spec)}


#: process classes by their ``family`` name
FAMILIES = {cls.family: cls for cls in (GammaDrift, PoissonDrift, StableHalf)}


def write_path_csv(path: LevyPathSample, out: Path | str) -> None:
    """Write ``k,t,x`` rows, one per grid index, 17 significant digits."""
    k = np.arange(path.grid.k_min, path.grid.k_max + 1)
    write_csv(out, "k,t,x", k, path.grid.time(k), path.values)
