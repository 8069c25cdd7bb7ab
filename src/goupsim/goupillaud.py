"""Discrete Goupillaud media and characteristic curves of the transport flow.

At level ``N`` the medium has layer boundaries ``x_k`` (the sampled path
values) and piecewise constant speeds ``c_k = dx_k * 2^N``, so every layer is
crossed in exactly one time step.  Characteristics through ``(x, t)`` are time
shifts of the path: the broken (level-``N``) curve uses the interpolating
polygon, the limiting curve uses right-continuous step evaluation together
with the generalized inverse (hitting time).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .levy_paths import (
    LevyPathSample,
    aggregate_to_level,
    hitting_time,
    polygon_eval,
    polygon_inverse,
    step_eval,
)

__all__ = [
    "GoupillaudMedium",
    "CharQuery",
    "build_medium",
    "speed_at",
    "characteristic_n",
    "characteristic_limit",
    "basepoint",
    "write_medium_csv",
    "write_characteristic_trace_csv",
]


@dataclass(frozen=True, eq=False)
class GoupillaudMedium:
    """Layer boundaries and speeds at one refinement level.

    ``boundaries[i]`` is ``x_(k_min + i)``; ``speeds[i]`` belongs to the layer
    ``[boundaries[i], boundaries[i+1])`` (left-closed, right-open).
    """

    level: int
    k_min: int
    boundaries: np.ndarray
    speeds: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(self.speeds > 0.0):
            raise ValueError("all layer speeds must be positive")


@dataclass(frozen=True)
class CharQuery:
    """Arguments of a characteristic-curve evaluation gamma(x, t; tau)."""

    x: float
    t: float
    tau: float


def build_medium(path: LevyPathSample, n: int) -> GoupillaudMedium:
    """Medium at level ``n``: boundaries are the aggregated path values,
    speeds ``c_k = dx_k / dt``; the Goupillaud relation ``dx_k = c_k * dt``
    then holds exactly (scaling by ``2^n`` is exact in binary floats)."""
    agg = aggregate_to_level(path, n)
    speeds = np.diff(agg.values) * 2.0**n
    return GoupillaudMedium(n, agg.grid.k_min, agg.values, speeds)


def speed_at(medium: GoupillaudMedium, x) -> float | np.ndarray:
    """Speed of the layer containing ``x``, convention ``[x_(k-1), x_k)``."""
    xs = np.asarray(x, dtype=float)
    lo, hi = medium.boundaries[0], medium.boundaries[-1]
    if np.any(xs < lo) or np.any(xs >= hi):
        raise ValueError(
            f"position out of medium range [{lo!r}, {hi!r}): {x!r}"
        )
    idx = np.searchsorted(medium.boundaries, xs, side="right") - 1
    out = medium.speeds[idx]
    return float(out) if np.isscalar(x) else out


def characteristic_n(path: LevyPathSample, n: int, q: CharQuery):
    """Broken characteristic at level ``n``: the level-``n`` polygon shifted
    in time so that it passes through ``(q.x, q.t)``, evaluated at ``q.tau``."""
    agg = aggregate_to_level(path, n)
    tau_arg = np.asarray(q.tau) + polygon_inverse(agg, q.x) - np.asarray(q.t)
    return polygon_eval(agg, tau_arg)


def characteristic_limit(path: LevyPathSample, q: CharQuery):
    """Limiting characteristic: step evaluation of the finest-level path at
    ``tau + hitting_time(x) - t`` (right-continuous at jumps)."""
    tau_arg = np.asarray(q.tau) + hitting_time(path, q.x) - np.asarray(q.t)
    return step_eval(path, tau_arg)


def basepoint(path: LevyPathSample, x, t):
    """Intersection of the limiting characteristic through ``(x, t)`` with
    the x-axis: ``L(L*(x) - t)`` in step semantics."""
    tau_arg = hitting_time(path, x) - np.asarray(t, dtype=float)
    return step_eval(path, tau_arg)


def write_medium_csv(medium: GoupillaudMedium, out: Path | str) -> None:
    """Write ``k,x_left,x_right,c`` rows, one per layer."""
    n = medium.speeds.size
    write_csv(
        out,
        "k,x_left,x_right,c",
        "{},{:.17g},{:.17g},{:.17g}",
        np.arange(medium.k_min + 1, medium.k_min + 1 + n),
        medium.boundaries[:n],
        medium.boundaries[1 : n + 1],
        medium.speeds,
    )


def write_characteristic_trace_csv(taus, gammas, out: Path | str) -> None:
    """Write one ``tau,gamma`` row per query point."""
    write_csv(
        out,
        "tau,gamma",
        "{:.17g},{:.17g}",
        np.asarray(taus, dtype=float),
        np.asarray(gammas, dtype=float),
    )
