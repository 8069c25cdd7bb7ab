"""Discrete Goupillaud media and characteristic curves of the transport flow.

At level ``N`` the medium has layer boundaries ``x_k`` (the sampled path
values) and piecewise constant speeds ``c_k = dx_k * 2^N``, so every layer is
crossed in exactly one time step.  Characteristics through ``(x, t)`` are time
shifts of the path, ``gamma(x, t; tau) = P(tau + P^-1(x) - t)``.  This module
is the one place that pairs a level with its curve ``P``, evaluator and
inverse (:func:`curve_at`): at level ``N`` the interpolating polygon of the
aggregated path and its inverse, at the limit (``None``) the finest path in
right-continuous step semantics and its generalized inverse (hitting time).
The base point is the characteristic at ``tau = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    "build_medium",
    "curve_at",
    "characteristic",
    "basepoint",
]


@dataclass(frozen=True, eq=False)
class GoupillaudMedium:
    """Layer boundaries at one refinement level, and the speeds they imply.

    ``boundaries[i]`` is ``x_(k_min + i)``, finite and non-decreasing;
    ``speeds[i] = (boundaries[i+1] - boundaries[i]) * 2^level`` belongs to the
    layer ``[boundaries[i], boundaries[i+1])`` (left-closed, right-open), so
    the Goupillaud relation ``dx_k = c_k * 2^-level`` holds exactly (scaling
    by a power of two is exact in binary floats) and every layer is crossed
    in one time step.  A layer of zero thickness (a tie of the path) has
    speed 0 and contains no point.
    """

    level: int
    k_min: int
    boundaries: np.ndarray
    speeds: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "speeds", np.diff(self.boundaries) * 2.0**self.level)
        if not (np.isfinite(self.boundaries).all() and np.all(self.speeds >= 0.0)):
            raise ValueError("layer boundaries must be finite and non-decreasing")


def build_medium(path: LevyPathSample, n: int) -> GoupillaudMedium:
    """Medium at level ``n``: boundaries are the aggregated path values."""
    agg = aggregate_to_level(path, n)
    return GoupillaudMedium(n, agg.grid.k_min, agg.values)


def curve_at(path: LevyPathSample, level: int | None):
    """``(curve, evaluate, invert)`` of ``level``: the aggregated path with
    :func:`polygon_eval` and :func:`polygon_inverse`, or for ``None`` (the
    limit) the finest path with :func:`step_eval` and :func:`hitting_time`.
    The evaluators are looked up on each call, so a wrapper installed on
    this module's names sees every query."""
    if level is None:
        return path, step_eval, hitting_time
    return aggregate_to_level(path, level), polygon_eval, polygon_inverse


def characteristic(path: LevyPathSample, level: int | None, x, t, tau):
    """``gamma(x, t; tau)``: the curve of ``level`` (``None``: the limit)
    shifted in time so that it passes through ``(x, t)``, evaluated at
    ``tau``."""
    curve, evaluate, invert = curve_at(path, level)
    return evaluate(curve, np.asarray(tau) + invert(curve, x) - np.asarray(t))


def basepoint(path: LevyPathSample, x, t):
    """Intersection of the limiting characteristic through ``(x, t)`` with
    the x-axis: ``L(L*(x) - t)`` in step semantics."""
    return characteristic(path, None, x, t, 0.0)
