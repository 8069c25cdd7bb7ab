"""Transport solutions along characteristics and L^p convergence measurement.

The level-``N`` solution is the initial datum composed with the broken
characteristic's base point, ``u_N(t, x) = u0(gamma_N(x, t; 0))``; the
limiting solution uses the limiting characteristic instead.  Convergence is
measured in tensor-grid L^p norms over compact windows, with the finest
sampled level standing in for the (almost surely existing) limit on one
realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
    "Constant",
    "Triangular",
    "PiecewiseLinear",
    "InitialDatum",
    "SolutionField",
    "WindowK",
    "eval_initial",
    "solve_at_level",
    "solve_limit",
    "lp_distance",
    "convergence_table",
    "write_solution_csv",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Triangular:
    """Tent function: ``height * max(0, 1 - |x - center| / halfwidth)``."""

    center: float
    halfwidth: float
    height: float

    def __post_init__(self) -> None:
        if not self.halfwidth > 0.0:
            raise ValueError("halfwidth must be positive")


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Piecewise linear interpolation through ``(xs, values)``, zero outside."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0.0):
            raise ValueError("nodes must be a strictly increasing 1-d sequence")
        if np.asarray(self.values).shape != xs.shape:
            raise ValueError("nodes and values must have matching shapes")


InitialDatum = Constant | Triangular | PiecewiseLinear


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Solution values at one time on an increasing spatial grid."""

    time: float
    xs: np.ndarray
    values: np.ndarray
    level: int | str  # refinement level, or "limit"


@dataclass(frozen=True)
class WindowK:
    """Compact space-time window with a midpoint tensor grid."""

    t_range: tuple[float, float]
    x_range: tuple[float, float]
    grid: tuple[int, int] = (64, 512)

    def __post_init__(self) -> None:
        if not self.t_range[0] < self.t_range[1]:
            raise ValueError("need t_lo < t_hi")
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError("need x_lo < x_hi")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ValueError("grid must be positive")

    @property
    def dt(self) -> float:
        return (self.t_range[1] - self.t_range[0]) / self.grid[0]

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.grid[1]

    def t_midpoints(self) -> np.ndarray:
        return self.t_range[0] + (np.arange(self.grid[0]) + 0.5) * self.dt

    def x_midpoints(self) -> np.ndarray:
        return self.x_range[0] + (np.arange(self.grid[1]) + 0.5) * self.dx

    @property
    def area(self) -> float:
        return (self.t_range[1] - self.t_range[0]) * (self.x_range[1] - self.x_range[0])


def eval_initial(datum: InitialDatum, x):
    xs = np.asarray(x, dtype=float)
    if isinstance(datum, Constant):
        out = np.full_like(xs, datum.value)
    elif isinstance(datum, Triangular):
        out = datum.height * np.maximum(
            0.0, 1.0 - np.abs(xs - datum.center) / datum.halfwidth
        )
    elif isinstance(datum, PiecewiseLinear):
        out = np.interp(xs, datum.xs, datum.values, left=0.0, right=0.0)
    else:
        raise TypeError(f"unsupported initial datum: {datum!r}")
    return float(out) if np.isscalar(x) else out


def _solver(path: LevyPathSample, datum: InitialDatum, level: int | None, xs):
    """``t -> SolutionField`` on the grid ``xs`` at ``level`` (``None``: the
    limit).  The aggregation and the inverse at ``xs`` do not depend on
    ``t``, so they are computed here, once for every time solved."""
    xs = np.asarray(xs, dtype=float)
    if level is None:
        ev, agg, label = step_eval, path, "limit"
        inv = hitting_time(path, xs)
    else:
        ev, agg, label = polygon_eval, aggregate_to_level(path, level), level
        inv = polygon_inverse(agg, xs)
    return lambda t: SolutionField(float(t), xs, eval_initial(datum, ev(agg, inv - t)), label)


def solve_at_level(
    path: LevyPathSample, n: int, datum: InitialDatum, t: float, xs
) -> SolutionField:
    """Level-``n`` solution ``u0(gamma_n(x, t; 0))`` on the grid ``xs``."""
    return _solver(path, datum, n, xs)(t)


def solve_limit(path: LevyPathSample, datum: InitialDatum, t: float, xs) -> SolutionField:
    """Limiting solution ``u0(gamma(x, t; 0))`` in step semantics."""
    return _solver(path, datum, None, xs)(t)


def _check_fields_on_window(fields: Sequence[SolutionField], window: WindowK) -> None:
    if len(fields) != window.grid[0]:
        raise ValueError(
            f"expected {window.grid[0]} time slices, got {len(fields)}"
        )
    t_mid = window.t_midpoints()
    x_mid = window.x_midpoints()
    for field, t in zip(fields, t_mid):
        if abs(field.time - t) > 1e-12 * max(1.0, abs(t)):
            raise ValueError(f"field time {field.time} does not match grid time {t}")
        if field.xs.shape != x_mid.shape or np.max(np.abs(field.xs - x_mid)) > 1e-12:
            raise ValueError("field spatial grid does not match the window grid")


def lp_distance(
    fields_a: Sequence[SolutionField],
    fields_b: Sequence[SolutionField],
    window: WindowK,
    p: float,
) -> float:
    """Midpoint-rule L^p(K) norm of the difference of two sampled solutions.

    Both field sequences must be sampled on the window's midpoint tensor
    grid, one slice per grid time.
    """
    _check_p(p)
    _check_fields_on_window(fields_a, window)
    _check_fields_on_window(fields_b, window)
    return _lp_norm(fields_a, fields_b, window, p)


def _check_p(p: float) -> None:
    if p < 1.0:
        raise ValueError("p must be >= 1")


def _lp_norm(
    fields_a: Sequence[SolutionField],
    fields_b: Sequence[SolutionField],
    window: WindowK,
    p: float,
) -> float:
    """:func:`lp_distance` on sequences known to lie on ``window``."""
    cell = window.dt * window.dx
    total = 0.0
    for fa, fb in zip(fields_a, fields_b):
        total += float(np.sum(np.abs(fa.values - fb.values) ** p)) * cell
    return total ** (1.0 / p)


def solve_on_window(
    path: LevyPathSample,
    datum: InitialDatum,
    window: WindowK,
    level: int | None = None,
) -> list[SolutionField]:
    """One solution slice per window grid time; ``level=None`` solves the
    limiting problem at the finest sampled level.  Bitwise equal to calling
    :func:`solve_limit` or :func:`solve_at_level` once per grid time."""
    solve = _solver(path, datum, level, window.x_midpoints())
    return [solve(float(t)) for t in window.t_midpoints()]


def convergence_table(
    path: LevyPathSample,
    datum: InitialDatum,
    window: WindowK,
    p: float,
    levels: Sequence[int],
) -> list[tuple[int, float]]:
    """L^p(K) distances of level-``N`` solutions to the finest-level solution.

    The finest sampled level stands in for the limit on this realization.
    Every field sequence comes from :func:`solve_on_window` on ``window``
    itself, so none is checked against it again.
    """
    n_max = path.grid.level
    if max(levels) > n_max:
        raise ValueError(f"levels beyond the sampled level {n_max}: {levels}")
    _check_p(p)
    reference = solve_on_window(path, datum, window, level=n_max)
    table = []
    for n in levels:
        fields = solve_on_window(path, datum, window, level=int(n))
        table.append((int(n), _lp_norm(fields, reference, window, p)))
    return table


def write_solution_csv(fields: Sequence[SolutionField], out: Path | str) -> None:
    """Long-format ``t,x,u`` rows."""
    write_csv(
        out,
        "t,x,u",
        "{:.17g},{:.17g},{:.17g}",
        np.repeat([f.time for f in fields], [f.xs.size for f in fields]),
        np.concatenate([np.empty(0), *(f.xs for f in fields)]),
        np.concatenate([np.empty(0), *(f.values for f in fields)]),
    )


def write_convergence_csv(
    table: Sequence[tuple[int, float]], p: float, out: Path | str
) -> None:
    write_csv(
        out,
        "N,distance,p",
        "{},{:.17g},{:.17g}",
        [n for n, _ in table],
        [dist for _, dist in table],
        [p] * len(table),
    )
