"""Transport solutions along characteristics and L^p convergence measurement.

The level-``N`` solution is the initial datum composed with the broken
characteristic's base point, ``u_N(t, x) = u0(gamma_N(x, t; 0))``; the
limiting solution uses the limiting characteristic instead.  Both come from
one evaluator, which asks :func:`goupsim.goupillaud.curve_at` once per level
for the curve, its evaluator and its inverse.  Convergence is
measured in tensor-grid L^p norms over compact windows, with the finest
sampled level standing in for the (almost surely existing) limit on one
realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .csvio import write_csv
from .goupillaud import curve_at
from .levy_paths import LevyPathSample

__all__ = [
    "Constant",
    "Triangular",
    "InitialDatum",
    "SolutionField",
    "WindowK",
    "eval_initial",
    "solve_at_level",
    "solve_limit",
    "convergence_table",
    "write_solution_csv",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")


@dataclass(frozen=True)
class Triangular:
    """Tent function: ``height * max(0, 1 - |x - center| / halfwidth)``."""

    center: float
    halfwidth: float
    height: float

    def __post_init__(self) -> None:
        if not 0.0 < self.halfwidth < np.inf:
            raise ValueError(f"halfwidth must be positive and finite, got {self.halfwidth}")
        if not np.isfinite(self.center) or not np.isfinite(self.height):
            raise ValueError(f"center and height must be finite, got {self.center}, {self.height}")


InitialDatum = Constant | Triangular


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


def eval_initial(datum: InitialDatum, x):
    out = _eval_initial_in_place(datum, np.array(x, dtype=float))
    return float(out) if np.isscalar(x) else out


def _eval_initial_in_place(datum: InitialDatum, x: np.ndarray) -> np.ndarray:
    """``u0(x)``, written over the float array ``x``."""
    if isinstance(datum, Constant):
        x.fill(datum.value)
    elif isinstance(datum, Triangular):
        # height * max(0, 1 - |x - center| / halfwidth), one pass at a time
        np.subtract(x, datum.center, out=x)
        np.abs(x, out=x)
        np.divide(x, datum.halfwidth, out=x)
        np.subtract(1.0, x, out=x)
        np.maximum(0.0, x, out=x)
        np.multiply(datum.height, x, out=x)
    else:
        raise TypeError(f"unsupported initial datum: {datum!r}")
    return x


#: time slices solved per batch: a batch's temporaries are a few arrays of
#: ``ROWS x len(xs)`` floats (0.5 MB each at 2048 points)
_ROWS = 32


def _solution_rows(path: LevyPathSample, datum: InitialDatum, level: int | None, xs, times):
    """Solution values at ``level`` (``None``: the limit) on the grid ``xs``,
    one row per time, yielded as ``(rows, *xs.shape)`` arrays of at most
    :data:`_ROWS` rows.  The curve and its inverse at ``xs`` do not depend
    on time, so they are computed once for every row.  A batch that leaves
    the window raises the error of its first offending time, as solving one
    time at a time would."""
    xs = np.asarray(xs, dtype=float)
    curve, evaluate, invert = curve_at(path, level)
    inv = invert(curve, xs)
    times = np.asarray(times, dtype=float).reshape((-1,) + (1,) * xs.ndim)
    for start in range(0, len(times), _ROWS):
        yield _eval_initial_in_place(datum, evaluate(curve, inv - times[start : start + _ROWS]))


def solve_at_level(
    path: LevyPathSample, n: int, datum: InitialDatum, t: float, xs
) -> SolutionField:
    """Level-``n`` solution ``u0(gamma_n(x, t; 0))`` on the grid ``xs``."""
    (values,) = next(_solution_rows(path, datum, n, xs, [t]))
    return SolutionField(float(t), np.asarray(xs, dtype=float), values, n)


def solve_limit(path: LevyPathSample, datum: InitialDatum, t: float, xs) -> SolutionField:
    """Limiting solution ``u0(gamma(x, t; 0))`` in step semantics."""
    (values,) = next(_solution_rows(path, datum, None, xs, [t]))
    return SolutionField(float(t), np.asarray(xs, dtype=float), values, "limit")


def _lp_norm(diffs: Iterable[np.ndarray], window: WindowK, p: float) -> float:
    """Midpoint-rule L^p(K) norm of a difference given as ``(rows, nx)``
    arrays in time order, each overwritten.  Row sums are added one at a
    time, in time order."""
    cell = window.dt * window.dx
    total = 0.0
    for d in diffs:
        np.abs(d, out=d)
        d **= p
        for row_sum in np.sum(d, axis=1):
            total += float(row_sum) * cell
    return total ** (1.0 / p)


def convergence_table(
    path: LevyPathSample,
    datum: InitialDatum,
    window: WindowK,
    p: float,
    levels: Sequence[int],
) -> list[tuple[int, float]]:
    """L^p(K) distances of level-``N`` solutions to the finest-level solution.

    The finest sampled level stands in for the limit on this realization.
    Each level is solved on the window a batch of rows at a time, and the
    rows' sums are added in time order, so every distance is bitwise the
    midpoint-rule norm of the per-time :func:`solve_at_level` slices summed
    one slice at a time.
    """
    n_max = path.grid.level
    if len(levels) == 0:
        raise ValueError("no levels to compare")
    if not 0 <= min(levels) <= max(levels) <= n_max:
        raise ValueError(f"levels must lie in 0..{n_max}, the sampled level: {list(levels)}")
    if not 1.0 <= p < np.inf:  # NaN fails too
        raise ValueError(f"p must be >= 1 and finite, got {p!r}")
    xs, times = window.x_midpoints(), window.t_midpoints()
    reference = list(_solution_rows(path, datum, n_max, xs, times))
    table = []
    for n in levels:
        rows = _solution_rows(path, datum, int(n), xs, times)
        diffs = (np.subtract(u, ref, out=u) for u, ref in zip(rows, reference))
        table.append((int(n), _lp_norm(diffs, window, p)))
    return table


def write_solution_csv(fields: Sequence[SolutionField], out: Path | str) -> None:
    """Long-format ``t,x,u`` rows."""
    write_csv(
        out,
        "t,x,u",
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
        [n for n, _ in table],
        [dist for _, dist in table],
        [p] * len(table),
    )
