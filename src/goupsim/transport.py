"""Transport solutions along characteristics and L^p convergence measurement.

The level-``N`` solution is the initial datum composed with the broken
characteristic's base point, ``u_N(t, x) = u0(gamma_N(x, t; 0))``; the
limiting solution uses the limiting characteristic instead.  Both come from
one call, :func:`solve`, which names the limit by the level ``None``, as
:func:`goupsim.goupillaud.curve_at` does.  Its evaluator asks ``curve_at``
once per level for the curve, its evaluator and its inverse, and solves 8
time slices at a time.  It evaluates only the cells that the datum's support
can reach: the curve's segments whose values come within a relative margin
of ``2^-40`` of ``(center - halfwidth, center + halfwidth)`` give a range of
times, and a cell is evaluated when its time ``inv(x) - t`` can fall in that
range.  A computed polygon value stays within a few ulps of its segment's
end values, far inside the margin, so every other cell holds ``u0`` outside
its support, ``0.0 * height``, bit for bit.  Convergence is measured in
tensor-grid L^p norms over compact windows, with the finest sampled level
standing in for the (almost surely existing) limit on one realization.
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
    "WindowK",
    "eval_initial",
    "solve",
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
#: at most ``ROWS x len(xs)`` floats (128 kB each at 2048 points), which
#: stay in cache
_ROWS = 8

#: relative margin by which the datum's support is widened before it is
#: carried along the curve.  A computed polygon value lies within a few ulps
#: (2^-51 relative) of its segment's end values, and ``center -+ halfwidth``
#: is rounded by half an ulp (exact where it cancels), so a segment or node
#: outside the widened support gives no value inside the support
_MARGIN = 2.0**-40


def _support(datum: InitialDatum) -> tuple[float, float, float]:
    """``(lo, hi, fill)``: the open interval outside which ``u0`` is
    ``fill``, widened by :data:`_MARGIN`.  A tent is ``0.0 * height`` there
    (-0.0 for a negative height); a :class:`Constant` has no such interval."""
    if isinstance(datum, Constant):
        return -np.inf, np.inf, datum.value
    lo, hi = datum.center - datum.halfwidth, datum.center + datum.halfwidth
    return lo - _MARGIN * abs(lo), hi + _MARGIN * abs(hi), 0.0 * datum.height


def _solution_rows(path: LevyPathSample, datum: InitialDatum, level: int | None, xs, times):
    """Solution values at ``level`` (``None``: the limit) on the grid ``xs``,
    one row per time, yielded as ``(rows, reached)``: a ``(rows, *xs.shape)``
    array of at most :data:`_ROWS` rows, and the slice of the flattened
    ``xs`` that was evaluated.

    The curve and its inverse at ``xs`` do not depend on time, so they are
    computed once for every row.  The datum's support, carried back along
    the curve, is a range of grid segments and so a range of times ``tau``.
    A batch evaluates the span of the columns whose ``inv(x) - t`` can fall
    in that range at one of its times.  Every other cell has ``|x - center|
    >= halfwidth``, where evaluating ``u0`` gives exactly ``0.0 * height``,
    and is filled with that.

    The window is still checked for every cell: a row's least and greatest
    query are ``min(inv) - t`` and ``max(inv) - t``, as rounding is
    monotone, and the first row where one leaves the window (or is NaN) is
    evaluated in full, so that it raises the error of its first offending
    query in C order, as evaluating every cell would."""
    xs = np.asarray(xs, dtype=float)
    curve, evaluate, invert = curve_at(path, level)
    inv = invert(curve, xs).reshape(-1)
    times = np.asarray(times, dtype=float).reshape(-1)
    grid = curve.grid
    if inv.size:
        t_min, t_max = grid.time([grid.k_min, grid.k_max])
        inside = (t_min <= inv.min() - times) & (inv.max() - times <= t_max)
        if not inside.all():
            evaluate(curve, inv - times[np.argmin(inside)])  # raises
    # the segments j_lo - 1 .. j_hi - 1 come within the support, over
    # [t_(j_lo - 1), t_(j_hi)]; the step's nodes j_lo .. j_hi - 1 lie inside
    lo, hi, fill = _support(datum)
    j_lo = np.searchsorted(curve.values, lo, side="right")
    j_hi = np.searchsorted(curve.values, hi, side="left")
    tau_lo, tau_hi = grid.time([grid.k_min + j_lo - 1, grid.k_min + j_hi])
    for start in range(0, len(times), _ROWS):
        t = times[start : start + _ROWS]
        cols = np.flatnonzero((inv - t.max() <= tau_hi) & (inv - t.min() >= tau_lo))
        # an empty span is slice(size, 0), which a union by min and max ignores
        reached = slice(cols.min(initial=inv.size), cols.max(initial=-1) + 1)
        rows = np.full((len(t), inv.size), fill)
        rows[:, reached] = _eval_initial_in_place(datum, evaluate(curve, inv[reached] - t[:, None]))
        yield rows.reshape((len(t),) + xs.shape), reached


def solve(path: LevyPathSample, level: int | None, datum: InitialDatum, times, xs) -> np.ndarray:
    """The level-``level`` solution ``u0(gamma_level(x, t; 0))`` (``None``:
    the limiting solution, in step semantics) at every time of ``times`` on
    the grid ``xs``, as a ``(len(times), *xs.shape)`` array."""
    rows = [batch for batch, _ in _solution_rows(path, datum, level, xs, times)]
    return np.concatenate([np.empty((0,) + np.shape(xs)), *rows])


def _lp_norm(rows: Iterable, reference: Iterable, window: WindowK, p: float) -> float:
    """Midpoint-rule L^p(K) norm of ``rows - reference``, both given as
    :func:`_solution_rows` batches in time order.  Outside the span that
    either side evaluated, both hold ``u0``'s value outside its support, so
    the difference is 0 there, and ``|d|^p`` is taken on the span only.
    Each row is summed over its full length and the row sums are added one
    at a time, in time order."""
    cell = window.dt * window.dx
    total = 0.0
    for (u, reached), (ref, ref_reached) in zip(rows, reference):
        both = slice(min(reached.start, ref_reached.start), max(reached.stop, ref_reached.stop))
        d = np.zeros(u.shape)
        part = d[:, both]
        np.subtract(u[:, both], ref[:, both], out=part)
        np.abs(part, out=part)
        part **= p
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
    midpoint-rule norm of the per-time :func:`solve` rows summed one row at
    a time.
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
        table.append((int(n), _lp_norm(rows, reference, window, p)))
    return table


def write_solution_csv(u: np.ndarray, out: Path | str, times, xs) -> None:
    """Long-format ``t,x,u`` rows of the solution ``u[i, j]`` at ``times[i]``
    and ``xs[j]``, time by time."""
    times, xs = np.asarray(times, dtype=float), np.asarray(xs, dtype=float)
    write_csv(out, "t,x,u", np.repeat(times, xs.size), np.tile(xs, times.size), u.reshape(-1))


def write_convergence_csv(table: Sequence[tuple[int, float]], out: Path | str) -> None:
    write_csv(out, "N,distance", [n for n, _ in table], [dist for _, dist in table])
