import re

import numpy as np
import pytest

from goupsim.goupillaud import characteristic
from goupsim.levy_paths import (
    GammaDrift,
    PoissonDrift,
    RngSeed,
    WindowError,
    aggregate_to_level,
    build_two_sided_path,
    hitting_time,
    polygon_eval,
    polygon_inverse,
    step_eval,
)
from goupsim.transport import (
    Constant,
    Triangular,
    WindowK,
    _lp_norm,
    _solution_rows,
    convergence_table,
    eval_initial,
    solve,
    write_convergence_csv,
    write_solution_csv,
)
from conftest import make_drift_path

SEED = RngSeed(271828)
TRIANGLE = Triangular(center=1.0, halfwidth=1.0, height=1.0)


def gamma_path(n_max=10, t_lo=-4, t_hi=12):
    return build_two_sided_path(
        GammaDrift(1.0, 1.0, 1.0), n_max, t_lo * 2**n_max, t_hi * 2**n_max, SEED
    )


def test_eval_initial_triangular():
    tri = Triangular(0.0, 1.0, 1.0)
    assert eval_initial(tri, 0.0) == 1.0
    assert eval_initial(tri, 1.0) == 0.0
    assert eval_initial(tri, -1.0) == 0.0
    assert eval_initial(tri, 0.5) == 0.5
    with pytest.raises(ValueError):
        Triangular(0.0, 0.0, 1.0)


def test_eval_initial_constant():
    assert eval_initial(Constant(3.0), 123.4) == 3.0


def test_solve_initial_time_recovers_datum():
    path = gamma_path()
    xs = np.linspace(0.1, 3.0, 200)
    (u,) = solve(path, 6, TRIANGLE, [0.0], xs)
    assert np.max(np.abs(u - eval_initial(TRIANGLE, xs))) <= 1e-9
    # exact recovery at attained points in the limit semantics
    attained = path.values[64 - path.grid.k_min : 2048 - path.grid.k_min : 37]
    (u,) = solve(path, None, TRIANGLE, [0.0], attained)
    assert np.array_equal(u, eval_initial(TRIANGLE, attained))


def test_constant_datum_stays_constant():
    path = gamma_path()
    xs = np.linspace(0.0, 8.0, 101)
    for n, t in ((2, 1.5), (5, 1.5), (10, 1.5), (None, 2.5)):
        assert np.array_equal(solve(path, n, Constant(3.0), [t], xs), np.full((1, xs.size), 3.0))


def test_pure_drift_is_classical_transport():
    path = make_drift_path(level=10, k_min=-4 * 2**10, k_max=8 * 2**10, drift=1.0)
    xs = np.linspace(0.0, 5.0, 301)
    times = np.array([0.5, 1.0, 2.0])
    expected = eval_initial(TRIANGLE, xs - 1.0 * times[:, None])
    assert np.max(np.abs(solve(path, 10, TRIANGLE, times, xs) - expected)) <= 1e-12


def test_limit_solution_has_flat_parts_at_jumps():
    path = build_two_sided_path(
        PoissonDrift(1.0, 1.0, 1.0), 10, -2 * 2**10, 8 * 2**10, SEED
    )
    t = 1.0
    inc = np.diff(path.values)
    origin = -path.grid.k_min
    j = origin + int(np.argmax(inc[origin:]))  # largest jump at positive times
    k = path.grid.k_min + j + 1  # jump spans (x_{k-1}, x_k]
    lo = path.values[k - 1 - path.grid.k_min]
    hi = path.values[k - path.grid.k_min]
    assert hi - lo >= 1.0  # a unit Poisson jump
    xs = np.linspace(lo + 1e-9, hi, 50)
    (u,) = solve(path, None, TRIANGLE, [t], xs)
    assert np.max(u) - np.min(u) <= 1e-10


def test_range_preservation():
    path = gamma_path()
    xs = np.linspace(0.0, 10.0, 400)
    for n in (3, 7, 10):
        u = solve(path, n, TRIANGLE, [2.0], xs)
        assert u.min() >= 0.0 and u.max() <= 1.0


def test_constancy_along_characteristics():
    path = gamma_path()
    n = 7
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.5, 6.0, size=40)
    ts = rng.uniform(0.0, 2.0, size=40)
    delta = 0.25
    for x, t in zip(xs, ts):
        u0 = solve(path, n, TRIANGLE, [t], [x])[0, 0]
        x_later = characteristic(path, n, x, t, t + delta)
        u1 = solve(path, n, TRIANGLE, [t + delta], [x_later])[0, 0]
        assert abs(u1 - u0) <= 1e-10


def test_window_validation():
    with pytest.raises(ValueError):
        WindowK((1.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError):
        WindowK((0.0, 1.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        WindowK((0.0, 1.0), (0.0, 2.0), grid=(0, 4))


def test_convergence_table_trivial_cases():
    drift = make_drift_path(level=8, k_min=-4 * 2**8, k_max=8 * 2**8, drift=1.0)
    window = WindowK((0.0, 2.0), (0.0, 3.0), grid=(8, 32))
    table = convergence_table(drift, TRIANGLE, window, 1.0, [2, 4, 6])
    assert all(dist <= 1e-12 for _, dist in table)
    # a constant difference c on the window's area A has the norm c A^(1/p)
    every = slice(0, 32)
    for p in (1.0, 2.0, 3.0):
        got = _lp_norm([(np.full((8, 32), 2.5), every)], [(np.zeros((8, 32)), every)], window, p)
        assert abs(got - 2.5 * (2.0 * 3.0) ** (1.0 / p)) <= 1e-12

    path = gamma_path(n_max=8)
    table = convergence_table(path, Constant(2.0), window, 1.0, [2, 4, 6])
    assert all(dist == 0.0 for _, dist in table)

    with pytest.raises(ValueError):
        convergence_table(path, TRIANGLE, window, 1.0, [4, 12])


def test_convergence_table_decreases_for_gamma_medium():
    path = gamma_path(n_max=10)
    window = WindowK((0.0, 3.0), (0.0, 12.0), grid=(16, 128))
    levels = [2, 4, 6, 8, 10]
    table = convergence_table(path, TRIANGLE, window, 1.0, levels)
    dists = [d for _, d in table]
    assert all(d > 0.0 for d in dists[:-1])
    assert all(dists[i + 1] <= dists[i] for i in range(len(dists) - 1))
    assert dists[-1] == 0.0  # reference level itself


def test_exports(tmp_path):
    path = gamma_path(n_max=6)
    window = WindowK((0.0, 1.0), (0.0, 2.0), grid=(2, 5))
    times, xs = window.t_midpoints(), window.x_midpoints()
    f = tmp_path / "solution.csv"
    write_solution_csv(solve(path, 4, TRIANGLE, times, xs), f, times, xs)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * 5

    table = [(2, 0.5), (4, 0.25)]
    g = tmp_path / "table.csv"
    write_convergence_csv(table, g)
    lines = g.read_text().splitlines()
    assert lines[0] == "N,distance"
    assert len(lines) == 3


def _full_grid_rows(path, datum, level, xs, times):
    """``u0`` of the level's base point at every cell ``(t, x)``: the
    formula the reached-only rows must equal bit for bit."""
    times = np.asarray(times)[:, None]
    if level is None:
        base = step_eval(path, hitting_time(path, xs) - times)
    else:
        agg = aggregate_to_level(path, level)
        base = polygon_eval(agg, polygon_inverse(agg, xs) - times)
    return eval_initial(datum, base)


def _per_slice(path, window, level, datum=TRIANGLE):
    """Per-time rows that aggregate and invert afresh for every slice."""
    xs = window.x_midpoints()
    return [_full_grid_rows(path, datum, level, xs, [t])[0] for t in window.t_midpoints()]


def _lp_per_slice(rows_a, rows_b, window, p):
    """L^p(K) distance summed one slice at a time."""
    cell = window.dt * window.dx
    total = 0.0
    for a, b in zip(rows_a, rows_b):
        total += float(np.sum(np.abs(a - b) ** p)) * cell
    return total ** (1.0 / p)


@pytest.mark.parametrize("level", [None, 3, 7])
def test_solves_match_per_slice_recomputation_bitwise(level):
    # one call over all 24 times, three 8-row batches, against every slice
    # recomputed on its own
    path = gamma_path(n_max=9, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(24, 96))
    u = solve(path, level, TRIANGLE, window.t_midpoints(), window.x_midpoints())
    reference = _per_slice(path, window, level)
    assert u.shape == (len(reference), 96)
    for got, ref in zip(u, reference):
        assert got.tobytes() == ref.tobytes()


def test_solve_of_no_times_is_an_empty_array():
    path = gamma_path(n_max=7, t_lo=-4, t_hi=8)
    xs = np.linspace(0.0, 6.0, 5)
    for level in (None, 4):
        u = solve(path, level, TRIANGLE, [], xs)
        assert u.shape == (0, 5) and u.dtype == float


def test_convergence_table_matches_slice_by_slice_recomputation():
    path = gamma_path(n_max=9, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(24, 96))
    levels = [2, 5, 7, 9]

    def slices(n):
        return [solve(path, n, TRIANGLE, [t], window.x_midpoints())[0] for t in window.t_midpoints()]

    reference = slices(path.grid.level)
    expected = [(n, _lp_per_slice(slices(n), reference, window, 1.5)) for n in levels]
    assert convergence_table(path, TRIANGLE, window, 1.5, levels) == expected


def test_convergence_table_refuses_p_below_one():
    path = gamma_path(n_max=7, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(8, 32))
    with pytest.raises(ValueError, match="p must be >= 1"):
        convergence_table(path, TRIANGLE, window, 0.5, [2, 4, 6])


def _batched(path, window, level, datum=TRIANGLE):
    """The rows of every window time, solved a batch at a time."""
    rows = _solution_rows(path, datum, level, window.x_midpoints(), window.t_midpoints())
    return np.concatenate([batch for batch, _ in rows])


@pytest.mark.parametrize("level", [None, 4])
def test_batched_rows_raise_the_per_slice_window_error(level):
    path = gamma_path(n_max=8, t_lo=-1, t_hi=4)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(4, 8))
    with pytest.raises(WindowError) as per_slice:
        _per_slice(path, window, level)
    with pytest.raises(WindowError, match=re.escape(str(per_slice.value))):
        _batched(path, window, level)


DATA = [TRIANGLE, Constant(2.0)]


# slice counts on both sides of a multiple of the 8-row batches
@pytest.mark.parametrize("n_t", [1, 31, 32, 33, 37])
@pytest.mark.parametrize("level", [None, 5])
def test_batched_window_solve_matches_per_slice_bitwise(n_t, level):
    path = gamma_path(n_max=8, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(n_t, 48))
    for datum in DATA:
        rows = _batched(path, window, level, datum)
        reference = _per_slice(path, window, level, datum)
        assert len(rows) == len(reference) == n_t
        for got, ref in zip(rows, reference):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_t", [1, 31, 32, 33, 37])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_batched_convergence_table_matches_per_slice_bitwise(n_t, p):
    path = gamma_path(n_max=8, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(n_t, 48))
    levels = [0, 3, 6, 8]
    for datum in DATA:
        reference = _per_slice(path, window, 8, datum)
        expected = [
            (n, _lp_per_slice(_per_slice(path, window, n, datum), reference, window, p))
            for n in levels
        ]
        assert convergence_table(path, datum, window, p, levels) == expected


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
def test_convergence_table_refuses_infinite_or_nan_p(p):
    # p = inf used to give a distance of 1 for every level, p = nan gave nan
    path = gamma_path(n_max=7, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(8, 32))
    with pytest.raises(ValueError, match="p must be >= 1 and finite"):
        convergence_table(path, TRIANGLE, window, p, [2, 4])


@pytest.mark.parametrize(
    "levels, message", [([], "no levels to compare"), ([-1, 4], r"levels must lie in 0\.\.7")]
)
def test_convergence_table_refuses_empty_or_negative_levels(levels, message):
    path = gamma_path(n_max=7, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(8, 32))
    with pytest.raises(ValueError, match=message):
        convergence_table(path, TRIANGLE, window, 1.0, levels)


def test_nan_arguments_leave_the_window():
    path = gamma_path(n_max=7, t_lo=-4, t_hi=8)
    xs = np.array([1.0, np.nan, 2.0])
    with pytest.raises(WindowError, match="nan"):
        solve(path, None, TRIANGLE, [1.0], xs)
    with pytest.raises(WindowError, match="nan"):
        solve(path, 4, TRIANGLE, [1.0], xs)
    with pytest.raises(WindowError, match="nan"):
        solve(path, 4, TRIANGLE, [float("nan")], np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# reached-only evaluation against the full-grid formula


def _full_grid_distance(rows, reference, window, p):
    """Midpoint-rule L^p(K) distance with ``|d|^p`` taken at every cell and
    the row sums added in time order."""
    cell = window.dt * window.dx
    total = 0.0
    for row_sum in np.sum(np.abs(rows - reference) ** p, axis=1):
        total += float(row_sum) * cell
    return total ** (1.0 / p)


MEDIA = {
    "gamma": GammaDrift(1.0, 1.0, 1.0),
    "gamma-driftless": GammaDrift(1.0, 1.0, 0.0),
    "poisson": PoissonDrift(1.0, 1.0, 1.0),
}


def _data(path):
    """Datums whose supports cover the ways a support meets the path: an
    interior tent and a negative one (filled with -0.0), a tiny one, ones
    wholly below or above the path or across its top, ones that end at a
    path value, random ones, and constants (reached everywhere)."""
    lo, hi = path.values[0], path.values[-1]
    node = path.values[path.values.size // 2]
    step = 2.0**-10
    assert (node + step) - step == node == (node - step) + step
    rng = np.random.default_rng(1618)
    random = [
        Triangular(rng.uniform(-2.0, 8.0), 10.0 ** rng.uniform(-6.0, 0.7), rng.uniform(-3.0, 3.0))
        for _ in range(4)
    ]
    return [
        TRIANGLE,
        Triangular(2.5, 0.75, -2.0),
        Triangular(3.0, 1e-9, 1.0),
        Triangular(lo - 5.0, 1.0, 1.0),
        Triangular(hi + 5.0, 1.0, -1.0),
        Triangular(hi, 2.0, 1.0),
        Triangular(node + step, step, 1.0),
        Triangular(node - step, step, 1.0),
        *random,
        Constant(2.0),
        Constant(-1.5),
    ]


@pytest.mark.parametrize("medium", sorted(MEDIA))
def test_reached_only_rows_and_distances_equal_the_full_grid_bitwise(medium):
    n_max = 8
    path = build_two_sided_path(MEDIA[medium], n_max, -4 * 2**n_max, 8 * 2**n_max, SEED)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(13, 40))
    xs, times = window.x_midpoints(), window.t_midpoints()
    order = np.random.default_rng(7).permutation(xs.size)
    levels = list(range(n_max + 1))
    for datum in _data(path):
        full = {n: _full_grid_rows(path, datum, n, xs, times) for n in [None, *levels]}
        for n, expected in full.items():
            got = np.concatenate([rows for rows, _ in _solution_rows(path, datum, n, xs, times)])
            assert got.tobytes() == expected.tobytes(), (datum, n)
            # the reached columns are found from inv, so any x order works
            shuffled = _solution_rows(path, datum, n, xs[order], times[::-1])
            got = np.concatenate([rows for rows, _ in shuffled])
            assert got.tobytes() == expected[::-1, order].tobytes(), (datum, n)
        for p in (1.0, 1.5, 2.0):
            expected = [(n, _full_grid_distance(full[n], full[n_max], window, p)) for n in levels]
            assert convergence_table(path, datum, window, p, levels) == expected, (datum, p)


def _window_error(call):
    with pytest.raises(WindowError) as exc:
        call()
    return str(exc.value)


#: a tent wholly above the path's values: every cell is skipped
UNREACHED = Triangular(1e6, 1.0, 1.0)


@pytest.mark.parametrize("level", [None, 0, 4, 8])
def test_a_skipped_cell_outside_the_window_raises_the_full_grid_error(level):
    # the window starts at t = -1, so at t > 1 the first columns query
    # tau = inv(x) - t before it; the tents below reach only the x near 5
    path = gamma_path(n_max=8, t_lo=-1, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(13, 40))
    xs, times = window.x_midpoints(), window.t_midpoints()
    expected = _window_error(lambda: _full_grid_rows(path, TRIANGLE, level, xs, times))
    assert "below sampled window start" in expected
    # a table solves the reference level first
    expected_table = _window_error(lambda: _full_grid_rows(path, TRIANGLE, 8, xs, times))
    for datum in (UNREACHED, Triangular(5.0, 0.5, 1.0), Constant(1.0)):
        assert _window_error(lambda: list(_solution_rows(path, datum, level, xs, times))) == expected
        table = lambda: convergence_table(path, datum, window, 1.0, [level or 0])
        assert _window_error(table) == expected_table
    for datum in (UNREACHED, TRIANGLE):
        t = float(times[-1])
        assert _window_error(lambda: solve(path, level, datum, [t], xs)) == _window_error(
            lambda: _full_grid_rows(path, datum, level, xs, [t])
        )
        assert "nan" in _window_error(lambda: solve(path, level, datum, [np.nan], xs))
