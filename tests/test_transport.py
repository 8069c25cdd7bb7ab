import re

import numpy as np
import pytest

from goupsim.goupillaud import CharQuery, characteristic_n
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
    PiecewiseLinear,
    SolutionField,
    Triangular,
    WindowK,
    convergence_table,
    eval_initial,
    lp_distance,
    solve_at_level,
    solve_limit,
    solve_on_window,
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


def test_eval_initial_constant_and_pwl():
    assert eval_initial(Constant(3.0), 123.4) == 3.0
    pwl = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    assert eval_initial(pwl, 0.5) == 1.0
    assert eval_initial(pwl, -5.0) == 0.0
    assert eval_initial(pwl, 7.0) == 0.0
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0]))


def test_solve_initial_time_recovers_datum():
    path = gamma_path()
    xs = np.linspace(0.1, 3.0, 200)
    field = solve_at_level(path, 6, TRIANGLE, 0.0, xs)
    assert np.max(np.abs(field.values - eval_initial(TRIANGLE, xs))) <= 1e-9
    # exact recovery at attained points in the limit semantics
    attained = path.values[path.index_of(64) : path.index_of(2048) : 37]
    limit_field = solve_limit(path, TRIANGLE, 0.0, attained)
    assert np.array_equal(limit_field.values, eval_initial(TRIANGLE, attained))


def test_constant_datum_stays_constant():
    path = gamma_path()
    xs = np.linspace(0.0, 8.0, 101)
    for n in (2, 5, 10):
        field = solve_at_level(path, n, Constant(3.0), 1.5, xs)
        assert np.array_equal(field.values, np.full(xs.size, 3.0))
    field = solve_limit(path, Constant(3.0), 2.5, xs)
    assert np.array_equal(field.values, np.full(xs.size, 3.0))


def test_pure_drift_is_classical_transport():
    path = make_drift_path(level=10, k_min=-4 * 2**10, k_max=8 * 2**10, drift=1.0)
    xs = np.linspace(0.0, 5.0, 301)
    for t in (0.5, 1.0, 2.0):
        field = solve_at_level(path, 10, TRIANGLE, t, xs)
        expected = eval_initial(TRIANGLE, xs - 1.0 * t)
        assert np.max(np.abs(field.values - expected)) <= 1e-12


def test_limit_solution_has_flat_parts_at_jumps():
    path = build_two_sided_path(
        PoissonDrift(1.0, 1.0, 1.0), 10, -2 * 2**10, 8 * 2**10, SEED
    )
    t = 1.0
    inc = np.diff(path.values)
    origin = path.index_of(0)
    j = origin + int(np.argmax(inc[origin:]))  # largest jump at positive times
    k = path.grid.k_min + j + 1  # jump spans (x_{k-1}, x_k]
    lo = path.value_at_index(k - 1)
    hi = path.value_at_index(k)
    assert hi - lo >= 1.0  # a unit Poisson jump
    xs = np.linspace(lo + 1e-9, hi, 50)
    field = solve_limit(path, TRIANGLE, t, xs)
    assert np.max(field.values) - np.min(field.values) <= 1e-10


def test_range_preservation():
    path = gamma_path()
    xs = np.linspace(0.0, 10.0, 400)
    for n in (3, 7, 10):
        field = solve_at_level(path, n, TRIANGLE, 2.0, xs)
        assert field.values.min() >= 0.0 and field.values.max() <= 1.0


def test_constancy_along_characteristics():
    path = gamma_path()
    n = 7
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.5, 6.0, size=40)
    ts = rng.uniform(0.0, 2.0, size=40)
    delta = 0.25
    u_here = solve_at_level(path, n, TRIANGLE, 0.0, np.array([0.0])).values  # warm-up
    for x, t in zip(xs, ts):
        u0 = solve_at_level(path, n, TRIANGLE, t, np.array([x])).values[0]
        x_later = characteristic_n(path, n, CharQuery(x=x, t=t, tau=t + delta))
        u1 = solve_at_level(path, n, TRIANGLE, t + delta, np.array([x_later])).values[0]
        assert abs(u1 - u0) <= 1e-10


def test_window_validation():
    with pytest.raises(ValueError):
        WindowK((1.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError):
        WindowK((0.0, 1.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        WindowK((0.0, 1.0), (0.0, 2.0), grid=(0, 4))


def test_lp_distance_closed_forms():
    window = WindowK((0.0, 2.0), (0.0, 3.0), grid=(4, 6))
    xs = window.x_midpoints()
    fa = [SolutionField(t, xs, np.full(xs.size, 1.0), 0) for t in window.t_midpoints()]
    fb = [SolutionField(t, xs, np.full(xs.size, 3.5), 0) for t in window.t_midpoints()]
    assert lp_distance(fa, fa, window, 2.0) == 0.0
    # constant difference c on area A: c * A^(1/p)
    for p in (1.0, 2.0, 3.0):
        got = lp_distance(fa, fb, window, p)
        assert abs(got - 2.5 * window.area ** (1.0 / p)) <= 1e-12

    single = WindowK((0.0, 1.0), (0.0, 1.0), grid=(1, 1))
    sx = single.x_midpoints()
    ga = [SolutionField(single.t_midpoints()[0], sx, np.array([2.0]), 0)]
    gb = [SolutionField(single.t_midpoints()[0], sx, np.array([0.0]), 0)]
    assert abs(lp_distance(ga, gb, single, 1.0) - 2.0 * single.area) <= 1e-15


def test_lp_distance_grid_mismatch():
    window = WindowK((0.0, 1.0), (0.0, 1.0), grid=(2, 4))
    xs = window.x_midpoints()
    good = [SolutionField(t, xs, np.zeros(xs.size), 0) for t in window.t_midpoints()]
    bad_time = [SolutionField(t + 0.1, xs, np.zeros(xs.size), 0) for t in window.t_midpoints()]
    with pytest.raises(ValueError):
        lp_distance(good, bad_time, window, 1.0)
    bad_x = [SolutionField(t, xs + 0.01, np.zeros(xs.size), 0) for t in window.t_midpoints()]
    with pytest.raises(ValueError):
        lp_distance(good, bad_x, window, 1.0)
    with pytest.raises(ValueError):
        lp_distance(good, good, window, 0.5)


def test_convergence_table_trivial_cases():
    drift = make_drift_path(level=8, k_min=-4 * 2**8, k_max=8 * 2**8, drift=1.0)
    window = WindowK((0.0, 2.0), (0.0, 3.0), grid=(8, 32))
    table = convergence_table(drift, TRIANGLE, window, 1.0, [2, 4, 6])
    assert all(dist <= 1e-12 for _, dist in table)

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
    fields = solve_on_window(path, TRIANGLE, window, level=4)
    f = tmp_path / "solution.csv"
    write_solution_csv(fields, f)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * 5

    table = [(2, 0.5), (4, 0.25)]
    g = tmp_path / "table.csv"
    write_convergence_csv(table, 1.0, g)
    lines = g.read_text().splitlines()
    assert lines[0] == "N,distance,p"
    assert len(lines) == 3


def _per_slice(path, window, level):
    """Per-time solves that aggregate and invert afresh for every slice."""
    xs = window.x_midpoints()
    fields = []
    for t in window.t_midpoints():
        if level is None:
            base = step_eval(path, hitting_time(path, xs) - t)
        else:
            agg = aggregate_to_level(path, level)
            base = polygon_eval(agg, polygon_inverse(agg, xs) - t)
        label = "limit" if level is None else level
        fields.append(SolutionField(float(t), xs, eval_initial(TRIANGLE, base), label))
    return fields


@pytest.mark.parametrize("level", [None, 3, 7])
def test_solve_on_window_matches_per_slice_solves_bitwise(level):
    path = gamma_path(n_max=9, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(24, 96))
    xs = window.x_midpoints()
    fields = solve_on_window(path, TRIANGLE, window, level=level)
    single = [
        solve_limit(path, TRIANGLE, float(t), xs)
        if level is None
        else solve_at_level(path, level, TRIANGLE, float(t), xs)
        for t in window.t_midpoints()
    ]
    reference = _per_slice(path, window, level)
    assert len(fields) == len(single) == len(reference)
    for got, one, ref in zip(fields, single, reference):
        for f in (got, one):
            assert f.time == ref.time
            assert f.level == ref.level
            assert f.xs.tobytes() == ref.xs.tobytes()
            assert f.values.tobytes() == ref.values.tobytes()


def test_convergence_table_matches_slice_by_slice_recomputation():
    path = gamma_path(n_max=9, t_lo=-4, t_hi=8)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(24, 96))
    levels = [2, 5, 7, 9]
    reference = _per_slice(path, window, path.grid.level)
    expected = [
        (n, lp_distance(_per_slice(path, window, n), reference, window, 1.5)) for n in levels
    ]
    assert convergence_table(path, TRIANGLE, window, 1.5, levels) == expected


@pytest.mark.parametrize("level", [None, 4])
def test_solve_on_window_raises_the_per_slice_window_error(level):
    path = gamma_path(n_max=8, t_lo=-1, t_hi=4)
    window = WindowK((0.0, 3.0), (0.0, 6.0), grid=(4, 8))
    with pytest.raises(WindowError) as per_slice:
        _per_slice(path, window, level)
    with pytest.raises(WindowError, match=re.escape(str(per_slice.value))):
        solve_on_window(path, TRIANGLE, window, level=level)
