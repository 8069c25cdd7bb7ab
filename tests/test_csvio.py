"""Golden bytes of every CSV writer.

Each writer's file must equal the reference built here row by row with
f-strings over numpy scalars, the way every writer formatted its rows before
they moved to :func:`goupsim.csvio.write_csv`.  The columns hold awkward
values (signed zero, the smallest subnormal, huge and non-finite floats,
integral floats, negative indices) and run past one ``BLOCK`` chunk.
"""

import numpy as np
import pytest

from goupsim.csvio import write_csv
from goupsim.goupillaud import (
    GoupillaudMedium,
    write_characteristic_trace_csv,
    write_medium_csv,
)
from goupsim.ig_analytics import DensityCurve, write_cdf_csv, write_density_csv
from goupsim.levy_paths import (
    BLOCK,
    DyadicGrid,
    LevyPathSample,
    RngSeed,
    StableHalf,
    write_path_csv,
)
from goupsim.montecarlo_validation import (
    BasepointSamples,
    Histogram,
    write_histogram_csv,
    write_samples_csv,
)
from goupsim.transport import SolutionField, write_convergence_csv, write_solution_csv

AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
           3.0, -2.0, 1e16, 0.1, 1.0 / 3.0, 2.0**-1074 * 3, 123456789.0]
N = BLOCK + 7  # one full chunk and a partial one


def awkward(n=N, shift=0):
    return np.resize(np.roll(np.array(AWKWARD), shift), n)


def positive(n=N):
    return np.resize(np.array([5e-324, 1e300, np.inf, 3.0, 0.1, 1.0 / 3.0]), n)


def test_path_csv(tmp_path):
    grid = DyadicGrid(3, -(N // 2), N - 1 - N // 2)
    path = LevyPathSample(grid, awkward(), RngSeed(1), StableHalf())
    ref = "k,t,x\n" + "".join(
        f"{k},{grid.time(k):.17g},{path.values[i]:.17g}\n"
        for i, k in enumerate(range(grid.k_min, grid.k_max + 1))
    )
    write_path_csv(path, tmp_path / "path.csv")
    assert (tmp_path / "path.csv").read_text() == ref


def test_solution_csv(tmp_path):
    fields = [
        SolutionField(t, awkward(n, shift), awkward(n, shift + 5), "limit")
        for shift, (t, n) in enumerate(
            [(-0.0, 3), (1e300, 0), (float("nan"), N), (2.0, 17), (5e-324, BLOCK)]
        )
    ]
    ref = "t,x,u\n" + "".join(
        f"{field.time:.17g},{x:.17g},{u:.17g}\n"
        for field in fields
        for x, u in zip(field.xs, field.values)
    )
    write_solution_csv(fields, tmp_path / "solution.csv")
    assert (tmp_path / "solution.csv").read_text() == ref

    write_solution_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "t,x,u\n"


def test_convergence_csv(tmp_path):
    dists = awkward(40)
    for p in (1.0, 1.0 / 3.0, 1e300):
        table = [(n - 20, float(d)) for n, d in enumerate(dists)]
        ref = "N,distance,p\n" + "".join(f"{n},{dist:.17g},{p:.17g}\n" for n, dist in table)
        write_convergence_csv(table, p, tmp_path / "convergence.csv")
        assert (tmp_path / "convergence.csv").read_text() == ref


def test_medium_csv(tmp_path):
    medium = GoupillaudMedium(5, -N // 3, awkward(N + 1), positive())
    ref = "k,x_left,x_right,c\n" + "".join(
        f"{medium.k_min + i + 1},{medium.boundaries[i]:.17g},"
        f"{medium.boundaries[i + 1]:.17g},{medium.speeds[i]:.17g}\n"
        for i in range(medium.speeds.size)
    )
    write_medium_csv(medium, tmp_path / "medium.csv")
    assert (tmp_path / "medium.csv").read_text() == ref


def test_characteristic_trace_csv(tmp_path):
    taus, gammas = awkward(), awkward(shift=3)
    ref = "tau,gamma\n" + "".join(f"{tau:.17g},{g:.17g}\n" for tau, g in zip(taus, gammas))
    write_characteristic_trace_csv(taus, gammas, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == ref


def test_samples_csv(tmp_path):
    samples = BasepointSamples(awkward(), np.arange(N) * 3 - N, N, 0, 0)
    ref = "i,z\n" + "".join(
        f"{i},{z:.17g}\n" for i, z in zip(samples.indices, samples.values)
    )
    write_samples_csv(samples, tmp_path / "samples.csv")
    assert (tmp_path / "samples.csv").read_text() == ref


def test_histogram_csv(tmp_path):
    counts = np.resize(np.array([0, 7, 2**40, 1]), N)
    h = Histogram(awkward(N + 1), counts, int(counts.sum()), 0, 0)
    ref = "left,right,count\n" + "".join(
        f"{h.edges[i]:.17g},{h.edges[i + 1]:.17g},{h.counts[i]}\n"
        for i in range(h.counts.size)
    )
    write_histogram_csv(h, tmp_path / "histogram.csv")
    assert (tmp_path / "histogram.csv").read_text() == ref


def test_density_csv(tmp_path):
    curve = DensityCurve(awkward(), awkward(shift=1), awkward(shift=2), 1.0)
    ref = "z,f,err\n" + "".join(
        f"{z:.17g},{f:.17g},{e:.17g}\n" for z, f, e in zip(curve.z, curve.f, curve.err)
    )
    write_density_csv(curve, tmp_path / "density.csv")
    assert (tmp_path / "density.csv").read_text() == ref


def test_cdf_csv(tmp_path):
    cdf = np.column_stack([awkward(), awkward(shift=7)])
    ref = "z,F\n" + "".join(f"{z:.17g},{F:.17g}\n" for z, F in cdf)
    write_cdf_csv(cdf, tmp_path / "cdf.csv")
    assert (tmp_path / "cdf.csv").read_text() == ref


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="column lengths"):
        write_csv(tmp_path / "x.csv", "a,b", "{},{}", [1, 2, 3], [1, 2])
