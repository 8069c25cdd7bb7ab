"""Golden bytes of every CSV writer.

Each writer's file must equal the reference built here row by row with
f-strings over numpy scalars, the way every writer formatted its rows before
they moved to :func:`goupsim.csvio.write_csv`.  The columns hold awkward
values (signed zero, the smallest subnormal, huge and non-finite floats,
integral floats, negative indices) and run past one ``BLOCK`` chunk.
``write_csv`` takes each field's format from its column's dtype: ``str``
for an integer column, ``.17g`` for any other.

Chunks of at least ``KERNEL_ROWS`` rows go through ``csvio``'s numpy
kernel: further tests compare it with ``format(v, ".17g")`` and ``str(k)``
on hard values at row counts on both sides of ``KERNEL_ROWS`` and
``BLOCK``, and pin ``path.csv`` digests taken before the kernel.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from goupsim.cli import main
from goupsim import csvio
from goupsim.csvio import BLOCK, KERNEL_ROWS, write_csv
from goupsim.ig_analytics import DensityCurve, write_cdf_csv, write_density_csv
from goupsim.levy_paths import (
    DyadicGrid,
    LevyPathSample,
    StableHalf,
    write_path_csv,
)
from goupsim.montecarlo_validation import (
    BasepointSamples,
    Histogram,
    write_histogram_csv,
    write_samples_csv,
)
from goupsim.transport import write_convergence_csv, write_solution_csv

AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
           3.0, -2.0, 1e16, 0.1, 1.0 / 3.0, 2.0**-1074 * 3, 123456789.0]
N = BLOCK + 7  # one full chunk and a partial one


def awkward(n=N, shift=0):
    return np.resize(np.roll(np.array(AWKWARD), shift), n)


def assert_file_text(path, ref):
    """The file's text equals ``ref``; on failure name the first differing
    rows rather than diff two files of a few hundred KB."""
    got = path.read_text()
    if got != ref:
        got_rows, ref_rows = got.split("\n"), ref.split("\n")
        bad = [
            (i, g, r) for i, (g, r) in enumerate(zip(got_rows, ref_rows)) if g != r
        ][:3]
        pytest.fail(
            f"{path.name}: {len(got_rows)} rows, want {len(ref_rows)}; "
            f"first differing (row, got, want): {bad}",
            pytrace=False,
        )


def test_path_csv(tmp_path):
    grid = DyadicGrid(3, -(N // 2), N - 1 - N // 2)
    path = LevyPathSample(grid, awkward(), StableHalf())
    ref = "k,t,x\n" + "".join(
        f"{k},{grid.time(k):.17g},{path.values[i]:.17g}\n"
        for i, k in enumerate(range(grid.k_min, grid.k_max + 1))
    )
    write_path_csv(path, tmp_path / "path.csv")
    assert_file_text(tmp_path / "path.csv", ref)


def test_solution_csv(tmp_path):
    # 5 times of 1000 points: 5000 rows, past one BLOCK
    times = np.array([-0.0, 1e300, float("nan"), 2.0, 5e-324])
    xs = awkward(1000, 1)
    u = awkward(times.size * xs.size, 6).reshape(times.size, xs.size)
    ref = "t,x,u\n" + "".join(
        f"{t:.17g},{x:.17g},{v:.17g}\n" for t, row in zip(times, u) for x, v in zip(xs, row)
    )
    write_solution_csv(u, tmp_path / "solution.csv", times, xs)
    assert_file_text(tmp_path / "solution.csv", ref)

    write_solution_csv(np.empty((0, xs.size)), tmp_path / "empty.csv", [], xs)
    assert_file_text(tmp_path / "empty.csv", "t,x,u\n")


def test_convergence_csv(tmp_path):
    table = [(n - 20, float(d)) for n, d in enumerate(awkward(40))]
    ref = "N,distance\n" + "".join(f"{n},{dist:.17g}\n" for n, dist in table)
    write_convergence_csv(table, tmp_path / "convergence.csv")
    assert_file_text(tmp_path / "convergence.csv", ref)


def test_samples_csv(tmp_path):
    samples = BasepointSamples(awkward(), np.arange(N) * 3 - N, N, 0, 0)
    ref = "i,z\n" + "".join(
        f"{i},{z:.17g}\n" for i, z in zip(samples.indices, samples.values)
    )
    write_samples_csv(samples, tmp_path / "samples.csv")
    assert_file_text(tmp_path / "samples.csv", ref)


def test_histogram_csv(tmp_path):
    counts = np.resize(np.array([0, 7, 2**40, 1]), N)
    h = Histogram(awkward(N + 1), counts, int(counts.sum()))
    ref = "left,right,count\n" + "".join(
        f"{h.edges[i]:.17g},{h.edges[i + 1]:.17g},{h.counts[i]}\n"
        for i in range(h.counts.size)
    )
    write_histogram_csv(h, tmp_path / "histogram.csv")
    assert_file_text(tmp_path / "histogram.csv", ref)


def test_density_csv(tmp_path):
    curve = DensityCurve(*(awkward(shift=s) for s in (0, 1, 2, 7)))
    ref = "z,f,err\n" + "".join(
        f"{z:.17g},{f:.17g},{e:.17g}\n" for z, f, e in zip(curve.z, curve.f, curve.err)
    )
    write_density_csv(curve, tmp_path / "density.csv")
    assert_file_text(tmp_path / "density.csv", ref)


def test_cdf_csv(tmp_path):
    curve = DensityCurve(*(awkward(shift=s) for s in (0, 1, 2, 7)))
    ref = "z,F\n" + "".join(f"{z:.17g},{F:.17g}\n" for z, F in zip(curve.z, curve.F))
    write_cdf_csv(curve, tmp_path / "cdf.csv")
    assert_file_text(tmp_path / "cdf.csv", ref)


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="column lengths"):
        write_csv(tmp_path / "x.csv", "a,b", [1, 2, 3], [1, 2])


def _random_doubles(n):
    bits = np.random.default_rng(20231018).integers(0, 2**64, size=2 * n, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)][:n]


def _ties(n):
    """18-digit decimals ending in 5, whose 17-digit rounding is nearly a
    tie, and exact ties ``N + j/8`` with 15-digit ``N`` and odd ``j``."""
    rng = np.random.default_rng(5)
    digits = rng.integers(10**16, 10**17, size=n)
    exps = rng.integers(-215, 183, size=n)
    near = [float(f"{d}5e{e}") for d, e in zip(digits.tolist(), exps.tolist())]
    exact = rng.integers(10**14, 10**15, size=n) + rng.integers(0, 4, size=n) * 0.25 + 0.125
    return np.concatenate([near, exact])


def _decade_neighbours():
    """nextafter and 1 ± k·2^-53 neighbours of every 10^p, p in [-199, 199]."""
    p10 = np.array([float(f"1e{p}") for p in range(-199, 200)])
    near = [np.nextafter(p10, 0.0), p10, np.nextafter(p10, np.inf)]
    near += [p10 * (1.0 + k * 2.0**-53) for k in range(-6, 7)]
    return np.concatenate(near)


def _decade_round_ups():
    """Doubles below 10^p whose 17 digits round up to 1e+p."""
    ups = [
        v for v in (float(f"1e{p}") for p in range(-199, 200))
        if Fraction(v) < Fraction(10) ** round(math.log10(v)) and format(v, ".17g")[0] == "1"
    ]
    assert len(ups) >= 10
    return np.array(ups)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, np.inf, -np.inf,
           np.nan, 1e200, -1e200, 1.0000000000000002e200, 1e300, -1.7976931348623157e308,
           1e-200, 9.9999999999999e-201, 1e16, 1e17, 0.0001, 1e-5, 123456789.0, 0.5]
KERNEL_SETS = {
    "random_bits": lambda: _random_doubles(100_000),
    "ties": lambda: _ties(30_000),
    "decade_neighbours": _decade_neighbours,
    "decade_round_ups": _decade_round_ups,
    "special": lambda: np.array(SPECIAL),
}
INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1, -9, 10, -10**18, 10**18,
        -9999, 10000, -123456789]


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("values", sorted(KERNEL_SETS))
def test_full_chunks_equal_str_format(tmp_path, values, n):
    """Each value lands in a full chunk at least once when n >= BLOCK; the
    bytes equal format(v, ".17g") and str(k) whichever path formats them."""
    x = KERNEL_SETS[values]()
    x = np.concatenate([x, -x])
    floats = np.resize(x, (-(-x.size // n), n))  # the values as columns of n rows
    rng = np.random.default_rng(n)
    ints = np.resize(np.concatenate([INTS, rng.integers(-(2**63), 2**63 - 1, 999)]), n)
    write_csv(tmp_path / "x.csv", "k,x", ints, *floats)
    ref = ["k,x"] + [
        ",".join([str(k)] + [format(v, ".17g") for v in vs])
        for k, *vs in zip(ints.tolist(), *(f.tolist() for f in floats))
    ]
    got = (tmp_path / "x.csv").read_bytes().split(b"\n")
    assert got.pop() == b"" and len(got) == len(ref)
    bad = [(i, line, want) for i, (line, want) in enumerate(zip(got, ref)) if line != want.encode()]
    assert not bad, bad[:3]  # first differing rows, not a diff of the whole file


def test_pow10_table_is_exact():
    # each 10^(16-e) is the double-double hi + lo, hi split in Veltkamp halves;
    # the oracle takes the rounding error of hi as a Fraction
    pow10 = csvio._tables().pow10
    for i, e in enumerate(range(csvio._E_MIN, -csvio._E_MIN + 1)):
        exact = Fraction(10) ** (16 - e)
        hi, hi_hi, hi_lo, lo = pow10[:, i]
        assert hi == float(exact) and hi_hi + hi_lo == hi, e
        assert all((math.frexp(h)[0] * 2.0**26).is_integer() for h in (hi_hi, hi_lo)), e
        assert lo == float(exact - Fraction(hi)), e


@pytest.mark.parametrize(
    "n, kernel_chunks",
    [
        (KERNEL_ROWS - 1, 0),
        (KERNEL_ROWS, 1),
        (BLOCK - 1, 1),
        (BLOCK + KERNEL_ROWS - 1, 1),  # the short last chunk goes through str.format
        (BLOCK + KERNEL_ROWS, 2),
    ],
)
def test_kernel_takes_every_chunk_of_at_least_kernel_rows(tmp_path, monkeypatch, n, kernel_chunks):
    calls = []
    kernel_rows = csvio._kernel_rows

    def spy(layout, chunk, buf):
        calls.append(len(chunk[0]))
        return kernel_rows(layout, chunk, buf)

    monkeypatch.setattr(csvio, "_kernel_rows", spy)
    k = np.arange(n) - n // 2
    odd = awkward(n)  # +-0, nan, +-inf, subnormals among ordinary values
    x = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.resize(np.arange(-9, 9), n)
    write_csv(tmp_path / "x.csv", "k,odd,x", k, odd, x)
    ref = "k,odd,x\n" + "".join(
        "{},{:.17g},{:.17g}\n".format(*row) for row in zip(k.tolist(), odd.tolist(), x.tolist())
    )
    assert (tmp_path / "x.csv").read_bytes() == ref.encode()
    assert len(calls) == kernel_chunks and all(rows >= KERNEL_ROWS for rows in calls)


# sha256 of path.csv and manifest.json; the path.csv digests equal those of
# conftest.path_by_concatenation's values formatted row by row with f-strings,
# not by the numpy kernel
PATHS_PINS = {
    "gamma": (
        ["--process", "gamma", "--k", "1", "--theta", "1", "--drift", "1"],
        "192de3ce6d5aa7260f9c66c57942401d05f5853bbcfd9e2eccf2b1187f200b94",
        "3cf0f7891729daded7a70d618cac5bd77694731d1e10a205eecf0ab7005250fb",
    ),
    "poisson": (
        ["--process", "poisson", "--intensity", "1", "--jump", "1", "--drift", "1"],
        "1ec8f830b0c0d0e8458c33b45180c2a1df563d2fbefef1b7008de4fdcea8092e",
        "7353f6a4e5b21929cf5c3e39f7914754faec8e936670df212f5a79333eb7896e",
    ),
    "stable-half": (
        ["--process", "stable-half"],
        "ad86c8fe6182bf73b0091f6b3178228243d22de8795f0ef52228df4ad617f51c",
        "c102a0876791090e6b0a9a4d6117d3bdd91deeae6744c406e64b5b1f8a021477",
    ),
}


@pytest.mark.parametrize("family", sorted(PATHS_PINS))
def test_paths_outputs_are_pinned(tmp_path, family):
    flags, path_sha, manifest_sha = PATHS_PINS[family]
    out = tmp_path / "run"
    argv = ["paths", *flags, "--nmax", "12", "--range=-4:14", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / "path.csv").read_bytes()).hexdigest() == path_sha
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_sha
