"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.special import erf

from goupsim.cli import main as cli_main
from goupsim.goupillaud import characteristic
from goupsim.ig_analytics import (
    bridge_density,
    hit_under_density,
    ig_marginal_density,
    running_max_density,
    triple_density,
)
from goupsim.levy_paths import (
    DyadicGrid,
    GammaDrift,
    PoissonDrift,
    RngSeed,
    StableHalf,
    aggregate_to_level,
    build_two_sided_path,
    hitting_time,
    step_eval,
)
from goupsim.montecarlo_validation import (
    McConfig,
    bm_functionals_oracle,
    hit_under_bin_masses,
    ks_distance,
    validate_basepoints,
)
from quadrature import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_semi_infinite,
)
from goupsim.transport import Triangular, WindowK, convergence_table, solve_limit
from conftest import hit_under_y_mass

SPEC = QuadratureSpec()


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{label}]: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number} [{label}]: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_01_grid_identity():
    with criterion(1, "grid identity of broken characteristics"):
        start = time.monotonic()
        idx = np.arange(-64, 65)
        full_levels = list(range(0, 11))
        for seed, levels in ((RngSeed(101), full_levels), (RngSeed(202), [0, 5, 10])):
            path = build_two_sided_path(
                StableHalf(), 10, -194 * 1024, 194 * 1024, seed
            )
            for n in levels:
                agg = aggregate_to_level(path, n)
                dt = agg.grid.dt
                xs = agg.values[idx - agg.grid.k_min]
                got = characteristic(
                    path,
                    n,
                    xs[:, None, None],
                    (idx * dt)[None, :, None],
                    (idx * dt)[None, None, :],
                )
                m = idx[:, None, None] + idx[None, None, :] - idx[None, :, None]
                expected = agg.values[m - agg.grid.k_min]
                assert np.array_equal(got, expected)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_02_dyadic_consistency():
    with criterion(2, "aggregation reproduces coarse increments as sums"):
        for spec in (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0), StableHalf()):
            path = build_two_sided_path(spec, 12, -4096, 4096, RngSeed(404))
            fine_inc = np.diff(path.values)
            for n in range(0, 12):
                factor = 2 ** (12 - n)
                coarse = aggregate_to_level(path, n)
                coarse_inc = np.diff(coarse.values)
                sums = np.add.reduceat(fine_inc, np.arange(coarse_inc.size) * factor)
                rel = np.abs(coarse_inc - sums) / coarse_inc
                assert rel.max() <= 1e-12


def test_criterion_03_hitting_adjunction():
    with criterion(3, "Galois adjunction of hitting time and step evaluation"):
        rng = np.random.default_rng(321)
        violations = 0
        for spec in (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0), StableHalf()):
            for i in range(100):
                path = build_two_sided_path(
                    spec, 8, -512, 512, RngSeed(7000), substream=(i,)
                )
                ts = np.arange(-512, 513) * path.grid.dt
                step_vals = step_eval(path, ts)
                xs = rng.uniform(path.values[0], path.values[-1], size=1000)
                hits = hitting_time(path, xs)
                lhs = hits[:, None] <= ts[None, :]
                rhs = step_vals[None, :] >= xs[:, None]
                violations += int(np.sum(lhs != rhs))
        assert violations == 0


def test_criterion_04_density_normalizations():
    with criterion(4, "density normalizations"):
        start = time.monotonic()
        for t in (0.5, 1.0, 2.0):
            body = integrate_adaptive(
                lambda v: ig_marginal_density(t, v), t * t / 1400.0, 10.0, SPEC
            ).value
            tail = integrate_semi_infinite(
                lambda v: ig_marginal_density(t, v), 10.0, SPEC
            ).value
            assert abs(body + tail - 1.0) <= 1e-6

        for r, s, y in ((0.5, 1.0, 2.0), (1.0, 2.0, 1.0), (0.25, 1.0, 0.5)):
            total = integrate_adaptive(
                lambda z: bridge_density(r, s, y, z), 0.0, y, SPEC
            ).value
            assert abs(total - 1.0) <= 1e-5

        for x in (0.5, 1.0, 8.0):
            def joint_s(s_values):
                s_values = np.atleast_1d(s_values)
                return np.array([hit_under_y_mass(x, float(s), SPEC) for s in s_values])

            mass = integrate_semi_infinite(joint_s, 0.0, SPEC).value
            assert abs(mass - 1.0) <= 1e-3
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_05_marginal_consistency():
    with criterion(5, "undershoot and overshoot marginal identities"):
        for x in np.linspace(0.5, 8.0, 10):
            for frac in np.linspace(0.05, 3.3, 10):
                s = float(frac * math.sqrt(x))
                got = hit_under_y_mass(float(x), s, SPEC)
                want = running_max_density(float(x), s)
                assert abs(got - want) <= 1e-4

        for x in (0.5, 1.0, 2.0, 4.0, 8.0):
            for sf in (0.2, 0.7, 1.2, 2.0, 3.0):
                s = sf * math.sqrt(x)
                for yf in (0.15, 0.4, 0.6, 0.8, 0.95):
                    y = yf * x
                    got = integrate_semi_infinite(
                        lambda b: triple_density(x, s, y, b), x, SPEC
                    ).value
                    want = hit_under_density(x, s, y)
                    assert abs(got - want) <= 1e-6 * max(1.0, want)


def test_criterion_06_brownian_oracle_agreement():
    with criterion(6, "Brownian functional oracle vs analytic density"):
        start = time.monotonic()
        x, step, n = 1.0, 1e-4, 10**5
        oracle = bm_functionals_oracle(
            x, step, n, RngSeed(60601), include_overshoot=False
        )
        s_edges = np.array([0.0, 0.4, 0.8, 1.3, 1.9, 2.6, 3.5])
        y_edges = np.array([0.0, 0.15, 0.35, 0.55, 0.75, 0.9, 1.0])
        masses = hit_under_bin_masses(x, s_edges, y_edges)

        si = np.searchsorted(s_edges, oracle.hit, side="right") - 1
        yi = np.searchsorted(y_edges, oracle.undershoot, side="right") - 1
        ok = (si >= 0) & (si < 6) & (yi >= 0) & (yi < 6)
        counts = np.zeros((6, 6))
        np.add.at(counts, (si[ok], yi[ok]), 1.0)
        for i in range(6):
            for j in range(6):
                m = masses[i, j]
                se = math.sqrt(n * m * (1.0 - m))
                assert abs(counts[i, j] - n * m) <= 3.0 * se, (
                    f"bin ({i},{j}): count {counts[i, j]}, expected {n * m:.1f}"
                )

        ks = ks_distance(oracle.hit, lambda s: erf(s / math.sqrt(2.0 * x)))
        assert ks <= 1.628 / math.sqrt(n)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1min"


def test_criterion_07_basepoint_density_reproduction():
    with criterion(7, "Monte Carlo base points vs analytic density"):
        start = time.monotonic()
        n_max = 14
        cfg = McConfig(
            n_samples=10**4,
            grid=DyadicGrid(n_max, -(2**n_max) - 4, 14 * 2**n_max),
            root_seed=RngSeed(51423),
            bins=60,
        )
        result = validate_basepoints(StableHalf(), 8.0, 1.0, cfg, l1_max=0.10, hist_hi=8.5)
        report = result.report
        assert report["n_failed"] <= 0.01 * cfg.n_samples
        # a correct sampler fails L1 <= 0.10 at n = 10^4 and 60 bins in none
        # of 10^5 multinomial draws over the exact bin masses, and the
        # concentration verdict 1% of the time
        assert report["l1"] <= 0.10, f"L1 distance {report['l1']:.4f} > 0.10"
        beyond = result.curve.f[result.curve.z > 8.0]
        assert beyond.size > 0 and np.max(np.abs(beyond)) <= 1e-10
        assert report["concentration_pass"], "bin nearest 0 does not carry max density"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_08_flat_segments_at_jumps():
    with criterion(8, "jumps induce constant solution segments"):
        n_max = 12
        datum = Triangular(1.0, 1.0, 1.0)
        for spec in (GammaDrift(1.0, 1.0, 1.0), PoissonDrift(1.0, 1.0, 1.0)):
            path = build_two_sided_path(
                spec, n_max, -4 * 2**n_max, 12 * 2**n_max, RngSeed(888)
            )
            inc = np.diff(path.values)
            mean_speed = float(np.mean(inc)) * 2.0**n_max
            thresh = 10.0 * 2.0**-n_max * mean_speed
            ks = np.arange(path.grid.k_min + 1, path.grid.k_max + 1)
            t_k = ks * path.grid.dt
            eligible = (inc > thresh) & (t_k >= -0.5) & (t_k <= 8.0)
            assert eligible.sum() >= 5, "too few qualifying jumps to test"
            lo = path.values[:-1][eligible]
            hi = path.values[1:][eligible]
            for t in (1.0, 2.0, 3.0):
                # probe three interior points of every jump interval
                probes = np.stack(
                    [lo + 1e-9 * (hi - lo), 0.5 * (lo + hi), hi]
                )
                field = solve_limit(path, datum, t, np.sort(probes.ravel()))
                by_value = dict(zip(field.xs, field.values))
                for a, m, b in zip(probes[0], probes[1], probes[2]):
                    vals = (by_value[a], by_value[m], by_value[b])
                    assert max(vals) - min(vals) <= 1e-10


def test_criterion_09_solution_convergence():
    with criterion(9, "L1 convergence of broken solutions"):
        n_max = 12
        path = build_two_sided_path(
            GammaDrift(1.0, 1.0, 1.0), n_max, -4 * 2**n_max, 14 * 2**n_max, RngSeed(1812)
        )
        window = WindowK((0.0, 3.0), (0.0, 12.0), (64, 512))
        levels = [2, 4, 6, 8, 10]
        table = dict(
            convergence_table(path, Triangular(1.0, 1.0, 1.0), window, 1.0, levels)
        )
        assert table[10] < 0.05 * table[2], (
            f"distance(10)={table[10]:.4g} not below 5% of distance(2)={table[2]:.4g}"
        )
        for n in (4, 6, 8, 10):
            assert table[n] <= table[n - 2]


def test_criterion_10_thread_count_determinism(tmp_path):
    with criterion(10, "validation outputs identical across worker counts"):
        names = [
            "samples.csv",
            "histogram.csv",
            "density.csv",
            "cdf.csv",
            "report.json",
            "manifest.json",
        ]
        for process in ("stable-half", "gamma", "poisson"):
            args = [
                "validate", "--process", process, "--x0", "4", "--t0", "1",
                "--n", "300", "--nmax", "10", "--range=-1.01:12", "--bins", "24",
                "--tol-abs", "1e-7", "--tol-rel", "1e-6", "--seed", "777",
            ]
            t1, t8 = tmp_path / process / "t1", tmp_path / process / "t8"
            rc1 = cli_main(args + ["--threads", "1", "--out", str(t1)])
            rc8 = cli_main(args + ["--threads", "8", "--out", str(t8)])
            assert rc1 == rc8
            # Gamma and Poisson have no analytic law, so no density or cdf
            written = [name for name in names if (t1 / name).exists()]
            assert written == [name for name in names if (t8 / name).exists()]
            assert len(written) == (6 if process == "stable-half" else 4), process
            for name in written:
                a = (t1 / name).read_bytes()
                b = (t8 / name).read_bytes()
                assert a == b, f"{process} {name} differs between 1 and 8 workers"
