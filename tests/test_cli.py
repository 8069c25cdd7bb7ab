import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc

import goupsim
from goupsim.cli import build_parser, main


def read_rows(path, cols):
    lines = path.read_text().splitlines()
    out = {c: [] for c in cols}
    for line in lines[1:]:
        parts = line.split(",")
        for c, v in zip(cols, parts):
            out[c].append(float(v))
    return {c: np.array(v) for c, v in out.items()}


def run_module(*argv):
    """``python -m goupsim *argv`` in a child process, with this package
    first on its path."""
    src = str(Path(goupsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "goupsim", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_dash_m_goupsim_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout and "validate" in done.stdout


def test_paths_gamma(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "paths",
            "--process", "gamma",
            "--k", "1", "--theta", "1", "--drift", "1",
            "--nmax", "10",
            "--range=-8:8",
            "--seed", "42",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "path.csv", ["k", "t", "x"])
    assert np.all(np.diff(rows["x"]) > 0.0)
    assert rows["k"][0] == -8 * 1024 and rows["k"][-1] == 8 * 1024
    meta = json.loads((out / "path_meta.json").read_text())
    assert meta["process"]["family"] == "gamma"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "paths"
    assert manifest["config"]["seed"] == 42


def test_paths_rejects_unknown_process(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--process", "drift-only", "--nmax", "4", "--range=-1:1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_paths_stable_half_increment_law(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "paths", "--process", "stable-half",
            "--nmax", "12", "--range=-1:7",
            "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "path.csv", ["k", "t", "x"])
    inc = np.diff(rows["x"])
    # increments follow dt^2/Z^2: median matches dt^2 / median(chi2_1)
    chi2_median = brentq(lambda m: gammainc(0.5, 0.5 * m) - 0.5, 1e-6, 4.0, xtol=1e-12)
    dt = 2.0**-12
    expected = dt * dt / chi2_median
    med = np.median(inc)
    dens_at_med = (
        (2.0 * math.pi) ** -0.5 * dt * (expected) ** -1.5 * math.exp(-dt * dt / (2 * expected))
    )
    se = 1.0 / (2.0 * dens_at_med * math.sqrt(inc.size))
    assert abs(med - expected) <= 3.0 * se


def test_paths_reproducible_outputs(tmp_path):
    args = ["paths", "--process", "stable-half", "--nmax", "6", "--range=-2:2",
            "--seed", "99"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/path.csv").read_bytes() == (tmp_path / "b/path.csv").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()


def test_solve_constant_datum(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "solve", "--process", "gamma", "--nmax", "8", "--range=-5:10",
            "--times", "1,2", "--datum", "constant", "--value", "2.5",
            "--xgrid", "0:6", "--xcount", "64", "--seed", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "solution.csv", ["t", "x", "u"])
    assert rows["t"].size == 2 * 64
    assert np.all(rows["u"] == 2.5)


def test_solve_window_too_small(tmp_path):
    with pytest.raises(SystemExit, match="range"):
        main(
            [
                "solve", "--process", "gamma", "--nmax", "6", "--range=-0.5:0.5",
                "--times", "3", "--xgrid", "0:6", "--xcount", "16",
                "--seed", "5", "--out", str(tmp_path),
            ]
        )


def test_solve_poisson_has_flat_segments(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "solve", "--process", "poisson", "--intensity", "1", "--jump", "1",
            "--drift", "1", "--nmax", "10", "--range=-4:12",
            "--times", "1,2,3", "--datum", "triangular", "--center", "1",
            "--halfwidth", "1", "--height", "1",
            "--xgrid", "0:10", "--xcount", "2560", "--seed", "12", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "solution.csv", ["t", "x", "u"])
    total_flat = 0
    for tv in (1.0, 2.0, 3.0):
        u = rows["u"][rows["t"] == tv]
        inside = (u > 0.02) & (u < 0.98)
        du = np.abs(np.diff(u))
        total_flat += int(((du < 1e-12) & inside[:-1] & inside[1:]).sum())
    # constant stretches strictly inside the profile, created by path jumps
    assert total_flat >= 10


def test_converge_constant_datum_zero(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "converge", "--process", "gamma", "--nmax", "8", "--range=-4:10",
            "--levels", "2,4,6", "--datum", "constant", "--value", "1.0",
            "--window-t", "0:2", "--window-x", "0:6", "--kgrid", "8:32",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "convergence.csv", ["N", "distance", "p"])
    assert np.all(rows["distance"] == 0.0)


def test_converge_gamma_decreasing(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "converge", "--process", "gamma", "--nmax", "9", "--range=-4:10",
            "--levels", "2,4,6,8", "--datum", "triangular",
            "--window-t", "0:2", "--window-x", "0:6", "--kgrid", "8:64",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "convergence.csv", ["N", "distance", "p"])
    d = rows["distance"]
    assert d[0] > 0.0
    assert np.all(np.diff(d) <= 0.0)


CONVERGE_PINS = {
    # sha256 of convergence.csv and manifest.json; the tables equalled those
    # of the per-slice solver that the row-batched one replaced, on the paths
    # of their time, and were re-taken when each path side became one
    # PATH_PURPOSE stream; the manifests were re-taken when they began to
    # record the datum's parameters
    "gamma": (
        ["--process", "gamma", "--k", "1", "--theta", "1", "--drift", "1",
         "--nmax", "10", "--range=-4:10", "--levels", "2,4,6,8,10", "--p", "1.5",
         "--window-t", "0:3", "--window-x", "0:8", "--kgrid", "37:96", "--seed", "17"],
        "0e0e2d4bf4fd31cd24bfbd767f5002ae6f7c703d837cf871b37ef657e2e18041",
        "a84100a8375a5aa4712714e308909f55623d5d3cd576dbbecee5d4c1fd75a98c",
    ),
    "poisson": (
        ["--process", "poisson", "--intensity", "1", "--jump", "1", "--drift", "1",
         "--nmax", "10", "--range=-4:10", "--levels", "1,3,5,7,9", "--p", "2",
         "--window-t", "0.5:2.5", "--window-x", "0:6", "--kgrid", "33:80",
         "--datum", "triangular", "--center", "1.5", "--halfwidth", "0.75", "--seed", "23"],
        "3cea832efd6260f4a052d6d6762148ef77b27c05af5e468fb62d6415c7ba7f65",
        "2a4bbd28a277ffb37fae7910d44e0e11e1f67a9ab9e18152957f41351c60c37e",
    ),
}


@pytest.mark.parametrize("family", sorted(CONVERGE_PINS))
def test_converge_outputs_are_pinned(tmp_path, family):
    argv, table_sha, manifest_sha = CONVERGE_PINS[family]
    out = tmp_path / "run"
    assert main(["converge", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "convergence.csv").read_bytes()).hexdigest() == table_sha
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_sha


CONVERGE_SMALL = [
    "converge", "--process", "gamma", "--nmax", "8", "--range=-4:10",
    "--window-t", "0:2", "--window-x", "0:6", "--kgrid", "8:32", "--seed", "3",
]

#: the prefixes that name the flags of the library call that refused
PATH_GRID = "invalid path grid (--nmax, --range): "
DENSITY_INPUT = "invalid density input (--x, --t, --zcount, --zfar): "
VALIDATION_INPUT = "invalid validation input (--n, --bins, --x0, --t0, --hist-hi, --l1-max): "


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--process", "gamma", "--nmax", "8", "--range=-4:10", "--times", "1,2",
         "--xgrid", "0:6", "--xcount", "64", "--seed", "5"],
        [*CONVERGE_SMALL, "--levels", "2,4"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "datum",
    [
        ["--datum", "triangular", "--center", "2.5"],
        ["--datum", "triangular", "--halfwidth", "0.5"],
        ["--datum", "triangular", "--height", "3"],
        ["--datum", "constant", "--value", "2.5"],
    ],
    ids=lambda d: d[2].lstrip("-"),
)
def test_datum_flags_reach_the_output_and_the_manifest(tmp_path, command, datum):
    # converge's manifest used to record the datum's name only, so a run
    # with --center 2.5 could not be told from, or rerun as, the default
    output = {"solve": "solution.csv", "converge": "convergence.csv"}[command[0]]
    base, changed = tmp_path / "base", tmp_path / "changed"
    assert main([*command, *datum[:2], "--out", str(base)]) == 0
    assert main([*command, *datum, "--out", str(changed)]) == 0
    config = json.loads((changed / "manifest.json").read_text())["config"]
    assert config["datum"] == datum[1]
    assert config["datum_params"][datum[2].lstrip("-")] == float(datum[3])
    assert (base / "manifest.json").read_bytes() != (changed / "manifest.json").read_bytes()
    same_table = (base / output).read_bytes() == (changed / output).read_bytes()
    # a constant datum is solved exactly at every level: its distances are 0
    # whatever its value
    assert same_table == (command[0] == "converge" and datum[1] == "constant")


@pytest.mark.parametrize(
    "flags, message",
    [
        # --p inf wrote a distance of 1 for every level and --p nan wrote
        # nan, both with exit status 0
        (["--levels", "2,4", "--p", "inf"], "invalid convergence input: p must be >= 1"),
        (["--levels", "2,4", "--p", "nan"], "invalid convergence input: p must be >= 1"),
        (["--levels", "2,4", "--p", "0.5"], "invalid convergence input: p must be >= 1"),
        # 2.5 silently ran level 2
        (["--levels", "2.5,4"], "expected comma-separated integer levels, got '2.5,4'"),
        # these two ended in a ValueError traceback
        (["--levels="], "--levels names no level"),
        ([], "invalid convergence input: levels must lie in 0..8"),
    ],
)
def test_converge_bad_p_or_levels_is_an_error_line(tmp_path, flags, message):
    with pytest.raises(SystemExit) as exc:
        main([*CONVERGE_SMALL, *flags, "--out", str(tmp_path / "run")])
    assert str(exc.value.code).startswith(message)
    assert "\n" not in str(exc.value.code)


def test_parser_is_built_once_and_calls_do_not_share_values(tmp_path):
    assert build_parser() is build_parser()
    first, second, third = (tmp_path / name for name in ("first", "second", "third"))
    main(["paths", "--process", "stable-half", "--nmax", "4", "--range=-1:1",
          "--seed", "42", "--stream", "3", "--out", str(first)])
    main([*CONVERGE_SMALL[:-2], "--levels", "2,4", "--p", "2", "--datum", "constant",
          "--out", str(second)])
    main(["converge", "--process", "poisson", "--nmax", "6", "--range=-4:10",
          "--levels", "3", "--kgrid", "4:16", "--out", str(third)])
    configs = [json.loads((d / "manifest.json").read_text())["config"] for d in (first, second, third)]
    assert [(c["seed"], c["stream"]) for c in configs] == [(42, 3), (20230915, 0), (20230915, 0)]
    assert (configs[1]["p"], configs[1]["levels"], configs[1]["datum"]) == (2.0, [2, 4], "constant")
    assert (configs[2]["p"], configs[2]["levels"], configs[2]["datum"]) == (1.0, [3], "triangular")
    assert configs[2]["process"]["family"] == "poisson" and configs[2]["grid"] == [4, 16]


def test_density_rejects_nonpositive_time(tmp_path):
    with pytest.raises(SystemExit, match="positive"):
        main(["density", "--x", "8", "--t", "0", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="positive"):
        main(["density", "--x=-1", "--t", "1", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "grid, why",
    [
        (["--zcount", "10"], "need at least 64 grid points, got 10"),
        (["--zfar", "5"], "far negative end must lie below"),
        (["--zfar", "0"], "far negative end must lie below"),
    ],
)
def test_density_bad_grid_is_an_error_line(tmp_path, grid, why):
    with pytest.raises(SystemExit, match="invalid density input") as exc:
        main(["density", "--x", "8", "--t", "1", *grid, "--out", str(tmp_path / "run")])
    assert why in str(exc.value) and "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "command",
    [["density", "--x", "8", "--t", "1"], ["validate", "--process", "stable-half", "--n", "50"]],
)
def test_a_platform_without_the_extended_type_is_an_error_line(tmp_path, monkeypatch, command):
    # where numpy's longdouble is a double, the stable-1/2 law is refused
    monkeypatch.setattr(goupsim.ig_analytics, "_EXT", np.float64)
    with pytest.raises(SystemExit, match="needs numpy's longdouble with maxexp 16384") as exc:
        main([*command, "--out", str(tmp_path / "run")])
    assert "\n" not in str(exc.value) and not (tmp_path / "run").exists()


def test_density_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "density", "--x", "2.0", "--t", "1.0", "--zcount", "96",
            "--zfar=-1e4", "--tol-abs", "1e-7", "--tol-rel", "1e-6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_rows(out / "density.csv", ["z", "f", "err"])
    beyond = rows["f"][rows["z"] > 2.0]
    assert beyond.size > 0 and np.max(beyond) <= 1e-10
    assert np.all(rows["f"] >= 0.0)
    cdf = read_rows(out / "cdf.csv", ["z", "F"])
    assert np.all(np.diff(cdf["F"]) >= -1e-15)
    meta = json.loads((out / "query.json").read_text())
    assert 0.9 <= meta["mass"] <= 1.05


def test_validate_stable_half_passes(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "validate", "--process", "stable-half",
            "--x0", "8", "--t0", "1",
            "--n", "2500", "--nmax", "11",
            "--bins", "40",
            "--tol-abs", "1e-7", "--tol-rel", "1e-6",
            "--seed", "2024", "--out", str(out),
        ]
    )
    # a correct sampler fails the L1 bound 0.10 at n = 2500 and 40 bins 3.2%
    # of the time (multinomial simulation over the exact bin masses), the KS
    # and concentration verdicts 1% each: the run fails at most 5.2%
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["l1"] <= 0.10
    assert report["ks"] <= report["tolerances"]["ks_max"]
    assert (out / "samples.csv").exists()
    assert (out / "histogram.csv").exists()
    assert (out / "density.csv").exists()
    assert (out / "cdf.csv").exists()


def test_validate_threshold_breach_sets_exit_code(tmp_path):
    rc = main(
        [
            "validate", "--process", "stable-half",
            "--x0", "4", "--t0", "1",
            "--n", "200", "--nmax", "9", "--range=-1.01:10",
            "--bins", "24", "--l1-max", "1e-6",
            "--tol-abs", "1e-6", "--tol-rel", "1e-5",
            "--seed", "2024", "--out", str(tmp_path / "run"),
        ]
    )
    assert rc == 1


def test_validate_non_stable_process_skips_analytics(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "validate", "--process", "poisson",
            "--x0", "4", "--t0", "1",
            "--n", "50", "--nmax", "8", "--range=-1.01:10",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert any("stable-half" in s for s in report["skipped"])
    err = capsys.readouterr().err
    assert "skipped" in err


def test_validate_bad_seed_is_usage_error(tmp_path):
    with pytest.raises(SystemExit, match="seed"):
        main(
            [
                "validate", "--process", "stable-half", "--n", "10",
                "--seed", "-3", "--out", str(tmp_path),
            ]
        )


@pytest.mark.parametrize("sizes", [["--n=0", "--bins=12"], ["--n=20", "--bins=4"]])
def test_validate_bad_sizes_are_error_lines(tmp_path, sizes):
    with pytest.raises(SystemExit, match="invalid validation input"):
        main(
            [
                "validate", "--process", "stable-half", *sizes, "--nmax", "8",
                "--out", str(tmp_path / "run"),
            ]
        )


def test_validate_has_no_switch_for_the_ks_check(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--process", "stable-half", "--no-ks", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-ks" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("x0", ["-1", "0", "inf"])
def test_validate_refuses_nonpositive_level(tmp_path, x0):
    # the lazy sampler searches forward only; it refuses instead of returning
    # a wrong law, and the command turns that into an error line (x0 = inf
    # used to blame the window)
    with pytest.raises(SystemExit, match="x0 must be positive"):
        main(
            [
                "validate", "--process", "stable-half", f"--x0={x0}",
                "--n", "200", "--nmax", "10", "--range=-4:14",
                "--seed", "5", "--out", str(tmp_path / "run"),
            ]
        )


def test_validate_window_exhaustion_is_an_error_line(tmp_path):
    # one time unit rarely reaches level 8; the error line says which end
    # of --range is short
    with pytest.raises(SystemExit, match="widen the upper end of --range"):
        main(
            [
                "validate", "--process", "stable-half", "--x0", "8", "--t0", "0.5",
                "--n", "100", "--nmax", "8", "--range=-1:1",
                "--seed", "5", "--out", str(tmp_path / "run"),
            ]
        )


def _solve_runs(process: list[str]) -> dict[str, list[str]]:
    common = [*process, "--nmax", "16", "--range=-4:14"]
    return {
        "solve": ["solve", *common, "--xcount", "64"],
        "solve-8": ["solve", *common, "--xcount", "64", "--level", "8"],
    }


def test_driftless_gamma_paths_keep_ties(tmp_path):
    # from level 8 on, quantiles of driftless Gamma increments underflow to
    # 0.0, which leaves x_(k+1) == x_k; the path keeps these ties, as the
    # bridge tree does, and every command runs on it (each was refused)
    process = ["--process", "gamma", "--drift", "0", "--seed", "7"]
    runs = {
        **_solve_runs(process),
        "paths": ["paths", *process, "--nmax", "16", "--range=-4:14"],
        "converge": ["converge", *process, "--nmax", "16", "--range=-4:14", "--kgrid", "16:64"],
    }
    for run, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / run)]) == 0, run
    steps = np.diff(read_rows(tmp_path / "paths" / "path.csv", ["k", "t", "x"])["x"])
    assert np.all(steps >= 0.0) and np.any(steps == 0.0)
    for run in ("solve", "solve-8"):
        assert np.all(np.isfinite(read_rows(tmp_path / run / "solution.csv", ["t", "x", "u"])["u"]))
    assert np.all(np.isfinite(read_rows(tmp_path / "converge" / "convergence.csv", ["N", "d"])["d"]))


@pytest.mark.parametrize("seed", ["2", "6"])
def test_stable_half_seeds_with_ties_solve(tmp_path, seed):
    # after a large jump these level-16 paths take steps below half an ulp
    # (both seeds were refused)
    for run, argv in _solve_runs(["--process", "stable-half", "--seed", seed]).items():
        assert main([*argv, "--out", str(tmp_path / run)]) == 0, run
        assert np.all(np.isfinite(read_rows(tmp_path / run / "solution.csv", ["t", "x", "u"])["u"]))


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        # an overflowing multiply in the stable-1/2 split (three warnings)
        (["validate", "--process", "stable-half", "--nmax", "1022", "--range=-1e-300:1e-300",
          "--n", "10"], 1,
         "cannot validate: 10/10 samples exhausted the window (-44942329, 44942329): 10 paths "
         "do not reach x0 = 8.0 by k_max = 44942329 (widen the upper end of --range), 0 shifted "
         "times fall before k_min = -44942329 (widen the lower end of --range)\n"),
        # overflows in the density's exponents, whose limits F = 1 and f = 0
        # are what is written
        (["density", "--x", "8", "--t", "1e154"], 0, ""),
        (["density", "--x", "8", "--t", "1e308"], 0, ""),
        # it wrote 226 nan densities, from inf * 0
        (["density", "--x", "1e-10", "--t", "1e308", "--zfar=-1"], 0, ""),
        # an overflowing path build (it wrote inf into path.csv and exited 0)
        (["paths", "--process", "gamma", "--theta", "1e308", "--nmax", "0", "--range=0:3"], 1,
         "cannot sample this path: sampled path value at k=3 is inf, not finite\n"),
    ],
    ids=["validate-split", "density-1e154", "density-1e308", "density-tiny-level", "paths-overflow"],
)
def test_overflows_with_the_right_limit_print_no_warning(tmp_path, argv, code, stderr):
    done = run_module(*argv, "--out", str(tmp_path / "run"))
    assert (done.returncode, done.stderr) == (code, stderr)
    if argv[0] == "density":
        assert json.loads((tmp_path / "run" / "query.json").read_text())["mass"] == 0.0
        F = read_rows(tmp_path / "run" / "cdf.csv", ["z", "F"])["F"]
        f = read_rows(tmp_path / "run" / "density.csv", ["z", "f"])["f"]
        assert np.all(F == 1.0) and np.all(f == 0.0)


#: argv lists whose other arrays do not fit in memory: the density grid
#: (327 TiB) and the solution grid (728 TiB), each beyond a 47-bit user
#: address space whatever the host's memory; each was a numpy traceback
TOO_LARGE_TO_ALLOCATE = {
    "density": ["density", "--x", "8", "--t", "1", "--zcount", "100000000000000"],
    "solve-xcount": ["solve", "--process", "gamma", "--nmax", "6", "--range=-4:10",
                     "--xcount", "100000000000000"],
}


@pytest.mark.parametrize("command", ["paths", "solve", "converge", *TOO_LARGE_TO_ALLOCATE])
def test_window_too_large_to_allocate_is_an_error_line(tmp_path, command):
    # 2^46 + 1 grid points take 512 TiB, beyond a 47-bit user address space;
    # 2^61 + 1 points reach past 2^53 grid steps, which the grid refuses first
    out = tmp_path / "run"
    window = [command, "--process", "gamma", "--range=0:1"]
    cases = [
        ([*window, "--nmax", "46"], f"cannot run {command}: out of memory: Unable to allocate "
         f"512. TiB for an array with shape ({2**46 + 1},) and data type float64"),
        ([*window, "--nmax", "61"], f"{PATH_GRID}the k window reaches 2^53 grid steps"),
    ]
    if command in TOO_LARGE_TO_ALLOCATE:
        argv = TOO_LARGE_TO_ALLOCATE[command]
        cases = [(argv, f"cannot run {argv[0]}: out of memory: Unable to allocate ")]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert str(exc.value.code).startswith(message)
        assert "\n" not in str(exc.value.code)
        assert not out.exists()


def test_validate_empty_histogram_skips_l1(tmp_path, capsys):
    # at x0 = 0.01, t0 = 4 the base point lies in [0, x0) with probability
    # erfc(4 / sqrt(0.02)) ~ 1e-348: no sample reaches the histogram
    out = tmp_path / "run"
    rc = main(
        [
            "validate", "--process", "stable-half",
            "--x0", "0.01", "--t0", "4",
            "--n", "200", "--nmax", "12", "--bins", "12", "--range=-64:64",
            "--seed", "5", "--out", str(out),
        ]
    )
    report = json.loads((out / "report.json").read_text())
    assert "l1" not in report and "l1_pass" not in report
    assert "concentration_pass" not in report
    assert any("--hist-hi" in note for note in report["skipped"])
    assert rc == (0 if report["pass"] else 1)
    err = capsys.readouterr().err
    assert "--hist-hi" in err
    assert "validate: l1 " not in err
    assert "validate: ks " in err and "validate: support " in err


def test_validate_prints_one_verdict_per_check(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "validate", "--process", "stable-half",
            "--x0", "4", "--t0", "1",
            "--n", "200", "--nmax", "9", "--range=-1.01:10",
            "--bins", "24", "--l1-max", "1e-6",
            "--seed", "2024", "--out", str(out),
        ]
    )
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    lines = [
        line for line in capsys.readouterr().err.splitlines()
        if not line.startswith("validate: skipped")
    ]
    verdicts = {line.split()[1]: line for line in lines}
    assert sorted(verdicts) == ["concentration", "ks", "l1", "support"]
    assert len(lines) == 4
    assert verdicts["l1"] == (
        f"validate: l1 {report['l1']:.6g} (histogram L1 distance, threshold 1e-06): FAIL"
    )
    assert verdicts["ks"].endswith(
        f"threshold {report['tolerances']['ks_max']:.6g}): "
        + ("pass" if report["ks_pass"] else "FAIL")
    )
    assert verdicts["support"].endswith("threshold 1e-10): pass")
    assert verdicts["concentration"].endswith(
        "pass" if report["concentration_pass"] else "FAIL"
    )


def test_validate_report_records_every_check_once(tmp_path, monkeypatch):
    # each verdict is one Check, and report.json holds each as name and
    # name_pass with the Check's own value
    from goupsim import montecarlo_validation

    results = []
    validate = montecarlo_validation.validate_basepoints

    def recording(*args, **kwargs):
        results.append(validate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(montecarlo_validation, "validate_basepoints", recording)
    out = tmp_path / "run"
    # at the defaults (n = 10^4, 60 bins) a correct sampler fails the KS and
    # concentration verdicts 1% of the time each, and L1 in no multinomial
    # draw of 10^5: the exit status is 0 at least 98% of the time
    assert main(["validate", "--process", "stable-half", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    (result,) = results
    assert [c.name for c in result.checks] == ["l1", "concentration", "support", "ks"]
    for c in result.checks:
        assert report[c.name] == c.value and report[c.name + "_pass"] is c.passed
    assert report["pass"] is all(c.passed for c in result.checks)


def test_density_and_validate_write_the_same_law_table(tmp_path):
    # both commands tabulate the law once, on the same default grid
    density, validate = tmp_path / "density", tmp_path / "validate"
    assert main(["density", "--x", "8", "--t", "1", "--out", str(density)]) == 0
    # exit 0 at least 98% of the time for a correct sampler (the defaults'
    # KS and concentration verdicts fail 1% each)
    assert main(["validate", "--process", "stable-half", "--out", str(validate)]) == 0
    for name in ("density.csv", "cdf.csv"):
        assert (density / name).read_bytes() == (validate / name).read_bytes()


def test_validate_negative_level_is_an_error_line(tmp_path):
    # --nmax -1 used to run with dt = 2 and print {"pass": false}
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "validate", "--process", "stable-half", "--n", "50", "--nmax", "-1",
                "--out", str(tmp_path / "run"),
            ]
        )
    assert exc.value.code == f"{PATH_GRID}level must lie in 0..1022, got -1"


@pytest.mark.parametrize(
    "command",
    [
        ["paths", "--range=-1:1"],
        ["solve", "--range=-1:4", "--times", "1"],
        ["converge", "--range=-1:4", "--levels", "2"],
    ],
    ids=lambda c: c[0],
)
def test_negative_nmax_is_an_error_line(tmp_path, command):
    # used to die with the traceback "ValueError: level must be nonnegative"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--process", "gamma", "--nmax", "-2", "--out", str(tmp_path / "run")])
    assert exc.value.code == f"{PATH_GRID}level must lie in 0..1022, got -2"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_an_error_line(tmp_path, threads):
    # --threads -2 used to run serially without a word
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "validate", "--process", "gamma", "--n", "20", "--nmax", "6",
                f"--threads={threads}", "--out", str(tmp_path / "run"),
            ]
        )
    assert exc.value.code == f"--threads must be >= 1, got {threads}"


SOLVE_SMALL = ["solve", "--process", "gamma", "--nmax", "6", "--range=-4:10"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # tracebacks: ValueError from WindowK and from unpacking NT:NX
        ([*CONVERGE_SMALL[:-6], "--kgrid", "0:16"],
         "--kgrid must be NT:NX with positive integers, got '0:16'"),
        ([*CONVERGE_SMALL[:-6], "--kgrid", "8"],
         "--kgrid must be NT:NX with positive integers, got '8'"),
        ([*CONVERGE_SMALL, "--window-t=nan:2"],
         "--window-t must be LO:HI with finite LO < HI, got 'nan:2'"),
        # exit 0 with a header-only solution.csv, and a numpy traceback
        ([*SOLVE_SMALL, "--xcount", "0"], "--xcount must be >= 1, got 0"),
        ([*SOLVE_SMALL, "--xcount", "-3"], "--xcount must be >= 1, got -3"),
        # tracebacks from solve_at_level
        ([*SOLVE_SMALL, "--level", "9"], "--level must lie in 0..6 (--nmax), got 9"),
        ([*SOLVE_SMALL, "--level", "-1"], "--level must lie in 0..6 (--nmax), got -1"),
        # OverflowError traceback from the k window
        (["paths", "--process", "gamma", "--nmax", "6", "--range=-inf:4"],
         "--range must be LO:HI with finite LO < HI, got '-inf:4'"),
        (["paths", "--process", "gamma", "--nmax", "6", "--range=4:2"],
         "--range must be LO:HI with finite LO < HI, got '4:2'"),
        # these blamed the window: "enlarge --range"
        ([*SOLVE_SMALL, "--times", "1,nan"],
         "--times must be comma-separated finite numbers, got '1,nan'"),
        ([*SOLVE_SMALL, "--times", "inf"],
         "--times must be comma-separated finite numbers, got 'inf'"),
        ([*SOLVE_SMALL, "--xgrid=-inf:4"],
         "--xgrid must be LO:HI with finite LO < HI, got '-inf:4'"),
        ([*SOLVE_SMALL, "--times="], "--times must be comma-separated finite numbers, got ''"),
        # traceback from the density grid
        (["density", "--x", "8", "--t", "nan"],
         f"{DENSITY_INPUT}t must be positive and finite, got nan"),
        (["density", "--x", "inf", "--t", "1"], f"{DENSITY_INPUT}x must lie in [2.22507e-303, "
         "1.63427e+308], where the innermost grid point 1e-05 x is a normal double and the band "
         "end 1.1 x is finite, got inf"),
        (["validate", "--process", "stable-half", "--t0", "nan"],
         f"{VALIDATION_INPUT}t0 must be positive and finite, got nan"),
        # tracebacks from the datum and the density grid, and a silent nan
        ([*SOLVE_SMALL, "--halfwidth", "0"], "invalid datum (--center, --halfwidth, "
         "--height, --value): halfwidth must be positive and finite, got 0.0"),
        ([*CONVERGE_SMALL, "--center", "nan"], "invalid datum (--center, --halfwidth, "
         "--height, --value): center and height must be finite, got nan, 1.0"),
        ([*SOLVE_SMALL, "--datum", "constant", "--value", "inf"], "invalid datum (--center, "
         "--halfwidth, --height, --value): value must be finite, got inf"),
        (["density", "--x", "8", "--t", "1", "--zfar=-inf"],
         f"{DENSITY_INPUT}the far negative end must be finite, got -inf"),
        # "not strictly increasing ... lower --nmax", and an OverflowError traceback
        (["paths", "--process", "gamma", "--nmax", "6", "--range=-1:4", "--drift", "nan"],
         "invalid process parameters (--k, --theta, --drift): "
         "drift must be nonnegative and finite, got nan"),
        (["paths", "--process", "gamma", "--nmax", "6", "--range=-1:4", "--theta", "inf"],
         "invalid process parameters (--k, --theta, --drift): "
         "scale must be positive and finite, got inf"),
        ([*SOLVE_SMALL, "--k", "inf"], "invalid process parameters (--k, --theta, --drift): "
         "shape_rate must be positive and finite, got inf"),
        (["paths", "--process", "poisson", "--nmax", "6", "--range=-1:4", "--drift", "inf"],
         "invalid process parameters (--intensity, --jump, --drift): "
         "drift must be positive and finite, got inf"),
        ([*CONVERGE_SMALL[:1], "--process", "poisson", *CONVERGE_SMALL[3:], "--intensity", "inf"],
         "invalid process parameters (--intensity, --jump, --drift): "
         "intensity must be positive and finite, got inf"),
        # an edges error naming no flag; a whole run failing L1 against nan
        (["validate", "--process", "stable-half", "--hist-hi", "nan"],
         f"{VALIDATION_INPUT}the histogram upper edge must be positive and finite, got nan"),
        (["validate", "--process", "stable-half", "--l1-max", "nan"],
         f"{VALIDATION_INPUT}l1_max must be nonnegative and finite, got nan"),
        # OverflowError tracebacks from the float product lo * 2**nmax; the
        # level is checked before the window
        (["paths", "--process", "gamma", "--nmax", "1100", "--range=0:1"],
         f"{PATH_GRID}level must lie in 0..1022, got 1100"),
        (["validate", "--process", "stable-half", "--nmax", "1023"],
         f"{PATH_GRID}level must lie in 0..1022, got 1023"),
        # an OverflowError traceback from the bridge tree's 2^(depth + 1), and
        # a math domain error from a grid step that underflows to 0.0
        (["validate", "--process", "stable-half", "--nmax", "1100",
          "--range=-1e-320:1e-320", "--n", "10"],
         f"{PATH_GRID}level must lie in 0..1022, got 1100"),
        (["paths", "--process", "gamma", "--nmax", "1080", "--range=-5e-324:5e-324"],
         f"{PATH_GRID}level must lie in 0..1022, got 1080"),
        # searched every tree first: the level is below the density grid's range
        (["validate", "--process", "stable-half", "--x0", "1e-305"], f"{VALIDATION_INPUT}x must "
         "lie in [2.22507e-303, 1.63427e+308], where the innermost grid point 1e-05 x is a "
         "normal double and the band end 1.1 x is finite, got 1e-305"),
    ],
)
def test_bad_numbers_are_refused_before_any_path(tmp_path, monkeypatch, argv, message):
    def no_path(*args, **kwargs):
        raise AssertionError("a path was built for refused input")

    monkeypatch.setattr("goupsim.levy_paths.build_two_sided_path", no_path)
    monkeypatch.setattr("goupsim.montecarlo_validation.hit_index", no_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == message
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # each exited 0 and left the flags out of the path and its manifest
        (["paths", "--process", "stable-half", "--nmax", "4", "--range=-1:1", "--drift", "3"],
         "--process stable-half takes no --drift"),
        ([*SOLVE_SMALL[:1], "--process", "stable-half", *SOLVE_SMALL[3:], "--k", "7"],
         "--process stable-half takes no --k"),
        (["paths", "--process", "stable-half", "--drift", "3", "--k", "7", "--nmax", "4",
          "--range=-1:1"], "--process stable-half takes no --k, --drift"),
        ([*CONVERGE_SMALL, "--jump", "2"], "--process gamma takes no --jump"),
        (["validate", "--process", "poisson", "--n", "50", "--nmax", "8", "--theta", "2"],
         "--process poisson takes no --theta"),
        (["validate", "--process", "gamma", "--theta", "2", "--intensity", "3", "--jump", "1"],
         "--process gamma takes no --intensity, --jump"),
    ],
)
def test_process_flags_the_family_lacks_are_refused(tmp_path, monkeypatch, argv, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled for refused input")

    monkeypatch.setattr("goupsim.levy_paths.build_two_sided_path", no_sampling)
    monkeypatch.setattr("goupsim.montecarlo_validation.validate_basepoints", no_sampling)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == message
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--process", "gamma", "--nmax", "6", "--range=-0.5:0.5", "--times", "3"],
         "query left the sampled window (level 1.5601173020527859 above sampled range max "
         "1.5595118529347547); enlarge --range"),
        (["validate", "--process", "stable-half", "--n", "0"],
         f"{VALIDATION_INPUT}n_samples must be >= 1"),
        (["validate", "--process", "stable-half", "--n", "200", "--range=-0.01:0.5"],
         "cannot validate: 200/200 samples exhausted the window (-164, 8192): 174 paths do "
         "not reach x0 = 8.0 by k_max = 8192 (widen the upper end of --range), 26 shifted "
         "times fall before k_min = -164 (widen the lower end of --range)"),
        (["paths", "--process", "gamma", "--theta", "1e308", "--nmax", "0", "--range=0:3"],
         "cannot sample this path: sampled path value at k=3 is inf, not finite"),
    ],
    ids=["solve-window", "validate-n", "validate-exhausted", "paths-overflow"],
)
def test_refusals_after_sampling_leave_no_out_directory(tmp_path, argv, message):
    # each left an empty --out directory behind
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == message
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--process", "gamma", "--theta", "1e308", "--n", "50", "--nmax", "8"],
         "cannot validate: sample 17: forward top node 0 ends at inf with jump sum inf, not finite"),
        (["validate", "--process", "poisson", "--jump", "1e308", "--n", "50", "--nmax", "8"],
         "cannot validate: sample 1: forward top node 0 ends at inf with jump sum inf, not finite"),
    ],
    ids=["gamma", "poisson"],
)
def test_overflowing_bridge_tree_is_refused_in_one_line(tmp_path, argv, message):
    # the Gamma run printed overflow warnings, wrote nan base points to
    # samples.csv and passed with exit status 0
    out = tmp_path / "run"
    done = run_module(*argv, "--out", str(out))
    assert (done.returncode, done.stderr, done.stdout) == (1, message + "\n", "")
    assert not out.exists()


@pytest.mark.parametrize("x", ["1e-320", "1.65e308"])
def test_density_refuses_a_level_its_grid_cannot_hold(tmp_path, x):
    # 1e-320 printed numpy's "Geometric sequence cannot include zero", and
    # 1.65e308 ended in a traceback, as its band end 1.1 x overflowed
    with pytest.raises(SystemExit) as exc:
        main(["density", "--x", x, "--t", "1", "--zfar=-1e306", "--out", str(tmp_path / "run")])
    assert exc.value.code == (
        f"{DENSITY_INPUT}x must lie in [2.22507e-303, 1.63427e+308], "
        "where the innermost grid point 1e-05 x is a normal double and the band end 1.1 x is "
        f"finite, got {float(x)!r}"
    )
    assert not (tmp_path / "run").exists()


# sha256 of samples.csv and report.json of small Gamma and Poisson
# validations; the samples were re-pinned when these families moved onto the
# bridge tree and when its top nodes and odd-depth splits moved to words 1-3
# of their blocks (the reports hold no sample-dependent field)
VALIDATE_PINS = {
    "gamma": (
        "cf7351f2a7468bf8d720cb3579ab39835cbae963b560ac14105f881f2e98efea",
        "5dd731ebc011b4f1261fb60401371bdf3ba7eeed3c8d48bd70f113c3ccc1e05c",
    ),
    "poisson": (
        "22c1fa7606053aeaf06253b6ac5765b07f3a85e60501e3d464d4e93ba8989110",
        "99f89ea0c7e81e8c0036dde400c392a8d6a6f0b603693097c68e8457688fd37d",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family", sorted(VALIDATE_PINS))
def test_validate_outputs_are_pinned(tmp_path, family, threads):
    samples_sha, report_sha = VALIDATE_PINS[family]
    out = tmp_path / "run"
    argv = [
        "validate", "--process", family, "--x0", "4", "--t0", "1", "--n", "300",
        "--nmax", "12", "--range=-1.01:10", "--bins", "12", "--seed", "5",
        "--threads", threads, "--out", str(out),
    ]
    assert main(argv) == 0
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == samples_sha
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == report_sha


@pytest.mark.parametrize(
    "argv, query",
    [
        (["solve", "--times", "1,3", "--xgrid", "0:6", "--xcount", "40"], "-3.0"),
        (["converge", "--window-t", "0:3", "--window-x", "0:6", "--kgrid", "13:40",
          "--levels", "2,4"], "-1.1960919671233243"),
    ],
    ids=["solve", "converge"],
)
@pytest.mark.parametrize(
    "datum",
    [["--datum", "constant", "--value", "1"], ["--datum", "triangular", "--center", "1e6"]],
    ids=["reached-everywhere", "reached-nowhere"],
)
def test_a_query_left_the_window_in_skipped_cells_is_refused(tmp_path, argv, query, datum):
    # the tent far above the path's values reaches no cell, so no cell is
    # evaluated; the refusal names the same first query as evaluating all
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--process", "gamma", "--nmax", "8", "--range=-1:8", "--seed", "5",
              *datum, "--out", str(tmp_path / "run")])
    assert exc.value.code == (
        f"query left the sampled window (time {query} below sampled window start "
        "t_min=-1.0); enlarge --range"
    )
