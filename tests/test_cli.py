import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc

from goupsim.cli import main


def read_rows(path, cols):
    lines = path.read_text().splitlines()
    out = {c: [] for c in cols}
    for line in lines[1:]:
        parts = line.split(",")
        for c, v in zip(cols, parts):
            out[c].append(float(v))
    return {c: np.array(v) for c, v in out.items()}


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


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GOUPSIM_SEED", "1234")
    out = tmp_path / "env"
    main(["paths", "--process", "stable-half", "--nmax", "4", "--range=-1:1",
          "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1234


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


def test_density_rejects_nonpositive_time(tmp_path):
    with pytest.raises(SystemExit, match="positive"):
        main(["density", "--x", "8", "--t", "0", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="positive"):
        main(["density", "--x=-1", "--t", "1", "--out", str(tmp_path)])


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
