"""The four workloads: inputs from the seed, one timed iteration, and the
correctness gate on what the iteration wrote.

Each workload drives the program from outside, through ``goupsim.cli.main``
or, where the CLI has no command, through public library functions.  An
iteration writes into its own output directory, which is emptied first, so
``digest`` fingerprints exactly what one iteration produced.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import goupsim
from goupsim import cli, goupillaud, levy_paths, montecarlo_validation, transport
from goupsim.levy_paths import GammaDrift, PoissonDrift, RngSeed

#: seed reserved for confirming a claim on a seed not used while writing it
HELD_OUT_SEED = 914117


@dataclass
class Gate:
    """Outcome of the correctness gate on one iteration's outputs."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest_files(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(f.relative_to(d).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _density_gate(gate: Gate, x: float, t: float, out: Path) -> None:
    """No failed point, nothing above the level, agreement with the
    independent reference."""
    from reference import density, normalization_error

    norm = normalization_error(x, t)
    if not norm < 1e-9:
        gate.fail(0, f"the reference density integrates to 1 only within {norm:.3g}")
    data = _read_csv(out / "density.csv")
    z, f, err = data[:, 0], data[:, 1], data[:, 2]
    nan = int(np.sum(np.isnan(err)))
    if nan:
        gate.fail(nan, f"{nan} density points have err=NaN")
    above = int(np.sum(np.abs(f[z > x]) > 1e-10))
    if above:
        gate.fail(above, f"{above} density points above the level exceed 1e-10")
    keep = (z != 0.0) & (z < x)
    ref = density(x, t, z[keep])
    pos = ref > 0.0
    rel = np.abs(f[keep][pos] - ref[pos]) / ref[pos]
    worst = float(np.max(rel))
    gate.info["density_max_rel_err"] = worst
    off = int(np.sum(rel > 2e-6))
    if off:
        gate.fail(off, f"{off} density points differ from the reference by > 2e-6 (max {worst:.3g})")


class ValidateHeadline:
    """``goupsim validate`` on the paper's headline stable-1/2 configuration."""

    name = "validate-headline"
    # the speed probe's kernel, and whether it samples every CPU (speed.py)
    probe, probe_every_cpu = "scalar", True
    # the headline law (x0, t0, nmax, window) at n = 2000 and 12 bins: at
    # the CLI defaults (n = 10^4, 60 bins) one iteration takes 20-30 s, too
    # long for several iterations in one run on a noisy shared host
    x0, t0, n, bins = 8.0, 1.0, 2000, 12
    t_window = (-1.01, 14.0)

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out
        self.argv = {
            threads: [
                "validate", "--process", "stable-half",
                "--x0", "8", "--t0", "1", "--n", str(self.n),
                "--nmax", "14", "--range=-1.01:14", "--bins", str(self.bins),
                "--hist-hi", "8.5", "--l1-max", "0.10",
                "--tol-abs", "1e-9", "--tol-rel", "1e-8",
                "--seed", str(seed), "--stream", "0",
                "--threads", str(threads), "--out", str(out / f"threads{threads}"),
            ]
            for threads in (1, 2)
        }
        self.threads = 2

    def run(self, tracer=None, threads: int = 2) -> None:
        self.threads = threads
        _fresh(self.out / f"threads{threads}")
        _command(self.argv[threads], tracer)

    def digest(self) -> str:
        return _digest_files(self.out / f"threads{self.threads}")

    def gate(self) -> Gate:
        from checks import dkw_threshold, l1_threshold, max_rare_events
        from scipy.special import erfc

        out = self.out / f"threads{self.threads}"
        report = json.loads((out / "report.json").read_text())
        density = _read_csv(out / "density.csv")
        gate = Gate(attempted=self.n + density.shape[0])

        z = _read_csv(out / "samples.csv")[:, 1]
        above = int(np.sum(z >= self.x0))
        if above:
            gate.fail(above, f"{above} base points at or above x0={self.x0}")
        # a sample exhausts the window when L(t_hi) < x0, where
        # L(t) =d t^2 / Z^2:  p = P(|Z| > t_hi / sqrt(x0))
        p_exhaust = float(erfc(self.t_window[1] / math.sqrt(2.0 * self.x0)))
        exhausted = int(report["n_failed"])
        allowed = max_rare_events(self.n, p_exhaust)
        gate.info["samples_exhausted"] = exhausted
        if exhausted > allowed:
            gate.fail(exhausted, f"{exhausted} samples exhausted the window (allowed {allowed})")
        if z.size + exhausted != self.n:
            gate.fail(self.n - z.size, f"{z.size} samples written, {exhausted} exhausted, of {self.n}")

        _density_gate(gate, self.x0, self.t0, out)

        # the analytic side's own mass error widens both bounds
        slack = abs(1.0 - float(report["mass"]))
        # bins plus the under- and overflow cells
        l1_max = l1_threshold(self.n, self.bins + 2) + 2.0 * slack
        ks_max = dkw_threshold(z.size) + slack
        gate.info.update(
            l1=report["l1"], l1_threshold=l1_max, ks=report["ks"], ks_threshold=ks_max,
            program_pass=report["pass"],
        )
        if report["l1"] > l1_max:
            gate.fail(self.n, f"L1 {report['l1']:.4g} > {l1_max:.4g}")
        if report["ks"] > ks_max:
            gate.fail(self.n, f"KS {report['ks']:.4g} > {ks_max:.4g}")
        return gate


class DensityDefault:
    """``goupsim density`` at the default level, time and tolerances on a
    64-point grid of the default layout, one process (the default 512
    points take 20-30 s, too long for several iterations in one run)."""

    name = "density-default"
    probe, probe_every_cpu = "scalar", False
    x, t = 8.0, 1.0

    def __init__(self, seed: int, out: Path) -> None:
        # the density is deterministic; the seed only reaches the manifest-free
        # global flag, so every seed gives the same work
        self.out = out / "density"
        self.argv = [
            "density", "--x", "8", "--t", "1", "--zcount", "64", "--zfar=-1e6",
            "--tol-abs", "1e-9", "--tol-rel", "1e-8", "--seed", str(seed),
            "--threads", "1", "--out", str(self.out),
        ]

    def run(self, tracer=None) -> None:
        _fresh(self.out)
        rc = _command(self.argv, tracer)
        if rc != 0:
            raise RuntimeError(f"goupsim density exited with {rc}")

    def digest(self) -> str:
        return _digest_files(self.out)

    def gate(self) -> Gate:
        gate = Gate(attempted=_read_csv(self.out / "density.csv").shape[0])
        _density_gate(gate, self.x, self.t, self.out)
        return gate


class MediaTransport:
    """Gamma and Poisson media: path export, solutions, convergence tables,
    and the library's media and base points on the same x-grid."""

    name = "media-transport"
    probe, probe_every_cpu = "text", False
    families = {
        "gamma": (["--k", "1", "--theta", "1", "--drift", "1"], GammaDrift(1.0, 1.0, 1.0)),
        "poisson": (["--intensity", "1", "--jump", "1", "--drift", "1"], PoissonDrift(1.0, 1.0, 1.0)),
    }
    n_max = 16
    t_range = (-4.0, 14.0)
    times = (1.0, 2.0, 3.0)
    levels = (2, 4, 6, 8, 10, 12)
    xs = np.linspace(0.0, 12.0, 1024)

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.commands = []
        for fam, (flags, _) in self.families.items():
            common = ["--process", fam, *flags, "--seed", str(seed), "--stream", "0"]
            if fam == "gamma":
                self.commands.append(
                    ["paths", *common, "--nmax", "14", "--range=-4:14",
                     "--out", str(out / f"paths-{fam}")]
                )
            self.commands += [
                ["solve", *common, "--nmax", str(self.n_max), "--range=-4:14",
                 "--times", "1,2,3", "--datum", "triangular", "--center", "1",
                 "--halfwidth", "1", "--height", "1", "--xgrid", "0:12", "--xcount", "1024",
                 "--out", str(out / f"solve-{fam}")],
                ["converge", *common, "--nmax", str(self.n_max), "--range=-4:14",
                 "--levels", ",".join(map(str, self.levels)), "--p", "1",
                 "--window-t", "0:3", "--window-x", "0:12", "--kgrid", "256:2048",
                 "--datum", "triangular", "--center", "1", "--halfwidth", "1", "--height", "1",
                 "--out", str(out / f"converge-{fam}")],
            ]
        self.library: dict = {}

    def run(self, tracer=None) -> None:
        for argv in self.commands:
            _fresh(Path(argv[-1]))
            rc = _command(argv, tracer)
            if rc != 0:
                raise RuntimeError(f"goupsim {argv[0]} exited with {rc}")
        scale = 2**self.n_max
        for fam, (_, spec) in self.families.items():
            path = levy_paths.build_two_sided_path(
                spec, self.n_max, int(self.t_range[0] * scale), int(self.t_range[1] * scale),
                RngSeed(self.seed, 0),
            )
            media = [goupillaud.build_medium(path, n) for n in self.levels]
            bases = [goupillaud.basepoint(path, self.xs, t) for t in self.times]
            self.library[fam] = (media, bases)

    def digest(self) -> str:
        h = hashlib.sha256(_digest_files(*(Path(a[-1]) for a in self.commands)).encode())
        for media, bases in self.library.values():
            for m in media:
                h.update(m.boundaries.tobytes())
                h.update(m.speeds.tobytes())
            for b in bases:
                h.update(np.asarray(b).tobytes())
        return h.hexdigest()

    def gate(self) -> Gate:
        batches = sum(len(m) + len(b) for m, b in self.library.values())
        gate = Gate(attempted=len(self.commands) + batches)
        datum = transport.Triangular(1.0, 1.0, 1.0)
        for fam in self.families:
            if fam == "gamma":
                x = _read_csv(self.out / f"paths-{fam}" / "path.csv")[:, 2]
                if not np.all(np.diff(x) > 0.0):
                    gate.fail(1, f"{fam}: exported path is not strictly increasing")

            sol = _read_csv(self.out / f"solve-{fam}" / "solution.csv")
            u = sol[:, 2]
            if np.any(u < 0.0) or np.any(u > 1.0):
                gate.fail(1, f"{fam}: solution leaves the datum's range [0, 1]")
            media, bases = self.library[fam]
            expected = np.concatenate([transport.eval_initial(datum, b) for b in bases])
            if not np.array_equal(u, expected):
                gate.fail(len(bases), f"{fam}: solve CSV disagrees with goupillaud.basepoint")
            for m in media:
                if not (np.all(m.speeds > 0.0) and np.all(np.diff(m.boundaries) > 0.0)):
                    gate.fail(1, f"{fam}: level-{m.level} medium is not increasing")

            table = _read_csv(self.out / f"converge-{fam}" / "convergence.csv")
            dist = table[:, 1]
            # <= so that a medium without jumps in the window, whose
            # distances are all 0, passes
            if not dist[-1] <= 0.05 * dist[0]:
                gate.fail(1, f"{fam}: finest distance {dist[-1]:.3g} above 5% of {dist[0]:.3g}")
            # criterion 9: non-increasing over levels 2..10 for the Gamma
            # medium.  Beyond level 10 (seed 74: level 12) and for a jump
            # medium at any level (seed 5: level 10), one realization's
            # distances may rise between neighbouring levels
            head = dist[table[:, 0] <= 10]
            if fam == "gamma" and not np.all(np.diff(head) <= 0.0):
                gate.fail(1, f"{fam}: convergence distances increase with N: {dist}")
        return gate


class BmOracle:
    """Brownian functional oracle with overshoot search, against the exact
    hitting/undershoot bin masses on criterion 6's 6x6 bins."""

    name = "bm-oracle"
    probe, probe_every_cpu = "array", False
    x, step, n = 1.0, 1e-4, 2048
    s_edges = np.array([0.0, 0.4, 0.8, 1.3, 1.9, 2.6, 3.5])
    y_edges = np.array([0.0, 0.15, 0.35, 0.55, 0.75, 0.9, 1.0])

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = RngSeed(seed, 0)
        self.oracle = None
        self.masses = None

    def run(self, tracer=None, include_overshoot: bool = True) -> None:
        self.oracle = montecarlo_validation.bm_functionals_oracle(
            self.x, self.step, self.n, self.seed, include_overshoot=include_overshoot
        )
        self.masses = montecarlo_validation.hit_under_bin_masses(
            self.x, self.s_edges, self.y_edges
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in (self.oracle.hit, self.oracle.undershoot, self.oracle.overshoot, self.masses):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def gate(self) -> Gate:
        from checks import binomial_outliers, dkw_threshold
        from scipy.special import erf

        o = self.oracle
        gate = Gate(attempted=self.n)
        bad = int(np.sum(~(np.isfinite(o.hit) & np.isfinite(o.undershoot))))
        if bad:
            gate.fail(bad, f"{bad} samples have a non-finite (s, a)")
        gate.info["n_capped"] = int(o.n_capped)

        total = float(np.sum(self.masses))
        exact = float(erf(self.s_edges[-1] / math.sqrt(2.0 * self.x)))
        if not abs(total - exact) < 1e-7:
            gate.fail(self.n, f"bin masses sum to {total!r}, exact {exact!r}")

        si = np.searchsorted(self.s_edges, o.hit, side="right") - 1
        yi = np.searchsorted(self.y_edges, o.undershoot, side="right") - 1
        inside = (si >= 0) & (si < 6) & (yi >= 0) & (yi < 6)
        counts = np.zeros((6, 6))
        np.add.at(counts, (si[inside], yi[inside]), 1.0)
        cells = np.append(counts.ravel(), self.n - counts.sum())
        masses = np.append(self.masses.ravel(), 1.0 - total)
        outliers = int(np.sum(binomial_outliers(cells, masses, self.n)))
        gate.info["bin_outliers"] = outliers
        if outliers:
            gate.fail(self.n, f"{outliers} of {cells.size} bins fail the binomial test")

        cdf = erf(np.sort(o.hit) / math.sqrt(2.0 * self.x))
        steps = np.arange(self.n + 1) / self.n
        ks = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
        gate.info.update(ks=ks, ks_threshold=dkw_threshold(self.n))
        if ks > dkw_threshold(self.n):
            gate.fail(self.n, f"KS of the running maximum vs erf {ks:.4g} > {dkw_threshold(self.n):.4g}")
        return gate


WORKLOADS = {w.name: w for w in (ValidateHeadline, DensityDefault, MediaTransport, BmOracle)}


def _main(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        raise RuntimeError(f"goupsim {argv[0]} exited: {exc.code}") from exc


def _command(argv: list[str], tracer) -> int:
    if tracer is None:
        return _main(argv)
    out = Path(argv[-1])
    with tracer.span("cli.command", command=argv[0]) as attrs:
        rc = _main(argv)
        attrs["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return rc


def program_root() -> str:
    return str(Path(goupsim.__file__).resolve().parent)
