"""Benchmark of goupsim: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload validate-headline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # the four in turn

The program is imported from ``src/`` next to this directory; nothing needs
installing.  Each invocation is one fresh process running one workload.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median,
over several child processes, of the time from process start to inputs
ready (imports and workload inputs).  Then whole iterations run back to back
until the next one would overrun ``--seconds`` (at least one), each with the
host's speed sampled while it runs (``speed.py``).  ``wall_scaled_s`` and
``cpu_scaled_s`` (this process plus its reaped pool workers) are medians over
iterations of the iteration's time at the reference speed; the raw medians
are printed as ``info wall_s`` and ``info cpu_s``.  ``peak_rss_mb`` is the
larger of this process's and its children's peak resident set.

``--trace 1`` runs one untraced and one traced iteration and reports every
per-layer metric (0 for a layer the workload does not exercise).  Span
wrappers sit at every layer boundary only for the traced iteration; the
untraced one keeps just the two spans around the process-pool fan-out.
``validate-headline`` runs its traced iteration with one worker, because
spans inside pool workers are lost; its outputs must equal the two-worker
outputs byte for byte.

Every iteration's outputs go through the workload's correctness gate (the
first iteration) or must equal the first iteration's outputs byte for byte
(the others).  The last stdout line is the JSON result; the lines before it
give each metric by name with its unit, the failure fraction and the
environment.  The exit status is nonzero when the gate fails, and 2 without
a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("validate-headline", "density-default", "media-transport", "bm-oracle")

END_TO_END = {
    "setup_s": "s",
    "wall_scaled_s": "s",
    "cpu_scaled_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import goupsim from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import goupsim  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import goupsim from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(workloads.program_root()).is_relative_to(src.resolve()):
        print(f"perfbench: goupsim imported from {workloads.program_root()}, not {src}",
              file=sys.stderr)
        return None
    return workloads


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_s(args) -> float:
    """Median time from a child's start to its inputs ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def _timed(run, *a, **kw) -> tuple[float, float]:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    run(*a, **kw)
    return time.perf_counter() - t0, _cpu_s() - cpu0


class Outcome:
    """Attempted and failed operations, and why, across a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.reference_digest = None
        self.gate_ops = 0

    def iteration(self, wl, label: str) -> None:
        """Gate the first iteration; later ones must reproduce it exactly."""
        digest = wl.digest()
        if self.reference_digest is None:
            gate = wl.gate()
            self.reference_digest = digest
            self.gate_ops = gate.attempted
            self.attempted += gate.attempted
            self.failed += gate.failed
            self.problems += gate.problems
            self.info.update(gate.info)
            return
        self.attempted += self.gate_ops
        if digest != self.reference_digest:
            self.failed += self.gate_ops
            self.problems.append(f"{label}: outputs differ from the first iteration")


def _measure(wl, seconds: float, outcome: Outcome) -> dict:
    from speed import SpeedProbe

    probe = SpeedProbe(wl.probe, wl.probe_every_cpu)
    raw, scaled, speeds = [], [], []
    begin = time.perf_counter()
    while True:
        with probe:
            wall, cpu = _timed(wl.run)
        raw.append((wall, cpu))
        scaled.append(probe.scaled(wall, cpu))
        speeds.append(probe.speed())
        outcome.iteration(wl, f"iteration {len(raw)}")
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.mean(w for w, _ in raw) > seconds:
            break
    outcome.info.update(
        iterations=len(raw),
        wall_s=statistics.median(w for w, _ in raw),
        cpu_s=statistics.median(c for _, c in raw),
        speed_min=min(speeds),
        speed_max=max(speeds),
    )
    return {
        "wall_scaled_s": statistics.median(w for w, _ in scaled),
        "cpu_scaled_s": statistics.median(c for _, c in scaled),
    }


def _trace(wl, goupsim, outcome: Outcome, span_file: Path) -> dict:
    from tracing import (
        PER_LAYER, SpanTable, Tracer, install_fanout, install_layers, layer_metrics,
    )

    tracer = Tracer()

    def iteration(install, label: str, *a, **kw) -> float:
        """CPU seconds of one iteration under ``install``'s wrappers."""
        tracer.trace += 1
        install(tracer, goupsim)
        try:
            with tracer.span("workload.iteration", workload=wl.name, label=label):
                _, cpu = _timed(wl.run, tracer, *a, **kw)
        finally:
            tracer.uninstall()
        outcome.iteration(wl, label)
        return cpu

    extra: dict[str, float] = {}
    # the untraced iteration keeps only the pool fan-out spans, two in all
    untraced = iteration(install_fanout, "untraced")
    if wl.name == "validate-headline":
        # spans inside pool workers are lost, so the traced iteration runs
        # with one worker; its outputs must equal the two-worker ones
        traced = iteration(install_layers, "traced, one worker", threads=1)
        pooled = SpanTable(tracer.spans, 1)
        layers = SpanTable(tracer.spans, 2)
        for metric, span in (
            ("mc.sample_basepoints.parallel_efficiency_2w", "mc.sample_basepoints"),
            ("ig.basepoint_density.parallel_efficiency_2w", "ig.basepoint_density"),
        ):
            extra[metric] = layers.seconds(span) / (2.0 * pooled.seconds(span))
        extra["mc.validate.l1_threshold"] = outcome.info["l1_threshold"]
        extra["mc.validate.ks_threshold"] = outcome.info["ks_threshold"]
    else:
        traced = iteration(install_layers, "traced")
        layers = SpanTable(tracer.spans, 2)
    if wl.name == "bm-oracle":
        # the same draws without the overshoot search isolate its cost
        tracer.trace += 1
        install_layers(tracer, goupsim)
        try:
            wl.run(tracer, include_overshoot=False)
        finally:
            tracer.uninstall()
        bare = SpanTable(tracer.spans, tracer.trace)
        n, steps = bare.total("mc.oracle", "n"), bare.total("mc.oracle", "steps")
        extra["mc.oracle.ns_per_step"] = bare.seconds("mc.oracle") * 1e9 / (n * steps)
        extra["mc.oracle.overshoot_s"] = layers.seconds("mc.oracle") - bare.seconds("mc.oracle")
    span_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(span_file)

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(layers))
    metrics.update(extra)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def _environment(seed: int, held_out: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass

    def cache(level: int):
        try:
            size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        except (ValueError, OSError):
            size = 0
        if size:
            return size
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if int((index / "level").read_text()) == level:
                    text = (index / "size").read_text().strip()
                    return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
            except (OSError, ValueError):
                continue
        return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "held_out_seed": held_out,
    }


def _run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    failed = []
    for name in WORKLOAD_NAMES:
        rc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        if rc:
            failed.append(f"{name} (exit {rc})")
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    workloads = _import_program()
    if workloads is None:
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    out = OUT / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, out)
    if args.setup_only:
        print(f"ready {time.monotonic()!r}")
        return 0

    import goupsim

    outcome = Outcome()
    try:
        if args.trace:
            from tracing import PER_LAYER

            values = _trace(wl, goupsim, outcome, out / "spans.jsonl")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            setup = _setup_s(args)
            values = _measure(wl, args.seconds, outcome)
            values = {"setup_s": setup, **values, "peak_rss_mb": _peak_rss_mb()}
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        outcome.problems.append("the workload raised; see the traceback above")
        outcome.attempted = max(outcome.attempted, 1)
        outcome.failed = outcome.attempted
        values, units = {}, {}

    correct = not outcome.problems
    env = _environment(args.seed, workloads.HELD_OUT_SEED)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "info": outcome.info,
        "problems": outcome.problems,
        "metrics": values,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment {json.dumps(env)}")
    for name, value in values.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(f"{args.workload} failed_frac {outcome.failed / max(outcome.attempted, 1)!r} "
          f"({outcome.failed}/{outcome.attempted} operations)")
    for key, value in outcome.info.items():
        print(f"{args.workload} info {key} {value!r}")
    for problem in outcome.problems:
        print(f"{args.workload} FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
