"""Record one benchmark run of the repository as ``BENCH_<pr>.json``.

Runs ``perfbench/run.py --workload all --seed 31`` for its default 25
seconds per workload at ``--trace 0`` (end-to-end metrics) and at
``--trace 1`` (per-layer metrics), then the Tier-1 test
suite, and writes one JSON file at the repository root holding:

* per trace level and workload, every metric line that ``run.py`` prints,
  its closing JSON result (metric values and units, operations attempted and
  failed) and the environment it prints, git SHA included,
* the Tier-1 command, its wall time, exit status and pytest summary line,
* the ``tools/code_lines.py`` totals of ``src/goupsim`` and ``tests/``,
* whether the tracked files match the recorded SHA (``worktree_clean``),
  and the sha256 of ``git diff HEAD`` (``worktree_diff_sha256``), which
  ties a record of an uncommitted tree to the code it measured: ``git diff
  HEAD | sha256sum`` on a checkout reproduces it.

Usage, from anywhere:

    python tools/bench_record.py PR

The exit status is nonzero when a workload or the test suite fails; the file
is written either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", path])))


def _workloads(stdout: str) -> dict:
    """Each workload's closing report: its ``environment`` line, then its
    metric, ``info`` and ``FAILED`` lines, each led by the workload's name,
    then its JSON result.  What the program prints while a workload runs
    comes before the ``environment`` line and is skipped."""
    found, lines, env = {}, [], None
    for line in stdout.splitlines():
        if line.startswith("environment "):
            env, lines = json.loads(line.removeprefix("environment ")), []
        elif env is not None and line.startswith("{"):
            name = lines[0].split(" ", 1)[0]
            found[name] = {"environment": env, "lines": lines, "result": json.loads(line)}
            env = None
        elif env is not None:
            lines.append(line)
    return found


def _perfbench(trace: int) -> tuple[dict, int]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "31",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(done.stderr)
    return {"exit": done.returncode, "workloads": _workloads(done.stdout)}, done.returncode


def _tier1() -> tuple[dict, int]:
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = next((ln for ln in reversed(done.stdout.splitlines()) if ln.strip()), "")
    command = "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]])
    record = {"command": command, "wall_s": wall, "exit": done.returncode, "summary": summary}
    return record, done.returncode


def _code_lines(path: str) -> int:
    done = subprocess.run(
        [sys.executable, "tools/code_lines.py", path], cwd=ROOT, capture_output=True, text=True,
        check=True,
    )
    return int(done.stdout.splitlines()[-1].split()[0])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pr", type=int, help="number in the output name BENCH_<pr>.json")
    args = p.parse_args(argv)

    record: dict = {"perfbench": {}}
    failed = 0
    for trace in (0, 1):
        record["perfbench"][f"trace{trace}"], rc = _perfbench(trace)
        failed |= rc
    record["tier1"], rc = _tier1()
    failed |= rc
    record["code_lines"] = {path: _code_lines(path) for path in ("src/goupsim", "tests")}
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
        capture_output=True, text=True,
    )
    record["worktree_clean"] = status.returncode == 0 and not status.stdout.strip()
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, capture_output=True, check=True)
    record["worktree_diff_sha256"] = hashlib.sha256(diff.stdout).hexdigest()

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: tier-1 {record['tier1']['summary']!r}, code lines "
          f"{record['code_lines']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
