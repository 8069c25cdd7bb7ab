"""Command line front end: ``goupsim <command>``.

Commands
--------
paths      sample a two-sided non-decreasing Levy path (ties where an
           increment is below half an ulp), write its CSV
solve      transport solution fields at given times, long-format CSV
converge   L^p distances of level-N solutions to the finest level, CSV
density    analytic base-point density and CDF for the stable-1/2 process
validate   Monte Carlo base points against the analytic density; exit
           status is nonzero unless every check that runs passes

A run reads only its arguments: ``--seed`` defaults to 20230915 and ``--out``
to ``goupsim-out``, whatever the environment holds.
``--tol-abs`` and ``--tol-rel`` are still accepted but no longer affect any
output: the base-point law is evaluated in closed form.  ``--threads`` is
still accepted, and refused below 1, but no longer affects any output either:
every Monte Carlo sampler runs in one process.

The process flags (``--k``, ``--theta``, ``--intensity``, ``--jump``,
``--drift``) are the fields of the spec classes in ``levy_paths.FAMILIES``,
each 1 unless given; a flag the chosen family has no field for is refused.

Every input rule has one owner, and this module only names the flags.  A bad
number is refused by the library call that owns its rule (the level and
window by ``levy_paths.DyadicGrid``, the density query by
``ig_analytics.default_z_grid`` and ``basepoint_cdf``, a validation by
``montecarlo_validation``), before any path is sampled, in one line
``invalid <what> (<flags>): <message>`` that names the flags of that call.
This module checks only what it parses: ``LO:HI`` ranges, ``--times``,
``--kgrid``, ``--levels``, ``--xcount``, ``--threads`` and ``--level``
against ``--nmax``.  An array too large to allocate, in any command, ends
the run in one line that names the command and numpy's allocation message.

Every command writes ``manifest.json`` echoing the resolved scientific
configuration, the datum and all its flags included for ``solve`` and
``converge``; rerunning from the same manifest reproduces all numeric
outputs bitwise (17 significant digits in CSVs).  Worker count and output
directory do not influence any numbers and are not part of the manifest.

Units: times are in grid time units (the level-``N`` grid step is ``2^-N``),
speeds in space per unit time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import ig_analytics, levy_paths, montecarlo_validation, transport
from .csvio import write_json
from .levy_paths import ProcessSpec, RngSeed

def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=20230915, help="64-bit root seed")
    parser.add_argument(
        "--stream",
        type=int,
        default=0,
        help="stream id under the root seed (independent substreams)",
    )
    parser.add_argument("--out", type=Path, default=Path("goupsim-out"), help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (at least 1); no longer affects any output",
    )
    for flag in ("--tol-abs", "--tol-rel"):
        parser.add_argument(
            flag,
            type=float,
            help="accepted for compatibility; no longer affects any output",
        )


#: CLI flag of each field of the process specs in ``levy_paths.FAMILIES``
_PROCESS_FLAGS = {
    "shape_rate": "--k",
    "scale": "--theta",
    "intensity": "--intensity",
    "jump_size": "--jump",
    "drift": "--drift",
}

#: value of a process parameter whose flag is not given
_PROCESS_DEFAULT = 1.0


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _add_path_flags(parser: argparse.ArgumentParser, nmax=None, t_range=None) -> None:
    """The process flags, ``--nmax`` and ``--range``; the last two are
    required unless given a default."""
    parser.add_argument(
        "--process", required=True, choices=levy_paths.FAMILIES, help="driving Levy process family"
    )
    for field, flag in _PROCESS_FLAGS.items():
        families = [name for name, cls in levy_paths.FAMILIES.items() if field in _field_names(cls)]
        text = f"{'/'.join(families)}: {field.replace('_', ' ')} (default {_PROCESS_DEFAULT:g})"
        parser.add_argument(flag, dest=field, type=float, help=text)
    parser.add_argument(
        "--nmax", type=int, default=nmax, required=nmax is None, help="path refinement level"
    )
    parser.add_argument(
        "--range",
        default=t_range,
        required=t_range is None,
        help="path time window LO:HI in grid time units; use --range=LO:HI when LO "
        "is negative",
    )


def _process_from_args(args: argparse.Namespace) -> ProcessSpec:
    """The spec of ``--process``; a flag the family has no field for is
    refused, not ignored."""
    cls = levy_paths.FAMILIES[args.process]
    names = _field_names(cls)
    given = {f: v for f, v in vars(args).items() if f in _PROCESS_FLAGS and v is not None}
    if extra := [_PROCESS_FLAGS[field] for field in given if field not in names]:
        raise SystemExit(f"--process {args.process} takes no {', '.join(extra)}")
    try:
        return cls(**{name: given.get(name, _PROCESS_DEFAULT) for name in names})
    except ValueError as exc:
        flags = ", ".join(_PROCESS_FLAGS[name] for name in names)
        raise SystemExit(f"invalid process parameters ({flags}): {exc}")


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SystemExit(f"{flag} must be LO:HI with finite LO < HI, got {text!r}")
    return lo, hi


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) for v in values):
        raise SystemExit(f"{flag} must be comma-separated finite numbers, got {text!r}")
    return values


def _parse_kgrid(text: str) -> tuple[int, int]:
    try:
        nt, nx = (int(part) for part in text.split(":"))
    except ValueError:
        nt = nx = 0
    if min(nt, nx) < 1:
        raise SystemExit(f"--kgrid must be NT:NX with positive integers, got {text!r}")
    return nt, nx


def _parse_levels(text: str) -> list[int]:
    if not text:
        raise SystemExit("--levels names no level")
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise SystemExit(f"--levels must be comma-separated integers, got {text!r}")


def _window_from_args(args: argparse.Namespace):
    """The process spec, the grid that ``--range`` spans at level ``--nmax``,
    and the manifest entries of every command that samples."""
    spec = _process_from_args(args)
    lo, hi = _parse_range(args.range, "--range")
    try:
        grid = levy_paths.DyadicGrid.spanning(args.nmax, lo, hi)
    except ValueError as exc:
        raise SystemExit(f"invalid path grid (--nmax, --range): {exc}")
    config = {
        "process": levy_paths.process_to_dict(spec),
        "n_max": args.nmax,
        "t_range": [lo, hi],
        "seed": args.seed,
        "stream": args.stream,
    }
    return spec, grid, config


def _path_from_args(args: argparse.Namespace, spec: ProcessSpec, grid: levy_paths.DyadicGrid):
    """The path sampled on ``grid``, or an error line saying why not."""
    try:
        return levy_paths.build_two_sided_path(
            spec, grid.level, grid.k_min, grid.k_max, RngSeed(args.seed, args.stream)
        )
    except RuntimeError as exc:  # a path value is not finite
        raise SystemExit(f"cannot sample this path: {exc}")


#: datum classes by their ``--datum`` name; each field is a flag of its own
_DATUMS = {"triangular": transport.Triangular, "constant": transport.Constant}


def _add_datum_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--datum", choices=_DATUMS, default="triangular", help="initial datum")
    for datum, cls in _DATUMS.items():
        for name in _field_names(cls):
            parser.add_argument(f"--{name}", type=float, default=1.0, help=f"{datum} datum {name}")


def _datum_from_args(args: argparse.Namespace):
    """The datum and its manifest entries: its name and every datum flag."""
    params = {name: getattr(args, name) for cls in _DATUMS.values() for name in _field_names(cls)}
    cls = _DATUMS[args.datum]
    try:
        datum = cls(**{name: params[name] for name in _field_names(cls)})
    except ValueError as exc:
        raise SystemExit(f"invalid datum ({', '.join('--' + n for n in params)}): {exc}")
    return datum, {"datum": args.datum, "datum_params": params}


def _write_manifest(args: argparse.Namespace, config: dict) -> None:
    write_json(Path(args.out) / "manifest.json", {"command": args.command, "config": config})


def _prepare_out(args: argparse.Namespace) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# commands


def _cmd_paths(args: argparse.Namespace) -> int:
    spec, grid, config = _window_from_args(args)
    path = _path_from_args(args, spec, grid)
    out_dir = _prepare_out(args)
    levy_paths.write_path_csv(path, out_dir / "path.csv")
    _write_manifest(args, {**config, "k_window": [grid.k_min, grid.k_max]})
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    spec, grid, config = _window_from_args(args)
    times = _parse_floats(args.times, "--times")
    x_lo, x_hi = _parse_range(args.xgrid, "--xgrid")
    if args.xcount < 1:
        raise SystemExit(f"--xcount must be >= 1, got {args.xcount}")
    if args.level is not None and not 0 <= args.level <= args.nmax:
        raise SystemExit(f"--level must lie in 0..{args.nmax} (--nmax), got {args.level}")
    datum, datum_config = _datum_from_args(args)
    path = _path_from_args(args, spec, grid)
    xs = np.linspace(x_lo, x_hi, args.xcount)
    u = transport.solve(path, args.level, datum, times, xs)
    out_dir = _prepare_out(args)
    transport.write_solution_csv(u, out_dir / "solution.csv", times, xs)
    _write_manifest(
        args,
        {**config, **datum_config, "times": times, "x_grid": [x_lo, x_hi, args.xcount],
         "level": args.level},
    )
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    spec, grid, config = _window_from_args(args)
    w_t = _parse_range(args.window_t, "--window-t")
    w_x = _parse_range(args.window_x, "--window-x")
    nt, nx = _parse_kgrid(args.kgrid)
    levels = _parse_levels(args.levels)
    datum, datum_config = _datum_from_args(args)
    path = _path_from_args(args, spec, grid)
    window = transport.WindowK(w_t, w_x, (nt, nx))
    try:
        table = transport.convergence_table(path, datum, window, args.p, levels)
    except levy_paths.WindowError:
        raise  # reported by main
    except ValueError as exc:  # p or levels out of range
        raise SystemExit(f"invalid convergence input: {exc}")
    out_dir = _prepare_out(args)
    transport.write_convergence_csv(table, out_dir / "convergence.csv")
    _write_manifest(
        args,
        {**config, **datum_config, "window_t": list(w_t), "window_x": list(w_x),
         "grid": [nt, nx], "levels": levels, "p": args.p},
    )
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    try:
        grid = ig_analytics.default_z_grid(args.x, n=args.zcount, z_neg_far=args.zfar)
        curve = ig_analytics.basepoint_density(args.x, args.t, grid)
    except ValueError as exc:
        raise SystemExit(f"invalid density input (--x, --t, --zcount, --zfar): {exc}")
    except RuntimeError as exc:  # no extended float type for the law here
        raise SystemExit(f"cannot evaluate the density: {exc}")
    out_dir = _prepare_out(args)
    ig_analytics.write_density_csv(curve, out_dir / "density.csv")
    ig_analytics.write_cdf_csv(curve, out_dir / "cdf.csv")
    _write_manifest(
        args,
        {
            "x": args.x,
            "t": args.t,
            "z_count": args.zcount,
            "z_neg_far": args.zfar,
        },
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec, grid, config = _window_from_args(args)
    try:
        result = montecarlo_validation.validate_basepoints(
            spec, args.x0, args.t0, args.n, grid, RngSeed(args.seed, args.stream),
            bins=args.bins, l1_max=args.l1_max, hist_hi=args.hist_hi,
        )
    except ValueError as exc:
        raise SystemExit(
            f"invalid validation input (--n, --bins, --x0, --t0, --hist-hi, --l1-max): {exc}"
        )
    except RuntimeError as exc:  # too many samples left the window
        raise SystemExit(f"cannot validate: {exc}")
    out_dir = _prepare_out(args)
    montecarlo_validation.write_samples_csv(result.samples, out_dir / "samples.csv")
    montecarlo_validation.write_histogram_csv(result.hist, out_dir / "histogram.csv")
    if result.curve is not None:
        ig_analytics.write_density_csv(result.curve, out_dir / "density.csv")
        ig_analytics.write_cdf_csv(result.curve, out_dir / "cdf.csv")
    write_json(out_dir / "report.json", result.report)
    _write_manifest(
        args,
        {**config, "k_window": [grid.k_min, grid.k_max], "x0": args.x0, "t0": args.t0,
         "n": args.n, "bins": args.bins, "hist_hi": args.hist_hi, "l1_max": args.l1_max},
    )
    for note in result.report["skipped"]:
        print(f"validate: skipped {note}", file=sys.stderr)
    for c in result.checks:
        print(
            f"validate: {c.name} {c.value:.6g} ({c.what}, threshold {c.threshold:.6g}): "
            f"{'pass' if c.passed else 'FAIL'}",
            file=sys.stderr,
        )
    return 0 if result.report["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``goupsim`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="goupsim",
        description="Transport in stochastic Goupillaud media: sampling, "
        "characteristics, analytics and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        _add_global_flags(p)
        p.set_defaults(func=func)
        return p

    p = command("paths", _cmd_paths, "sample a two-sided Levy path")
    _add_path_flags(p)

    p = command("solve", _cmd_solve, "transport solution at given times")
    _add_path_flags(p)
    p.add_argument("--times", default="1,2,3", help="comma-separated solution times")
    _add_datum_flags(p)
    p.add_argument("--xgrid", default="0:12", help="solution x range LO:HI")
    p.add_argument("--xcount", type=int, default=1024, help="solution grid size")
    p.add_argument(
        "--level",
        type=int,
        default=None,
        help="broken-characteristic level (default: limiting solution)",
    )

    p = command("converge", _cmd_converge, "L^p convergence table across levels")
    _add_path_flags(p)
    p.add_argument("--levels", default="2,4,6,8,10", help="levels to compare")
    p.add_argument("--p", type=float, default=1.0, help="L^p exponent")
    p.add_argument("--window-t", default="0:3", help="compact window times LO:HI")
    p.add_argument("--window-x", default="0:12", help="compact window space LO:HI")
    p.add_argument("--kgrid", default="64:512", help="midpoint grid NT:NX")
    _add_datum_flags(p)

    p = command("density", _cmd_density, "analytic base-point density (stable-1/2)")
    p.add_argument("--x", type=float, required=True, help="space level of the query")
    p.add_argument("--t", type=float, required=True, help="elapsed time (must be > 0)")
    p.add_argument("--zcount", type=int, default=512, help="evaluation grid size")
    p.add_argument("--zfar", type=float, default=-1e6, help="negative tail extent")

    p = command("validate", _cmd_validate, "Monte Carlo vs analytic base points")
    _add_path_flags(p, nmax=14, t_range="-1.01:14")
    p.add_argument("--x0", type=float, default=8.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10**4, help="Monte Carlo sample count")
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--hist-hi", type=float, default=8.5, help="histogram upper edge")
    p.add_argument("--l1-max", type=float, default=0.10, help="L1 pass threshold")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        RngSeed(args.seed, args.stream)  # reject bad seeds before any work
    except ValueError as exc:
        raise SystemExit(f"invalid seed: {exc}")
    if args.threads < 1:
        raise SystemExit(f"--threads must be >= 1, got {args.threads}")
    try:
        return args.func(args)
    except levy_paths.WindowError as exc:  # a solve or converge query
        raise SystemExit(f"query left the sampled window ({exc}); enlarge --range")
    except MemoryError as exc:  # numpy's message names the array's size
        raise SystemExit(f"cannot run {args.command}: out of memory: {exc}")
