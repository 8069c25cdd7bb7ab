"""Command line front end: ``goupsim <command>``.

Commands
--------
paths      sample a two-sided increasing Levy path, write CSV + metadata
solve      transport solution fields at given times, long-format CSV
converge   L^p distances of level-N solutions to the finest level, CSV
density    analytic base-point density and CDF for the stable-1/2 process
validate   Monte Carlo base points against the analytic density; exit
           status is nonzero unless every configured check passes

Global flags (``--seed``, ``--out``, ``--threads``) can also be set through
environment variables with the ``GOUPSIM_`` prefix (``GOUPSIM_SEED``,
``GOUPSIM_OUT``, ``GOUPSIM_THREADS``); flags win over the environment.
``--tol-abs`` and ``--tol-rel`` are still accepted but no longer affect any
output: the base-point law is evaluated in closed form.

Every command writes ``manifest.json`` echoing the resolved scientific
configuration; rerunning from the same manifest reproduces all numeric
outputs bitwise (17 significant digits in CSVs).  Worker count and output
directory do not influence any numbers and are not part of the manifest.

Units: times are in grid time units (the level-``N`` grid step is ``2^-N``),
speeds in space per unit time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ig_analytics, levy_paths, montecarlo_validation, transport
from .levy_paths import GammaDrift, PoissonDrift, ProcessSpec, RngSeed, StableHalf

_ENV_PREFIX = "GOUPSIM_"


def _env(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise SystemExit(f"invalid {_ENV_PREFIX}{name}={raw!r}: {exc}")


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=_env("SEED", int, 20230915),
        help="64-bit root seed (env GOUPSIM_SEED)",
    )
    parser.add_argument(
        "--stream",
        type=int,
        default=0,
        help="stream id under the root seed (independent substreams)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_env("OUT", Path, Path("goupsim-out")),
        help="output directory (env GOUPSIM_OUT)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=_env("THREADS", int, 1),
        help="worker processes; results are identical for any count "
        "(env GOUPSIM_THREADS)",
    )
    for flag in ("--tol-abs", "--tol-rel"):
        parser.add_argument(
            flag,
            type=float,
            help="accepted for compatibility; no longer affects any output",
        )


def _add_process_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--process",
        required=True,
        choices=["gamma", "poisson", "stable-half"],
        help="driving Levy process family",
    )
    parser.add_argument("--k", type=float, default=1.0, help="gamma: shape rate per unit time")
    parser.add_argument("--theta", type=float, default=1.0, help="gamma: scale")
    parser.add_argument("--intensity", type=float, default=1.0, help="poisson: jump intensity")
    parser.add_argument("--jump", type=float, default=1.0, help="poisson: jump size")
    parser.add_argument("--drift", type=float, default=1.0, help="gamma/poisson: linear drift")


def _process_from_args(args: argparse.Namespace) -> ProcessSpec:
    try:
        if args.process == "gamma":
            return GammaDrift(args.k, args.theta, args.drift)
        if args.process == "poisson":
            return PoissonDrift(args.intensity, args.jump, args.drift)
        return StableHalf()
    except ValueError as exc:
        raise SystemExit(f"invalid process parameters: {exc}")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise SystemExit(f"expected LO:HI, got {text!r}")
    if not lo < hi:
        raise SystemExit(f"need LO < HI in range, got {text!r}")
    return lo, hi


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise SystemExit(f"expected comma-separated numbers, got {text!r}")


def _k_window(t_range: tuple[float, float], n_max: int) -> tuple[int, int]:
    scale = 2**n_max
    k_min = int(np.floor(t_range[0] * scale))
    k_max = int(np.ceil(t_range[1] * scale))
    return min(k_min, 0), max(k_max, 0)


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    payload = {"command": command, "config": config}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(args: argparse.Namespace) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# commands


def _cmd_paths(args: argparse.Namespace) -> int:
    spec = _process_from_args(args)
    out_dir = _prepare_out(args)
    t_range = _parse_range(args.range)
    k_min, k_max = _k_window(t_range, args.nmax)
    seed = RngSeed(args.seed, args.stream)
    path = levy_paths.build_two_sided_path(spec, args.nmax, k_min, k_max, seed)
    levy_paths.write_path_csv(path, out_dir / "path.csv")
    levy_paths.write_path_metadata(path, out_dir / "path_meta.json")
    _write_manifest(
        out_dir,
        "paths",
        {
            "process": levy_paths.process_to_dict(spec),
            "n_max": args.nmax,
            "t_range": list(t_range),
            "k_window": [k_min, k_max],
            "seed": args.seed,
            "stream": args.stream,
        },
    )
    return 0


def _datum_from_args(args: argparse.Namespace):
    if args.datum == "triangular":
        return transport.Triangular(args.center, args.halfwidth, args.height)
    return transport.Constant(args.value)


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _process_from_args(args)
    out_dir = _prepare_out(args)
    t_range = _parse_range(args.range)
    k_min, k_max = _k_window(t_range, args.nmax)
    seed = RngSeed(args.seed, args.stream)
    path = levy_paths.build_two_sided_path(spec, args.nmax, k_min, k_max, seed)
    datum = _datum_from_args(args)
    times = _parse_floats(args.times)
    x_lo, x_hi = _parse_range(args.xgrid)
    xs = np.linspace(x_lo, x_hi, args.xcount)
    fields = []
    try:
        for t in times:
            if args.level is None:
                fields.append(transport.solve_limit(path, datum, t, xs))
            else:
                fields.append(transport.solve_at_level(path, args.level, datum, t, xs))
    except levy_paths.WindowError as exc:
        raise SystemExit(
            f"query left the sampled window ({exc}); enlarge --range"
        )
    transport.write_solution_csv(fields, out_dir / "solution.csv")
    _write_manifest(
        out_dir,
        "solve",
        {
            "process": levy_paths.process_to_dict(spec),
            "n_max": args.nmax,
            "t_range": list(t_range),
            "times": times,
            "datum": vars(args)["datum"],
            "datum_params": {
                "center": args.center,
                "halfwidth": args.halfwidth,
                "height": args.height,
                "value": args.value,
            },
            "x_grid": [x_lo, x_hi, args.xcount],
            "level": args.level,
            "seed": args.seed,
            "stream": args.stream,
        },
    )
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    spec = _process_from_args(args)
    out_dir = _prepare_out(args)
    t_range = _parse_range(args.range)
    k_min, k_max = _k_window(t_range, args.nmax)
    seed = RngSeed(args.seed, args.stream)
    path = levy_paths.build_two_sided_path(spec, args.nmax, k_min, k_max, seed)
    datum = _datum_from_args(args)
    w_t = _parse_range(args.window_t)
    w_x = _parse_range(args.window_x)
    nt, nx = (int(v) for v in args.kgrid.split(":"))
    window = transport.WindowK(w_t, w_x, (nt, nx))
    levels = [int(v) for v in _parse_floats(args.levels)]
    try:
        table = transport.convergence_table(path, datum, window, args.p, levels)
    except levy_paths.WindowError as exc:
        raise SystemExit(f"query left the sampled window ({exc}); enlarge --range")
    transport.write_convergence_csv(table, args.p, out_dir / "convergence.csv")
    _write_manifest(
        out_dir,
        "converge",
        {
            "process": levy_paths.process_to_dict(spec),
            "n_max": args.nmax,
            "t_range": list(t_range),
            "window_t": list(w_t),
            "window_x": list(w_x),
            "grid": [nt, nx],
            "levels": levels,
            "p": args.p,
            "datum": args.datum,
            "seed": args.seed,
            "stream": args.stream,
        },
    )
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    out_dir = _prepare_out(args)
    if args.t <= 0.0:
        raise SystemExit(f"--t must be positive (elapsed time), got {args.t}")
    if args.x <= 0.0:
        raise SystemExit(f"--x must be positive, got {args.x}")
    grid = ig_analytics.default_z_grid(args.x, n=args.zcount, z_neg_far=args.zfar)
    query = ig_analytics.IGQuery(args.x, args.t, grid)
    curve = ig_analytics.basepoint_density(query)
    ig_analytics.write_density_csv(curve, out_dir / "density.csv")
    ig_analytics.write_cdf_csv(ig_analytics.cdf_from_curve(curve), out_dir / "cdf.csv")
    ig_analytics.write_query_json(query, curve.mass, out_dir / "query.json")
    _write_manifest(
        out_dir,
        "density",
        {
            "x": args.x,
            "t": args.t,
            "z_count": args.zcount,
            "z_neg_far": args.zfar,
        },
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _process_from_args(args)
    out_dir = _prepare_out(args)
    if args.t0 <= 0.0:
        raise SystemExit(f"--t0 must be positive, got {args.t0}")
    t_range = _parse_range(args.range)
    k_min, k_max = _k_window(t_range, args.nmax)
    cfg = montecarlo_validation.McConfig(
        n_samples=args.n,
        n_max=args.nmax,
        window=(k_min, k_max),
        root_seed=RngSeed(args.seed, args.stream),
        bins=args.bins,
    )
    result = montecarlo_validation.validate_basepoints(
        spec,
        args.x0,
        args.t0,
        cfg,
        l1_max=args.l1_max,
        hist_hi=args.hist_hi,
        workers=args.threads,
        with_ks=not args.no_ks,
    )
    montecarlo_validation.write_samples_csv(result.samples, out_dir / "samples.csv")
    montecarlo_validation.write_histogram_csv(result.hist, out_dir / "histogram.csv")
    if result.curve is not None:
        ig_analytics.write_density_csv(result.curve, out_dir / "density.csv")
    if result.cdf is not None:
        ig_analytics.write_cdf_csv(result.cdf, out_dir / "cdf.csv")
    montecarlo_validation.write_report_json(result.report, out_dir / "report.json")
    _write_manifest(
        out_dir,
        "validate",
        {
            "process": levy_paths.process_to_dict(spec),
            "x0": args.x0,
            "t0": args.t0,
            "n": args.n,
            "n_max": args.nmax,
            "t_range": list(t_range),
            "bins": args.bins,
            "hist_hi": args.hist_hi,
            "l1_max": args.l1_max,
            "with_ks": not args.no_ks,
            "seed": args.seed,
            "stream": args.stream,
        },
    )
    for note in result.report["skipped"]:
        print(f"validate: skipped {note}", file=sys.stderr)
    for c in result.checks:
        print(
            f"validate: {c.name} {c.value:.6g} ({c.what}, threshold {c.threshold:.6g}): "
            f"{'pass' if c.passed else 'FAIL'}",
            file=sys.stderr,
        )
    print(json.dumps({k: result.report[k] for k in ("pass",)}))
    return 0 if result.report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goupsim",
        description="Transport in stochastic Goupillaud media: sampling, "
        "characteristics, analytics and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="sample a two-sided Levy path")
    _add_global_flags(p)
    _add_process_flags(p)
    p.add_argument("--nmax", type=int, required=True, help="dyadic refinement level")
    p.add_argument(
        "--range",
        required=True,
        help="time window LO:HI in grid time units; use --range=LO:HI when LO "
        "is negative",
    )
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("solve", help="transport solution at given times")
    _add_global_flags(p)
    _add_process_flags(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--range", required=True, help="path time window LO:HI")
    p.add_argument("--times", default="1,2,3", help="comma-separated solution times")
    p.add_argument("--datum", choices=["triangular", "constant"], default="triangular")
    p.add_argument("--center", type=float, default=1.0)
    p.add_argument("--halfwidth", type=float, default=1.0)
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--value", type=float, default=1.0, help="constant datum value")
    p.add_argument("--xgrid", default="0:12", help="solution x range LO:HI")
    p.add_argument("--xcount", type=int, default=1024, help="solution grid size")
    p.add_argument(
        "--level",
        type=int,
        default=None,
        help="broken-characteristic level (default: limiting solution)",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="L^p convergence table across levels")
    _add_global_flags(p)
    _add_process_flags(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--range", required=True, help="path time window LO:HI")
    p.add_argument("--levels", default="2,4,6,8,10", help="levels to compare")
    p.add_argument("--p", type=float, default=1.0, help="L^p exponent")
    p.add_argument("--window-t", default="0:3", help="compact window times LO:HI")
    p.add_argument("--window-x", default="0:12", help="compact window space LO:HI")
    p.add_argument("--kgrid", default="64:512", help="midpoint grid NT:NX")
    p.add_argument("--datum", choices=["triangular", "constant"], default="triangular")
    p.add_argument("--center", type=float, default=1.0)
    p.add_argument("--halfwidth", type=float, default=1.0)
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--value", type=float, default=1.0)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("density", help="analytic base-point density (stable-1/2)")
    _add_global_flags(p)
    p.add_argument("--x", type=float, required=True, help="space level of the query")
    p.add_argument("--t", type=float, required=True, help="elapsed time (must be > 0)")
    p.add_argument("--zcount", type=int, default=512, help="evaluation grid size")
    p.add_argument("--zfar", type=float, default=-1e6, help="negative tail extent")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("validate", help="Monte Carlo vs analytic base points")
    _add_global_flags(p)
    _add_process_flags(p)
    p.add_argument("--x0", type=float, default=8.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10**4, help="Monte Carlo sample count")
    p.add_argument("--nmax", type=int, default=14, help="path refinement level")
    p.add_argument("--range", default="-1.01:14", help="path time window LO:HI")
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--hist-hi", type=float, default=8.5, help="histogram upper edge")
    p.add_argument("--l1-max", type=float, default=0.10, help="L1 pass threshold")
    p.add_argument("--no-ks", action="store_true", help="skip the KS comparison")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        RngSeed(args.seed, args.stream)  # reject bad seeds before any work
    except ValueError as exc:
        raise SystemExit(f"invalid seed: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
