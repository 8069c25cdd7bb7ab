"""Spans recorded from outside the program, and the per-layer metrics they give.

Wrappers are installed on the module attributes that callers look up (for
example ``goupsim.montecarlo_validation.basepoint_density``) and removed again
after the traced iteration, so untraced iterations run the program's own
functions.  A wrapper keeps the wrapped function's ``__module__`` and
``__qualname__``, so a wrapped function that is handed to a process pool still
pickles by reference.  Spans live in memory and are written out at the end of
a run; spans opened inside pool workers stay in the workers and are lost.

A span is ``(trace, name, start_ns, end_ns, parent, attrs)``; ``parent`` is
the index of the enclosing span in the same list, or -1.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.trace = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.trace, name, start, end, parent, attrs)

    def wrap(self, modules, attr: str, name: str, note=None) -> None:
        """Replace ``attr`` by a recording wrapper in every module of
        ``modules`` that holds the same function object as the first one.
        ``note(args, kwargs, result)`` returns counts to attach to the span.
        A missing attribute is skipped, so the layer then reports no work."""
        original = getattr(modules[0], attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if note is not None:
                    attrs.update(note(args, kwargs, result))
                return result

        self._replace(modules, attr, original, wrapper)

    def wrap_quadrature(self, modules, attr: str) -> None:
        """Count integrand evaluations, subdivisions and failures of one
        quadrature entry point at its callers' boundary."""
        original = getattr(modules[0], attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(f, *args, **kwargs):
            evals = [0]

            def counted(xs):
                evals[0] += int(np.size(xs))
                return f(xs)

            with self.span("quadrature." + attr) as attrs:
                try:
                    result = original(counted, *args, **kwargs)
                except Exception as exc:
                    best = getattr(exc, "best", None)
                    attrs["subdivisions"] = getattr(best, "subdivisions_used", 0)
                    raise
                finally:
                    attrs["evals"] = evals[0]
                attrs["subdivisions"] = result.subdivisions_used
                return result

        self._replace(modules, attr, original, wrapper)

    def _replace(self, modules, attr, original, wrapper) -> None:
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, out_path) -> None:
        """One JSON object per line: trace, span, parent, name, start_ns,
        end_ns and the span's counts."""
        with open(out_path, "w", encoding="utf-8") as fh:
            for idx, (trace, name, start, end, parent, attrs) in enumerate(self.spans):
                extra = "," + json.dumps(attrs)[1:-1] if attrs else ""
                fh.write(
                    f'{{"trace":{trace},"span":{idx},"parent":{parent},"name":"{name}",'
                    f'"start_ns":{start},"end_ns":{end}{extra}}}\n'
                )


# ---------------------------------------------------------------------------
# layer boundaries


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _family(spec) -> str:
    return {"GammaDrift": "gamma", "PoissonDrift": "poisson", "StableHalf": "stable"}.get(
        type(spec).__name__, type(spec).__name__
    )


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "out"))}


def _size_of(i, key):
    return lambda args, kwargs, result: {"n": int(np.size(_arg(args, kwargs, i, key)))}


def install_fanout(tracer: Tracer, goupsim) -> None:
    """Spans around the two calls that fan out over a process pool; cheap
    enough to leave on in a run that is otherwise untraced."""
    mc = goupsim.montecarlo_validation
    ig = goupsim.ig_analytics
    tracer.wrap(
        (mc,), "sample_basepoints", "mc.sample_basepoints",
        lambda a, k, r: {"n": int(r.n_requested), "failed": int(r.n_failed)},
    )
    tracer.wrap(
        (ig, mc), "basepoint_density", "ig.basepoint_density",
        lambda a, k, r: {
            "n": int(r.z.size),
            "nonconverged": int(np.sum(np.isnan(r.err))),
        },
    )


def install_layers(tracer: Tracer, goupsim) -> None:
    """Install the span wrappers at every layer boundary the metrics use."""
    install_fanout(tracer, goupsim)
    lp = goupsim.levy_paths
    mc = goupsim.montecarlo_validation
    ig = goupsim.ig_analytics
    go = goupsim.goupillaud
    tr = goupsim.transport
    users = (lp, mc, ig, go, tr, goupsim.cli)

    tracer.wrap(users, "stream_for", "levy_paths.stream_for")
    tracer.wrap(
        (lp,), "_open_uniforms", "levy_paths.uniform",
        lambda a, k, r: {"n": int(np.size(r))},
    )
    tracer.wrap(
        (lp,), "_increments_from_uniforms", "levy_paths.transform",
        lambda a, k, r: {"n": int(np.size(r)), "family": _family(a[0])},
    )
    tracer.wrap(
        users, "build_two_sided_path", "levy_paths.build",
        lambda a, k, r: {"n": int(r.values.size - 1), "family": _family(r.process)},
    )
    tracer.wrap(users, "hitting_time", "levy_paths.hitting_time", _size_of(1, "x"))
    tracer.wrap(users, "step_eval", "levy_paths.step_eval", _size_of(1, "tau"))
    tracer.wrap(users, "polygon_eval", "levy_paths.polygon_eval", _size_of(1, "tau"))
    tracer.wrap(users, "polygon_inverse", "levy_paths.polygon_inverse", _size_of(1, "x"))
    tracer.wrap((lp,), "write_path_csv", "cli.write.path", _file_bytes)

    tracer.wrap(
        (mc,), "validate_basepoints", "mc.validate_basepoints",
        lambda a, k, r: {k2: r.report[k2] for k2 in ("l1", "ks") if k2 in r.report},
    )
    tracer.wrap(
        (mc,), "bm_functionals_oracle", "mc.oracle",
        lambda a, k, r: {
            "n": int(r.hit.size),
            "steps": int(round(r.x / r.step)),
            "capped": int(r.n_capped),
        },
    )
    tracer.wrap((mc,), "hit_under_bin_masses", "mc.hit_under_bin_masses")
    tracer.wrap((mc,), "write_samples_csv", "cli.write.samples", _file_bytes)

    tracer.wrap(
        (ig,), "_basepoint_point", "ig.point",
        lambda a, k, r: {"side": "pos" if a[0][2] > 0.0 else "neg" if a[0][2] < 0.0 else "zero"},
    )
    tracer.wrap((ig,), "write_density_csv", "cli.write.density", _file_bytes)
    tracer.wrap((ig,), "write_cdf_csv", "cli.write.cdf", _file_bytes)

    for caller in (ig, mc):
        for attr in ("integrate_adaptive", "integrate_sqrt_endpoint", "integrate_semi_infinite"):
            tracer.wrap_quadrature((caller,), attr)

    tracer.wrap((go,), "build_medium", "goupillaud.build_medium")
    tracer.wrap((go,), "basepoint", "goupillaud.basepoint", _size_of(1, "x"))

    tracer.wrap((tr,), "solve_limit", "transport.solve_limit", _size_of(3, "xs"))
    tracer.wrap((tr,), "solve_at_level", "transport.solve_at_level", _size_of(4, "xs"))

    def table_cells(args, kwargs, result):
        grid = _arg(args, kwargs, 2, "window").grid
        return {"n": int(grid[0] * grid[1] * (len(result) + 1))}

    tracer.wrap((tr,), "convergence_table", "transport.convergence_table", table_cells)
    tracer.wrap((tr,), "write_solution_csv", "cli.write.solution", _file_bytes)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("levy_paths", "mc", "ig", "quadrature", "goupillaud", "transport", "cli")
COMMANDS = ("paths", "solve", "converge", "density", "validate")
WRITERS = ("path", "solution", "samples", "density", "cdf")

#: name -> (unit, better); every traced run reports all of them, with 0 for
#: a layer the workload does not exercise
PER_LAYER = {
    "levy_paths.stream_for.us_per_call": ("us", "lower"),
    "levy_paths.uniform.ns_per_word": ("ns", "lower"),
    **{f"levy_paths.transform.ns_per_increment.{f}": ("ns", "lower") for f in ("gamma", "poisson", "stable")},
    **{f"levy_paths.build.ns_per_increment.{f}": ("ns", "lower") for f in ("gamma", "poisson")},
    **{
        f"levy_paths.{q}.ns_per_query": ("ns", "lower")
        for q in ("hitting_time", "step_eval", "polygon_eval", "polygon_inverse")
    },
    "mc.sample_basepoints.ms_per_sample": ("ms", "lower"),
    "mc.sample_basepoints.streams_per_sample": ("count", "lower"),
    "mc.sample_basepoints.samples_failed": ("count", "lower"),
    "mc.sample_basepoints.parallel_efficiency_2w": ("ratio", "higher"),
    "mc.compare.s": ("s", "lower"),
    "mc.validate.l1": ("ratio", "lower"),
    "mc.validate.l1_threshold": ("ratio", "lower"),
    "mc.validate.ks": ("ratio", "lower"),
    "mc.validate.ks_threshold": ("ratio", "lower"),
    "mc.oracle.ns_per_step": ("ns", "lower"),
    "mc.oracle.overshoot_s": ("s", "lower"),
    "mc.oracle.n_capped": ("count", "lower"),
    "mc.hit_under_bin_masses.s": ("s", "lower"),
    "ig.basepoint_density.us_per_point.pos": ("us", "lower"),
    "ig.basepoint_density.us_per_point.neg": ("us", "lower"),
    "ig.basepoint_density.points_nonconverged": ("count", "lower"),
    "ig.basepoint_density.parallel_efficiency_2w": ("ratio", "higher"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.subdivisions": ("count", "lower"),
    "quadrature.integrand_evals": ("count", "lower"),
    "quadrature.errors": ("count", "lower"),
    "goupillaud.build_medium.s": ("s", "lower"),
    "goupillaud.basepoint.ns_per_query": ("ns", "lower"),
    "transport.solve_limit.ns_per_point": ("ns", "lower"),
    "transport.solve_at_level.ns_per_point": ("ns", "lower"),
    "transport.convergence_table.cells_per_s": ("cells/s", "higher"),
    **{f"cli.command.s.{c}": ("s", "lower") for c in COMMANDS},
    **{f"cli.write.mb_per_s.{w}": ("MB/s", "higher") for w in WRITERS},
    "cli.bytes_written": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
}


class SpanTable:
    """Spans of one trace, with self times and ancestry."""

    def __init__(self, spans, trace: int) -> None:
        self.rows = {i: s for i, s in enumerate(spans) if s is not None and s[0] == trace}
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.rows.values():
            if parent in self.rows:
                child_ns[parent] += end - start
        self.self_ns = {i: (s[3] - s[2]) - child_ns[i] for i, s in self.rows.items()}

    def named(self, name: str, **match):
        return [
            (i, s)
            for i, s in self.rows.items()
            if s[1] == name and all(s[5].get(k) == v for k, v in match.items())
        ]

    def seconds(self, name: str, **match) -> float:
        return sum(s[3] - s[2] for _, s in self.named(name, **match)) * 1e-9

    def total(self, name: str, key: str, **match) -> int:
        return sum(s[5].get(key, 0) for _, s in self.named(name, **match))

    def per_unit(self, name: str, scale: float, key: str = "n", **match) -> float:
        """Time per unit of work ``key`` (scaled from seconds), 0 without work."""
        work = self.total(name, key, **match)
        return self.seconds(name, **match) * scale / work if work else 0.0

    def per_call(self, name: str, scale: float, **match) -> float:
        """Time per span (scaled from seconds), 0 without spans."""
        calls = len(self.named(name, **match))
        return self.seconds(name, **match) * scale / calls if calls else 0.0

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.rows[i][4]
        while parent in self.rows:
            if self.rows[parent][1] == name:
                return True
            parent = self.rows[parent][4]
        return False

    def layer_self_s(self, layer: str) -> float:
        return sum(
            self.self_ns[i] for i, s in self.rows.items() if s[1].split(".", 1)[0] == layer
        ) * 1e-9


def _mb_per_s(table: SpanTable, writer: str) -> float:
    secs = table.seconds(f"cli.write.{writer}")
    return table.total(f"cli.write.{writer}", "bytes") * 1e-6 / secs if secs else 0.0


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Every per-layer metric that one trace determines by itself."""
    m: dict[str, float] = {}
    m["levy_paths.stream_for.us_per_call"] = table.per_call("levy_paths.stream_for", 1e6)
    m["levy_paths.uniform.ns_per_word"] = table.per_unit("levy_paths.uniform", 1e9)
    for fam in ("gamma", "poisson", "stable"):
        m[f"levy_paths.transform.ns_per_increment.{fam}"] = table.per_unit(
            "levy_paths.transform", 1e9, family=fam
        )
    for fam in ("gamma", "poisson"):
        m[f"levy_paths.build.ns_per_increment.{fam}"] = table.per_unit(
            "levy_paths.build", 1e9, family=fam
        )
    for q in ("hitting_time", "step_eval", "polygon_eval", "polygon_inverse"):
        m[f"levy_paths.{q}.ns_per_query"] = table.per_unit(f"levy_paths.{q}", 1e9)

    n_samples = table.total("mc.sample_basepoints", "n")
    m["mc.sample_basepoints.ms_per_sample"] = table.per_unit("mc.sample_basepoints", 1e3)
    streams = sum(
        1 for i, _ in table.named("levy_paths.stream_for")
        if table.has_ancestor(i, "mc.sample_basepoints")
    )
    m["mc.sample_basepoints.streams_per_sample"] = streams / n_samples if n_samples else 0.0
    m["mc.sample_basepoints.samples_failed"] = float(table.total("mc.sample_basepoints", "failed"))
    validate = table.named("mc.validate_basepoints")
    # validate_basepoints' own time: histogram, L1, KS and CDF
    m["mc.compare.s"] = sum(table.self_ns[i] for i, _ in validate) * 1e-9
    m["mc.validate.l1"] = float(validate[-1][1][5].get("l1", 0.0)) if validate else 0.0
    m["mc.validate.ks"] = float(validate[-1][1][5].get("ks", 0.0)) if validate else 0.0
    m["mc.oracle.n_capped"] = float(table.total("mc.oracle", "capped"))
    m["mc.hit_under_bin_masses.s"] = table.seconds("mc.hit_under_bin_masses")

    for side in ("pos", "neg"):
        m[f"ig.basepoint_density.us_per_point.{side}"] = table.per_call("ig.point", 1e6, side=side)
    m["ig.basepoint_density.points_nonconverged"] = float(
        table.total("ig.basepoint_density", "nonconverged")
    )

    quad = [s for _, s in table.rows.items() if s[1].startswith("quadrature.")]
    m["quadrature.calls"] = float(len(quad))
    m["quadrature.subdivisions"] = float(sum(s[5].get("subdivisions", 0) for s in quad))
    m["quadrature.integrand_evals"] = float(sum(s[5].get("evals", 0) for s in quad))
    m["quadrature.errors"] = float(sum(s[5].get("error", 0) for s in quad))

    m["goupillaud.build_medium.s"] = table.seconds("goupillaud.build_medium")
    m["goupillaud.basepoint.ns_per_query"] = table.per_unit("goupillaud.basepoint", 1e9)
    m["transport.solve_limit.ns_per_point"] = table.per_unit("transport.solve_limit", 1e9)
    m["transport.solve_at_level.ns_per_point"] = table.per_unit("transport.solve_at_level", 1e9)
    secs = table.seconds("transport.convergence_table")
    m["transport.convergence_table.cells_per_s"] = (
        table.total("transport.convergence_table", "n") / secs if secs else 0.0
    )

    for c in COMMANDS:
        m[f"cli.command.s.{c}"] = table.per_call("cli.command", 1.0, command=c)
    for w in WRITERS:
        m[f"cli.write.mb_per_s.{w}"] = _mb_per_s(table, w)
    m["cli.bytes_written"] = float(table.total("cli.command", "bytes"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table.layer_self_s(layer)
    return m
