"""In-process traced run: spans around the public functions of each module.

Modules import their callees by name (`from .quadrature import adaptive_quad`),
so a span is installed by replacing the reference in each *caller* module
(`stashuttle.perturbation.adaptive_quad`, `stashuttle.cli.oct_solve`, ...);
protocol evaluators are class attributes and are wrapped on the class.
Spans stay in memory and are written out after the run.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import statistics
import time
from collections import defaultdict

perf_counter = time.perf_counter

# span name -> (module, attribute) references replaced by the wrapper
TARGETS = {
    "cli.parse": [("cli", "parse_params"), ("cli", "parse_perturbation"),
                  ("cli", "_scan_axis")],
    "cli.write_csv": [("cli", "write_csv")],
    "perturbation.second_order_energy_freq": [("cli", "second_order_energy_freq")],
    "analysis.envelope": [("cli", "envelope_static"), ("cli", "envelope_dynamical")],
    "quadrature.adaptive_quad": [("perturbation", "adaptive_quad"),
                                 ("analysis", "adaptive_quad"),
                                 ("design", "adaptive_quad")],
    "model.eval_perturbation": [("model", "eval_perturbation"),
                                ("perturbation", "eval_perturbation"),
                                ("dynamics", "eval_perturbation")],
    "dynamics.solve_auxiliary": [("dynamics", "solve_auxiliary")],
    "optimize.oct_solve": [("cli", "oct_solve")],
    "optimize.ga_minimize": [("cli", "ga_minimize")],
    "optimize.corridor_cost": [("cli", "corridor_cost")],
    "design.assemble_system": [("design", "assemble_system")],
}
PROTOCOL_CLASSES = ("Polynomial5", "FourierSineProtocol", "PolynomialTrajectory",
                    "TabulatedProtocol")
PROTOCOL_METHODS = ("position", "velocity", "acceleration")

# per-layer metrics in the order BENCHMARK.json lists them: name -> (unit, better)
PER_LAYER = {
    "quadrature.adaptive_quad.calls": ("count", "lower"),
    "quadrature.adaptive_quad.s": ("s", "lower"),
    "quadrature.adaptive_quad.points": ("count", "lower"),
    "quadrature.adaptive_quad.failures": ("count", "lower"),
    "model.eval_perturbation.calls": ("count", "lower"),
    "model.eval_perturbation.s": ("s", "lower"),
    "model.protocol_eval.calls": ("count", "lower"),
    "model.protocol_eval.s": ("s", "lower"),
    "perturbation.second_order_energy_freq.calls": ("count", "lower"),
    "perturbation.second_order_energy_freq.s": ("s", "lower"),
    "analysis.envelope.calls": ("count", "lower"),
    "analysis.envelope.s": ("s", "lower"),
    "analysis.envelope.pole_errors": ("count", "lower"),
    "dynamics.solve_auxiliary.calls": ("count", "lower"),
    "dynamics.solve_auxiliary.steps": ("count", "lower"),
    "dynamics.solve_auxiliary.s": ("s", "lower"),
    "dynamics.solve_auxiliary.ns_per_step": ("ns", "lower"),
    "dynamics.solve_auxiliary.failures": ("count", "lower"),
    "optimize.oct_solve.calls": ("count", "lower"),
    "optimize.oct_solve.steps": ("count", "lower"),
    "optimize.oct_solve.s": ("s", "lower"),
    "optimize.oct_solve.ns_per_step": ("ns", "lower"),
    "optimize.oct_solve.singular": ("count", "lower"),
    "optimize.ga_minimize.s": ("s", "lower"),
    "optimize.ga_minimize.generations": ("count", "lower"),
    "optimize.ga_minimize.improving_ratio": ("ratio", "higher"),
    "optimize.corridor_cost.calls": ("count", "lower"),
    "optimize.corridor_cost.s": ("s", "lower"),
    "design.assemble_system.calls": ("count", "lower"),
    "design.assemble_system.s": ("s", "lower"),
    "design.assemble_system.condition_number": ("ratio", "lower"),
    "cli.parse.s": ("s", "lower"),
    "cli.write_csv.s": ("s", "lower"),
    "cli.write_csv.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

ROOT = "cli.main"


class Tracer:
    """Nested spans of one run, kept as [name, parent, start, end, child_time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += end - span[2]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and inclusive time."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for name, _, start, end, child in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child
            entry["total_s"] += end - start
        return dict(out)

    def write(self, path: str, run: int) -> None:
        """Append the spans as `run,id,parent,name,start_ns,end_ns` lines."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "a") as fh:
            for idx, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{run},{idx},{parent},{name},"
                         f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n")


def _improving(history) -> int:
    """Generations whose best cost is below every earlier generation's."""
    best, improving = float("inf"), 0
    for cost in history:
        improving += cost < best
        best = min(best, cost)
    return improving


def _add_steps(counts, name, args, result):
    counts[name + ".steps"] += args["n_steps"]


def _add_generations(counts, name, args, result):
    counts[name + ".generations"] += result.generations_used
    counts[name + ".improving"] += _improving(result.history)


def _max_condition(counts, name, args, result):
    counts[name + ".condition_number"] = max(counts[name + ".condition_number"],
                                             result.condition_number)


def _add_bytes(counts, name, args, result):
    counts[name + ".bytes"] += os.path.getsize(args["path"])


# span name -> hook(counts, name, call arguments, result) adding the layer's work counts
AFTER = {
    "dynamics.solve_auxiliary": _add_steps,
    "optimize.oct_solve": _add_steps,
    "optimize.ga_minimize": _add_generations,
    "design.assemble_system": _max_condition,
    "cli.write_csv": _add_bytes,
}


def _make_wrapper(tracer: Tracer, name: str, fn, errors):
    """Span around `fn`, counting `errors` raised and the layer's work."""
    counts = tracer.counts
    after = AFTER.get(name)
    signature = inspect.signature(fn) if after else None

    def count_points(f):
        def counted(t):
            counts["quadrature.adaptive_quad.points"] += getattr(t, "size", 1)
            return f(t)
        return counted

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "quadrature.adaptive_quad":
            args = (count_points(args[0]),) + args[1:]
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except errors:
            counts[name + ".errors"] += 1
            raise
        finally:
            tracer.close(span)
        if after is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(counts, name, bound.arguments, result)
        return result

    return wrapper


def _error_types(pkg: dict) -> dict[str, tuple]:
    """Exceptions each layer counts as a failure, pole error or singular solve."""
    return {
        "quadrature.adaptive_quad": (pkg["quadrature"].QuadratureError,),
        "analysis.envelope": (pkg["analysis"].PoleError,),
        "dynamics.solve_auxiliary": (pkg["dynamics"].IntegrationError, ValueError),
        "optimize.oct_solve": (pkg["optimize"].SingularSystemError,),
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced reference for the duration of the block."""
    pkg = {m: importlib.import_module(f"stashuttle.{m}")
           for m in ("cli", "model", "quadrature", "perturbation", "analysis",
                     "dynamics", "design", "optimize")}
    errors = _error_types(pkg)
    saved = []
    try:
        for name, refs in TARGETS.items():
            for module, attr in refs:
                owner = pkg[module]
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        _make_wrapper(tracer, name, original, errors.get(name, ())))
        for cls_name in PROTOCOL_CLASSES:
            cls = getattr(pkg["model"], cls_name)
            for method in PROTOCOL_METHODS:
                original = cls.__dict__[method]
                saved.append((cls, method, original))
                setattr(cls, method,
                        _make_wrapper(tracer, "model.protocol_eval", original, ()))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, float]:
    """Call `stashuttle.cli.main` in-process; returns exit code, stdout, wall seconds."""
    from stashuttle import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            start = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - start
        else:
            with installed(tracer):
                start = perf_counter()
                root = tracer.open(ROOT)
                try:
                    code = cli.main(argv)
                finally:
                    tracer.close(root)
                wall = perf_counter() - start
    return code, out.getvalue(), wall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 for layers the workload skips)."""
    totals, counts = tracer.totals(), tracer.counts
    metrics = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        if stat == "calls":
            metrics[name] = entry["calls"]
        elif stat == "s":
            metrics[name] = entry["self_s"]
        elif stat == "ns_per_step":
            steps = counts[layer + ".steps"]
            metrics[name] = entry["self_s"] / steps * 1e9 if steps else 0.0
        elif stat in ("failures", "pole_errors", "singular"):
            metrics[name] = counts[layer + ".errors"]
        elif stat == "improving_ratio":
            gens = counts[layer + ".generations"]
            metrics[name] = counts[layer + ".improving"] / gens if gens else 0.0
        elif name != "trace.overhead_ratio":
            metrics[name] = counts[name]
    return metrics


def shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time per module and inclusive time per span, as shares of the root span."""
    totals = tracer.totals()
    wall = totals[ROOT]["total_s"]
    by_module: dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        by_module[name.split(".")[0]] += entry["self_s"] / wall
    inclusive = {name: entry["total_s"] / wall for name, entry in totals.items()}
    return {"module_self": dict(by_module), "inclusive": inclusive}


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
