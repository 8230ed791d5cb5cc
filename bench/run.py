"""Benchmark of the stashuttle CLI: end-to-end runs and one traced run.

    python3 bench/run.py --workload scan-omega --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  With `--trace 0` the benchmark runs
the CLI in a fresh interpreter per run, one run at a time (a closed loop with
one client), for `--seconds` seconds.  Before each CLI run it times a fresh
interpreter that only imports `stashuttle.cli` (the set-up every call pays)
and a fixed reference computation that uses no code of the program.  It
reports medians of wall time, set-up time and child peak memory, and the
throughput of the compute part.  With `--trace 1` it alternates untraced and
traced in-process runs (see tracing.py) and reports the per-layer metrics.

Timings are scaled to a fixed machine speed: wall_s and setup_s are the
medians measured, times REFERENCE_S over the median time of the reference
computation in the same run.  A shared 2-core virtual machine (Intel Xeon)
was seen to change speed by up to 1.5x for minutes at a time; the scaling
removes that drift, not any change in the program.  The raw samples are in
the record.

Every output is checked (workloads.py); a nonzero exit code or a failed
check counts as a failed run.  The next-to-last stdout line is a JSON record
with the environment, every sample and the quartiles; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAIN = "import sys; from stashuttle.cli import main; sys.exit(main())"
SETUP = "import stashuttle.cli"
# floor of the compute time in items_per_s, so the metric stays finite if a
# run ever gets as fast as interpreter start-up
MIN_COMPUTE_S = 1e-3
# nominal time of reference(); the timings reported are scaled to this speed
REFERENCE_S = 1.0
# end-to-end metrics of an untraced run: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def reference() -> float:
    """Seconds taken by a fixed computation that shares no code with the program.

    Its three parts mirror the work in the workloads: scalar Python
    arithmetic (the RK4 oracle), many small numpy calls (oct_solve's lanes,
    quadrature panels) and numpy calls on larger arrays (GA cost evaluation).
    """
    start = time.perf_counter()
    y, v = 1.0, 0.0
    for _ in range(4_500_000):
        v -= 1e-3 * y
        y += 1e-3 * v
    x = np.zeros(4)
    for _ in range(36_000):
        x = np.stack([x[1], x[0], 0.5 * x[3], x[2] + 1e-3])
    grid = np.linspace(0.0, 1.0, 16_000)
    for k in range(1_500):
        grid = np.sin(grid + k)
    return time.perf_counter() - start


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def spawn(args: list[str], stdout_path: Path) -> tuple[int, float, float]:
    """Run the interpreter with `args`; exit code, wall seconds, peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaps the child itself, so it gives that child's own peak RSS
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Budget:
    """Starts another round only while the longest round so far still fits."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.longest = 0.0
        self.rounds = 0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.rounds:
            self.longest = max(self.longest, now - self.last)
        self.last = now
        self.rounds += 1
        return self.rounds == 1 or now - self.start + self.longest <= self.seconds


def run_untraced(name: str, config: dict, seconds: float, work: Path):
    """Closed loop of CLI runs, each preceded by a reference and a set-up probe."""
    command = workloads.WORKLOADS[name]
    cfg_path, csv_path, log = work / "config.json", work / "out.csv", work / "stdout.txt"
    cfg_path.write_text(json.dumps(config, indent=1))
    argv = ["-c", MAIN, command, "--config", str(cfg_path), "--out", str(csv_path)]
    samples = {"wall_s": [], "setup_s": [], "reference_s": [], "peak_rss_mb": []}
    errors: list[str] = []
    failed = 0
    budget = Budget(seconds)
    while budget.another():
        samples["reference_s"].append(reference())
        code, setup, _ = spawn(["-c", SETUP], log)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {log.read_text()[-2000:]}")
        code, wall, rss = spawn(argv, log)
        samples["setup_s"].append(setup)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        problems = ([f"exit code {code}: {log.read_text()[-500:]}"] if code != 0
                    else workloads.check_output(name, config, str(csv_path), log.read_text()))
        failed += bool(problems)
        errors += problems
        csv_path.unlink(missing_ok=True)
    items = workloads.items_of(name, config)
    scale = REFERENCE_S / statistics.median(samples["reference_s"])
    wall = statistics.median(samples["wall_s"]) * scale
    setup = statistics.median(samples["setup_s"]) * scale
    values = {"wall_s": wall, "setup_s": setup,
              "items_per_s": items / max(wall - setup, MIN_COMPUTE_S),
              "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    detail = {"items": items, "speed_scale": scale, "samples": samples,
              "summary": {k: summary(v) for k, v in samples.items()},
              "failed_ratio": failed / len(samples["wall_s"])}
    return metrics, len(samples["wall_s"]), failed, errors, detail


def run_traced(name: str, config: dict, seconds: float, work: Path):
    """Alternate untraced and traced in-process runs; medians of the layer metrics."""
    command = workloads.WORKLOADS[name]
    cfg_path, csv_path = work / "config.json", work / "out.csv"
    cfg_path.write_text(json.dumps(config, indent=1))
    argv = [command, "--config", str(cfg_path), "--out", str(csv_path)]
    spans_path = WORK / f"spans-{name}.csv"
    spans_path.write_text("run,id,parent,name,start_ns,end_ns\n")
    plain, traced, layers, shares = [], [], [], []
    errors: list[str] = []
    attempted = failed = 0
    budget = Budget(seconds)
    while budget.another():
        for tracer in (None, tracing.Tracer()):
            code, stdout, wall = tracing.run_cli(argv, tracer)
            problems = ([f"exit code {code}"] if code != 0
                        else workloads.check_output(name, config, str(csv_path), stdout))
            attempted += 1
            failed += bool(problems)
            errors += problems
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer))
                shares.append(tracing.shares(tracer))
                tracer.write(str(spans_path), len(traced) - 1)
    values = tracing.medians(layers)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {k: (values[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}
    detail = {"untraced_wall_s": summary(plain), "traced_wall_s": summary(traced),
              "shares": shares[-1], "spans": str(spans_path.relative_to(ROOT)),
              "failed_ratio": failed / attempted}
    return metrics, attempted, failed, errors, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stashuttle" / "cli.py").is_file():
        print(f"error: no stashuttle sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # fills the bytecode cache so no timed run compiles the package
        code, _, _ = spawn(["-c", SETUP], work / "warmup.txt")
        if code != 0:
            print((work / "warmup.txt").read_text(), file=sys.stderr)
            return 2
        config = workloads.make_config(args.workload, args.seed)
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, errors, detail = runner(
            args.workload, config, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "errors": errors[:20], **detail}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
