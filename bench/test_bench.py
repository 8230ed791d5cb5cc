"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_valid_and_match_the_code():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["unit"] == "s"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_configs_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 5) == workloads.make_config(name, 5)
    a, b = (workloads.make_config("scan-omega", s)["scan"] for s in (1, 2))
    assert a["min"] != b["min"] and a["points"] == b["points"]


def _small(workload: str) -> dict:
    config = workloads.make_config(workload, 0)
    if "scan" in config:
        config["scan"]["points"] = 12
    else:
        config["oct"]["n_steps"] = 2000
        config["oct"]["sweep"].update(min={"value": 4.0, "unit": "us"},
                                      max={"value": 8.0, "unit": "us"})
    return config


@pytest.fixture
def work_dir():
    """Scratch directory inside the benchmark's own work directory."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def cli_run(work_dir):
    """Run a small config in-process; returns (config, csv path, stdout)."""
    def go(workload, tracer=None):
        config = _small(workload)
        cfg, out = work_dir / "config.json", work_dir / "out.csv"
        cfg.write_text(json.dumps(config))
        argv = [workloads.WORKLOADS[workload], "--config", str(cfg), "--out", str(out)]
        code, stdout, wall = tracing.run_cli(argv, tracer)
        assert code == 0
        return config, out, stdout, wall
    return go


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("workload", ["scan-omega", "verify-omega", "oct-sweep"])
def test_corrupted_csv_fails_its_check(cli_run, workload, work_dir):
    config, out, stdout, _ = cli_run(workload)
    assert workloads.check_output(workload, config, str(out), stdout) == []
    pristine = work_dir / "pristine.csv"
    shutil.copy(out, pristine)

    def scale_largest(lines):
        rows = [line.split(",") for line in lines[3:]]
        col = 1 if workload == "oct-sweep" else 2
        k = max(range(len(rows)), key=lambda i: abs(float(rows[i][col])))
        rows[k][1] = f"{float(rows[k][1]) * 1.5:.11e}"
        return lines[:3] + [",".join(row) for row in rows]

    edits = {"drop the last row": lambda lines: lines[:-1],
             "scale one value": scale_largest,
             "garble one number": lambda lines: lines[:4] + [lines[4].replace("e", "x", 1)]
             + lines[5:],
             "truncate the file": lambda lines: lines[:2]}
    for what, edit in edits.items():
        shutil.copy(pristine, out)
        _rewrite(out, edit)
        assert workloads.check_output(workload, config, str(out), stdout), what


def test_ga_check_rejects_bad_output(work_dir):
    config = workloads.make_config("ga-search", 0)
    T, d = workloads.GA_DURATION_US * 1e-6, workloads.DISTANCE
    rows = [f"{k * T / 1000:.11e},{d * k / 1000:.11e},0,0,0" for k in range(1001)]
    path = work_dir / "ga.csv"
    path.write_text("# x\nt,qc0,qc0_dot,qc0_ddot,Q0\n" + "\n".join(rows) + "\n")
    stdout = "best_cost=1.06280000000e-13\ngenerations_used=100\n"
    assert workloads.check_ga(config, str(path), stdout) == []
    assert workloads.check_ga(config, str(path), "best_cost=2e-13\ngenerations_used=3\n")
    _rewrite(path, lambda lines: lines[:-1] + [lines[-1].replace(f"{d:.11e}", f"{0.9 * d:.11e}")])
    assert workloads.check_ga(config, str(path), stdout)


def test_traced_run_self_times_fit_in_its_wall_time(cli_run):
    tracer = tracing.Tracer()
    config, out, stdout, wall = cli_run("scan-omega", tracer)
    assert workloads.check_scan(config, str(out), stdout) == []
    totals = tracer.totals()
    assert sum(t["self_s"] for t in totals.values()) <= wall
    assert all(t["self_s"] >= 0.0 for t in totals.values())
    metrics = tracing.layer_metrics(tracer)
    points = config["scan"]["points"]
    assert metrics["quadrature.adaptive_quad.calls"] == 4 * points
    assert metrics["perturbation.second_order_energy_freq.calls"] == points
    assert metrics["quadrature.adaptive_quad.points"] > 0
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER)


def test_tracing_restores_the_package():
    from stashuttle import cli, model, perturbation
    before = (cli.oct_solve, perturbation.adaptive_quad, model.Polynomial5.position)
    with tracing.installed(tracing.Tracer()):
        assert cli.oct_solve is not before[0]
    assert (cli.oct_solve, perturbation.adaptive_quad, model.Polynomial5.position) == before
