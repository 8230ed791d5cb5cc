import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stashuttle
from stashuttle import Perturbation, Polynomial5, cli, perturbation, quadrature
from stashuttle.cli import _fmt, main
from stashuttle.perturbation import second_order_energy_freq

TWO_PI_MHZ = 2 * math.pi * 1e6


def base_config(**extra):
    config = {
        "physical": {
            "mass": {"value": 1.455e-25, "unit": "kg"},
            "trap_frequency": {"value": 4.0, "unit": "two_pi_mhz"},
            "distance": {"value": 50.0, "unit": "um"},
            "duration": {"value": 2.0, "unit": "us"},
        },
        "perturbation": {
            "kind": "frequency_sine",
            "amplitude": 0.01,
            "frequency": {"value": 6.0, "unit": "two_pi_mhz"},
        },
    }
    config.update(extra)
    return config


def run(tmp_path, capsys, command, config, extra_args=(), name="out.csv"):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / name
    code = main([command, "--config", str(cfg_path), "--out", str(out_path),
                 *extra_args])
    captured = capsys.readouterr()
    return code, out_path, captured


def parse_echo(stdout):
    values = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key] = val
    return values


def python(*args, check=True):
    """Run a fresh interpreter that imports this checkout's stashuttle."""
    src = str(Path(stashuttle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


def test_import_leaves_scipy_out():
    # scipy costs about half a second and 45 MB of every CLI run; only
    # TabulatedProtocol needs it, and imports it when built
    code = "import sys, stashuttle.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    assert python("-c", code).stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["scan", "verify"])
def test_amplitude_warning_leaves_stderr_to_errors(tmp_path, command):
    # in a fresh interpreter, as a user runs it: pytest records warnings, so
    # an in-process run cannot see one reach stderr
    config = base_config(scan={"variable": "omega", "points": 1,
                               "min": {"value": 2.0, "unit": "two_pi_mhz"}})
    config["perturbation"]["amplitude"] = 0.06
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    done = python("-m", "stashuttle.cli", command, "--config", str(cfg_path),
                  "--out", str(tmp_path / "out.csv"), check=False)
    if command == "scan":
        assert done.returncode == 0 and done.stderr == ""
        assert parse_echo(done.stdout)["warning"] == (
            "amplitude 0.06 > 0.05: perturbative accuracy degraded")
    else:
        assert done.returncode == 2 and done.stdout == ""
        [line] = done.stderr.splitlines()
        assert json.loads(line)["error"]["kind"] == "config"


class TestScan:
    def test_single_point_scan(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 5.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 5.0, "unit": "two_pi_mhz"}})
        code, out, captured = run(tmp_path, capsys, "scan", config)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# stashuttle")
        assert lines[1].startswith("# config_sha256=")
        assert lines[2].split(",")[0] == "scan_value"
        assert len(lines) == 4  # two metadata, header, one row

    def test_unit_roundtrip_echo(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 5.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 5.0, "unit": "two_pi_mhz"}})
        _, _, captured = run(tmp_path, capsys, "scan", config)
        echoed = parse_echo(captured.out)
        assert float(echoed["omega0_rad_per_s"]) == pytest.approx(
            2 * math.pi * 4e6, rel=1e-11)
        assert float(echoed["omega0_two_pi_mhz"]) == pytest.approx(4.0, rel=1e-11)

    def test_byte_stable(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 11,
                                   "min": {"value": 2.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 10.0, "unit": "two_pi_mhz"}})
        _, out1, _ = run(tmp_path, capsys, "scan", config, name="a.csv")
        _, out2, _ = run(tmp_path, capsys, "scan", config, name="b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_format(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 5.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 5.0, "unit": "two_pi_mhz"}})
        _, out, _ = run(tmp_path, capsys, "scan", config)
        row = out.read_text().splitlines()[3].split(",")
        for field in row:
            assert "e" in field  # scientific notation
            mantissa = field.split("e")[0].lstrip("-")
            if mantissa != "nan":
                assert len(mantissa.replace(".", "")) == 12  # 12 significant digits

    def test_duration_scan_maxima_behavior(self, tmp_path, capsys):
        # along a transport-time scan the dynamical maxima decay while the
        # static maxima hold their level
        config = base_config(scan={"variable": "duration", "points": 160,
                                   "min": {"value": 0.5, "unit": "us"},
                                   "max": {"value": 8.0, "unit": "us"}})
        code, out, _ = run(tmp_path, capsys, "scan", config)
        assert code == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[3:]])
        stat, dyn = rows[:, 1], rows[:, 2]
        half = len(rows) // 2
        assert dyn[half:].max() < 0.05 * dyn[:half].max()
        assert 0.2 < stat[half:].max() / stat[:half].max() < 5.0

    @pytest.mark.parametrize("level, axis", [
        # through -2*omega0 and omega0, where the envelopes are NaN, and on
        # to 352 MHz, where the quadratures need more doublings
        (1, {"variable": "omega", "points": 121,
             "min": {"value": -8.0, "unit": "two_pi_mhz"},
             "max": {"value": 352.0, "unit": "two_pi_mhz"}}),
        (0, {"variable": "duration", "points": 160,
             "min": {"value": 0.5, "unit": "us"}, "max": {"value": 8.0, "unit": "us"}}),
    ])
    def test_rows_match_one_point_calls(self, tmp_path, capsys, level, axis):
        # the lane blocks of a scan write the bytes of one call per point
        config = base_config(level=level, scan=axis)
        code, out, _ = run(tmp_path, capsys, "scan", config)
        assert code == 0
        units = {"omega": TWO_PI_MHZ, "duration": 1e-6}[axis["variable"]]
        grid = np.linspace(axis["min"]["value"] * units, axis["max"]["value"] * units,
                           axis["points"])
        # the params as the CLI parses them: 50 um is 4.9999999999999996e-05 m
        params = cli.parse_params(config)
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert len(rows) == axis["points"]
        for value, row in zip(grid.tolist(), rows):
            omega, p = 6.0 * TWO_PI_MHZ, params
            if axis["variable"] == "omega":
                omega = value
            else:
                p = dataclasses.replace(params, duration=value)
            one = second_order_energy_freq(p, Polynomial5(p),
                                           Perturbation.frequency_sine(omega, 0.01), level)
            assert row[:4] == [_fmt(float(x)) for x in (value, one.static_quanta,
                                                       one.dynamical_quanta,
                                                       one.total_quanta)]
        if axis["variable"] == "omega":
            assert rows[0][4] == "nan" and rows[4][5] == "nan"

    def test_non_converging_lane_exits_3(self, tmp_path, capsys, monkeypatch):
        # 128 panels resolve the lanes up to 100 MHz, not those from 150 MHz on
        monkeypatch.setattr(perturbation, "adaptive_quad",
                            functools.partial(quadrature.adaptive_quad, max_panels=128))
        config = base_config(scan={"variable": "omega", "points": 7,
                                   "min": {"value": 1.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 300.0, "unit": "two_pi_mhz"}})
        code, out, captured = run(tmp_path, capsys, "scan", config)
        assert code == 3 and not out.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "numerical"

    def test_missing_unit_is_config_error(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 5.0},
                                   "max": {"value": 5.0, "unit": "two_pi_mhz"}})
        code, _, captured = run(tmp_path, capsys, "scan", config)
        assert code == 2
        error = json.loads(captured.err.strip())
        assert error["error"]["code"] == 2

    def test_bad_frequency_unit_rejected(self, tmp_path, capsys):
        config = base_config()
        config["perturbation"]["frequency"] = {"value": 6.0, "unit": "mhz"}
        config["scan"] = {"variable": "omega", "points": 1,
                          "min": {"value": 5.0, "unit": "two_pi_mhz"},
                          "max": {"value": 5.0, "unit": "two_pi_mhz"}}
        code, _, captured = run(tmp_path, capsys, "scan", config)
        assert code == 2
        assert "unknown unit" in captured.err


class TestVerify:
    def test_zero_amplitude(self, tmp_path, capsys):
        config = base_config(scan={"variable": "duration", "points": 3,
                                   "min": {"value": 1.0, "unit": "us"},
                                   "max": {"value": 2.0, "unit": "us"}},
                             steps_per_cycle=150)
        config["perturbation"]["amplitude"] = 0.0
        code, out, captured = run(tmp_path, capsys, "verify", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["max_relative_error"]) == 0.0
        for line in out.read_text().splitlines()[3:]:
            _, exact, pert, _ = (float(x) for x in line.split(","))
            assert abs(exact) < 1e-10 and pert == 0.0

    def test_small_amplitude_scan(self, tmp_path, capsys):
        config = base_config(scan={"variable": "duration", "points": 5,
                                   "min": {"value": 0.8, "unit": "us"},
                                   "max": {"value": 3.0, "unit": "us"},
                                   "spacing": "log"},
                             steps_per_cycle=250)
        code, _, captured = run(tmp_path, capsys, "verify", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["max_relative_error"]) < 0.05

    def test_perturbative_column_matches_one_point_calls(self, tmp_path, capsys):
        axis = {"variable": "omega", "points": 5,
                "min": {"value": 2.0, "unit": "two_pi_mhz"},
                "max": {"value": 10.0, "unit": "two_pi_mhz"}}
        config = base_config(scan=axis)
        code, out, _ = run(tmp_path, capsys, "verify", config)
        assert code == 0
        # the params as the CLI parses them: 50 um is 4.9999999999999996e-05 m
        params = cli.parse_params(config)
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        grid = np.linspace(2.0 * TWO_PI_MHZ, 10.0 * TWO_PI_MHZ, 5)
        for omega, row in zip(grid.tolist(), rows):
            one = second_order_energy_freq(params, Polynomial5(params),
                                           Perturbation.frequency_sine(omega, 0.01))
            assert row[2] == _fmt(0.01**2 * one.total_quanta)

    def test_under_resolved_point_exits_3(self, tmp_path, capsys):
        # 1000 MHz at one step per cycle leaves the oracle at its 4000-step
        # floor, about one step per perturbation cycle
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 1000.0, "unit": "two_pi_mhz"}},
                             steps_per_cycle=1)
        code, out, captured = run(tmp_path, capsys, "verify", config)
        assert code == 3 and not out.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "numerical"
        assert error["message"].startswith("halving the step count moved the endpoint")

    def test_large_amplitude_rejected(self, tmp_path, capsys):
        config = base_config(scan={"variable": "duration", "points": 2,
                                   "min": {"value": 1.0, "unit": "us"},
                                   "max": {"value": 2.0, "unit": "us"}})
        for amplitude in (0.2, 0.0501):
            config["perturbation"]["amplitude"] = amplitude
            code, _, captured = run(tmp_path, capsys, "verify", config)
            assert code == 2
            error = json.loads(captured.err.strip().splitlines()[-1])["error"]
            assert error["message"] == ("verify needs amplitude <= 0.05 "
                                        "for a meaningful comparison")
        # the limit is the amplitude above which Perturbation warns, inclusive
        config["perturbation"]["amplitude"] = 0.05
        code, _, _ = run(tmp_path, capsys, "verify", config)
        assert code == 0


class TestDesign:
    def test_fourier_design_report(self, tmp_path, capsys):
        config = base_config(design={"method": "fourier",
                                     "targets": [{"value": 5.0, "unit": "two_pi_mhz"}]})
        code, out, captured = run(tmp_path, capsys, "design", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["abs_I_target_0"]) < float(echoed["abs_I_bound"])
        assert echoed["endpoint_compliant"] == "True"
        header = out.read_text().splitlines()[2]
        assert header == "t,qc0,qc0_dot,qc0_ddot,Q0"

    def test_aux_design(self, tmp_path, capsys):
        config = base_config(design={"method": "aux",
                                     "targets": [{"value": 5.0, "unit": "two_pi_mhz"}]})
        code, _, captured = run(tmp_path, capsys, "design", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["abs_I_target_0"]) < float(echoed["abs_I_bound"])

    def test_aux_window_design(self, tmp_path, capsys):
        config = base_config(design={"method": "aux",
                                     "targets": [{"value": 4.9, "unit": "two_pi_mhz"},
                                                 {"value": 5.1, "unit": "two_pi_mhz"}]})
        code, _, captured = run(tmp_path, capsys, "design", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        bound = float(echoed["abs_I_bound"])
        assert float(echoed["abs_I_target_0"]) < bound
        assert float(echoed["abs_I_target_1"]) < bound

    def test_zero_fourier_target_is_config_error(self, tmp_path, capsys, recwarn):
        config = base_config(design={"method": "fourier",
                                     "targets": [{"value": 5.0, "unit": "two_pi_mhz"},
                                                 {"value": 0.0, "unit": "two_pi_mhz"}]})
        code, out, captured = run(tmp_path, capsys, "design", config)
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "design.targets[1]" in json.loads(lines[0])["error"]["message"]
        assert not recwarn.list and not out.exists()

    @pytest.mark.parametrize("method, targets", [("aux", [5.0, 0.0]),
                                                 ("fourier", [-5.0])])
    def test_zero_aux_and_negative_targets_still_design(self, tmp_path, capsys,
                                                         method, targets):
        config = base_config(design={"method": method, "targets": [
            {"value": v, "unit": "two_pi_mhz"} for v in targets]})
        code, _, captured = run(tmp_path, capsys, "design", config)
        assert code == 0 and captured.err == ""

    def test_underdetermined_request(self, tmp_path, capsys):
        config = base_config(design={"method": "fourier",
                                     "targets": [{"value": 5.0, "unit": "two_pi_mhz"}],
                                     "omega_derivatives": 2, "n_terms": 6})
        code, _, captured = run(tmp_path, capsys, "design", config)
        assert code == 2
        assert "underdetermined request" in captured.err


class TestGa:
    def ga_config(self, generations=60):
        return base_config(
            physical={
                "mass": {"value": 1.455e-25, "unit": "kg"},
                "trap_frequency": {"value": 4.0, "unit": "two_pi_mhz"},
                "distance": {"value": 50.0, "unit": "um"},
                "duration": {"value": 0.5, "unit": "us"},
            },
            design={"method": "fourier",
                    "targets": [{"value": 5.0, "unit": "two_pi_mhz"}],
                    "n_terms": 10},
            ga={"population": 64, "generations": generations, "seed": 7})

    def test_finds_corridor_zero(self, tmp_path, capsys):
        code, _, captured = run(tmp_path, capsys, "ga", self.ga_config())
        assert code == 0
        echoed = parse_echo(captured.out)
        assert echoed["converged"] == "True"
        assert float(echoed["best_cost"]) == 0.0

    def test_deterministic_output(self, tmp_path, capsys):
        _, out1, _ = run(tmp_path, capsys, "ga", self.ga_config(), name="a.csv")
        _, out2, _ = run(tmp_path, capsys, "ga", self.ga_config(), name="b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_square_system_is_rejected(self, tmp_path, capsys):
        config = self.ga_config()
        config["design"]["n_terms"] = 4
        code, _, captured = run(tmp_path, capsys, "ga", config)
        assert code == 2
        assert "nothing to optimize" in captured.err

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        code, _, captured = run(tmp_path, capsys, "ga", self.ga_config(),
                                extra_args=("--seed", "123"))
        assert code == 0
        assert parse_echo(captured.out)["seed"] == "123"


class TestOct:
    def test_single_solve(self, tmp_path, capsys):
        config = base_config(oct={"omega": {"value": 5.0, "unit": "two_pi_mhz"},
                                  "n_steps": 4000})
        code, out, captured = run(tmp_path, capsys, "oct", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["endpoint_residual"]) < 1e-8
        assert float(echoed["e_bar_joules"]) > 0
        header = out.read_text().splitlines()[2]
        assert header == "t,u,Q0,x1,x2,x3,x4"

    def test_duration_sweep_slope(self, tmp_path, capsys):
        config = base_config(oct={"omega": {"value": 5.0, "unit": "two_pi_mhz"},
                                  "n_steps": 4000,
                                  "sweep": {"variable": "duration", "points": 6,
                                            "min": {"value": 5.0, "unit": "us"},
                                            "max": {"value": 20.0, "unit": "us"}}})
        code, _, captured = run(tmp_path, capsys, "oct", config)
        assert code == 0
        echoed = parse_echo(captured.out)
        assert float(echoed["fitted_slope"]) == pytest.approx(-4.0, abs=0.1)


SCAN_POINT = {"variable": "omega", "points": 1,
              "min": {"value": 5.0, "unit": "two_pi_mhz"},
              "max": {"value": 5.0, "unit": "two_pi_mhz"}}
OCT_SWEEP = {"variable": "duration", "points": 6,
             "min": {"value": 5.0, "unit": "us"},
             "max": {"value": 20.0, "unit": "us"}}


def malformed(command, section, key, value):
    """A valid config for `command` with `key` of `section` (None: top level) set to `value`."""
    if command == "ga":
        config = TestGa().ga_config()
    elif command == "oct":
        config = base_config(oct={"omega": {"value": 5.0, "unit": "two_pi_mhz"},
                                  "sweep": dict(OCT_SWEEP)})
    else:
        config = base_config(scan=dict(SCAN_POINT))
    node = config
    for part in section.split(".") if section else ():
        node = node[part]
    node[key] = value
    return config


class TestErrors:
    @pytest.mark.parametrize("command, section, key, value", [
        ("scan", None, "level", "x"),
        ("scan", None, "level", -1),
        ("verify", None, "steps_per_cycle", "x"),
        ("oct", "oct", "n_steps", 100),
        ("oct", "oct.sweep", "points", 0),
        ("oct", "oct.sweep", "points", 1),
        ("oct", "oct.sweep", "points", 2.5),
        ("ga", "ga", "population", 5),
        ("ga", "ga", "population", "x"),
        ("ga", "ga", "generations", 0),
        ("ga", "ga", "stagnation_limit", 0),
        ("ga", "ga", "corridor_samples", 10),
        ("ga", "ga", "seed", -1),
        ("ga", None, "ga", 5),
        ("ga", "design", "n_terms", 0),
        ("scan", None, "physical", []),
        ("scan", None, "perturbation", []),
        ("scan", None, "scan", []),
        ("ga", None, "design", []),
        ("oct", None, "oct", []),
        ("oct", "oct", "sweep", []),
        ("scan", None, "perturbation", {"kind": "frequency_sum", "amplitude": 0.01,
                                        "components": [1]}),
        ("oct", "oct.omega", "value", 0),
        ("oct", "oct.sweep.min", "value", 0),
        ("scan", None, "scan", {"variable": "duration", "points": 3,
                                "min": {"value": 0.0, "unit": "us"},
                                "max": {"value": 2.0, "unit": "us"}}),
        ("oct", "oct.sweep", "spacing", "lgo"),
        ("scan", "perturbation", "amplitude", "0.01"),
        ("scan", "physical.distance", "value", "50"),
        pytest.param("scan", "physical.distance", "value", 10**400,
                     id="scan-physical.distance-value-10**400"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command,
                                             section, key, value):
        config = malformed(command, section, key, value)
        code, out, captured = run(tmp_path, capsys, command, config)
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "config"
        assert not out.exists()

    def test_non_object_config(self, tmp_path, capsys):
        code, out, captured = run(tmp_path, capsys, "scan", [])
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "config"
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code = main(["scan", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err.strip())["error"]["kind"] == "config"

    def test_negative_duration(self, tmp_path, capsys):
        config = base_config(scan={"variable": "omega", "points": 1,
                                   "min": {"value": 5.0, "unit": "two_pi_mhz"},
                                   "max": {"value": 5.0, "unit": "two_pi_mhz"}})
        config["physical"]["duration"]["value"] = -1.0
        code, _, captured = run(tmp_path, capsys, "scan", config)
        assert code == 2
        assert "duration" in captured.err


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_config"


def shrunk_configs():
    """(subcommand, config) for each shipped config, cut down to sub-second runs."""
    def load(name):
        return json.loads((EXAMPLES / name).read_text())
    scan = load("scan_omega.json")
    scan["scan"]["points"] = 3
    scan["steps_per_cycle"] = 100
    design = load("design_fourier.json")
    design["design"]["points"] = 2
    ga = load("ga_corridor.json")
    ga["ga"].update(population=10, generations=3, corridor_samples=1000)
    oct_ = load("oct_sweep_duration.json")
    oct_["oct"]["n_steps"] = 2000
    oct_["oct"]["sweep"].update(points=3, min={"value": 0.5, "unit": "us"},
                                max={"value": 1.0, "unit": "us"})
    return [("scan", scan), ("verify", scan), ("design", design), ("ga", ga),
            ("oct", oct_)]


def paths(node, prefix=()):
    """The path of `node` and of everything inside it, as key/index tuples."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from paths(child, prefix + (key,))


DELETE = "<delete>"
SITES = [(command, config, path) for command, config in shrunk_configs()
         for path in paths(config)]
MUTATIONS = [DELETE, None, [], {}, "x", True, -1, 0, 2.5,
             {"value": 1.0, "unit": "furlong"}]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(site=st.sampled_from(SITES), value=st.sampled_from(MUTATIONS))
def test_config_mutation_exits_cleanly(tmp_path_factory, site, value):
    # one field deleted or replaced: a result or a config/numerical/design
    # error, never a traceback
    command, config, path = site
    config = copy.deepcopy(config)
    if not path:
        config = value if value != DELETE else {}
    else:
        node = config
        for key in path[:-1]:
            node = node[key]
        if value == DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "mutated.json").write_text(json.dumps(config))
    out = tmp / "mutated.csv"
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(tmp / "mutated.json"), "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code != 0:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == code
        assert not out.exists()
