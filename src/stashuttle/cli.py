"""Command-line interface: scans, designs, verification and optimization runs.

Configuration is a single JSON document in which every dimensioned quantity is
an object {"value": x, "unit": "..."}; frequencies must carry "two_pi_mhz" or
"rad_per_s" so the bare-MHz ambiguity of the literature cannot enter.  All
CSV output is byte-stable for a given config and seed: '#' metadata lines
(tool version, config hash), a header row, then rows of 12-significant-digit
scientific floats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (CORRIDOR_MIN_SAMPLES, PoleError, corridor_check,
                       envelope_dynamical, envelope_static)
from .design import (DesignConstraints, DesignError, design_aux, design_fourier,
                     target_integral)
from .dynamics import (IntegrationError, excess_energy_exact,
                       trap_from_classical)
from .model import AMPLITUDE_WARN, Perturbation, PhysicalParams, Polynomial5, validate
from .optimize import (OCT_MIN_STEPS, GaConfig, SingularSystemError,
                       corridor_cost, ga_minimize, oct_solve)
from .perturbation import lane_blocks, second_order_energy_freq, sine_lanes
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DESIGN = 4

# relative floor (vs the scan peak) for the verify error column: scan ranges
# cross exact-vanishing points where a pointwise relative error is 0/0
VERIFY_FLOOR = 1e-6


class ConfigError(ValueError):
    pass


# -- config parsing ----------------------------------------------------------

_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number"}


def _field(node, key: str, what: str, kind: type, default=_REQUIRED):
    """Field `key` of the object `node`, of JSON type `kind` (float: any number).

    `what` is the field's dotted name for messages.  A missing key gives
    `default`, or an error when there is none; bool is never a number and
    numbers must be finite.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"the section holding {what} must be an object")
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"missing {what}")
        return default
    value = node[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{what} must be {_JSON_TYPES[kind]}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"{what} must be finite")
    return value


def _choice(node, key: str, what: str, choices, default=_REQUIRED) -> str:
    value = _field(node, key, what, str, default)
    if value not in choices:
        raise ConfigError(f"{what} must be one of {', '.join(map(repr, choices))}")
    return value


def _integer(node, key: str, what: str, default=_REQUIRED,
             minimum: int | None = None) -> int:
    value = _field(node, key, what, int, default)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}")
    return value


def _quantity(node, unit_table: dict[str, float], what: str,
              positive: bool = False) -> float:
    if not isinstance(node, dict) or "value" not in node or "unit" not in node:
        raise ConfigError(f"{what} must be an object {{'value': x, 'unit': one of "
                          f"{sorted(unit_table)}}}")
    unit = _field(node, "unit", f"{what}.unit", str)
    if unit not in unit_table:
        raise ConfigError(f"{what}: unknown unit '{unit}' (allowed: {sorted(unit_table)})")
    value = _field(node, "value", f"{what}.value", float) * unit_table[unit]
    if not math.isfinite(value) or (positive and value <= 0):
        raise ConfigError(f"{what} must be finite" + (" and positive" if positive else ""))
    return value


_FREQ_UNITS = {"two_pi_mhz": 2.0 * math.pi * 1e6, "rad_per_s": 1.0}
_TIME_UNITS = {"s": 1.0, "us": 1e-6}
_LENGTH_UNITS = {"m": 1.0, "um": 1e-6}
_MASS_UNITS = {"kg": 1.0}
_SCAN_VARIABLES = {"omega": _FREQ_UNITS, "duration": _TIME_UNITS}
_SWEEP_VARIABLES = {"duration": _TIME_UNITS, "omega0": _FREQ_UNITS, "omega": _FREQ_UNITS,
                    "distance": _LENGTH_UNITS}


def _checked(params: PhysicalParams) -> PhysicalParams:
    report = validate(params)
    if not report.ok:
        raise ConfigError("; ".join(report.issues))
    return params


def parse_params(config: dict) -> PhysicalParams:
    phys = _field(config, "physical", "physical", dict)
    return _checked(PhysicalParams(
        mass=_quantity(phys.get("mass"), _MASS_UNITS, "physical.mass"),
        omega0=_quantity(phys.get("trap_frequency"), _FREQ_UNITS, "physical.trap_frequency"),
        distance=_quantity(phys.get("distance"), _LENGTH_UNITS, "physical.distance"),
        duration=_quantity(phys.get("duration"), _TIME_UNITS, "physical.duration"),
    ))


def parse_perturbation(config: dict) -> Perturbation:
    """The frequency_sine perturbation that scan and verify run."""
    node = _field(config, "perturbation", "perturbation", dict)
    _choice(node, "kind", "perturbation.kind", ("frequency_sine",))
    amplitude = float(_field(node, "amplitude", "perturbation.amplitude", float))
    omega = _quantity(node.get("frequency"), _FREQ_UNITS, "perturbation.frequency")
    try:
        return Perturbation.frequency_sine(omega, amplitude)
    except ValueError as exc:
        raise ConfigError(f"perturbation: {exc}") from None


def _scan_axis(node, what: str, variables: dict[str, dict[str, float]],
               default_spacing: str, min_points: int,
               default_points=_REQUIRED) -> tuple[str, np.ndarray]:
    """Scanned variable name and its grid, read from the axis object `node`.

    `variables` maps each variable the caller can scan to its unit table.
    """
    variable = _choice(node, "variable", f"{what}.variable", variables)
    points = _integer(node, "points", f"{what}.points", default_points, minimum=min_points)
    units = variables[variable]
    lo = _quantity(node.get("min"), units, f"{what}.min")
    hi = _quantity(node.get("max"), units, f"{what}.max") if points > 1 else lo
    spacing = _choice(node, "spacing", f"{what}.spacing", ("linear", "log"), default_spacing)
    if spacing == "linear":
        return variable, np.linspace(lo, hi, points)
    if lo <= 0 or hi <= 0:
        raise ConfigError(f"{what}: log spacing needs positive bounds")
    return variable, np.geomspace(lo, hi, points)


def _at(params: PhysicalParams, omega: float, variable: str, value: float):
    """(params, perturbation frequency) with the scanned `variable` moved to `value`."""
    if variable == "omega":
        return params, float(value)
    return _checked(replace(params, **{variable: float(value)})), omega


# -- output helpers ----------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.11e}"


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_csv(path: str, config: dict, header: list[str], rows) -> None:
    lines = [f"# stashuttle {__version__}",
             f"# config_sha256={config_hash(config)}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def echo(key: str, value) -> None:
    print(f"{key}={_fmt(value) if isinstance(value, float) else value}")


def echo_frequency(key: str, rad_per_s: float) -> None:
    echo(f"{key}_rad_per_s", float(rad_per_s))
    echo(f"{key}_two_pi_mhz", float(rad_per_s / (2.0 * math.pi * 1e6)))


# -- subcommands -------------------------------------------------------------

def _scan_inputs(config: dict):
    """Params, perturbation, level, variable and grid of a scan or verify run."""
    params = parse_params(config)
    pert = parse_perturbation(config)
    level = _integer(config, "level", "level", 0, minimum=0)
    return (params, pert, level) + _scan_axis(_field(config, "scan", "scan", dict), "scan",
                                              _SCAN_VARIABLES, "linear", 1)


def _second_order(params: PhysicalParams, omega: float, variable: str, values,
                  level: int) -> tuple[np.ndarray, np.ndarray]:
    """Static and dynamical quanta per amplitude^2 at every point of a scan axis.

    Points that share their PhysicalParams form one group: an omega axis is
    one group, evaluated in lane blocks that share one scratch, and a
    duration axis one group per point, evaluated as one lane.
    """
    if variable == "omega":
        groups = [(params, values)]
    else:
        groups = [(_at(params, omega, variable, v)[0], np.array([omega])) for v in values]
    static, dynamical = [], []
    for p, omegas in groups:
        proto, lanes = Polynomial5(p), sine_lanes(omegas)
        for block in lane_blocks(p, omegas):
            report = second_order_energy_freq(p, proto, lanes[block], level)
            static.append(report.static_quanta)
            dynamical.append(report.dynamical_quanta)
    return np.concatenate(static), np.concatenate(dynamical)


def cmd_scan(config: dict, out: str, seed: int | None) -> int:
    # the amplitude warning of Perturbation goes to stdout, so that stderr
    # holds nothing but an error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params, pert, level, variable, values = _scan_inputs(config)
    for warning in caught:
        echo("warning", str(warning.message))
    omega_pert = pert.components[0][0]
    echo_frequency("omega0", params.omega0)
    echo_frequency("omega", omega_pert)
    static, dynamical = _second_order(params, omega_pert, variable, values, level)

    def row(value: float, stat: float, dyn: float):
        p, omega = _at(params, omega_pert, variable, value)
        try:
            env_s = envelope_static(p, omega, p.duration, level)
        except PoleError:
            env_s = math.nan
        try:
            env_d = envelope_dynamical(p, omega, p.duration)
        except PoleError:
            env_d = math.nan
        return (value, stat, dyn, stat + dyn, env_s, env_d)

    rows = [row(*point) for point in zip(values.tolist(), static.tolist(),
                                          dynamical.tolist())]
    write_csv(out, config, ["scan_value", "static_quanta", "dynamical_quanta",
                            "total_quanta", "envelope_static_quanta",
                            "envelope_dynamical_quanta"], rows)
    echo("rows", len(rows))
    return EXIT_OK


def cmd_verify(config: dict, out: str, seed: int | None) -> int:
    # an amplitude that Perturbation warns about is the config error below
    with warnings.catch_warnings(record=True):
        params, pert, level, variable, values = _scan_inputs(config)
    if pert.amplitude > AMPLITUDE_WARN:
        raise ConfigError(f"verify needs amplitude <= {AMPLITUDE_WARN} "
                          "for a meaningful comparison")
    omega_pert = pert.components[0][0]
    steps_per_cycle = _integer(config, "steps_per_cycle", "steps_per_cycle", 400,
                               minimum=1)
    echo_frequency("omega0", params.omega0)
    static, dynamical = _second_order(params, omega_pert, variable, values, level)
    perturbative = pert.amplitude**2 * (static + dynamical)

    def point(value: float, pert_quanta: float):
        p, omega = _at(params, omega_pert, variable, value)
        local = Perturbation.frequency_sine(omega, pert.amplitude)
        cycles = p.duration * max(2.0 * p.omega0, omega) / (2.0 * math.pi)
        n_steps = max(4000, int(steps_per_cycle * cycles))
        exact = excess_energy_exact(p, Polynomial5(p), local, level, n_steps).value
        return value, exact, pert_quanta

    triples = [point(*pair) for pair in zip(values.tolist(), perturbative.tolist())]
    peak = max((abs(t[2]) for t in triples), default=0.0)
    floor = VERIFY_FLOOR * peak
    rows = []
    max_err = 0.0
    for value, exact, pert_quanta in triples:
        denom = max(abs(pert_quanta), floor, 1e-300)
        err = abs(exact - pert_quanta) / denom if pert.amplitude > 0 else 0.0
        max_err = max(max_err, err)
        rows.append((value, exact, pert_quanta, err))
    write_csv(out, config, ["scan_value", "exact_quanta", "perturbative_quanta",
                            "relative_error"], rows)
    echo("max_relative_error", max_err)
    return EXIT_OK


def _design_protocol(config: dict, params: PhysicalParams):
    node = _field(config, "design", "design", dict)
    method = _choice(node, "method", "design.method", ("fourier", "aux"))
    targets = tuple(_quantity(t, _FREQ_UNITS, f"design.targets[{k}]")
                    for k, t in enumerate(_field(node, "targets", "design.targets", list)))
    if not targets:
        raise ConfigError("design.targets must list at least one frequency")
    if method == "aux":
        return design_aux(params, targets), None, targets
    if 0.0 in targets:
        # the imaginary part of I(omega) vanishes for every path at omega = 0,
        # which leaves an all-zero row in the constraint system
        raise ConfigError(f"design.targets[{targets.index(0.0)}] must be nonzero "
                          "for method 'fourier'")
    constraints = DesignConstraints(
        targets=targets,
        omega_derivatives=_integer(node, "omega_derivatives", "design.omega_derivatives",
                                   0, minimum=0),
        omega0_derivatives=_integer(node, "omega0_derivatives", "design.omega0_derivatives",
                                    0, minimum=0),
        n_terms=(None if node.get("n_terms") is None
                 else _integer(node, "n_terms", "design.n_terms", minimum=1)))
    try:
        proto, system = design_fourier(params, constraints)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return proto, system, targets


def _write_protocol_csv(out: str, config: dict, params: PhysicalParams, proto,
                        n_points: int = 1001) -> None:
    t = np.linspace(0.0, params.duration, n_points)
    trap = trap_from_classical(proto, params)
    rows = zip(t.tolist(),
               np.asarray(proto.position(t), dtype=float).tolist(),
               np.asarray(proto.velocity(t), dtype=float).tolist(),
               np.asarray(proto.acceleration(t), dtype=float).tolist(),
               np.asarray(trap(t), dtype=float).tolist())
    write_csv(out, config, ["t", "qc0", "qc0_dot", "qc0_ddot", "Q0"], rows)


def cmd_design(config: dict, out: str, seed: int | None) -> int:
    params = parse_params(config)
    proto, system, targets = _design_protocol(config, params)
    _write_protocol_csv(out, config, params, proto,
                        _integer(config["design"], "points", "design.points", 1001,
                                 minimum=2))
    for k, omega in enumerate(targets):
        echo(f"abs_I_target_{k}", abs(target_integral(params, proto, omega)))
    echo("abs_I_bound", 1e-9 * params.distance / params.duration)
    if system is not None:
        echo("condition_number", system.condition_number)
        echo("nullspace_dim", system.nullspace_dim)
    above, below = corridor_check(trap_from_classical(proto, params), params)
    echo("corridor_above_m", above)
    echo("corridor_below_m", below)
    echo("endpoint_compliant", proto.boundary_report().ok)
    return EXIT_OK


def cmd_ga(config: dict, out: str, seed: int | None) -> int:
    params = parse_params(config)
    _choice(_field(config, "design", "design", dict), "method", "design.method",
            ("fourier",))
    _, system, targets = _design_protocol(config, params)
    ga_node = _field(config, "ga", "ga", dict, {})
    fields = dict(
        seed=seed if seed is not None else _integer(ga_node, "seed", "ga.seed", 0),
        population=_integer(ga_node, "population", "ga.population", 64),
        generations=_integer(ga_node, "generations", "ga.generations", 500),
        stagnation_limit=_integer(ga_node, "stagnation_limit", "ga.stagnation_limit", 60))
    try:
        cfg = GaConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"ga: {exc}") from None
    samples = _integer(ga_node, "corridor_samples", "ga.corridor_samples", 2001,
                       minimum=CORRIDOR_MIN_SAMPLES)
    if system.nullspace_dim < 1:
        raise ConfigError("nothing to optimize: add sine terms beyond the constraint count")
    result = ga_minimize(params, system,
                         lambda trap: corridor_cost(trap, params, samples), cfg)
    _write_protocol_csv(out, config, params, result.protocol)
    echo("best_cost", result.best_cost)
    echo("generations_used", result.generations_used)
    echo("seed", cfg.seed)
    echo("converged", result.converged)
    return EXIT_OK


def cmd_oct(config: dict, out: str, seed: int | None) -> int:
    params = parse_params(config)
    node = _field(config, "oct", "oct", dict)
    omega = _quantity(node.get("omega"), _FREQ_UNITS, "oct.omega", positive=True)
    n_steps = _integer(node, "n_steps", "oct.n_steps", 8000, minimum=OCT_MIN_STEPS)
    sweep = node.get("sweep")
    if sweep is None:
        sol = oct_solve(params, omega, n_steps)
        rows = zip(sol.times.tolist(), sol.u.tolist(),
                   np.asarray(sol.trap_trajectory()(sol.times), dtype=float).tolist(),
                   sol.x[0].tolist(), sol.x[1].tolist(),
                   sol.x[2].tolist(), sol.x[3].tolist())
        write_csv(out, config, ["t", "u", "Q0", "x1", "x2", "x3", "x4"], rows)
        echo("e_bar_joules", sol.e_bar)
        echo("endpoint_residual", sol.endpoint_residual)
        echo("jump_start_m", sol.jump_start)
        echo("jump_end_m", sol.jump_end)
        return EXIT_OK

    # a slope fitted through fewer than 3 points has no residual to show it
    variable, values = _scan_axis(sweep, "oct.sweep", _SWEEP_VARIABLES, "log", 3, 10)
    if values.min() <= 0:
        raise ConfigError("oct.sweep needs positive bounds: the slope is fitted log-log")

    def point(value: float):
        p, om = _at(params, omega, variable, value)
        cycles = p.duration * max(p.omega0, om) / (2.0 * math.pi)
        steps = max(n_steps, int(300 * cycles))
        return float(value), oct_solve(p, om, steps).e_bar

    rows = [point(v) for v in values]
    write_csv(out, config, ["value", "e_bar_joules"], rows)
    logs = np.log(np.asarray(rows, dtype=float))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    echo("fitted_slope", slope)
    return EXIT_OK


# -- entry point -------------------------------------------------------------

_COMMANDS = {
    "scan": cmd_scan,
    "design": cmd_design,
    "verify": cmd_verify,
    "oct": cmd_oct,
    "ga": cmd_ga,
}


def _error_line(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "kind": kind, "message": message}}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stashuttle",
        description="Shuttling protocols robust against oscillatory trap perturbations")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _error_line(EXIT_CONFIG, "config", f"cannot read config: {exc}")
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](config, args.out, args.seed)
    except ConfigError as exc:
        _error_line(EXIT_CONFIG, "config", str(exc))
        return EXIT_CONFIG
    except (IntegrationError, QuadratureError, SingularSystemError) as exc:
        _error_line(EXIT_NUMERICAL, "numerical", str(exc))
        return EXIT_NUMERICAL
    except DesignError as exc:
        _error_line(EXIT_DESIGN, "design", str(exc))
        return EXIT_DESIGN


if __name__ == "__main__":
    sys.exit(main())
