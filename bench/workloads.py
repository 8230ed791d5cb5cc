"""Benchmark workloads: seeded CLI configs, work-item counts and output checks.

Each workload is one `stashuttle` subcommand on a config generated from the
benchmark seed.  The seed jitters the scan or sweep bounds by at most
JITTER (relative) and, for `ga-search`, sets the GA seed, so every seed does
the same amount of work on slightly different inputs.

Checks use tolerances rather than byte hashes: a later change that moves
low-order digits on purpose (a more accurate integrator, a batched scan)
still passes, while a wrong row count, a non-finite value, a broken identity
or a corrupted CSV fails.
"""

from __future__ import annotations

import csv
import math
import random

JITTER = 0.005
TWO_PI_MHZ = 2.0 * math.pi * 1e6

# Sr-88 reference point of examples_config/*.json: 4 MHz trap, 50 um in 2 us
PHYSICAL = {
    "mass": {"value": 1.455e-25, "unit": "kg"},
    "trap_frequency": {"value": 4.0, "unit": "two_pi_mhz"},
    "distance": {"value": 50.0, "unit": "um"},
    "duration": {"value": 2.0, "unit": "us"},
}
OMEGA0 = 4.0 * TWO_PI_MHZ
DISTANCE = 50e-6

SCAN_POINTS = 2000
VERIFY_POINTS = 80
OCT_POINTS = 3
GA_POPULATION = 64
GA_GENERATIONS = 100
GA_DURATION_US = 0.25

# bounds of the checks, from the values seen at seed (see each check)
FORM_RTOL = 1e-6            # sampled scan rows against the independent forms
VERIFY_PEAK_ERROR = 0.02    # max |exact - perturbative| / scan peak; 0.0053 at seed
SLOPE_TOL = 0.05            # |fitted_slope + 4|; -4.016 at seed
GA_BEST_COST = 1.0628e-13   # m*s, reached by every seed tried
GA_COST_RTOL = 0.01
POLE_BAND = 2e-6            # relative band where the CLI writes NaN envelopes


# workload name -> CLI subcommand; BENCHMARK.json records why each was chosen
WORKLOADS = {"scan-omega": "scan", "verify-omega": "verify",
             "oct-sweep": "oct", "ga-search": "ga"}


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-JITTER, JITTER)), 9)


def _omega_scan(rng: random.Random, points: int) -> dict:
    return {"variable": "omega",
            "min": {"value": _jitter(rng, 0.8), "unit": "two_pi_mhz"},
            "max": {"value": _jitter(rng, 15.2), "unit": "two_pi_mhz"},
            "points": points, "spacing": "linear"}


def make_config(workload: str, seed: int) -> dict:
    """CLI config for `workload`; the same seed always gives the same config."""
    rng = random.Random(f"{workload}:{seed}")
    config = {"physical": dict(PHYSICAL),
              "perturbation": {"kind": "frequency_sine", "amplitude": 0.01,
                               "frequency": {"value": 6.0, "unit": "two_pi_mhz"}}}
    if workload == "scan-omega":
        config["level"] = 0
        config["scan"] = _omega_scan(rng, SCAN_POINTS)
    elif workload == "verify-omega":
        config["level"] = 0
        config["scan"] = _omega_scan(rng, VERIFY_POINTS)
    elif workload == "oct-sweep":
        config["perturbation"]["frequency"]["value"] = 5.0
        config["oct"] = {
            "omega": {"value": 5.0, "unit": "two_pi_mhz"},
            "n_steps": 8000,
            "sweep": {"variable": "duration",
                      "min": {"value": _jitter(rng, 5.0), "unit": "us"},
                      "max": {"value": _jitter(rng, 10.0), "unit": "us"},
                      "points": OCT_POINTS, "spacing": "log"}}
    elif workload == "ga-search":
        # The shipped ga_corridor.json converges at generation 1 after 64 cost
        # evaluations, so it would time start-up only.  At T = 0.25 us with a
        # first-derivative constraint the best design found still leaves the
        # corridor (best cost 1.0628e-13 m*s on every seed tried), so the
        # search runs all generations: always 6400 cost evaluations.
        config["physical"]["duration"] = {"value": GA_DURATION_US, "unit": "us"}
        config["perturbation"]["frequency"]["value"] = 5.0
        config["design"] = {"method": "fourier",
                            "targets": [{"value": 5.0, "unit": "two_pi_mhz"}],
                            "omega_derivatives": 1, "n_terms": 8}
        config["ga"] = {"population": GA_POPULATION, "generations": GA_GENERATIONS,
                        "seed": seed, "stagnation_limit": 1000, "corridor_samples": 2001}
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return config


def items_of(workload: str, config: dict) -> int:
    """Work items of one run: scan points, extremal solves or cost evaluations."""
    if workload in ("scan-omega", "verify-omega"):
        return config["scan"]["points"]
    if workload == "oct-sweep":
        return config["oct"]["sweep"]["points"]
    return config["ga"]["population"] * config["ga"]["generations"]


# -- output checks ------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CLI CSV, skipping '#' metadata lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def parse_echo(stdout: str) -> dict[str, str]:
    """The CLI's `key=value` stdout lines."""
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _scan_axis(config: dict) -> list[float]:
    scan = config["scan"]
    lo = scan["min"]["value"] * TWO_PI_MHZ
    hi = scan["max"]["value"] * TWO_PI_MHZ
    n = scan["points"]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _check_rows(rows, header, n_rows, n_cols) -> list[str]:
    if len(header) != n_cols:
        return [f"expected {n_cols} columns, got {len(header)}"]
    if len(rows) != n_rows:
        return [f"expected {n_rows} rows, got {len(rows)}"]
    if any(len(row) != n_cols for row in rows):
        return ["ragged rows"]
    return []


def _near_pole(omega: float) -> bool:
    return min(abs(omega - OMEGA0), abs(omega - 2.0 * OMEGA0)) < POLE_BAND * OMEGA0


def check_scan(config: dict, csv_path: str, stdout: str) -> list[str]:
    """Row count, finiteness, total = static + dynamical, and sampled rows
    against the independent Fourier and closed forms."""
    header, rows = read_csv(csv_path)
    errors = _check_rows(rows, header, config["scan"]["points"], 6)
    if errors:
        return errors
    axis = _scan_axis(config)
    for k, (value, static, dynamical, total, env_s, env_d) in enumerate(rows):
        envelopes_ok = _near_pole(value) or all(map(math.isfinite, (env_s, env_d)))
        if not (all(map(math.isfinite, (value, static, dynamical, total))) and envelopes_ok):
            return [f"row {k}: non-finite value"]
        if abs(value - axis[k]) > 1e-9 * abs(axis[k]):
            return [f"row {k}: scan value {value} is not the axis point {axis[k]}"]
        if abs(total - (static + dynamical)) > 1e-9 * (abs(static) + abs(dynamical)) + 1e-300:
            return [f"row {k}: total {total} != static + dynamical"]
    if parse_echo(stdout).get("rows") != str(len(rows)):
        errors.append("stdout rows= disagrees with the CSV")
    return errors + _check_scan_forms(config, rows)


def _check_scan_forms(config: dict, rows) -> list[str]:
    from stashuttle import (Perturbation, PhysicalParams, Polynomial5,
                            fourier_dynamical, static_closed_form)
    params = PhysicalParams(mass=PHYSICAL["mass"]["value"], omega0=OMEGA0,
                            distance=DISTANCE,
                            duration=PHYSICAL["duration"]["value"] * 1e-6)
    proto = Polynomial5(params)
    peak_s = max(abs(r[1]) for r in rows)
    peak_d = max(abs(r[2]) for r in rows)
    rng = random.Random(len(rows))
    errors = []
    for k in sorted(rng.sample(range(len(rows)), 12)):
        omega, static, dynamical = rows[k][:3]
        if _near_pole(omega):
            continue
        pert = Perturbation.frequency_sine(omega, config["perturbation"]["amplitude"])
        want_s = static_closed_form(params, omega, config.get("level", 0))
        want_d = fourier_dynamical(params, proto, pert)
        if abs(static - want_s) > FORM_RTOL * max(abs(want_s), 1e-9 * peak_s):
            errors.append(f"row {k}: static {static} vs closed form {want_s}")
        if abs(dynamical - want_d) > FORM_RTOL * max(abs(want_d), 1e-9 * peak_d):
            errors.append(f"row {k}: dynamical {dynamical} vs Fourier form {want_d}")
    return errors


def check_verify(config: dict, csv_path: str, stdout: str) -> list[str]:
    """Row count, finiteness and the peak-normalized exact/perturbative gap.

    The CLI's own max_relative_error (0.55 at seed) is dominated by rows near
    the exact-vanishing points, so the check normalizes by the scan peak.
    """
    header, rows = read_csv(csv_path)
    errors = _check_rows(rows, header, config["scan"]["points"], 4)
    if errors:
        return errors
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["non-finite value"]
    peak = max(abs(row[2]) for row in rows)
    gap = max(abs(row[1] - row[2]) for row in rows) / peak
    if not gap <= VERIFY_PEAK_ERROR:
        errors.append(f"max |exact - perturbative| / peak = {gap:.4g} > {VERIFY_PEAK_ERROR}")
    if "max_relative_error" not in parse_echo(stdout):
        errors.append("stdout lacks max_relative_error")
    return errors


def check_oct(config: dict, csv_path: str, stdout: str) -> list[str]:
    """Positive e_bar, the CSV's own log-log slope, and the d^2/T^4 scaling."""
    header, rows = read_csv(csv_path)
    errors = _check_rows(rows, header, config["oct"]["sweep"]["points"], 2)
    if errors:
        return errors
    if not all(math.isfinite(v) and v > 0.0 for row in rows for v in row):
        return ["e_bar and sweep values must be finite and positive"]
    xs = [math.log(r[0]) for r in rows]
    ys = [math.log(r[1]) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    try:
        echoed = float(parse_echo(stdout)["fitted_slope"])
    except (KeyError, ValueError):
        return ["stdout lacks fitted_slope"]
    if abs(echoed - slope) > 1e-6:
        errors.append(f"fitted_slope {echoed} disagrees with the CSV's slope {slope}")
    if abs(echoed + 4.0) > SLOPE_TOL:
        errors.append(f"fitted_slope {echoed} is not near -4")
    return errors


def check_ga(config: dict, csv_path: str, stdout: str) -> list[str]:
    """Generations used, best cost, and the trajectory's endpoint conditions."""
    header, rows = read_csv(csv_path)
    errors = _check_rows(rows, header, 1001, 5)
    if errors:
        return errors
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["non-finite value"]
    echo = parse_echo(stdout)
    try:
        generations = int(echo["generations_used"])
        best = float(echo["best_cost"])
    except (KeyError, ValueError):
        return ["stdout lacks generations_used or best_cost"]
    if generations != config["ga"]["generations"]:
        errors.append(f"generations_used {generations} != {config['ga']['generations']}")
    if abs(best - GA_BEST_COST) > GA_COST_RTOL * GA_BEST_COST:
        errors.append(f"best_cost {best:.6g} is not near {GA_BEST_COST:g}")
    T = GA_DURATION_US * 1e-6
    t0, q0 = rows[0][0], rows[0][1]
    tn, qn = rows[-1][0], rows[-1][1]
    if t0 != 0.0 or abs(tn - T) > 1e-12 * T:
        errors.append(f"time column spans [{t0}, {tn}], not [0, T]")
    if abs(q0) > 1e-9 * DISTANCE:
        errors.append(f"qc0(0) = {q0} != 0")
    if abs(qn - DISTANCE) > 1e-9 * DISTANCE:
        errors.append(f"qc0(T) = {qn} != d")
    return errors


CHECKS = {"scan-omega": check_scan, "verify-omega": check_verify,
          "oct-sweep": check_oct, "ga-search": check_ga}


def check_output(workload: str, config: dict, csv_path: str, stdout: str) -> list[str]:
    """Problems found in one run's CSV and stdout; empty when the run is correct."""
    try:
        return CHECKS[workload](config, csv_path, stdout)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
