"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Criterion 5's
constant 90*d/(pi^3*T*K^3) is three integrations by parts of the acceleration.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from stashuttle import (DesignConstraints, GaConfig, Perturbation,
                        PhysicalParams, Polynomial5, avg_dynamical_potential,
                        corridor_check, corridor_cost, crossing_time,
                        design_aux, design_fourier, envelope_dynamical,
                        envelope_static, eta_ratio, excess_energy_exact,
                        fourier_projection, ga_minimize, oct_solve,
                        second_order_energy_freq, static_closed_form,
                        target_integral, trap_from_classical)
from stashuttle.design import assemble_system
from stashuttle.perturbation import fourier_dynamical, fourier_static_freq

TWO_PI = 2 * np.pi

FIG1 = PhysicalParams(mass=1.455e-25, omega0=TWO_PI * 4e6,
                      distance=50e-6, duration=2e-6)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_resonance_locations():
    start = time.perf_counter()
    params = FIG1
    proto = Polynomial5(params)
    grid = np.linspace(0.2, 3.8, 2000) * params.omega0
    dyn = np.array([fourier_dynamical(params, proto,
                                      Perturbation.frequency_sine(w, 0.01))
                    for w in grid])
    stat = np.array([static_closed_form(params, w) for w in grid])

    def peak_of_local_maxima(values):
        inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        idx = np.where(inner)[0] + 1
        return grid[idx[np.argmax(values[idx])]]

    window = TWO_PI / params.duration
    dyn_peak = peak_of_local_maxima(dyn)
    stat_peak = peak_of_local_maxima(stat)
    elapsed = time.perf_counter() - start
    ok = (abs(dyn_peak - params.omega0) < window
          and abs(stat_peak - 2 * params.omega0) < window
          and elapsed < 10.0)
    report(1, "resonance locations", ok,
           f"dynamical peak at {dyn_peak / params.omega0:.4f} w0, "
           f"static at {stat_peak / (2 * params.omega0):.4f} * 2w0, "
           f"window {window / params.omega0:.4f} w0, runtime {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_static = 0.0
    worst_dynamical = 0.0
    checked = 0
    while checked < 100:
        T = rng.uniform(0.5e-6, 5e-6)
        k = int(rng.integers(1, 40))
        omega = k * np.pi / T  # endpoint-silent tones keep all three forms valid
        params = dataclasses.replace(FIG1, duration=T)
        if abs(omega - 2 * params.omega0) < 0.05 * params.omega0:
            continue
        pert = Perturbation.frequency_sine(omega, 0.01)
        proto = Polynomial5(params)
        rep = second_order_energy_freq(params, proto, pert)
        closed = static_closed_form(params, omega)
        fourier = fourier_static_freq(params, pert)
        floor = 1e-15
        for a, b in ((closed, fourier), (closed, rep.static_quanta),
                     (fourier, rep.static_quanta)):
            worst_static = max(worst_static, abs(a - b) / max(a, b, floor))
        fd = fourier_dynamical(params, proto, pert)
        worst_dynamical = max(worst_dynamical,
                              abs(fd - rep.dynamical_quanta)
                              / max(fd, rep.dynamical_quanta, floor))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_static < 1e-9 and worst_dynamical < 1e-9 and elapsed < 30.0
    report(2, "oracle equivalence", ok,
           f"worst pairwise static {worst_static:.2e}, "
           f"dynamical {worst_dynamical:.2e} over 100 points, runtime {elapsed:.1f}s")


def test_criterion_03_exact_vs_perturbative():
    start = time.perf_counter()
    omega = TWO_PI * 6e6
    durations = np.geomspace(0.1e-6, 20e-6, 60)
    results = {}
    for lam in (0.01, 1e-3):
        pert_values = []
        exact_values = []
        for T in durations:
            params = dataclasses.replace(FIG1, duration=float(T))
            pert = Perturbation.frequency_sine(omega, lam)
            proto = Polynomial5(params)
            second = second_order_energy_freq(params, proto, pert).total_quanta
            pert_values.append(lam**2 * second)
            cycles = T * max(2 * params.omega0, omega) / (2 * np.pi)
            n_steps = max(4000, int(400 * cycles))
            exact_values.append(excess_energy_exact(params, proto, pert,
                                                    n_steps=n_steps).value)
        pert_values = np.asarray(pert_values)
        exact_values = np.asarray(exact_values)
        # the scan crosses exact-vanishing points where a pointwise relative
        # error is 0/0; the denominator is floored at 1e-6 of the scan peak
        floor = 1e-6 * pert_values.max()
        errors = np.abs(exact_values - pert_values) / np.maximum(pert_values, floor)
        results[lam] = float(errors.max())
    elapsed = time.perf_counter() - start
    ok = results[0.01] < 0.05 and results[1e-3] < 0.005 and elapsed < 60.0
    report(3, "exact vs perturbative", ok,
           f"max relative error {results[0.01]:.3%} at amplitude 0.01 (< 5%), "
           f"{results[1e-3]:.3%} at 0.001 (< 0.5%), runtime {elapsed:.1f}s")


def test_criterion_04_static_vanishing_conditions():
    rng = np.random.default_rng(44)
    worst_vanishing = 0.0
    worst_maximum = 0.0
    for case in range(20):
        T = rng.uniform(0.5e-6, 4e-6)
        if case % 2 == 0:  # even/even vanishing
            i = int(rng.integers(1, 13))
            j = int(rng.integers(1, 17))
            if i == j:
                j += 1
            omega = 2 * i * np.pi / T
            omega0 = j * np.pi / T
        else:              # odd/odd vanishing
            i = int(rng.integers(0, 12))
            j = int(rng.integers(0, 16))
            omega = (2 * i + 1) * np.pi / T
            omega0 = (2 * j + 1) * np.pi / (2 * T)
            if abs(omega - 2 * omega0) < 1e-3 * omega0:
                omega = (2 * i + 3) * np.pi / T
        params = dataclasses.replace(FIG1, duration=T, omega0=omega0)
        worst_vanishing = max(worst_vanishing, static_closed_form(params, omega))
    for case in range(20):
        T = rng.uniform(0.5e-6, 4e-6)
        if case % 2 == 0:  # even k with odd 2*w0*T/pi: maximum
            i = int(rng.integers(1, 13))
            j = int(rng.integers(1, 16))
            omega = 2 * i * np.pi / T
            omega0 = (2 * j + 1) * np.pi / (2 * T)
        else:              # odd k with even 2*w0*T/pi: maximum
            i = int(rng.integers(0, 12))
            j = int(rng.integers(1, 16))
            omega = (2 * i + 1) * np.pi / T
            omega0 = j * np.pi / T
        params = dataclasses.replace(FIG1, duration=T, omega0=omega0)
        if abs(omega - 2 * omega0) < 0.05 * omega0:
            continue
        exact = static_closed_form(params, omega)
        bound = envelope_static(params, omega, T, oscillating=False)
        worst_maximum = max(worst_maximum, abs(exact - bound) / bound)
    ok = worst_vanishing < 1e-12 and worst_maximum < 1e-9
    report(4, "static vanishing conditions", ok,
           f"worst vanishing value {worst_vanishing:.2e} quanta (< 1e-12), "
           f"worst maximum-condition residual {worst_maximum:.2e} (< 1e-9)")


def test_criterion_05_projection_identity():
    params = FIG1
    d, T = params.distance, params.duration
    derived = [90 * d / (np.pi**3 * T * K**3) for K in range(1, 6)]
    measured = [fourier_projection(params, K) for K in range(1, 6)]
    worst = max(abs(m - s) / s for m, s in zip(measured, derived))
    k0 = fourier_projection(params, 0)
    ok = worst < 1e-8 and k0 < 1e-12 * d / T
    report(5, "projection identity", ok,
           f"derived 90d/(pi^3 T K^3) at K=1 {derived[0]:.6f} m/s vs quadrature "
           f"{measured[0]:.6f} m/s; worst relative deviation over K=1..5 "
           f"{worst:.3e} (required < 1e-8); K=0 projection {k0:.2e}")


def test_criterion_06_corridor_threshold():
    start = time.perf_counter()
    thresholds = []
    for distance in (50e-6, 137e-6):
        def excursion(a):
            params = dataclasses.replace(FIG1, distance=distance,
                                         duration=a / FIG1.omega0)
            trap = trap_from_classical(Polynomial5(params), params)
            above, below = corridor_check(trap, params, n_samples=20001)
            return max(above, below)

        lo, hi = 2.0, 3.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if excursion(mid) > 0:
                lo = mid
            else:
                hi = mid
        thresholds.append(0.5 * (lo + hi))
    elapsed = time.perf_counter() - start
    ok = all(abs(t - 2.505) <= 0.005 for t in thresholds)
    report(6, "corridor threshold", ok,
           f"onset at omega0*T = {thresholds[0]:.4f} (d=50um) and "
           f"{thresholds[1]:.4f} (d=137um), required 2.505 +/- 0.005, "
           f"runtime {elapsed:.1f}s")


def test_criterion_07_envelope_crossing():
    params = FIG1
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 20:
        omega = rng.uniform(0.2, 3.5) * params.omega0
        if abs(omega - params.omega0) < 0.1 * params.omega0:
            continue
        if abs(omega - 2 * params.omega0) < 0.1 * params.omega0:
            continue
        tstar = crossing_time(params, omega)
        stat = envelope_static(params, omega, tstar, n=0, oscillating=False)
        dyn = envelope_dynamical(params, omega, tstar, oscillating=False)
        worst = max(worst, abs(stat - dyn) / max(stat, dyn))
        checked += 1
    ok = worst < 1e-9
    report(7, "envelope crossing", ok,
           f"worst relative residual {worst:.2e} over 20 frequencies (< 1e-9)")


def test_criterion_08_designers():
    start = time.perf_counter()
    params = FIG1
    omega_t = TWO_PI * 5e6
    bound = 1e-9 * params.distance / params.duration
    series, _ = design_fourier(params, DesignConstraints(targets=(omega_t,)))
    aux = design_aux(params, [omega_t])
    i_series = abs(target_integral(params, series, omega_t))
    i_aux = abs(target_integral(params, aux, omega_t))

    threshold = 1e-4  # quanta per squared amplitude
    scale = 2 * params.mass / params.energy_quantum

    def edge(proto, direction):
        # first crossing of the threshold away from the target, by bisection
        step = TWO_PI * 1e3
        hi = step
        while scale * abs(target_integral(params, proto,
                                          omega_t + direction * hi))**2 < threshold:
            hi *= 2.0
            if hi > TWO_PI * 3e6:
                return TWO_PI * 3e6
        lo = 0.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            value = scale * abs(target_integral(params, proto,
                                                omega_t + direction * mid))**2
            if value < threshold:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    widths = {}
    for n_terms, orders in ((4, 0), (6, 1), (8, 2), (10, 3)):
        proto, _ = design_fourier(params, DesignConstraints(
            targets=(omega_t,), omega_derivatives=orders))
        widths[n_terms] = edge(proto, +1) + edge(proto, -1)
    monotone = widths[4] < widths[6] < widths[8] < widths[10]
    elapsed = time.perf_counter() - start
    ok = i_series < bound and i_aux < bound and monotone and elapsed < 30.0
    width_str = ", ".join(f"N={n}: {w / TWO_PI / 1e3:.3f} kHz"
                          for n, w in widths.items())
    report(8, "designers", ok,
           f"|I| series {i_series:.2e}, aux {i_aux:.2e} (bound {bound:.1e}); "
           f"sub-threshold widths {width_str} strictly widening: {monotone}; "
           f"runtime {elapsed:.1f}s")


def test_criterion_09_ga_corridor():
    start = time.perf_counter()
    params = dataclasses.replace(FIG1, duration=0.5e-6)
    omega_t = TWO_PI * 5e6
    unique, _ = design_fourier(params, DesignConstraints(targets=(omega_t,)))
    base_cost = corridor_cost(trap_from_classical(unique, params), params)

    system = assemble_system(params, DesignConstraints(targets=(omega_t,),
                                                       n_terms=10))
    successes = 0
    for seed in range(10):
        result = ga_minimize(params, system,
                             lambda trap: corridor_cost(trap, params),
                             GaConfig(seed=seed, generations=500))
        if result.converged and result.best_cost == 0.0:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = base_cost > 0 and successes >= 8 and elapsed < 300.0
    report(9, "genetic corridor search", ok,
           f"unique 4-term design cost {base_cost:.2e} m*s (> 0), "
           f"{successes}/10 seeds reached cost 0, runtime {elapsed:.1f}s")


def test_criterion_10_extremal_scaling():
    start = time.perf_counter()
    omega = TWO_PI * 5e6
    comparisons = []

    def solve(params):
        cycles = params.duration * max(params.omega0, omega) / (2 * np.pi)
        sol = oct_solve(params, omega, n_steps=max(4000, int(300 * cycles)))
        proto = Polynomial5(params)
        poly = avg_dynamical_potential(params, proto,
                                       trap_from_classical(proto, params),
                                       n_steps=4000)
        comparisons.append(poly > sol.e_bar)
        return sol.e_bar

    durations = np.geomspace(5e-6, 20e-6, 10)
    e_T = [solve(dataclasses.replace(FIG1, duration=float(T))) for T in durations]
    slope_T = np.polyfit(np.log(durations), np.log(e_T), 1)[0]

    distances = np.geomspace(20e-6, 100e-6, 8)
    e_d = [solve(dataclasses.replace(FIG1, distance=float(d))) for d in distances]
    slope_d = np.polyfit(np.log(distances), np.log(e_d), 1)[0]

    # trap-frequency sweep excluding the +/-20% window around omega
    omega0s = TWO_PI * np.geomspace(6.5e6, 16e6, 10)
    e_w = [solve(dataclasses.replace(FIG1, omega0=float(w))) for w in omega0s]
    slope_w = np.polyfit(np.log(omega0s), np.log(e_w), 1)[0]

    elapsed = time.perf_counter() - start
    ok = (abs(slope_T + 4) <= 0.1 and abs(slope_d - 2) <= 0.05
          and abs(slope_w + 2) <= 0.1 and all(comparisons) and elapsed < 60.0)
    report(10, "extremal scaling", ok,
           f"slopes: T {slope_T:.3f} (-4 +/- 0.1), d {slope_d:.3f} (+2 +/- 0.05), "
           f"omega0 {slope_w:.3f} (-2 +/- 0.1); reference protocol above the "
           f"extremal at {sum(comparisons)}/{len(comparisons)} points; "
           f"runtime {elapsed:.1f}s")


def test_criterion_11_eta_ratio():
    value = eta_ratio(FIG1, n=0)
    ok = abs(value - 2.31e-8) <= 0.01 * 2.31e-8
    report(11, "eta ratio", ok,
           f"eta_0 = {value:.4e}, required 2.31e-8 +/- 1%; "
           f"confirms trajectory control dominates the error budget")
