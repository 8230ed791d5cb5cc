import dataclasses
import math

import numpy as np
import pytest

from stashuttle import (ConditionKind, Perturbation, PhysicalParams, PoleError,
                        Polynomial5, classify_commensurate, corridor_check,
                        crossing_time, envelope_dynamical, envelope_static,
                        fourier_projection, second_order_energy_freq,
                        static_closed_form, trap_from_classical)
from stashuttle.perturbation import fourier_dynamical, fourier_static_freq

TWO_PI = 2 * np.pi


def with_duration(params, T):
    return dataclasses.replace(params, duration=float(T))


def with_omega0(params, w0):
    return dataclasses.replace(params, omega0=float(w0))


class TestPolynomial:
    def test_endpoints(self, params):
        proto = Polynomial5(params)
        q0, v0, a0 = proto.position(0.0), proto.velocity(0.0), proto.acceleration(0.0)
        assert q0 == v0 == a0 == 0.0
        T = params.duration
        qT, vT, aT = proto.position(T), proto.velocity(T), proto.acceleration(T)
        assert qT == pytest.approx(params.distance, rel=1e-12)
        assert abs(vT) <= 1e-10 * params.distance / params.duration
        assert abs(aT) <= 1e-9 * params.distance / params.duration**2

    def test_midpoint(self, params):
        proto = Polynomial5(params)
        q, a = proto.position(params.duration / 2), proto.acceleration(params.duration / 2)
        assert q == pytest.approx(params.distance / 2, rel=1e-12)
        assert a == pytest.approx(0.0, abs=1e-10 * params.distance / params.duration**2)

    def test_acceleration_antisymmetric(self, params):
        T = params.duration
        proto = Polynomial5(params)
        for s in (0.1, 0.23, 0.4):
            a1 = proto.acceleration(s * T)
            a2 = proto.acceleration((1 - s) * T)
            assert a1 == pytest.approx(-a2, rel=1e-10)


class TestStaticClosedForm:
    def test_small_omega_limit(self, params):
        tiny = static_closed_form(params, 1e-3 * params.omega0)
        typical = static_closed_form(params, 1.1 * params.omega0)
        assert tiny < 1e-5 * typical

    def test_vanishing_condition(self, params):
        omega = 24 * np.pi / params.duration  # even/even with omega0*T = 16*pi
        assert static_closed_form(params, omega) < 1e-25

    def test_removable_point_matches_time_integral(self, params):
        # omega = 2*omega0 is a removable point of the closed form
        for eps in (0.0, 1e-10, 1e-8, 1e-6, 1e-5, 1e-3):
            omega = 2 * params.omega0 * (1 + eps)
            want = second_order_energy_freq(params, Polynomial5(params),
                                            Perturbation.frequency_sine(omega, 0.01))
            assert static_closed_form(params, omega) == pytest.approx(
                want.static_quanta, rel=1e-12)

    def test_matches_fourier_form(self, params):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(30):
            T = rng.uniform(0.5e-6, 5e-6)
            k = int(rng.integers(1, 40))
            omega = k * np.pi / T
            p = with_duration(params, T)
            if abs(omega - 2 * p.omega0) < 0.05 * p.omega0:
                continue
            got = static_closed_form(p, omega)
            want = fourier_static_freq(p, Perturbation.frequency_sine(omega, 0.01))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-18)
            checked += 1
        assert checked > 20

    def test_commensurate_reduction(self, params):
        # at omega*T = k*pi the closed form collapses to the parity form
        rng = np.random.default_rng(2)
        w0, T = params.omega0, params.duration
        hbar = params.hbar
        for k in rng.integers(1, 40, 15):
            omega = int(k) * np.pi / T
            if abs(omega - 2 * w0) < 1e-3 * w0:
                continue
            want = (2 * hbar * w0 * omega**2 * w0**2
                    * (1 - (-1.0) ** int(k) * math.cos(2 * w0 * T))
                    / (omega**2 - 4 * w0**2) ** 2) / params.energy_quantum
            assert static_closed_form(params, omega) == pytest.approx(
                want, rel=1e-12, abs=1e-20)


class TestClassifyCommensurate:
    def test_even_even_vanishing(self, params):
        p = dataclasses.replace(params, duration=1e-6, omega0=3 * np.pi / 1e-6)
        cls = classify_commensurate(p, 4 * np.pi / p.duration)
        assert cls.kind is ConditionKind.VANISH_EVEN
        assert (cls.i, cls.j) == (2, 3)

    def test_odd_odd_vanishing(self, params):
        p = dataclasses.replace(params, duration=1e-6, omega0=2.5 * np.pi / 1e-6)
        cls = classify_commensurate(p, 3 * np.pi / p.duration)
        assert cls.kind is ConditionKind.VANISH_ODD

    def test_even_odd_maximum(self, params):
        p = dataclasses.replace(params, duration=1e-6, omega0=1.5 * np.pi / 1e-6)
        cls = classify_commensurate(p, 2 * np.pi / p.duration)
        assert cls.kind is ConditionKind.MAX_EVEN

    def test_generic_is_non_commensurate(self, params):
        cls = classify_commensurate(params, 1.2345 * params.omega0)
        assert cls.kind is ConditionKind.NON_COMMENSURATE


class TestEnvelopes:
    def test_static_small_omega(self, params):
        small = envelope_static(params, 1e-3 * params.omega0, params.duration)
        assert small < 1e-5 * envelope_static(params, params.omega0, params.duration)

    def test_static_pole(self, params):
        for omega in (2 * params.omega0, -2 * params.omega0):
            with pytest.raises(PoleError):
                envelope_static(params, omega, params.duration)

    def test_dynamical_pole(self, params):
        for omega in (params.omega0, -params.omega0):
            with pytest.raises(PoleError):
                envelope_dynamical(params, omega, params.duration)

    def test_static_bounds_commensurate_points(self, params):
        # on the omega*T = k*pi grid the envelope is a rigorous upper bound
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(200):
            T = rng.uniform(0.3e-6, 10e-6)
            k = int(rng.integers(1, 60))
            omega = k * np.pi / T
            p = with_duration(params, T)
            if not 0.2 * p.omega0 < omega < 3 * p.omega0:
                continue
            if abs(omega - 2 * p.omega0) < 0.1 * p.omega0:
                continue
            exact = static_closed_form(p, omega)
            bound = envelope_static(p, omega, T)
            assert exact <= bound * (1 + 1e-12)
            checked += 1
        assert checked > 60

    def test_static_touches_at_maximum_condition(self, params):
        # even k with 2*w0*T an odd multiple of pi: the bound is attained
        T = 1.25e-6
        p = dataclasses.replace(params, duration=T, omega0=7 * np.pi / (2 * T))
        omega = 6 * np.pi / T
        assert static_closed_form(p, omega) == pytest.approx(
            envelope_static(p, omega, T), rel=1e-9)

    def test_dynamical_tracks_maxima_within_slack(self, params):
        # the dynamical envelope is approximate; with the oscillating factor
        # replaced by its maximum it stays within a factor 2 of the true
        # component over the working band (and bounds it at most points)
        rng = np.random.default_rng(29)
        proto_cache = {}
        worst = 0.0
        checked = 0
        for _ in range(200):
            omega = rng.uniform(0.4, 2.7) * params.omega0
            if abs(omega - params.omega0) < 0.15 * params.omega0:
                continue
            T = rng.uniform(1e-6, 8e-6)
            p = with_duration(params, T)
            proto = proto_cache.setdefault(T, Polynomial5(p))
            exact = fourier_dynamical(p, proto, Perturbation.frequency_sine(omega, 0.01))
            bound = envelope_dynamical(p, omega, T, oscillating=False)
            worst = max(worst, exact / bound)
            checked += 1
        assert checked > 120
        assert worst < 2.0

    def test_dynamical_time_decay_exponent(self, params):
        # non-oscillating envelope scales exactly as T^-6
        omega = TWO_PI * 6e6
        Ts = np.geomspace(1e-6, 10e-6, 12)
        values = [envelope_dynamical(params, omega, T, oscillating=False) for T in Ts]
        slope = np.polyfit(np.log(Ts), np.log(values), 1)[0]
        assert slope == pytest.approx(-6.0, abs=1e-10)


class TestCrossingTime:
    def test_envelopes_cross_at_tstar(self, params):
        rng = np.random.default_rng(31)
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
            assert stat == pytest.approx(dyn, rel=1e-9)
            checked += 1

    def test_zero_frequency_limit(self, params):
        want = (28800 * 16 * params.mass * params.distance**2
                / (params.hbar * params.omega0**5)) ** (1 / 6)
        # evaluate just off zero (the formula is continuous there)
        assert crossing_time(params, 1e-6 * params.omega0) == pytest.approx(want, rel=1e-6)

    def test_static_dominates_well_beyond_crossing(self, params):
        omega = TWO_PI * 6e6
        tstar = crossing_time(params, omega)
        T = 2.0 * tstar
        stat = envelope_static(params, omega, T, oscillating=False)
        dyn = envelope_dynamical(params, omega, T, oscillating=False)
        assert stat > dyn


class TestFourierProjection:
    def test_k_zero_vanishes(self, params):
        assert fourier_projection(params, 0) <= \
            1e-12 * params.distance / params.duration

    def test_modulus_matches_analytic_value(self, params):
        # independent oracle: exact symbolic integration of the projection
        # gives 90*d/(pi^3*T*|K|^3)
        d, T = params.distance, params.duration
        for K in range(1, 6):
            want = 90 * d / (np.pi**3 * T * K**3)
            assert fourier_projection(params, K) == pytest.approx(want, rel=1e-8)

    def test_cubic_falloff(self, params):
        assert fourier_projection(params, 1) / fourier_projection(params, 2) == \
            pytest.approx(8.0, rel=1e-8)

    def test_k_removal_suppresses_dynamical_response(self, params):
        # the |K| = 1 projections dominate the resonant response: subtracting
        # them cuts the dynamical excitation by far more than a factor 50
        p = with_duration(params, 1e-6)  # omega0*T = 8*pi
        T, w0 = p.duration, p.omega0
        omega = w0 - TWO_PI / T
        proto = Polynomial5(p)
        full = fourier_dynamical(p, proto, Perturbation.frequency_sine(omega, 0.01))
        grid = np.linspace(0, T, 40001)
        accel = proto.acceleration(grid)
        basis = np.exp(2j * np.pi * grid / T)
        c_plus = np.trapezoid(accel * np.conj(basis), grid) / T
        c_minus = np.trapezoid(accel * basis, grid) / T
        filtered = accel - (c_plus * basis).real * 2  # c_minus = conj(c_plus), accel real

        def f_filtered(t):
            idx = np.clip((np.asarray(t) / T * (len(grid) - 1)).astype(int), 0,
                          len(grid) - 1)
            return np.sin(omega * np.asarray(t)) * filtered[idx] * \
                np.exp(-1j * w0 * np.asarray(t))

        value = np.trapezoid(f_filtered(grid), grid)
        reduced = 2 * p.mass * abs(value) ** 2 / p.energy_quantum
        assert full / reduced > 50


class TestOrthogonalityGrid:
    def test_static_vanishes_on_even_grid(self, params):
        # omega0*T = 8*pi: tones with omega*T an even multiple of pi integrate
        # over whole periods against the doubled-frequency kernel
        p = with_duration(params, 1e-6)
        for i in range(1, 16):
            if i == 8:  # omega = 2*omega0: the zero-frequency projection
                continue
            omega = 2 * i * np.pi / p.duration
            value = fourier_static_freq(p, Perturbation.frequency_sine(omega, 0.01))
            assert value < 1e-12


class TestCorridor:
    def test_overshoot_regime_is_symmetric(self, params):
        T = 2.4 / params.omega0
        p = with_duration(params, T)
        above, below = corridor_check(trap_from_classical(Polynomial5(p), p), p,
                                      n_samples=20001)
        assert above > 0 and below > 0
        assert above == pytest.approx(below, rel=1e-6)

    def test_no_overshoot_above_threshold(self, params):
        p = with_duration(params, 3.0 / params.omega0)
        above, below = corridor_check(trap_from_classical(Polynomial5(p), p), p,
                                      n_samples=20001)
        assert above == 0.0 == below

    def test_threshold_location(self, params):
        def excursion(a):
            p = with_duration(params, a / params.omega0)
            above, below = corridor_check(trap_from_classical(Polynomial5(p), p), p,
                                          n_samples=20001)
            return max(above, below)

        lo, hi = 2.0, 3.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if excursion(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.505, abs=0.005)

    def test_minimum_sampling_enforced(self, params):
        trap = trap_from_classical(Polynomial5(params), params)
        with pytest.raises(ValueError):
            corridor_check(trap, params, n_samples=10)


class TestResonanceLocations:
    def test_scan_peaks(self, params):
        proto = Polynomial5(params)
        grid = np.linspace(0.2, 3.8, 2000) * params.omega0
        dyn = np.array([fourier_dynamical(params, proto,
                                          Perturbation.frequency_sine(w, 0.01))
                        for w in grid])
        stat = np.array([static_closed_form(params, w) for w in grid])

        def peak(values):
            inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
            idx = np.where(inner)[0] + 1
            return grid[idx[np.argmax(values[idx])]]

        window = TWO_PI / params.duration
        assert abs(peak(dyn) - params.omega0) < window
        assert abs(peak(stat) - 2 * params.omega0) < window
