import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stashuttle import (AuxiliarySolution, IntegrationError, Perturbation,
                        PhysicalParams, Polynomial5, TrapTrajectory,
                        energy_profile, exact_energy, excess_energy_exact,
                        shifted_trap, solve_auxiliary, trap_from_classical)
from stashuttle.dynamics import perturbed_frequency
from stashuttle.perturbation import second_order_energy_freq


def constant_omega(w):
    return lambda t: w * np.ones_like(np.asarray(t, dtype=float))


def reference_solve_auxiliary(params, omega_of_t, trap, n_steps):
    """Indexed form of the RK4 step loop of `solve_auxiliary`, kept verbatim.

    The package's loop takes its samples from iterators and stores through
    memoryviews; it must give the same floats, bit for bit, as this one.
    """
    T = params.duration
    h = T / n_steps
    tg = np.linspace(0.0, T, 2 * n_steps + 1)
    om = np.asarray(omega_of_t(tg), dtype=float)
    om2 = om ** 2
    forcing = om2 * np.asarray(trap(tg), dtype=float)
    om2_l = om2.tolist()
    forc_l = forcing.tolist()
    w0sq = params.omega0**2

    rho_g = np.empty(n_steps + 1)
    rhod_g = np.empty(n_steps + 1)
    qc_g = np.empty(n_steps + 1)
    qcd_g = np.empty(n_steps + 1)
    rho, rhod, qc, qcd = 1.0, 0.0, 0.0, 0.0
    rho_g[0], rhod_g[0], qc_g[0], qcd_g[0] = rho, rhod, qc, qcd

    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        try:
            i0 = 2 * k
            a0, a1, a2 = om2_l[i0], om2_l[i0 + 1], om2_l[i0 + 2]
            b0, b1, b2 = forc_l[i0], forc_l[i0 + 1], forc_l[i0 + 2]

            k1r = rhod
            k1s = w0sq / rho**3 - a0 * rho
            k1q = qcd
            k1p = b0 - a0 * qc

            r = rho + h2 * k1r
            k2r = rhod + h2 * k1s
            k2s = w0sq / r**3 - a1 * r
            q = qc + h2 * k1q
            k2q = qcd + h2 * k1p
            k2p = b1 - a1 * q

            r = rho + h2 * k2r
            k3r = rhod + h2 * k2s
            k3s = w0sq / r**3 - a1 * r
            q = qc + h2 * k2q
            k3q = qcd + h2 * k2p
            k3p = b1 - a1 * q

            r = rho + h * k3r
            k4r = rhod + h * k3s
            k4s = w0sq / r**3 - a2 * r
            q = qc + h * k3q
            k4q = qcd + h * k3p
            k4p = b2 - a2 * q
        except (OverflowError, ZeroDivisionError) as exc:
            raise IntegrationError(f"integration blew up ({exc})", (k + 1) * h) from None

        rho = rho + h6 * (k1r + 2.0 * (k2r + k3r) + k4r)
        rhod = rhod + h6 * (k1s + 2.0 * (k2s + k3s) + k4s)
        qc = qc + h6 * (k1q + 2.0 * (k2q + k3q) + k4q)
        qcd = qcd + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        if rho <= 0.0 or not np.isfinite(rho):
            raise IntegrationError("width factor rho became nonpositive", (k + 1) * h)
        idx = k + 1
        rho_g[idx], rhod_g[idx], qc_g[idx], qcd_g[idx] = rho, rhod, qc, qcd

    return AuxiliarySolution(tg[::2].copy(), rho_g, rhod_g, qc_g, qcd_g)


def assert_bit_identical(a, b):
    for field in ("times", "rho", "rho_dot", "qc", "qc_dot"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestTrapFromClassical:
    def test_endpoints_and_midpoint(self, params):
        trap = trap_from_classical(Polynomial5(params), params)
        d, T = params.distance, params.duration
        assert trap(0.0) == pytest.approx(0.0, abs=1e-12 * d)
        assert trap(T) == pytest.approx(d, rel=1e-12)
        # acceleration vanishes mid-transport, so Q0(T/2) = q(T/2) = d/2
        assert trap(T / 2) == pytest.approx(d / 2, rel=1e-12)

    def test_params_must_match_protocol_omega0(self, params):
        # the trap path takes omega0 from the protocol, so other params are refused
        other = replace(params, omega0=2 * params.omega0)
        with pytest.raises(ValueError, match="omega0"):
            trap_from_classical(Polynomial5(params), other)
        trap = trap_from_classical(Polynomial5(params), replace(params, distance=1e-3))
        assert trap(params.duration) == pytest.approx(params.distance, rel=1e-12)


class TestSolveAuxiliary:
    def test_unperturbed_transport_is_exact(self, params):
        proto = Polynomial5(params)
        trap = trap_from_classical(proto, params)
        sol = solve_auxiliary(params, constant_omega(params.omega0), trap, 20000)
        d = params.distance
        assert sol.rho[-1] == pytest.approx(1.0, rel=1e-8)
        assert sol.rho_dot[-1] == pytest.approx(0.0, abs=1e-8 * params.omega0)
        assert sol.qc[-1] == pytest.approx(d, rel=1e-8)
        assert sol.qc_dot[-1] == pytest.approx(0.0, abs=1e-8 * d / params.duration)

    def test_roundtrip_reproduces_designed_trajectory(self, params):
        proto = Polynomial5(params)
        trap = trap_from_classical(proto, params)
        sol = solve_auxiliary(params, constant_omega(params.omega0), trap, 20000)
        expected = proto.position(sol.times)
        assert np.max(np.abs(sol.qc - expected)) <= 1e-8 * params.distance

    def test_convergence_on_doubling(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        a = solve_auxiliary(params, omega, trap, 20000)
        b = solve_auxiliary(params, omega, trap, 40000)
        for x, y, scale in ((a.rho[-1], b.rho[-1], 1.0),
                            (a.qc[-1], b.qc[-1], params.distance)):
            assert abs(x - y) <= 1e-8 * scale

    def test_rk4_order(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        ref = solve_auxiliary(params, omega, trap, 40000)

        def endpoint_error(n):
            s = solve_auxiliary(params, omega, trap, n)
            return abs(s.qc[-1] - ref.qc[-1]) + params.distance * abs(s.rho[-1] - ref.rho[-1])

        ratio = endpoint_error(1000) / endpoint_error(2000)
        assert 8 < ratio < 32  # fourth order: 16x per halving, within a factor 2

    @pytest.mark.parametrize("factor, step, message", [
        # wildly under-resolved stiff squeeze: rho**3 overflows ...
        pytest.param(100, 20, r"integration blew up \(.+\) at t=4\.000000e-07 s",
                     id="blow-up"),
        # ... or, less under-resolved, the width is driven negative
        pytest.param(30, 6, r"width factor rho became nonpositive at t=1\.200000e-07 s",
                     id="rho-nonpositive"),
    ])
    def test_integrator_failure_is_reported(self, params, factor, step, message):
        trap = TrapTrajectory(lambda t: np.zeros_like(t))
        with pytest.raises(IntegrationError) as err:
            solve_auxiliary(params, constant_omega(factor * params.omega0), trap, 100)
        assert re.fullmatch(message, str(err.value))
        assert err.value.time == step * (params.duration / 100)

    def test_nonpositive_frequency_rejected(self, params):
        trap = TrapTrajectory(lambda t: np.zeros_like(t))
        with pytest.raises(ValueError, match="positive"):
            solve_auxiliary(params, lambda t: params.omega0 * np.cos(
                2 * np.pi * t / params.duration), trap, 500)

    def test_nan_frequency_rejected_before_stepping(self, params):
        # a NaN in Omega(t) must not surface as a rho failure later on
        trap = TrapTrajectory(lambda t: np.zeros_like(t))
        omega = lambda t: np.where(t > params.duration / 2, np.nan, params.omega0)
        with pytest.raises(ValueError) as err:
            solve_auxiliary(params, omega, trap, 1000)
        assert str(err.value) == ("omega_of_t must stay positive and finite on [0, T]; "
                                  "first violation at t=1.001000e-06 s")

    def test_nan_trap_path_rejected_before_stepping(self, params):
        # a NaN in Q(t) would otherwise give a silently NaN trajectory
        trap = TrapTrajectory(lambda t: np.where(t > params.duration / 2, np.nan, 0.0))
        with pytest.raises(ValueError) as err:
            solve_auxiliary(params, constant_omega(params.omega0), trap, 1000)
        assert str(err.value) == ("trap path must stay finite on [0, T]; "
                                  "first violation at t=1.001000e-06 s")

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n_steps=st.integers(100, 3000), ratio=st.floats(0.1, 4.0),
           amplitude=st.floats(0.0, 0.05))
    def test_bit_identical_to_indexed_loop(self, n_steps, ratio, amplitude):
        params = PhysicalParams(mass=1.455e-25, omega0=2 * np.pi * 4e6,
                                distance=50e-6, duration=2e-6)
        pert = Perturbation.frequency_sine(ratio * params.omega0, amplitude)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        assert_bit_identical(solve_auxiliary(params, omega, trap, n_steps),
                             reference_solve_auxiliary(params, omega, trap, n_steps))

    def test_bit_identical_to_indexed_loop_position_error(self, params):
        pert = Perturbation.position_sine(2 * np.pi * 3e6, 0.01)
        omega = perturbed_frequency(params, None)
        trap = shifted_trap(trap_from_classical(Polynomial5(params), params), pert, params)
        assert_bit_identical(solve_auxiliary(params, omega, trap, 2500),
                             reference_solve_auxiliary(params, omega, trap, 2500))


class TestExactEnergy:
    @staticmethod
    def endpoint_solution(rho, rho_dot, qc, qc_dot):
        return AuxiliarySolution(np.array([0.0]), np.array([rho]),
                                 np.array([rho_dot]), np.array([qc]),
                                 np.array([qc_dot]))

    def test_ground_state(self, params):
        sol = self.endpoint_solution(1.0, 0.0, params.distance, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=0)
        assert e.value == pytest.approx(0.5, rel=1e-12)

    def test_excited_level(self, params):
        sol = self.endpoint_solution(1.0, 0.0, params.distance, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=3)
        assert e.value == pytest.approx(3.5, rel=1e-12)

    def test_displaced_endpoint(self, params):
        delta = 3e-9
        sol = self.endpoint_solution(1.0, 0.0, params.distance + delta, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=0)
        extra = params.mass * params.omega0**2 * delta**2 / 2 / params.energy_quantum
        assert e.value == pytest.approx(0.5 + extra, rel=1e-12)

    def test_energy_conservation_static_trap(self, params):
        # constant (detuned) frequency and a fixed trap center: <H> is conserved
        omega = constant_omega(1.3 * params.omega0)
        trap = TrapTrajectory(lambda t: params.distance * np.ones_like(t))
        sol = solve_auxiliary(params, omega, trap, 20000)
        profile = energy_profile(sol, params, omega, trap, n=0)
        assert np.max(np.abs(profile - profile[0])) <= 1e-8 * abs(profile[0])


class TestExcessEnergy:
    def test_zero_amplitude(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.0)
        de = excess_energy_exact(params, Polynomial5(params), pert, n_steps=5000)
        assert abs(de.value) < 1e-10

    def test_matches_second_order_theory(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 1e-3)
        proto = Polynomial5(params)
        de = excess_energy_exact(params, proto, pert, n_steps=20000)
        report = second_order_energy_freq(params, proto, pert)
        expected = pert.amplitude**2 * report.total_quanta
        assert de.value == pytest.approx(expected, rel=0.05)

    def test_position_error_with_tuned_duration_is_silent(self):
        # omega0*T = 8*pi and omega*T = 6*pi: the first-order response and its
        # derivative both vanish at T, and the position problem is linear, so
        # the exact excitation collapses to integrator noise
        params = PhysicalParams(mass=1.455e-25, omega0=2 * np.pi * 4e6,
                                distance=50e-6, duration=1e-6)
        pert = Perturbation.position_sine(2 * np.pi * 3e6, 0.01)
        de = excess_energy_exact(params, Polynomial5(params), pert, n_steps=20000)
        assert abs(de.value) < 1e-6
