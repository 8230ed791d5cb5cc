import json
import re
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stashuttle import (AuxiliarySolution, IntegrationError, Perturbation,
                        PhysicalParams, Polynomial5, dynamics,
                        exact_energy, exact_transport, shifted_trap,
                        solve_auxiliary, trap_from_classical)
from stashuttle.cli import _scan_inputs, main
from stashuttle.dynamics import (_magnus_steps, _monodromy, _ordered_product,
                                 perturbed_frequency)
from stashuttle.perturbation import second_order_energy_freq, second_order_energy_pos

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_config"


def constant_omega(w):
    return lambda t: w * np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ReferenceGrids:
    """The reference RK4's auxiliary variables at every step from t = 0."""

    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    qc: np.ndarray
    qc_dot: np.ndarray

    @property
    def endpoint(self) -> AuxiliarySolution:
        return AuxiliarySolution(float(self.rho[-1]), float(self.rho_dot[-1]),
                                 float(self.qc[-1]), float(self.qc_dot[-1]))


def reference_solve_auxiliary(params, omega_of_t, trap, n_steps):
    """Fixed-step classical RK4 of the width and trajectory equations, with grids.

    It steps the nonlinear width equation itself and shares no method with
    the Magnus monodromy of `solve_auxiliary`, so their agreement checks both.
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

    return ReferenceGrids(tg[::2].copy(), rho_g, rhod_g, qc_g, qcd_g)


def reference_endpoint(params, omega_of_t, trap, n_steps):
    """The endpoint of the reference RK4, in the form `solve_auxiliary` returns."""
    return reference_solve_auxiliary(params, omega_of_t, trap, n_steps).endpoint


def energy_profile(sol, params, omega_of_t, trap, n=0):
    """Exact energy (quanta) at every grid point of a reference solution."""
    om = np.asarray(omega_of_t(sol.times), dtype=float)
    Q = np.asarray(trap(sol.times), dtype=float)
    m, w0, hbar = params.mass, params.omega0, params.hbar
    energy = (0.5 * m * om**2 * (sol.qc - Q)**2 + 0.5 * m * sol.qc_dot**2
              + hbar / (4.0 * w0) * (2 * n + 1)
              * (sol.rho_dot**2 + w0**2 / sol.rho**2 + om**2 * sol.rho**2))
    return energy / params.energy_quantum


def map_error(params, entries, reference):
    """Summed endpoint difference of two monodromy maps, in the contract's scales."""
    w0, d = params.omega0, params.distance
    scales = (1.0, 1.0 / w0, w0, 1.0, d, d * w0)
    return sum(abs(x - y) / s for x, y, s in zip(entries, reference, scales))


def expm_series(matrix):
    """Matrix exponential by a Taylor series with scaling and squaring."""
    halvings = max(0, int(np.ceil(np.log2(np.abs(matrix).sum(axis=1).max() + 1e-300))) + 4)
    scaled = matrix / 2.0**halvings
    term = total = np.eye(len(matrix))
    for k in range(1, 30):
        term = term @ scaled / k
        total = total + term
    for _ in range(halvings):
        total = total @ total
    return total


def magnus_generator(a, b, h):
    """The two-node 4th-order Magnus exponent of one step, as a 3x3 matrix."""
    A1, A2 = (np.array([[0.0, 1.0, 0.0], [-ai, 0.0, bi], [0.0, 0.0, 0.0]])
              for ai, bi in zip(a, b))
    return h / 2 * (A1 + A2) + np.sqrt(3.0) * h**2 / 12 * (A2 @ A1 - A1 @ A2)


def total_energy(solve, params, omega, trap, n_steps):
    sol = solve(params, omega, trap, n_steps)
    T = params.duration
    return exact_energy(sol, params, float(omega(T)), float(trap(T))).value


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
        assert all(type(value) is float for value in astuple(sol))
        d = params.distance
        assert sol.rho == pytest.approx(1.0, rel=1e-8)
        assert sol.rho_dot == pytest.approx(0.0, abs=1e-8 * params.omega0)
        assert sol.qc == pytest.approx(d, rel=1e-8)
        assert sol.qc_dot == pytest.approx(0.0, abs=1e-8 * d / params.duration)

    def test_roundtrip_reproduces_designed_trajectory(self, params):
        proto = Polynomial5(params)
        trap = trap_from_classical(proto, params)
        sol = reference_solve_auxiliary(params, constant_omega(params.omega0), trap, 20000)
        expected = proto.position(sol.times)
        assert np.max(np.abs(sol.qc - expected)) <= 1e-8 * params.distance

    def test_convergence_on_doubling(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        a = solve_auxiliary(params, omega, trap, 20000)
        b = solve_auxiliary(params, omega, trap, 40000)
        for x, y, scale in ((a.rho, b.rho, 1.0), (a.qc, b.qc, params.distance)):
            assert abs(x - y) <= 1e-8 * scale

    def test_rk4_order(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        ref = reference_solve_auxiliary(params, omega, trap, 40000)

        def endpoint_error(n):
            s = reference_solve_auxiliary(params, omega, trap, n)
            return abs(s.qc[-1] - ref.qc[-1]) + params.distance * abs(s.rho[-1] - ref.rho[-1])

        ratio = endpoint_error(1000) / endpoint_error(2000)
        assert 8 < ratio < 32  # fourth order: 16x per halving, within a factor 2

    def test_magnus_order(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        omega = perturbed_frequency(params, pert)
        trap = trap_from_classical(Polynomial5(params), params)
        ref = _monodromy(params, omega, trap, 40000)
        ratio = (map_error(params, _monodromy(params, omega, trap, 1000), ref)
                 / map_error(params, _monodromy(params, omega, trap, 2000), ref))
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
        trap = np.zeros_like
        with pytest.raises(IntegrationError) as err:
            reference_solve_auxiliary(params, constant_omega(factor * params.omega0),
                                      trap, 100)
        assert re.fullmatch(message, str(err.value))
        assert err.value.time == step * (params.duration / 100)

    def test_nonpositive_frequency_rejected(self, params):
        trap = np.zeros_like
        with pytest.raises(ValueError, match="positive"):
            solve_auxiliary(params, lambda t: params.omega0 * np.cos(
                2 * np.pi * t / params.duration), trap, 500)

    def test_nan_frequency_rejected_before_stepping(self, params):
        # a NaN in Omega(t) must not surface as a rho failure later on
        trap = np.zeros_like
        omega = lambda t: np.where(t > params.duration / 2, np.nan, params.omega0)
        with pytest.raises(ValueError) as err:
            solve_auxiliary(params, omega, trap, 1000)
        # the first Gauss node after T/2, in the step that starts there
        assert str(err.value) == ("omega_of_t must stay positive and finite on [0, T]; "
                                  "first violation at t=1.000423e-06 s")

    def test_nan_trap_path_rejected_before_stepping(self, params):
        # a NaN in Q(t) would otherwise give a silently NaN trajectory
        trap = lambda t: np.where(t > params.duration / 2, np.nan, 0.0)
        with pytest.raises(ValueError) as err:
            solve_auxiliary(params, constant_omega(params.omega0), trap, 1000)
        assert str(err.value) == ("trap path must stay finite on [0, T]; "
                                  "first violation at t=1.000423e-06 s")

    def test_under_resolved_input_fails_halving_contract(self, params):
        # 1000 MHz at the 4000-step floor: about one step per cycle
        pert = Perturbation.frequency_sine(2 * np.pi * 1e9, 0.01)
        trap = trap_from_classical(Polynomial5(params), params)
        with pytest.raises(IntegrationError) as err:
            solve_auxiliary(params, perturbed_frequency(params, pert), trap, 4000)
        assert re.fullmatch(r"halving the step count moved the endpoint by \S+ "
                            r"\(limit 1e-08\) at t=2\.000000e-06 s", str(err.value))

    def test_nonpositive_exponent_is_reported(self, params):
        # Omega jumps 10x between the Gauss nodes of the step at T/2, so the
        # commutator term outweighs the mean stiffness in that step's exponent:
        # theta^2 = h^2 omega0^2 (50.5 - 51.6) < 0, with h omega0 = 0.16 pi
        h = params.duration / 100
        omega = lambda t: np.where(t < params.duration / 2 + h / 2,
                                   params.omega0, 10 * params.omega0)
        trap = np.zeros_like
        with pytest.raises(IntegrationError, match="exponent became nonpositive") as err:
            solve_auxiliary(params, omega, trap, 100)
        assert err.value.time == pytest.approx(params.duration / 2)

    @pytest.mark.parametrize("kind", ["frequency_sine", "position_sine"])
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(ratio=st.floats(0.1, 4.0), amplitude=st.floats(0.0, 0.05),
           steps_per_cycle=st.integers(400, 600))
    def test_agrees_with_rk4(self, kind, ratio, amplitude, steps_per_cycle):
        # the RK4 runs 4x the steps: near omega = 2*omega0 it is the less
        # accurate of the two at equal steps
        params = PhysicalParams(mass=1.455e-25, omega0=2 * np.pi * 4e6,
                                distance=50e-6, duration=2e-6)
        pert = getattr(Perturbation, kind)(ratio * params.omega0, amplitude)
        trap = trap_from_classical(Polynomial5(params), params)
        if pert.is_position:
            omega, trap = perturbed_frequency(params, None), shifted_trap(trap, pert, params)
        else:
            omega = perturbed_frequency(params, pert)
        cycles = params.duration * params.omega0 * max(2.0, ratio) / (2 * np.pi)
        n_steps = max(4000, int(steps_per_cycle * cycles))
        exact = total_energy(solve_auxiliary, params, omega, trap, n_steps)
        reference = total_energy(reference_endpoint, params, omega, trap, 4 * n_steps)
        assert exact == pytest.approx(reference, rel=1e-8)

    def test_agrees_with_rk4_on_verify_axis(self, tmp_path, monkeypatch):
        config = str(EXAMPLES / "verify_omega.json")

        def exact_column(name):
            out = tmp_path / name
            assert main(["verify", "--config", config, "--out", str(out)]) == 0
            lines = [line for line in out.read_text().splitlines()
                     if not line.startswith("#")][1:]
            return np.array([float(line.split(",")[1]) for line in lines])

        exact = exact_column("cf4.csv")
        monkeypatch.setattr(dynamics, "solve_auxiliary", reference_endpoint)
        reference = exact_column("rk4.csv")
        assert np.max(np.abs(exact - reference)) <= 1e-8 * np.max(np.abs(reference))


class TestMagnusKernel:
    @pytest.mark.parametrize("a, b, h", [
        # theta near 1, with the commutator term at 3 % of it
        ((0.9, 1.1), (0.3, -0.7), 1.0),
        # theta = 1e-3: (1 - cos theta)/theta^2 cancels unless rewritten
        ((1.0, 1.2), (2.0, 5.0), 1e-3),
        # a realistic step: omega0 of 4 MHz, the trap path near d, T/20000
        ((9.87e14, 1.01e15), (2.5e10, 2.6e10), 1e-10),
        # theta = pi, where cos(theta) = -1: a coarse step at constant Omega
        ((np.pi**2, np.pi**2), (0.5, 0.5), 1.0),
    ])
    @pytest.mark.filterwarnings("error")
    def test_step_matches_matrix_exponential(self, a, b, h):
        step = _magnus_steps(np.array(a)[:, None], np.array(b)[:, None], h)
        assert step.shape == (2, 3, 1)
        # a diagonal similarity scales u' by sqrt(a), so the series sees entries
        # of one size
        balance = np.diag([1.0, np.sqrt(np.mean(a)), 1.0])
        unbalance = np.diag(1.0 / np.diag(balance))
        expected = balance @ expm_series(
            unbalance @ magnus_generator(a, b, h) @ balance) @ unbalance
        np.testing.assert_array_equal(expected[2], [0.0, 0.0, 1.0])
        # each column in its own scale: u, u' and the affine column differ in units
        for col in range(3):
            np.testing.assert_allclose(step[:, col, 0], expected[:2, col], rtol=0,
                                       atol=1e-14 * np.abs(expected[:2, col]).max())

    @pytest.mark.parametrize("length", [1, 16, 17, 33, 4095, 4097])
    def test_stacked_product_matches_sequential_floats(self, length):
        # signed permutations with small integer translations multiply exactly in
        # floats and do not commute, so any change of order shows as a difference;
        # 17, 33, 4095 and 4097 set maps aside at odd lengths
        rng = np.random.default_rng(length)
        swap = rng.integers(0, 2, length).astype(bool)[:, None, None]
        linear = (np.where(swap, [[0.0, 1.0], [1.0, 0.0]], np.eye(2))
                  * rng.choice([-1.0, 1.0], (length, 2, 1)))
        maps = np.concatenate([linear, rng.integers(-3, 4, (length, 2, 1))], axis=2)
        total = np.array([[2.0, 1.0, -1.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])
        expected = total
        for k in range(length):
            expected = np.vstack([maps[k], [0.0, 0.0, 1.0]]) @ expected
        product = _ordered_product(np.ascontiguousarray(maps.transpose(1, 2, 0)),
                                   total[:2].ravel().tolist())
        np.testing.assert_allclose(product, expected[:2].ravel(), rtol=1e-15, atol=0)


class TestExactEnergy:
    def test_ground_state(self, params):
        sol = AuxiliarySolution(1.0, 0.0, params.distance, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=0)
        assert e.value == pytest.approx(0.5, rel=1e-12)

    def test_excited_level(self, params):
        sol = AuxiliarySolution(1.0, 0.0, params.distance, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=3)
        assert e.value == pytest.approx(3.5, rel=1e-12)

    def test_displaced_endpoint(self, params):
        delta = 3e-9
        sol = AuxiliarySolution(1.0, 0.0, params.distance + delta, 0.0)
        e = exact_energy(sol, params, params.omega0, params.distance, n=0)
        extra = params.mass * params.omega0**2 * delta**2 / 2 / params.energy_quantum
        assert e.value == pytest.approx(0.5 + extra, rel=1e-12)

    def test_energy_conservation_static_trap(self, params):
        # constant (detuned) frequency and a fixed trap center: <H> is conserved
        omega = constant_omega(1.3 * params.omega0)
        trap = lambda t: params.distance * np.ones_like(t)
        sol = reference_solve_auxiliary(params, omega, trap, 20000)
        profile = energy_profile(sol, params, omega, trap, n=0)
        assert np.max(np.abs(profile - profile[0])) <= 1e-8 * abs(profile[0])


class TestExcessEnergy:
    def test_zero_amplitude(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.0)
        de = exact_transport(params, Polynomial5(params), pert, n_steps=5000)[0]
        assert abs(de.value) < 1e-10

    def test_matches_second_order_theory(self, params):
        pert = Perturbation.frequency_sine(2 * np.pi * 6e6, 1e-3)
        proto = Polynomial5(params)
        de = exact_transport(params, proto, pert, n_steps=20000)[0]
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
        de = exact_transport(params, Polynomial5(params), pert, n_steps=20000)[0]
        assert abs(de.value) < 1e-6

    def test_position_form_is_the_exact_quadratic(self):
        # the trajectory equation is linear in Q, so the exact excitation of a
        # position error is exactly quadratic in its amplitude: over the
        # verify axis it must meet the second-order form to the oracle's error
        config = json.loads((EXAMPLES / "verify_omega.json").read_text())
        params, *_, omegas = _scan_inputs(config)
        exact, second = [], []
        for omega in omegas:
            pert = Perturbation.position_sine(omega, 1e-3)
            exact.append(exact_transport(params, Polynomial5(params), pert)[0].value / 1e-6)
            second.append(second_order_energy_pos(params, pert).static_quanta)
        assert len(omegas) == 20
        assert np.max(np.abs(np.subtract(exact, second))) <= 1e-9 * max(second)

    def test_frequency_form_is_the_small_amplitude_limit(self):
        # the exact excitation E(lam) of a frequency tone is smooth in lam; the
        # symmetric average S(lam) = (E(lam) + E(-lam)) / (2 lam^2) drops every
        # odd order, and (4 S(lam/2) - S(lam)) / 3 the lam^2 term, leaving the
        # second-order coefficient.  A tone of amplitude -lam is the same tone
        # with phase pi.  Steps per point as verify takes them
        config = json.loads((EXAMPLES / "verify_omega.json").read_text())
        params, *_, omegas = _scan_inputs(config)
        proto = Polynomial5(params)

        def symmetric(omega, lam, n_steps):
            up = Perturbation.frequency_sine(omega, lam)
            down = Perturbation.frequency_sum([(omega, np.pi, 1.0)], lam)
            return sum(exact_transport(params, proto, pert, n_steps=n_steps)[0].value
                       for pert in (up, down)) / (2.0 * lam**2)

        worst = 0.0
        for omega in omegas:
            cycles = params.duration * max(2.0 * params.omega0, omega) / (2.0 * np.pi)
            n_steps = max(4000, int(config["steps_per_cycle"] * cycles))
            limit = (4.0 * symmetric(omega, 1e-3, n_steps)
                     - symmetric(omega, 2e-3, n_steps)) / 3.0
            # the report is per squared amplitude
            second = second_order_energy_freq(
                params, proto, Perturbation.frequency_sine(omega, 1e-3)).total_quanta
            worst = max(worst, abs(limit - second) / second)
        assert len(omegas) == 20
        assert worst <= 2e-6
