import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import Polynomial

from stashuttle import (DesignConstraints, DesignError, FourierSineProtocol,
                        Perturbation, PhysicalParams, Polynomial5, PolynomialTrajectory,
                        design_aux, design_fourier, excess_energy_exact,
                        mode_overlap_integral, static_closed_form,
                        target_integral)
from stashuttle.design import _mode_overlap_quad, assemble_system
from stashuttle.perturbation import fourier_dynamical

TWO_PI = 2 * np.pi


def dynamical_quanta(params, proto, omega):
    I = target_integral(params, proto, omega)
    return 2 * params.mass * abs(I) ** 2 / params.energy_quantum


class TestTargetIntegral:
    def test_zero_acceleration(self, params):
        proto = FourierSineProtocol(params, [0.0, 0.0])
        assert target_integral(params, proto, TWO_PI * 5e6) == 0.0
        assert not proto.boundary_report().ok  # degenerate: never reaches d

    def test_consistent_with_fourier_dynamical(self, params):
        # |I|^2 against the generic quadrature route of the dynamical form
        proto = Polynomial5(params)
        for omega in (TWO_PI * 3.1e6, TWO_PI * 5.7e6):
            got = dynamical_quanta(params, proto, omega)
            want = fourier_dynamical(params, proto, lambda t: np.sin(omega * t))
            assert got == pytest.approx(want, rel=1e-9)


class TestAuxSingle:
    def test_target_integral_vanishes(self, params):
        omega = TWO_PI * 5e6
        proto = design_aux(params, [omega])
        bound = 1e-9 * params.distance / params.duration
        assert abs(target_integral(params, proto, omega)) < bound

    def test_boundary_conditions(self, params):
        proto = design_aux(params, [TWO_PI * 5e6])
        assert proto.boundary_report(rtol=1e-10).ok

    def test_quadratic_dip(self, params):
        omega = TWO_PI * 5e6
        proto = design_aux(params, [omega])
        delta = TWO_PI * 50e3
        e1 = dynamical_quanta(params, proto, omega + delta)
        e2 = dynamical_quanta(params, proto, omega + 2 * delta)
        assert e1 > 0
        # |I| grows linearly away from the zero, so the energy grows as delta^2
        assert e2 / e1 == pytest.approx(4.0, rel=0.3)

    def test_trap_frequency_target_is_singular(self, params):
        with pytest.raises(DesignError):
            design_aux(params, [params.omega0])


class TestAuxMulti:
    def test_single_frequency_reduces_to_single(self, params):
        # one target gives the single-frequency design g^(4) + (a + b) g^(2) + a b g
        # with g = v (v^2 - 1/4)^5, a = ((omega0 - omega) T)^2 and
        # b = ((omega0 + omega) T)^2, from any sequence that holds the target
        omega = TWO_PI * 5e6
        a = ((params.omega0 - omega) * params.duration) ** 2
        b = ((params.omega0 + omega) * params.duration) ** 2
        g = Polynomial([0.0, 1.0]) * Polynomial([-0.25, 0.0, 1.0]) ** 5
        single = PolynomialTrajectory(params, g.deriv(4) + (a + b) * g.deriv(2) + a * b * g,
                                      1.0)
        t = np.linspace(0, params.duration, 17)
        want = params.distance * single.position(t) / single.position(params.duration)
        for targets in [(omega,), [omega], np.array([omega])]:
            got = design_aux(params, targets).position(t)
            assert np.allclose(got, want, rtol=0, atol=1e-12 * params.distance)

    def test_window_flattening(self, params):
        # close targets flatten the response across the enclosed window
        center = TWO_PI * 5e6
        half = TWO_PI * 250.0
        proto = design_aux(params, [center - half, center + half])
        bound = 1e-6 * params.distance / params.duration
        for omega in np.linspace(center - half, center + half, 21):
            assert abs(target_integral(params, proto, omega)) < bound

    def test_pairwise_better_than_single_across_wide_window(self, params):
        center = TWO_PI * 5e6
        half = TWO_PI * 50e3
        single = design_aux(params, [center])
        multi = design_aux(params, [center - half, center + half])
        grid = np.linspace(center - half, center + half, 15)
        worst_single = max(abs(target_integral(params, single, w)) for w in grid)
        worst_multi = max(abs(target_integral(params, multi, w)) for w in grid)
        assert worst_multi < worst_single

    def test_boundary_conditions(self, params):
        proto = design_aux(params, [TWO_PI * 4.8e6, TWO_PI * 5.2e6])
        assert proto.boundary_report(rtol=1e-9).ok

    def test_repeated_frequency_rejected(self, params):
        with pytest.raises(DesignError):
            design_aux(params, [TWO_PI * 5e6, TWO_PI * 5e6])

    @pytest.mark.parametrize("n_freqs", [1, 2])
    def test_auxiliary_function_endpoint_orders(self, params, n_freqs):
        # the centered auxiliary polynomial v*(v^2-1/4)^(4p+1) must vanish with
        # its first 4p derivatives at both edges, and integrate to zero
        targets = [TWO_PI * (5e6 + k * 2e5) for k in range(n_freqs)]
        proto = design_aux(params, targets)
        edge = 4 * n_freqs + 1
        # the acceleration is a differential operator of order 4p applied to
        # g, whose degree 2*edge + 1 it keeps through the undifferentiated
        # term; it vanishes at both edges with g's first 4p derivatives
        accel = proto._accel
        assert accel.degree() == 2 * edge + 1
        scale = np.abs(accel.coef).sum()
        assert abs(accel(-0.5)) < 1e-15 * scale and abs(accel(0.5)) < 1e-15 * scale
        g = Polynomial([0.0, 1.0]) * Polynomial([-0.25, 0.0, 1.0]) ** edge
        for order in range(4 * n_freqs + 1):
            der = g.deriv(order) if order else g
            assert abs(der(-0.5)) < 1e-10 and abs(der(0.5)) < 1e-10
        integral = g.integ()
        assert abs(integral(0.5) - integral(-0.5)) < 1e-12


class TestModeOverlap:
    def test_zero_frequency(self, params):
        for j in range(1, 6):
            assert mode_overlap_integral(params, j, 0.0) == 0.0

    def test_matches_quadrature(self, params):
        import dataclasses
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = dataclasses.replace(
                params,
                duration=rng.uniform(0.5e-6, 4e-6),
                omega0=rng.uniform(0.7, 1.4) * params.omega0)
            omega = rng.uniform(0.5, 3.5) * params.omega0
            j = int(rng.integers(1, 11))
            got = mode_overlap_integral(p, j, omega)
            want = _mode_overlap_quad(p, j, omega)
            assert abs(got - want) <= 1e-10 * max(abs(want), p.duration * 1e-3)

    def test_removable_singularity_is_continuous(self, params):
        # j*pi - omega*T = -omega0*T exactly: closed form would divide by ~0
        import dataclasses
        p = dataclasses.replace(params, duration=0.5e-6)  # omega0*T = 4*pi
        omega_sing = 5 * np.pi / p.duration               # j=1: A = -4*pi = -W
        at_sing = mode_overlap_integral(p, 1, omega_sing)
        near = mode_overlap_integral(p, 1, omega_sing * (1 + 1e-6))
        assert at_sing == pytest.approx(near, rel=1e-4)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(j=st.integers(1, 10), duration_us=st.floats(0.5, 4.0),
           log_gap=st.floats(-8.0, -2.0), side=st.sampled_from([-1.0, 1.0]),
           kernel=st.sampled_from(["A", "B"]))
    def test_closed_form_across_band_edge(self, j, duration_us, log_gap, side, kernel):
        # A = j*pi - omega*T = -R or B = j*pi + omega*T = R with
        # R^2 = (1 +/- gap)*W^2: gaps from 1e-8 to 1e-2 straddle the fallback
        # band edge at 1e-4*W^2
        p = PhysicalParams(mass=1.455e-25, omega0=TWO_PI * 4e6, distance=50e-6,
                           duration=duration_us * 1e-6)
        T = p.duration
        root = p.omega0 * T * np.sqrt(1.0 + side * 10.0**log_gap)
        omega = (j * np.pi + root) / T if kernel == "A" else (root - j * np.pi) / T
        assume(omega > 0)
        want = _mode_overlap_quad(p, j, omega)
        assert abs(mode_overlap_integral(p, j, omega) - want) <= 1e-11 * abs(want)

    def test_mode_index_validated(self, params):
        with pytest.raises(ValueError):
            mode_overlap_integral(params, 0, 1e6)


class TestTrajectoryFromCoeffs:
    def test_constraint_satisfying_coefficients_reach_target(self, params):
        T, d = params.duration, params.distance
        js = np.arange(1, 5)
        rows = np.vstack([T**2 / (js * np.pi), (1 - (-1.0) ** js) / js])
        norms = np.linalg.norm(rows, axis=1)
        a, *_ = np.linalg.lstsq(rows / norms[:, None],
                                np.array([d, 0.0]) / norms, rcond=None)
        proto = FourierSineProtocol(params, a)
        assert proto.position(T) == pytest.approx(d, rel=1e-10)
        assert abs(proto.velocity(T)) <= 1e-10 * d / T

    def test_single_odd_mode_flagged(self, params):
        # one j=1 term scaled to reach d necessarily violates the endpoint velocity
        T, d = params.duration, params.distance
        proto = FourierSineProtocol(params, [d * np.pi / T**2])
        assert proto.position(T) == pytest.approx(d, rel=1e-12)
        assert not proto.boundary_report().ok

    def test_acceleration_endpoints_always_zero(self, params):
        rng = np.random.default_rng(13)
        proto = FourierSineProtocol(params, rng.normal(0, 1e7, 8))
        scale = params.distance / params.duration**2
        assert abs(proto.acceleration(0.0)) <= 1e-12 * scale
        assert abs(proto.acceleration(params.duration)) <= 1e-9 * scale

    def test_coefficient_rows_match_single_rows(self, params):
        rng = np.random.default_rng(17)
        coeffs = rng.normal(0, 1e7, (5, 8))
        batch = FourierSineProtocol(params, coeffs)
        t = np.linspace(0.0, params.duration, 301)
        for name in ("position", "velocity", "acceleration"):
            rows = getattr(batch, name)(t)
            assert rows.shape == (5, 301)
            for row, a in zip(rows, coeffs):
                single = getattr(FourierSineProtocol(params, a), name)(t)
                np.testing.assert_array_equal(row, single)


class TestDesignFourier:
    def test_minimal_design_cancels_target(self, params):
        omega = TWO_PI * 5e6
        proto, system = design_fourier(params, DesignConstraints(targets=(omega,)))
        assert system.n_terms == 4 and system.nullspace_dim == 0
        assert dynamical_quanta(params, proto, omega) < 1e-10
        assert proto.boundary_report(rtol=1e-9).ok

    def test_derivative_cancellation_widens_response(self, params):
        omega = TWO_PI * 5e6
        probe = omega + TWO_PI * 0.1e6
        base, _ = design_fourier(params, DesignConstraints(targets=(omega,)))
        robust, _ = design_fourier(params, DesignConstraints(targets=(omega,),
                                                             omega_derivatives=1))
        assert dynamical_quanta(params, robust, probe) < \
            dynamical_quanta(params, base, probe)

    @pytest.mark.parametrize("n_terms,orders", [(6, 1), (8, 2), (10, 3)])
    def test_finite_difference_cancellation(self, params, n_terms, orders):
        omega = TWO_PI * 5e6
        delta = TWO_PI * 1e3
        base, _ = design_fourier(params, DesignConstraints(targets=(omega,)))
        robust, _ = design_fourier(params, DesignConstraints(targets=(omega,),
                                                             omega_derivatives=orders))

        def fd(proto, r):
            g = lambda k: abs(target_integral(params, proto, omega + k * delta)) ** 2
            if r == 1:
                return (g(1) - g(-1)) / (2 * delta)
            if r == 2:
                return (g(1) - 2 * g(0) + g(-1)) / delta**2
            return (g(2) - 2 * g(1) + 2 * g(-1) - g(-2)) / (2 * delta**3)

        for r in range(1, orders + 1):
            assert abs(fd(robust, r)) <= 1e-6 * abs(fd(base, r))

    def test_trap_frequency_derivatives_flatten_response(self, params):
        import dataclasses
        omega = TWO_PI * 5e6
        base, _ = design_fourier(params, DesignConstraints(targets=(omega,)))
        robust, _ = design_fourier(params, DesignConstraints(targets=(omega,),
                                                             omega0_derivatives=3))
        shifted = dataclasses.replace(params, omega0=params.omega0 + TWO_PI * 0.05e6)
        # protocols were designed at the nominal trap frequency; evaluate the
        # response when the actual trap frequency differs
        assert dynamical_quanta(shifted, robust, omega) < \
            dynamical_quanta(shifted, base, omega)

    def test_underdetermined_request_rejected(self, params):
        with pytest.raises(ValueError, match="underdetermined request"):
            design_fourier(params, DesignConstraints(targets=(TWO_PI * 5e6,),
                                                     omega_derivatives=2, n_terms=6))

    def test_duplicate_target_is_ill_conditioned(self, params):
        omega = TWO_PI * 5e6
        with pytest.raises(DesignError, match="ill-conditioned"):
            design_fourier(params, DesignConstraints(targets=(omega, omega)))

    @pytest.mark.filterwarnings("error")
    def test_zero_constraint_row_names_its_label(self, params):
        # sin(0*t) overlaps nothing: its rows are zero and cannot be normalised
        with pytest.raises(DesignError, match=r"row Re I\(omega=0\.000000e\+00\) is zero"):
            design_fourier(params, DesignConstraints(targets=(TWO_PI * 5e6, 0.0)))

    def test_minimum_norm_solution_satisfies_constraints(self, params):
        system = assemble_system(params, DesignConstraints(targets=(TWO_PI * 5e6,),
                                                           n_terms=10))
        coeffs = system.solve()
        assert system.nullspace_dim == 6
        assert system.residual(coeffs) < 1e-10


class TestMethodComparison:
    def test_both_cancel_and_series_is_smoother(self, params):
        omega = TWO_PI * 4.5e6
        aux = design_aux(params, [omega])
        series, _ = design_fourier(params, DesignConstraints(targets=(omega,)))
        bound = 1e-9 * params.distance / params.duration
        assert abs(target_integral(params, aux, omega)) < bound
        assert abs(target_integral(params, series, omega)) < bound
        t = np.linspace(0, params.duration, 2001)
        assert np.max(np.abs(series.acceleration(t))) < \
            np.max(np.abs(aux.acceleration(t)))


class TestDesignedRoundTrip:
    def test_exact_evolution_confirms_suppression(self, params):
        # with the dynamical part designed away, the exact excitation reduces
        # to the static second-order term plus higher-order remainders
        omega = TWO_PI * 5e6
        proto, _ = design_fourier(params, DesignConstraints(targets=(omega,)))
        lam = 1e-3
        pert = Perturbation.frequency_sine(omega, lam)
        exact = excess_energy_exact(params, proto, pert, n_steps=20000).value
        static = static_closed_form(params, omega)
        assert exact <= lam**2 * static + 1e-10
