import dataclasses
import tracemalloc

import numpy as np
import pytest

from stashuttle import (DesignConstraints, DesignError, FourierSineProtocol,
                        GaConfig, OctExtremalProtocol, Perturbation, Polynomial5,
                        SingularSystemError, avg_dynamical_potential, corridor_cost,
                        design_fourier, ga_minimize, nullspace_parametrize, oct_solve,
                        trap_from_classical)
from stashuttle import optimize
from stashuttle.design import assemble_system
from stashuttle.optimize import (_control_basis, _control_gram, _driven_oscillators,
                                 _endpoint_map, _extremal_states, _gauss_panels, _grid_sums)
from test_dynamics import reference_solve_auxiliary

TWO_PI = 2 * np.pi


def fig10_params(params):
    return dataclasses.replace(params, duration=0.5e-6)


class TestCorridorCost:
    def test_inside_corridor_is_free(self, params):
        trap = trap_from_classical(Polynomial5(params), params)  # omega0*T = 16*pi
        assert corridor_cost(trap, params) == 0.0

    def test_constant_overshoot(self, params):
        c = 3e-6
        trap = lambda t: (params.distance + c) * np.ones_like(t)
        assert corridor_cost(trap, params) == pytest.approx(c * params.duration,
                                                            rel=1e-12)

    def test_short_transport_pays(self, params):
        p = dataclasses.replace(params, duration=2.0 / params.omega0)
        trap = trap_from_classical(Polynomial5(p), p)
        assert corridor_cost(trap, p) > 0

    def test_population_matches_rows(self, params):
        # row 0 stays inside the corridor; the others overshoot above or below
        base = trap_from_classical(Polynomial5(params), params)
        scales = np.array([1.0, 1.02, 1.0, 0.9])
        offsets = np.array([0.0, 0.0, -2e-6, 8e-6])
        population = lambda t: scales[:, None] * base(t) + offsets[:, None]
        costs = corridor_cost(population, params)
        assert costs.shape == (4,)
        assert costs[0] == 0.0 and np.all(costs[1:] > 0)
        for k in range(4):
            row = lambda t: scales[k] * base(t) + offsets[k]
            single = corridor_cost(row, params)
            assert isinstance(single, float)
            assert costs[k] == single

    @pytest.mark.parametrize("samples", [1001, 2001, 20001])
    def test_random_population_matches_rows(self, params, samples):
        # 64 rows of sine-series paths around the corridor, in partial and
        # one-row blocks
        coef = np.random.default_rng(samples).normal(0.0, 1e8, (64, 8))
        costs = corridor_cost(
            trap_from_classical(FourierSineProtocol(params, coef), params),
            params, samples)
        assert costs.shape == (64,) and np.count_nonzero(costs) > 32
        for k in range(64):
            row = trap_from_classical(FourierSineProtocol(params, coef[k]), params)
            assert costs[k] == corridor_cost(row, params, samples)

    @pytest.mark.parametrize("samples", [1001, 2001, 20001])
    def test_random_population_matches_trapezoid(self, params, samples):
        # the weighted sum is the trapezoid rule of the excursion to rounding
        coef = np.random.default_rng(samples + 1).normal(0.0, 1e8, (64, 8))
        trap = trap_from_classical(FourierSineProtocol(params, coef), params)
        t = np.linspace(0.0, params.duration, samples)
        Q = trap(t)
        want = np.trapezoid(np.abs(Q - np.clip(Q, 0.0, params.distance)), t)
        costs = corridor_cost(trap, params, samples)
        assert np.count_nonzero(want) > 32
        for cost, expected in zip(costs, want):
            assert cost == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_population_working_set(self, params):
        # a population's trap path is built and costed in row blocks, so
        # neither step holds much more than the (rows, samples) path itself
        coef = np.random.default_rng(3).normal(0.0, 1e8, (64, 8))
        t = np.linspace(0.0, params.duration, 2001)
        trap = trap_from_classical(FourierSineProtocol(params, coef), params)
        Q = trap(t)
        population = lambda _: Q
        tracemalloc.start()
        try:
            corridor_cost(population, params)
            _, cost_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trap(t)
            _, path_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cost_peak < Q.nbytes
        assert path_peak < 2 * Q.nbytes


class TestNullspace:
    def test_square_system_has_none(self, params):
        system = assemble_system(params, DesignConstraints(targets=(TWO_PI * 5e6,)))
        _, basis = nullspace_parametrize(system)
        assert basis.shape[1] == 0

    def test_dimension_matches_rank_deficit(self, params):
        system = assemble_system(params,
                                 DesignConstraints(targets=(TWO_PI * 5e6,), n_terms=10))
        particular, basis = nullspace_parametrize(system)
        assert basis.shape == (10, 6)
        # orthonormal basis
        assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-12)

    def test_any_combination_satisfies_constraints(self, params):
        system = assemble_system(params,
                                 DesignConstraints(targets=(TWO_PI * 5e6,), n_terms=10))
        particular, basis = nullspace_parametrize(system)
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rng.normal(0, np.linalg.norm(particular), 6)
            assert system.residual(particular + basis @ z) < 1e-10


class TestGa:
    def make_system(self, params):
        p = fig10_params(params)
        return p, assemble_system(p, DesignConstraints(targets=(TWO_PI * 5e6,),
                                                       n_terms=10))

    def test_zero_cost_stops_immediately(self, params):
        p, system = self.make_system(params)
        result = ga_minimize(p, system, lambda trap: 0.0, GaConfig(seed=1))
        assert result.converged and result.generations_used == 1
        assert result.best_cost == 0.0

    def test_same_seed_is_bit_identical(self, params):
        p, system = self.make_system(params)
        cost = lambda trap: corridor_cost(trap, p)
        a = ga_minimize(p, system, cost, GaConfig(seed=42))
        b = ga_minimize(p, system, cost, GaConfig(seed=42))
        assert np.array_equal(a.protocol.coefficients, b.protocol.coefficients)
        assert a.best_cost == b.best_cost and a.history == b.history

    def test_result_satisfies_constraints(self, params):
        p, system = self.make_system(params)
        result = ga_minimize(p, system, lambda trap: corridor_cost(trap, p),
                             GaConfig(seed=3))
        assert system.residual(result.protocol.coefficients) < 1e-9

    def test_finds_corridor_clean_trajectory(self, params):
        p, system = self.make_system(params)
        result = ga_minimize(p, system, lambda trap: corridor_cost(trap, p),
                             GaConfig(seed=0))
        assert result.converged and result.best_cost == 0.0

    def test_cost_called_once_per_generation(self, params):
        p, system = self.make_system(params)
        shapes = []

        def cost(trap):
            Q = trap(np.linspace(0.0, p.duration, 1001))
            shapes.append(Q.shape)
            return np.arange(Q.shape[0], 0, -1.0)  # never zero: every generation runs

        result = ga_minimize(p, system, cost, GaConfig(seed=4, generations=7))
        assert result.generations_used == 7
        assert shapes == [(64, 1001)] * 7

    def test_population_rows_match_coefficient_paths(self, params):
        # the ranked paths are sums of nullspace paths; each row is the path
        # of its candidate's coefficients up to rounding.  The first
        # generation is drawn here as ga_minimize draws it
        p, system = self.make_system(params)
        cfg = GaConfig(seed=9, generations=1)
        particular, basis = nullspace_parametrize(system)
        z = np.random.default_rng(cfg.seed).normal(
            0.0, np.linalg.norm(particular), (cfg.population, basis.shape[1]))
        t = np.linspace(0.0, p.duration, 1001)
        paths = []
        ga_minimize(p, system, lambda trap: paths.append(trap(t)) or 1.0, cfg)
        [Q] = paths
        for row, coeffs in zip(Q, particular + z @ basis.T):
            want = FourierSineProtocol(p, coeffs).trap_path(t)
            assert np.max(np.abs(row - want)) <= 1e-13 * p.distance

    def test_population_paths_follow_the_grid(self, params):
        # grids of one size or one set of values, taken in turn within and
        # across generations, each get their own paths
        p, system = self.make_system(params)
        grid = np.linspace(0.0, p.duration, 1001)
        reverse, blocks = grid[::-1].copy(), grid.reshape(11, 91)
        calls = []

        def cost(trap):
            order = [grid, reverse, blocks] if len(calls) % 2 else [reverse, blocks, grid]
            Q = {id(t): trap(t) for t in order}
            forward = Q[id(grid)]
            assert np.max(np.abs(Q[id(reverse)] - forward[:, ::-1])) <= 1e-13 * p.distance
            assert np.array_equal(Q[id(blocks)], forward.reshape(-1, 11, 91))
            calls.append(forward)
            return np.arange(len(forward), 0, -1.0)  # never zero: every generation runs

        ga_minimize(p, system, cost, GaConfig(seed=9, generations=6))
        assert len(calls) == 6
        assert not np.array_equal(calls[0], calls[-1])

    def test_grid_changed_after_a_call_is_not_cached(self, params):
        p, system = self.make_system(params)

        def cost(trap):
            t = np.linspace(0.0, p.duration, 1001)
            forward = trap(t)
            t[:] = t[::-1].copy()   # the caller reuses its array for a new grid
            assert np.max(np.abs(trap(t) - forward[:, ::-1])) <= 1e-13 * p.distance
            return np.arange(len(forward), 0, -1.0)

        result = ga_minimize(p, system, cost, GaConfig(seed=9, generations=3))
        assert result.generations_used == 3

    def test_odd_population_keeps_the_unpaired_child(self, params, monkeypatch):
        # with every pair blended and nothing mutated, each child of the last
        # (unpaired) slot is a copy of a candidate of the generation before,
        # while blended children are new points
        monkeypatch.setattr(optimize, "CROSSOVER_RATE", 1.0)
        monkeypatch.setattr(optimize, "MUTATION_RATE", 0.0)
        p, system = self.make_system(params)
        t = np.linspace(0.0, p.duration, 1001)
        generations = []

        def cost(trap):
            generations.append(trap(t))
            return np.arange(len(generations[-1]), 0, -1.0)  # never zero

        ga_minimize(p, system, cost, GaConfig(seed=5, population=11, generations=8))
        assert len(generations) == 8
        tol = 1e-12 * p.distance
        blended = 0
        for before, after in zip(generations, generations[1:]):
            gaps = np.max(np.abs(after[:, None, :] - before[None, :, :]), axis=-1)
            assert gaps[-1].min() <= tol
            blended += np.count_nonzero(gaps[1:-1].min(axis=1) > 1e3 * tol)
        assert blended > 0

    def test_odd_population_is_bit_identical(self, params):
        p, system = self.make_system(params)
        cost = lambda trap: corridor_cost(trap, p)
        cfg = GaConfig(seed=8, population=11, generations=40)
        a = ga_minimize(p, system, cost, cfg)
        b = ga_minimize(p, system, cost, cfg)
        assert a.generations_used > 1   # crossover ran
        assert np.array_equal(a.protocol.coefficients, b.protocol.coefficients)
        assert a.best_cost == b.best_cost and a.history == b.history

    @pytest.mark.parametrize("seed", range(4))
    def test_short_transport_search_quality(self, params, seed):
        # the benchmark's ga-search design: at T = 0.25 us with a first
        # derivative cancelled no design stays inside the corridor, and every
        # seed reaches the same best excursion, 1.0628e-13 m*s
        p = dataclasses.replace(params, duration=0.25e-6)
        system = assemble_system(p, DesignConstraints(
            targets=(TWO_PI * 5e6,), omega_derivatives=1, n_terms=8))
        result = ga_minimize(p, system, lambda trap: corridor_cost(trap, p, 2001),
                             GaConfig(seed=seed, population=64, generations=100,
                                      stagnation_limit=1000))
        assert result.generations_used == 100 and not result.converged
        assert result.best_cost == pytest.approx(1.0628e-13, rel=0.01, abs=0.0)

    def test_no_nullspace_is_an_error(self, params):
        system = assemble_system(params, DesignConstraints(targets=(TWO_PI * 5e6,)))
        with pytest.raises(DesignError, match="nothing to optimize"):
            ga_minimize(params, system, lambda trap: 0.0, GaConfig(seed=0))

    def test_population_floor(self):
        with pytest.raises(ValueError):
            GaConfig(seed=0, population=5)

    @pytest.mark.parametrize("field", [dict(generations=0), dict(stagnation_limit=0),
                                       dict(seed=-1)])
    def test_search_length_and_seed_floors(self, field):
        with pytest.raises(ValueError):
            GaConfig(**{"seed": 0, **field})


class TestDrivenOscillator:
    @pytest.mark.parametrize("w", [0.0, TWO_PI * 4e6])
    def test_closed_form_on_and_off_grid(self, params, w):
        # g = cos(a t) from rest: x = (cos(a t) - cos(w t))/(w^2 - a^2)
        a = TWO_PI * 5e6
        T = params.duration
        times = np.linspace(0.0, T, 2001)
        at = np.concatenate([[0.0, T], np.random.default_rng(3).uniform(0.0, T, 50)])
        scale = 1.0 / (w**2 - a**2)
        one, drive = [(w, lambda s: 1.0)], lambda s: np.cos(a * s)
        # off the grid both with fresh sums and with the sums of an earlier call
        cached = _driven_oscillators(one, drive, times, at, _grid_sums(one, drive, times))
        for t, (x, v) in [(times, _driven_oscillators(one, drive, times)[0]),
                          (at, _driven_oscillators(one, drive, times, at)[0]),
                          (at, cached[0])]:
            assert np.allclose(x, (np.cos(a * t) - np.cos(w * t)) * scale,
                               rtol=0, atol=1e-12 * abs(scale))
            assert np.allclose(v, (w * np.sin(w * t) - a * np.sin(a * t)) * scale,
                               rtol=0, atol=1e-12 * a * abs(scale))

    def test_prepended_axes_are_kept(self, params):
        times = np.linspace(0.0, params.duration, 2001)
        rows = lambda s: np.stack([np.ones_like(s), s])
        [(x, v)] = _driven_oscillators([(0.0, lambda s: 1.0)], rows, times, times[[3, 7]])
        assert x.shape == v.shape == (2, 2)


class TestOctSolve:
    def test_endpoint_boundary_conditions(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=8000)
        d = params.distance
        final = sol.x[:, -1]
        assert abs(final[0] - d) <= 1e-8 * d
        assert abs(final[1]) <= 1e-8 * d / params.duration
        assert abs(final[2]) <= 1e-8 * d
        assert abs(final[3]) <= 1e-8 * d / params.duration
        # residual mixes m and m/s components; bound it loosely in meters
        assert sol.endpoint_residual <= 1e-6 * d

    @pytest.mark.parametrize("omega", [TWO_PI * 5e6, TWO_PI * 2.3e6])
    def test_endpoint_map_matches_the_probe_states(self, params, omega):
        # the blocked Gram contraction (3001 intervals: two full blocks and a
        # partial one) against the endpoint states of the four unit costate
        # probes, each row to 1e-10 of its largest entry
        times = np.linspace(0.0, params.duration, 3002)
        probes = _extremal_states(params, omega,
                                  lambda s: _control_basis(omega, params.omega0, s), times)
        want = probes[:, :, -1]
        got = _endpoint_map(params, _control_gram(omega, params.omega0, times))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max(axis=1, keepdims=True))

    def test_gram_energy_matches_the_node_sum(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        nodes, weights = _gauss_panels(sol.times[:-1], sol.times[1:])
        u_squared = np.sum(weights * sol.control(nodes) ** 2)
        direct = params.mass * params.omega0**2 / 2.0 * u_squared / params.duration
        assert sol.e_bar == pytest.approx(direct, rel=1e-10, abs=0.0)

    def test_states_are_built_on_demand(self, params):
        # a sweep reads e_bar only: the solve builds no grid states, and the
        # first read of x builds them from the solution's own control
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        assert sol._grid is None and "x" not in vars(sol)
        x = sol.x
        assert sol._grid is not None and sol.x is x
        d, T = params.distance, params.duration
        at = sol.states(sol.times)
        for k, scale in enumerate([d, d / T, d, d / T]):
            assert np.allclose(x[k], at[k], rtol=0, atol=1e-12 * scale)
        other = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        other.states(0.5 * T)
        assert other._grid is not None and "x" not in vars(other)

    def test_protocol_exempts_the_edge_jumps(self, params):
        protocol = OctExtremalProtocol(params, oct_solve(params, TWO_PI * 5e6, n_steps=3000))
        assert protocol.edge_jumps and not Polynomial5(params).edge_jumps
        report = protocol.boundary_report(rtol=1e-8)
        assert abs(report.acceleration_start) > 1e-3 * params.distance / params.duration**2
        assert report.ok

    def test_control_formula_consistency(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=4000)
        assert np.allclose(sol.control(sol.times), sol.u, rtol=0, atol=1e-18)

    def test_superposition_linearity(self, params):
        omega = TWO_PI * 5e6
        n_steps = 3000
        times = np.linspace(0, params.duration, n_steps + 1)
        basis = lambda s: _control_basis(omega, params.omega0, s)
        endpoints = _extremal_states(params, omega, basis, times)[:, :, -1]
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.normal(size=4)
            combined = _extremal_states(
                params, omega, lambda s: np.tensordot(c, basis(s), axes=1), times)
            want = endpoints @ c
            assert np.allclose(combined[:, -1], want,
                               rtol=1e-10, atol=1e-12 * params.distance)

    def test_oracle_follows_extremal_trap_path(self, params):
        # the reference RK4 driven by the extremal's trap path at constant
        # omega0 reproduces the quadrature states and comes to rest at d
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=4000)
        trap = sol.trap_trajectory()
        w0 = lambda t: params.omega0 * np.ones_like(t)
        coarse = reference_solve_auxiliary(params, w0, trap, 4000)
        fine = reference_solve_auxiliary(params, w0, trap, 8000)
        dq = np.max(np.abs(coarse.qc - fine.qc[::2]))
        dv = np.max(np.abs(coarse.qc_dot - fine.qc_dot[::2]))
        assert np.max(np.abs(coarse.qc - sol.x[0])) <= 10 * dq
        assert np.max(np.abs(coarse.qc_dot - sol.x[1])) <= 10 * dv
        assert abs(coarse.qc[-1] - params.distance) <= 10 * dq
        assert abs(coarse.qc_dot[-1]) <= 10 * dv

    def test_first_order_stationarity(self, params):
        # feasible variations (zero endpoint response) do not change the cost
        # to first order, and strictly increase it at second order
        omega = TWO_PI * 5e6
        n_steps = 4000
        sol = oct_solve(params, omega, n_steps=n_steps)
        T = params.duration
        tg = np.linspace(0, T, 2 * n_steps + 1)
        u = sol.control(tg)

        def modes_at(s):
            return np.sin(np.multiply.outer(np.arange(1, 9) * np.pi / T, s))

        modes = modes_at(tg)
        responses = _extremal_states(params, omega, modes_at, sol.times)[:, :, -1]
        # nullspace of the endpoint-response map: variations with delta_x(T)=0
        scale = np.diag([1 / params.distance, T / params.distance,
                         1 / params.distance, T / params.distance])
        _, sv, vt = np.linalg.svd(scale @ responses, full_matrices=True)
        null = vt[4:]
        rng = np.random.default_rng(2)
        j_u = np.trapezoid(u**2, tg)
        for _ in range(20):
            z = rng.normal(size=null.shape[0])
            du = (z @ null) @ modes
            first_order = np.trapezoid(u * du, tg)
            assert abs(first_order) <= 1e-6 * np.sqrt(j_u * np.trapezoid(du**2, tg))

    def test_distance_scaling_is_exact(self, params):
        omega = TWO_PI * 5e6
        base = oct_solve(params, omega, n_steps=3000).e_bar
        doubled = oct_solve(dataclasses.replace(params, distance=2 * params.distance),
                            omega, n_steps=3000).e_bar
        assert doubled / base == pytest.approx(4.0, rel=1e-10)

    def test_jumps_reported(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        assert sol.jump_start > 0 and sol.jump_end > 0

    def test_scalar_states_match_array_states(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        t = np.array([0.0, 0.123, 0.5, 0.77, 1.0]) * params.duration
        at_once = sol.states(t)
        for k, point in enumerate(t.tolist()):
            assert np.array_equal(sol.states(point), at_once[:, k])
        protocol = OctExtremalProtocol(params, sol)
        assert protocol.position(t[2]) == at_once[0, 2]
        assert protocol.velocity(t[3]) == at_once[1, 3]

    def test_states_reuse_the_grid_sums(self, params):
        # after the first call, each requested time costs one partial panel
        # of control evaluations (8 nodes), shared by both oscillators
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=3000)
        nodes = []
        control = sol.control

        def counting(s):
            nodes.append(np.size(s))
            return control(s)

        sol.control = counting
        first = sol.states(0.3 * params.duration)
        assert sum(nodes) == 8 * (3000 + 1)
        nodes.clear()
        t = np.linspace(0.1, 0.9, 5) * params.duration
        sol.states(t)
        assert nodes == [8 * t.size]
        nodes.clear()
        assert np.array_equal(sol.states(0.3 * params.duration), first)
        assert nodes == [8]

    def test_short_transport_is_singular(self, params):
        # omega0*T = 2.5e-3 and omega*T = 3.1e-3: sin(omega t) cos(omega0 t)
        # is omega*t to 1e-5, so two of the four control modes coincide
        p = dataclasses.replace(params, duration=1e-10)
        with pytest.raises(SingularSystemError,
                           match=r"omega0\*T=0\.00251 and omega\*T=0\.00314"):
            oct_solve(p, TWO_PI * 5e6, n_steps=2000)

    def test_input_validation(self, params):
        with pytest.raises(ValueError):
            oct_solve(params, -1.0)
        with pytest.raises(ValueError):
            oct_solve(params, TWO_PI * 5e6, n_steps=100)


class TestAvgDynamicalPotential:
    def test_trap_following_trajectory_costs_nothing(self, params):
        proto = Polynomial5(params)
        trap = proto.position
        assert avg_dynamical_potential(params, proto, trap, n_steps=2000) == 0.0

    def test_matches_control_integral_form(self, params):
        sol = oct_solve(params, TWO_PI * 5e6, n_steps=8000)
        value = avg_dynamical_potential(params, OctExtremalProtocol(params, sol),
                                        sol.trap_trajectory(), n_steps=8000)
        assert value == pytest.approx(sol.e_bar, rel=1e-12, abs=0.0)

    def test_polynomial_exceeds_extremal(self, params):
        omega = TWO_PI * 5e6
        sol = oct_solve(params, omega, n_steps=4000)
        proto = Polynomial5(params)
        poly = avg_dynamical_potential(params, proto,
                                       trap_from_classical(proto, params),
                                       n_steps=4000)
        assert poly > sol.e_bar

    def test_first_order_correction_indistinguishable(self, params):
        # the correction enters at first order in the amplitude: a fraction of
        # a percent at amplitude 0.01 and below a tenth of a percent at 0.003
        omega = TWO_PI * 5e6
        sol = oct_solve(params, omega, n_steps=8000)
        proto, trap = OctExtremalProtocol(params, sol), sol.trap_trajectory()

        def rel_diff(amplitude):
            pert = Perturbation.frequency_sine(omega, amplitude)
            bare = avg_dynamical_potential(params, proto, trap, pert,
                                           include_first_order=False, n_steps=8000)
            dressed = avg_dynamical_potential(params, proto, trap, pert,
                                              include_first_order=True, n_steps=8000)
            return abs(dressed - bare) / bare

        assert rel_diff(0.01) < 3e-3
        assert rel_diff(0.003) < 1e-3
