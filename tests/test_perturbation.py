import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stashuttle import (FirstOrderSolution, FourierSineProtocol, Perturbation,
                        PhysicalParams, Polynomial5, eval_perturbation,
                        exact_transport, static_closed_form)
from stashuttle import perturbation, quadrature
from stashuttle.perturbation import (LANE_NODES, eta_ratio, fourier_dynamical,
                                     fourier_static_freq, fourier_static_pos,
                                     lane_blocks, second_order_energy_freq,
                                     second_order_energy_pos, sine_lanes)
from stashuttle.quadrature import PANEL_ORDER, oscillation_panels

TWO_PI = 2 * np.pi


def endpoint_constrained_coeffs(params, seed, n=6):
    """Random sine-series coefficients satisfying the two endpoint constraints."""
    rng = np.random.default_rng(seed)
    js = np.arange(1, n + 1)
    rows = np.vstack([params.duration**2 / (js * np.pi), (1 - (-1.0) ** js) / js])
    rhs = np.array([params.distance, 0.0])
    free = rng.normal(0.0, params.distance / params.duration**2, n)
    correction, *_ = np.linalg.lstsq(rows, rhs - rows @ free, rcond=None)
    return free + correction


class TestFirstOrder:
    def test_zero_perturbation(self, params):
        sol = FirstOrderSolution(params, Polynomial5(params), lambda t: np.zeros_like(t))
        T = params.duration
        assert sol.responses(T, ("rho1", "qc1")) == [0.0, 0.0]

    def test_initial_conditions(self, params):
        pert = Perturbation.frequency_sine(TWO_PI * 6e6, 0.01)
        sol = FirstOrderSolution(params, Polynomial5(params), pert)
        assert sol.responses(0.0, ("rho1", "rho1_dot", "qc1", "qc1_dot")) == [0.0] * 4

    def test_constant_perturbation_closed_form(self, params):
        # rho1(t) = -(1 - cos(2 w0 t))/2 for f = 1
        sol = FirstOrderSolution(params, Polynomial5(params),
                                 lambda t: np.ones_like(np.asarray(t, dtype=float)))
        w0 = params.omega0
        for t in (0.3e-6, 0.77e-6, 1.9e-6):
            want = -0.5 * (1.0 - np.cos(2 * w0 * t))
            [rho1] = sol.responses(t, ("rho1",))
            assert rho1 == pytest.approx(want, abs=1e-9)

    def test_static_part_matches_closed_form(self, params):
        # endpoint values must reproduce the sinusoid closed form when wT = k*pi
        for k in (7, 18, 31):
            omega = k * np.pi / params.duration
            pert = Perturbation.frequency_sine(omega, 0.01)
            report = second_order_energy_freq(params, Polynomial5(params), pert)
            want = static_closed_form(params, omega)
            assert report.static_quanta == pytest.approx(want, rel=1e-9, abs=1e-15)


class TestSecondOrderFrequency:
    def test_zero_perturbation(self, params):
        report = second_order_energy_freq(params, Polynomial5(params),
                                          lambda t: np.zeros_like(t))
        assert report.static_quanta == 0.0 == report.dynamical_quanta

    def test_resonance_locations_coarse(self, params):
        # dynamical peak near w0, static peak near 2*w0
        proto = Polynomial5(params)
        grid = np.linspace(0.2, 3.8, 120) * params.omega0
        stat, dyn = [], []
        for omega in grid:
            pert = Perturbation.frequency_sine(omega, 0.01)
            r = second_order_energy_freq(params, proto, pert)
            stat.append(r.static_quanta)
            dyn.append(r.dynamical_quanta)
        window = TWO_PI / params.duration
        assert abs(grid[int(np.argmax(dyn))] - params.omega0) < 1.5 * window
        assert abs(grid[int(np.argmax(stat))] - 2 * params.omega0) < 1.5 * window

    def test_commensurate_static_vanishes(self, params):
        # omega*T = 24*pi with omega0*T = 16*pi: even/even vanishing condition
        omega = 24 * np.pi / params.duration
        pert = Perturbation.frequency_sine(omega, 0.01)
        report = second_order_energy_freq(params, Polynomial5(params), pert)
        assert report.static_quanta < 1e-12

    def test_total_is_sum_and_nonnegative(self, params):
        rng = np.random.default_rng(3)
        proto = Polynomial5(params)
        for omega in rng.uniform(0.3, 3.5, 10) * params.omega0:
            r = second_order_energy_freq(params, proto,
                                         Perturbation.frequency_sine(omega, 0.01))
            assert r.static_quanta >= 0.0 and r.dynamical_quanta >= 0.0
            assert r.total_quanta == r.static_quanta + r.dynamical_quanta


def blocked_report(params, proto, lanes, omegas, n=0):
    """Static and dynamical quanta of an axis, block by block as the CLI runs it."""
    reports = [second_order_energy_freq(params, proto, lanes[block], n)
               for block in lane_blocks(params, omegas)]
    return (np.concatenate([r.static_quanta for r in reports]),
            np.concatenate([r.dynamical_quanta for r in reports]))


def assert_one_point_calls(params, proto, omegas, static, dynamical, n=0):
    for k, omega in enumerate(omegas):
        one = second_order_energy_freq(params, proto,
                                       Perturbation.frequency_sine(omega, 0.01), n)
        assert static[k] == one.static_quanta
        assert dynamical[k] == one.dynamical_quanta


class TestLanes:
    def test_lanes_match_one_point_calls(self, params):
        # one block, then an axis whose blocks share a scratch up to the fast
        # end, where every block holds one lane: each lane equals its own call
        proto = Polynomial5(params)
        for ratios, one_lane_blocks in [([0.3, 1.0, 1.7, 2.0, 2.6, 3.9], False),
                                        (np.linspace(0.1, 200.0, 24), True)]:
            omegas = np.array(ratios) * params.omega0
            blocks = lane_blocks(params, omegas)
            widths = [b.stop - b.start for b in blocks]
            assert (widths[-1] == 1) == one_lane_blocks and max(widths) > 1
            # a block whose lanes start on different grids
            starts = oscillation_panels((omegas + 2.0 * params.omega0) * params.duration)
            assert any(np.unique(starts[b]).size > 1 for b in blocks)
            static, dynamical = blocked_report(params, proto, sine_lanes(omegas), omegas,
                                               n=1)
            assert_one_point_calls(params, proto, omegas, static, dynamical, n=1)

    def test_lanes_agree_with_a_fine_tight_reference(self, params, monkeypatch):
        # each lane of an axis against its own quadrature at rtol 1e-13 started
        # on at least 2048 panels (at most 5 rad of phase per panel)
        proto = Polynomial5(params)
        omegas = np.geomspace(0.05, 200.0, 24) * params.omega0
        static, dynamical = blocked_report(params, proto, sine_lanes(omegas), omegas)
        monkeypatch.setattr(perturbation, "RTOL", 1e-13)
        monkeypatch.setattr(perturbation, "oscillation_panels",
                            lambda phase: max(2048, oscillation_panels(phase)))
        refs = [second_order_energy_freq(params, proto, Perturbation.frequency_sine(omega, 0.01))
                for omega in omegas]
        for got, want in [(static, np.array([r.static_quanta for r in refs])),
                          (dynamical, np.array([r.dynamical_quanta for r in refs]))]:
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-14 * want.max())

    def test_slices_share_one_scratch(self, params):
        omegas = np.arange(1.0, 7.0) * params.omega0
        lanes = sine_lanes(omegas)
        t = np.linspace(0.0, params.duration, 64)
        # the wider block first: the buffer it allocates then serves the narrower
        tail, head = lanes[2:](t), lanes[:2](t)
        assert np.shares_memory(head, tail)
        assert np.array_equal(head, np.sin(np.multiply.outer(omegas[:2], t)))

    def test_report_survives_later_blocks(self, params):
        # a report must not alias the lane buffer that later blocks overwrite,
        # f(T) included
        proto = Polynomial5(params)
        omegas = np.array([0.5, 1.5, 2.5, 60.0]) * params.omega0
        lanes = sine_lanes(omegas)
        report = second_order_energy_freq(params, proto, lanes[:3])
        static, dynamical = report.static_quanta.copy(), report.dynamical_quanta.copy()
        second_order_energy_freq(params, proto, lanes[3:])
        lanes(np.linspace(0.0, params.duration, 4096))
        assert np.array_equal(report.static_quanta, static)
        assert np.array_equal(report.dynamical_quanta, dynamical)
        assert_one_point_calls(params, proto, omegas[:3], static, dynamical)

    def test_one_scratch_serves_other_params_and_protocols(self, params):
        # grid factors are keyed by grid and protocol: a second trap, duration
        # or trajectory on the same lanes gets its own one-point answers
        omegas = np.array([0.4, 1.1, 2.3, 3.5]) * params.omega0
        lanes = sine_lanes(omegas)
        longer = PhysicalParams(mass=params.mass, omega0=params.omega0,
                                distance=params.distance, duration=1.5 * params.duration)
        farther = PhysicalParams(mass=params.mass, omega0=params.omega0,
                                 distance=3.0 * params.distance, duration=params.duration)
        cases = [(params, Polynomial5(params)), (longer, Polynomial5(longer)),
                 (farther, Polynomial5(farther)),
                 (params, FourierSineProtocol(params, endpoint_constrained_coeffs(params, 0))),
                 (params, Polynomial5(params))]
        for p, proto in cases:
            static, dynamical = blocked_report(p, proto, lanes, omegas)
            assert_one_point_calls(p, proto, omegas, static, dynamical)

    def test_first_order_evaluators_take_lanes(self, params):
        omegas = np.array([0.7, 2.2]) * params.omega0
        lanes = FirstOrderSolution(params, Polynomial5(params), sine_lanes(omegas))
        # two nearby times integrate on grids of the same size but other nodes,
        # so a grid factor of the one must not serve the other
        for t in (0.6 * params.duration, 0.5999 * params.duration):
            for k, omega in enumerate(omegas):
                one = FirstOrderSolution(params, Polynomial5(params),
                                         Perturbation.frequency_sine(omega, 0.01))
                for name in ("rho1", "rho1_dot", "qc1", "qc1_dot"):
                    assert (lanes.responses(t, (name,))[0][k]
                            == one.responses(t, (name,))[0])
        rho1, qc1_dot = lanes.responses(0.0, ("rho1", "qc1_dot"))
        assert not rho1.any() and qc1_dot.shape == (2,)

    def test_one_evaluator_integrates_one_kernel(self, params, monkeypatch):
        sol = FirstOrderSolution(params, Polynomial5(params),
                                 Perturbation.frequency_sine(TWO_PI * 6e6, 0.01))
        t = 0.6 * params.duration
        # a pair of rows of one kernel frequency runs on the chain of either row
        pairs = {"rho1": sol.responses(t, ("rho1", "rho1_dot")),
                 "qc1": sol.responses(t, ("qc1", "qc1_dot"))}
        rows, quad = [], perturbation.adaptive_quad

        def counting(f, *args):
            rows.append(len(f(np.zeros(1))))
            return quad(f, *args)

        monkeypatch.setattr(perturbation, "adaptive_quad", counting)
        for name, k in [("rho1", 0), ("rho1_dot", 1), ("qc1", 0), ("qc1_dot", 1)]:
            assert sol.responses(t, (name,))[0] == pairs[name.split("_")[0]][k]
        assert rows == [1, 1, 1, 1]

    def test_block_integrates_one_stack_of_four_rows(self, params, monkeypatch):
        # the four kernels of a block share one quadrature, and its lanes are
        # evaluated at T and on the grids from the slowest lane's start (8
        # panels for 2.3*16*pi rad of phase at 0.3 w0) to the doubling of the
        # fastest lane's start (32 panels for 5.9*16*pi rad at 3.9 w0)
        omegas = np.array([0.3, 1.0, 1.7, 2.0, 2.6, 3.9]) * params.omega0
        lanes, shapes, grids = sine_lanes(omegas), [], []
        quad, call = perturbation.adaptive_quad, perturbation.SineLanes.__call__

        def counting_quad(f, *args):
            result = quad(f, *args)
            shapes.append(result.shape)
            return result

        def counting_call(self, t):
            grids.append(np.size(t))
            return call(self, t)

        monkeypatch.setattr(perturbation, "adaptive_quad", counting_quad)
        monkeypatch.setattr(perturbation.SineLanes, "__call__", counting_call)
        (block,) = lane_blocks(params, omegas)
        second_order_energy_freq(params, Polynomial5(params), lanes[block])
        assert shapes == [(omegas.size, 4)]
        assert grids == [1] + [PANEL_ORDER * panels for panels in (8, 16, 32, 64)]

    def test_factor_cache_holds_one_duration(self, params):
        # a library caller reusing one lanes object over many durations keeps
        # the grid factors of the latest duration only
        omegas = np.array([0.5, 2.5]) * params.omega0
        lanes = sine_lanes(omegas)
        sizes = set()
        for duration in np.linspace(1.0, 3.0, 50) * params.duration:
            p = dataclasses.replace(params, duration=float(duration))
            second_order_energy_freq(p, Polynomial5(p), lanes)
            factors = lanes.scratch._factors
            # the grids from the slower lane's start to the faster one's doubling
            slow, fast = oscillation_panels((omegas + 2.0 * p.omega0) * p.duration)
            grids = [PANEL_ORDER * slow]
            while grids[-1] < 2 * PANEL_ORDER * fast:
                grids.append(2 * grids[-1])
            assert sorted(factors) == grids
            sizes.add(len(factors))
            assert all(grid[-1] < p.duration for grid, _ in factors.values())
            assert all(grid[-1] > 0.99 * p.duration for grid, _ in factors.values())
        # durations where both lanes start on one grid and where they do not
        assert sizes == {2, 3}

    def test_estimated_grid_covers_the_grid_reached(self, params, monkeypatch):
        # every lane, from 0.1 w0 to 200 w0, stops at the first doubling of
        # its own start, the estimate, also at 94.14, 147.70, 189.99 and
        # 193.99 w0, where rows cancel down to the convergence floor
        reached, panel_sum = [], quadrature._panel_sum

        def spy(f, a, b, n):
            reached.append(n)
            return panel_sum(f, a, b, n)

        monkeypatch.setattr(quadrature, "_panel_sum", spy)
        proto = Polynomial5(params)
        for ratio in (0.1, 4.0, 25.0, 50.0, 94.14, 100.0, 147.70, 189.99, 193.99, 200.0):
            omega = ratio * params.omega0
            reached.clear()
            second_order_energy_freq(params, proto, sine_lanes([omega]))
            assert max(reached) == perturbation._estimated_panels(params, omega)

    def test_blocks_cover_the_axis_within_the_node_bound(self, params):
        omegas = np.linspace(0.1, 200.0, 2000) * params.omega0
        blocks = lane_blocks(params, omegas)
        assert blocks[0].start == 0 and blocks[-1].stop == omegas.size
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # a block takes lanes until the next one would put lanes x its widest
        # estimated grid above the bound; the fast end goes one lane at a time
        nodes = PANEL_ORDER * perturbation._estimated_panels(params, omegas)
        for block in blocks:
            width = block.stop - block.start
            assert width == 1 or width * nodes[block].max() <= LANE_NODES
            if block.stop < omegas.size:
                assert (width + 1) * nodes[block.start:block.stop + 1].max() > LANE_NODES
        # the slow end: 32 lanes up to 3.2 w0, whose estimate is 64 panels
        assert blocks[0].stop == LANE_NODES // (PANEL_ORDER * 64) == 32
        assert nodes[31] == PANEL_ORDER * 64
        assert blocks[-1].stop - blocks[-1].start == 1
        assert lane_blocks(params, omegas[:1]) == [slice(0, 1)]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(omega0_mhz=st.floats(1.0, 10.0), duration_us=st.floats(0.5, 5.0),
           distance_um=st.floats(10.0, 200.0),
           ratios=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=6))
    def test_lanes_agree_with_independent_forms(self, omega0_mhz, duration_us,
                                                distance_um, ratios):
        # the lane path of the time-integral form against the closed static
        # form and the Fourier dynamical form, lane by lane
        params = PhysicalParams(mass=1.455e-25, omega0=omega0_mhz * TWO_PI * 1e6,
                                distance=distance_um * 1e-6, duration=duration_us * 1e-6)
        proto = Polynomial5(params)
        omegas = np.array(ratios) * params.omega0
        report = second_order_energy_freq(params, proto, sine_lanes(omegas))
        assert report.static_quanta.shape == report.dynamical_quanta.shape == omegas.shape
        for k, omega in enumerate(omegas):
            closed = static_closed_form(params, omega)
            fourier = fourier_dynamical(params, proto, Perturbation.frequency_sine(omega, 0.01))
            static, dynamical = report.static_quanta[k], report.dynamical_quanta[k]
            assert abs(static - closed) <= 1e-9 * max(static, closed, 1e-15)
            assert abs(dynamical - fourier) <= 1e-9 * max(dynamical, fourier, 1e-15)


class TestSecondOrderPosition:
    def test_zero_perturbation(self, params):
        report = second_order_energy_pos(params, lambda t: np.zeros_like(t))
        assert report.total_quanta == 0.0

    def test_matches_fourier_form(self, params):
        # omega0*T = 16*pi, so at k = 24 the position transform vanishes and
        # both forms return rounding noise: each k is compared at the scale of
        # the k = 9 value
        got, want = [], []
        for k in (9, 24):
            omega = k * np.pi / params.duration
            pert = Perturbation.position_sine(omega, 0.01)
            got.append(second_order_energy_pos(params, pert).static_quanta)
            want.append(fourier_static_pos(params, pert))
        scale = want[0]
        assert abs(want[1]) <= 1e-12 * scale
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * scale

    def test_purely_static(self, params):
        pert = Perturbation.position_sine(TWO_PI * 3e6, 0.01)
        report = second_order_energy_pos(params, pert)
        assert report.dynamical_quanta == 0.0

    def test_lanes_match_one_point_calls(self, params):
        omegas = np.linspace(0.8, 15.2, 40) * TWO_PI * 1e6
        report = second_order_energy_pos(params, sine_lanes(omegas))
        assert report.static_quanta.shape == report.dynamical_quanta.shape == omegas.shape
        assert not report.dynamical_quanta.any()
        for k, omega in enumerate(omegas):
            one = second_order_energy_pos(params, Perturbation.position_sine(omega, 0.01))
            assert report.static_quanta[k] == one.static_quanta


class TestFourierForms:
    def test_dynamical_zero_perturbation(self, params):
        assert fourier_dynamical(params, Polynomial5(params),
                                 lambda t: np.zeros_like(t)) == 0.0

    def test_dynamical_equals_time_integral(self, params):
        proto = Polynomial5(params)
        rng = np.random.default_rng(11)
        for k in rng.integers(3, 35, 8):
            omega = int(k) * np.pi / params.duration
            pert = Perturbation.frequency_sine(omega, 0.01)
            fd = fourier_dynamical(params, proto, pert)
            ti = second_order_energy_freq(params, proto, pert).dynamical_quanta
            assert abs(fd - ti) <= 1e-9 * max(fd, ti, 1e-15)

    def test_dynamical_callable_route_agrees(self, params):
        # generic quadrature route (raw callable) against the sine-split route
        proto = Polynomial5(params)
        omega = TWO_PI * 5.5e6
        pert = Perturbation.frequency_sine(omega, 0.01)
        direct = fourier_dynamical(params, proto, lambda t: np.sin(omega * t))
        split = fourier_dynamical(params, proto, pert)
        assert direct == pytest.approx(split, rel=1e-9)

    def test_dynamical_sum_closed_form_matches_quadrature(self, params):
        # the split into acceleration transforms at omega0 -/+ omega, with
        # each component's phase, against quadrature of the same f(t)
        proto = Polynomial5(params)
        pert = Perturbation.frequency_sum(
            [(TWO_PI * 3.1e6, 0.7, 1.0), (TWO_PI * 6.4e6, -1.9, 0.35)], 0.01)
        closed = fourier_dynamical(params, proto, pert)
        quad = fourier_dynamical(params, proto, lambda t: eval_perturbation(pert, t))
        assert closed > 0.0
        assert closed == pytest.approx(quad, rel=1e-9)

    def test_static_freq_sum_closed_form_matches_quadrature(self, params):
        T = params.duration
        pert = Perturbation.frequency_sum(
            [(9 * np.pi / T, 0.0, 1.0), (14 * np.pi / T, 0.0, -0.4)], 0.01)
        closed = fourier_static_freq(params, pert)
        quad = fourier_static_freq(params, lambda t: eval_perturbation(pert, t))
        assert closed > 0.0
        assert closed == pytest.approx(quad, rel=1e-9)

    def test_static_pos_closed_form_matches_quadrature(self, params):
        pert = Perturbation.position_sine(11 * np.pi / params.duration, 0.01)
        closed = fourier_static_pos(params, pert)
        quad = fourier_static_pos(params, lambda t: eval_perturbation(pert, t))
        assert closed > 0.0
        assert closed == pytest.approx(quad, rel=1e-9)

    def test_dynamical_suppressed_on_even_commensurate_grid(self, params):
        # on the omega0*T = 8*pi commensurate grid the acceleration transform
        # reduces to its 1/K^3 projections, so grid points away from the
        # |K| = 1 resonance are strongly suppressed (but not exactly zero)
        p = PhysicalParams(params.mass, params.omega0, params.distance, 1e-6)
        omega = 6 * TWO_PI / p.duration  # omega*T = 12*pi -> K = -2 and 10
        off_resonant = fourier_dynamical(p, Polynomial5(p),
                                         Perturbation.frequency_sine(omega, 0.01))
        resonant = fourier_dynamical(p, Polynomial5(p),
                                     Perturbation.frequency_sine(
                                         p.omega0 + TWO_PI / p.duration, 0.01))
        assert off_resonant < 0.02 * resonant

    def test_static_freq_precondition(self, params):
        omega = 10.5 * np.pi / params.duration  # f(T) != 0
        with pytest.raises(ValueError, match="f\\(T\\)=0"):
            fourier_static_freq(params, Perturbation.frequency_sine(omega, 0.01))

    def test_static_freq_matches_closed_form(self, params):
        rng = np.random.default_rng(5)
        for k in rng.integers(1, 40, 12):
            omega = int(k) * np.pi / params.duration
            if abs(omega - 2 * params.omega0) < 0.05 * params.omega0:
                continue
            got = fourier_static_freq(params, Perturbation.frequency_sine(omega, 0.01))
            want = static_closed_form(params, omega)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-18)

    def test_static_freq_parametric_peak(self, params):
        # response at the parametric point dominates its commensurate neighbours
        T = params.duration
        at = lambda k: fourier_static_freq(
            params, Perturbation.frequency_sine(k * np.pi / T, 0.01))
        k_par = round(2 * params.omega0 * T / np.pi)  # 32: omega = 2*w0
        assert at(k_par) > 10 * max(at(k_par - 3), at(k_par + 3))

    def test_static_pos_peak_near_trap_frequency(self, params):
        T = params.duration
        ks = np.arange(2, 40, 2)
        values = [fourier_static_pos(params,
                                     Perturbation.position_sine(k * np.pi / T, 0.01))
                  for k in ks]
        k_best = ks[int(np.argmax(values))]
        assert abs(k_best * np.pi / T - params.omega0) <= 2 * TWO_PI / T


class TestEtaRatio:
    def test_reference_value(self, params):
        # direct arithmetic: 2*hbar/(m*w0*d^2)
        want = 2 * params.hbar / (params.mass * params.omega0 * params.distance**2)
        assert eta_ratio(params) == pytest.approx(want, rel=1e-15)
        assert eta_ratio(params) == pytest.approx(2.31e-8, rel=0.01)

    def test_level_scaling(self, params):
        for n in range(4):
            assert eta_ratio(params, n + 1) / eta_ratio(params, n) == \
                pytest.approx((2 * n + 3) / (2 * n + 1), rel=1e-12)

    def test_distance_scaling(self, params):
        import dataclasses
        doubled = dataclasses.replace(params, distance=2 * params.distance)
        assert eta_ratio(doubled) == pytest.approx(eta_ratio(params) / 4, rel=1e-12)


class TestPerturbativeConsistency:
    def test_residual_shrinks_linearly_in_amplitude(self, params):
        proto = Polynomial5(params)
        for omega in (TWO_PI * 2.6e6, TWO_PI * 5.3e6, TWO_PI * 6.9e6):
            errors = []
            for lam in (1e-3, 3e-3, 1e-2):
                pert = Perturbation.frequency_sine(omega, lam)
                exact = exact_transport(params, proto, pert, n_steps=20000)[0].value
                second = lam**2 * second_order_energy_freq(params, proto, pert).total_quanta
                errors.append(abs(exact - second) / second)
            assert errors[0] < errors[1] < errors[2]
            # roughly linear: scaling by 10 in amplitude moves the residual
            # by 10 within a factor of ~4
            assert errors[2] / errors[0] == pytest.approx(10.0, rel=3.0)
