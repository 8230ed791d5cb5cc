import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stashuttle.quadrature import (PANEL_PHASE, QuadratureError, adaptive_quad,
                                   oscillation_panels, phase_integral,
                                   sine_phase_integral)

PHASES = st.floats(-1e12, 1e12)


def test_polynomial_exact():
    assert adaptive_quad(lambda x: x**2, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-14)


def test_oscillatory_matches_closed_form():
    T = 2e-6
    omega = 2 * np.pi * 5.3e6
    c = 2 * np.pi * 4.1e6
    got = adaptive_quad(lambda t: np.sin(omega * t) * np.exp(-1j * c * t), 0.0, T,
                        rtol=1e-12, initial_panels=oscillation_panels((omega + c) * T))
    want = sine_phase_integral(omega, 0.0, c, T)
    assert abs(got - want) <= 1e-12 * abs(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(PHASES, arrays(float, array_shapes(min_dims=0, max_dims=2), elements=PHASES)))
@example(0.0)
@example(-PANEL_PHASE * 4)
@example(np.array([[0.0, -33.0], [64.0, 64.5]]))
def test_oscillation_panels_is_the_coarsest_grid_of_its_phase(phase):
    panels = oscillation_panels(phase)
    assert np.shape(panels) == np.shape(phase)
    quarter = np.asarray(panels) // 4
    assert np.all(4 * quarter == panels) and np.all(quarter & (quarter - 1) == 0)
    assert np.all(panels * PANEL_PHASE >= np.abs(phase))
    # half the panels would carry more than PANEL_PHASE rad, unless at the floor
    assert np.all((panels == 4) | (panels // 2 * PANEL_PHASE < np.abs(phase)))


def test_oscillation_panels_stop_at_two_to_the_forty():
    # a phase no quadrature can resolve gets the capped count, which
    # adaptive_quad refuses before building the grid
    assert oscillation_panels(1e300) == oscillation_panels(-np.inf) == 2**40
    with pytest.raises(QuadratureError, match="first grid"):
        adaptive_quad(np.sin, 0.0, 1.0, initial_panels=oscillation_panels(1e300))


def test_phase_integral_small_argument_continuity():
    T = 3e-6
    assert phase_integral(0.0, T) == pytest.approx(T, rel=1e-15)
    # series branch and formula branch agree across the switch point
    for kappa in (1e-4 / T * 0.99, 1e-4 / T * 1.01, 7.0 / T):
        brute = adaptive_quad(lambda t: np.exp(1j * kappa * t), 0.0, T, rtol=1e-13)
        assert abs(phase_integral(kappa, T) - brute) <= 1e-12 * T


def test_sine_phase_integral_phase_and_weight():
    T = 1e-6
    omega = 2 * np.pi * 3e6
    c = 2 * np.pi * 7e6
    phase = 0.7
    brute = adaptive_quad(lambda t: np.sin(omega * t + phase) * np.exp(-1j * c * t),
                          0.0, T, rtol=1e-13, initial_panels=64)
    assert abs(sine_phase_integral(omega, phase, c, T) - brute) <= 1e-12 * T


def test_zero_width_interval():
    assert adaptive_quad(np.sin, 1.0, 1.0) == 0.0


def test_cancelling_integral_terminates():
    # integral is ~0; the absolute floor must stop the refinement anyway
    T = 1e-6
    omega = 2 * np.pi * 4e6
    got = adaptive_quad(lambda t: np.sin(omega * t), 0.0, 2 * np.pi / omega * 4,
                        rtol=1e-12)
    assert abs(got) < 1e-20


def test_non_convergence_raises():
    rng = np.random.default_rng(0)

    def noisy(t):
        return rng.normal(size=np.shape(t))

    with pytest.raises(QuadratureError):
        adaptive_quad(noisy, 0.0, 1.0, rtol=1e-12, max_panels=64)


def test_deterministic():
    f = lambda t: np.exp(np.sin(17.0 * t))
    assert adaptive_quad(f, 0.0, 1.0) == adaptive_quad(f, 0.0, 1.0)


# -- lanes: an integrand of shape (*lanes, len(t)) ----------------------------

def _counting(f, sizes):
    def counted(t):
        sizes.append(t.size)
        return f(t)
    return counted


def test_lanes_match_scalar_calls_bit_for_bit():
    # lanes of very different size: each converges against its own floor
    ks = np.array([[0.5, 3.0, 17.0], [40.0, 90.0, 7.5]])
    sizes = np.array([[1.0, 1e-9, 1e6], [3.0, 1e-3, 1e9]])

    def lane(k, size):
        return lambda t: size * (np.cos(np.multiply.outer(k, t)) * np.exp(-t)
                                 + 1j * np.sin(np.multiply.outer(k, t)))

    got = adaptive_quad(lane(ks, sizes[..., None]), 0.0, 2.0, rtol=1e-11)
    assert got.shape == ks.shape
    for idx, k in np.ndenumerate(ks):
        assert got[idx] == adaptive_quad(lane(k, sizes[idx]), 0.0, 2.0, rtol=1e-11)


def test_straggler_lane_keeps_its_own_doubling():
    # the fast lane needs more doublings than the slow ones; every lane keeps
    # the value of its own first converged doubling, not the finest grid's
    ks = np.array([1.3, 2.9, 400.0])

    def lane(k):
        return lambda t: np.exp(np.sin(np.multiply.outer(k, t)))

    stacked_sizes, early_sizes, late_sizes = [], [], []
    got = adaptive_quad(_counting(lane(ks), stacked_sizes), 0.0, 1.0)
    early = adaptive_quad(_counting(lane(ks[0]), early_sizes), 0.0, 1.0)
    late = adaptive_quad(_counting(lane(ks[2]), late_sizes), 0.0, 1.0)
    assert len(early_sizes) < len(late_sizes) == len(stacked_sizes)
    assert got[0] == early and got[2] == late
    assert got[1] == adaptive_quad(lane(ks[1]), 0.0, 1.0)
    # on the finest grid the early lane rounds differently, so the equality
    # above holds only for the value of its own first converged doubling
    finest = adaptive_quad(lane(ks[0]), 0.0, 1.0, initial_panels=late_sizes[-2] // 16)
    assert finest != early


def test_lane_starts_match_scalar_calls_bit_for_bit():
    # every element starts on its own grid, a power-of-two multiple of the
    # smallest, and equals a one-element call started there
    ks = np.array([[0.5, 30.0, 300.0], [90.0, 7.5, 1200.0]])
    starts = np.array([[4, 16, 64], [32, 8, 256]])

    def lane(k):
        return lambda t: np.cos(np.multiply.outer(k, t)) * np.exp(-t)

    got = adaptive_quad(lane(ks), 0.0, 2.0, rtol=1e-11, initial_panels=starts)
    assert got.shape == ks.shape
    for idx, k in np.ndenumerate(ks):
        one = adaptive_quad(lane(k), 0.0, 2.0, rtol=1e-11, initial_panels=starts[idx])
        assert got[idx] == one
        # started on the block's smallest grid, the element would differ
        assert idx == (0, 0) or got[idx] != adaptive_quad(lane(k), 0.0, 2.0, rtol=1e-11,
                                                          initial_panels=4)
    with pytest.raises(ValueError, match="power of two"):
        adaptive_quad(lane(ks[0]), 0.0, 2.0, initial_panels=[8, 12, 16])


def test_one_non_converging_lane_raises():
    rng = np.random.default_rng(0)

    def lanes(t):
        return np.stack([np.sin(t), rng.normal(size=np.shape(t)), np.cos(t)])

    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lanes, 0.0, 1.0, rtol=1e-12, max_panels=64)
    assert info.value.achieved > 1e-12


def test_zero_width_interval_keeps_lane_shape():
    got = adaptive_quad(lambda t: np.ones((2, 3) + np.shape(t)), 1.0, 1.0)
    assert got.shape == (2, 3) and not got.any()


# -- ownership: adaptive_quad weights the integrand's array in place ----------

@pytest.mark.parametrize("f, dtype, rtol", [
    (lambda t: np.broadcast_to(np.sin(5.0 * t), (3, t.size)), np.float64, 1e-10),
    (lambda t: np.full((2, t.size), [[3], [-7]]), np.float64, 1e-10),
    (lambda t: np.exp(np.sin(7.0 * t)).astype(np.float32), np.float64, 1e-5),
    (lambda t: t, np.float64, 1e-10),
    (lambda t: np.exp(1j * np.multiply.outer(t, [3.0, 9.0])).T, np.complex128, 1e-10),
], ids=["read-only", "integer", "float32", "own-grid", "complex-stack"])
def test_integrand_array_is_taken_over_with_the_same_bits(f, dtype, rtol):
    # a result the call may not weight in place is copied first; every case
    # equals the same integrand returning a fresh contiguous copy
    def fresh(t):
        return np.array(f(t), dtype=dtype, order="C")

    got = np.asarray(adaptive_quad(f, 0.0, 1.5, rtol))
    want = np.asarray(adaptive_quad(fresh, 0.0, 1.5, rtol))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
