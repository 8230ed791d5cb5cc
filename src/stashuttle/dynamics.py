"""Exact propagation of the auxiliary width and trajectory equations.

This module is the non-perturbative oracle for

    rho'' + Omega^2(t) rho = Omega0^2 / rho^3
    q''   + Omega^2(t) q   = Omega^2(t) Q(t)

The width equation is nonlinear, but rho^2 = u1^2 + u2^2 for two solutions
of the linear u'' + Omega^2(t) u = 0 (Lewis & Riesenfeld, J. Math. Phys. 10,
1458 (1969)), and q is affine in the same equation.  One map of (u, u', 1)
over [0, T] therefore gives every endpoint value, and the exact final energy
follows from them.  The map is a product of fixed two-node 4th-order Magnus
steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), each one
closed-form exponential, multiplied in blocks with a few numpy calls and
checked at run time against half the step count.  Fixed stepping keeps every
output bit-reproducible for a given step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (EnergyQuanta, Perturbation, PhysicalParams, Protocol,
                    eval_perturbation)

DEFAULT_STEPS = 20000
# steps multiplied as one tree.  A block's (2, 3, 4096) step stack is 192 KiB,
# above glibc's initial 128 KiB mmap threshold, which glibc raises once the
# first such stack is freed.  2048-step blocks keep every array below it but
# ran the 80-point verify-omega axis 17 % slower in-process (median 0.157 s
# against 0.133 s on a 2-core Xeon VM), for 0.05 MB less peak RSS.
BLOCK_STEPS = 4096
# largest endpoint change allowed when the step count is halved
HALVING_TOL = 1e-8
# times of the first and of the second Gauss-Legendre node of each step of
# a block, one row each, in steps from the block start
_NODE_OFFSETS = np.add.outer([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0],
                             np.arange(float(BLOCK_STEPS)))
# weight of the commutator in the two-node Magnus exponent, per h^2
_COMMUTATOR = math.sqrt(3.0) / 12.0
# maps left when the tree product goes over to floats
_FLOAT_TAIL = 16


class IntegrationError(RuntimeError):
    """The exact propagator failed a resolution check (integrator failure)."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6e} s")
        self.time = time


@dataclass(frozen=True)
class AuxiliarySolution:
    """The auxiliary variables at t = T, from rho = 1 and qc = 0 at rest at t = 0."""

    rho: float       # dimensionless width factor
    rho_dot: float   # 1/s
    qc: float        # m
    qc_dot: float    # m/s
    # largest scaled endpoint change of the step-halving check of
    # `solve_auxiliary`; 0.0 for a solution that ran no such check
    halving_change: float = 0.0


def trap_from_classical(proto: Protocol, params: PhysicalParams):
    """Inverse-engineered ideal trap path Q0(t) for constant trap frequency.

    Q0(t) = q(t) + q''(t)/omega0^2, which drives the given classical
    trajectory exactly when the frequency stays at omega0.  omega0 is read
    from the protocol's own parameters, which `params` must match.
    """
    if params.omega0 != proto.params.omega0:
        raise ValueError(f"params.omega0 = {params.omega0!r} differs from the "
                         f"protocol's omega0 = {proto.params.omega0!r}")
    return proto.trap_path


def shifted_trap(trap, pert: Perturbation, params: PhysicalParams):
    """Trap path with a position perturbation applied: Q0 + amplitude*d*h(t)."""
    if not pert.is_position:
        raise ValueError("shifted_trap expects a position perturbation")
    amp_d = pert.amplitude * params.distance

    def fn(t):
        return trap(t) + amp_d * eval_perturbation(pert, t)

    return fn


def _reject_first(bad: np.ndarray, tg: np.ndarray, what: str) -> None:
    """Raise ValueError naming the earliest time of the nodes `tg` where `bad` holds."""
    if bad.any():
        raise ValueError(f"{what}; first violation at t={tg[bad].min():.6e} s")


def _magnus_steps(a: np.ndarray, b: np.ndarray, h: float, first: int = 0) -> np.ndarray:
    """exp of the two-node 4th-order Magnus exponent of each step, as a (2, 3, n) stack.

    `a` and `b` hold Omega^2 and Omega^2 Q at the two Gauss nodes of each
    step, rows of shape (2, n).  With A_i = [[0, 1, 0], [-a_i, 0, b_i],
    [0, 0, 0]] the exponent (h/2)(A_1 + A_2) + (sqrt(3) h^2/12)[A_2, A_1]
    (Blanes, Casas, Oteo & Ros 2009) is [[M, v], [0, 0]] with
    M = [[p, h], [-g, -p]].  M^2 = -theta^2 I for theta^2 = h g - p^2, so its
    exponential has the linear block cos(theta) I + (sin(theta)/theta) M and
    the affine column (sin(theta)/theta I + D M) v, D = (1 - cos(theta))/theta^2.
    Step k of the stack is [[a, b, e], [c, d, f]], the map of (u, u', 1).
    IntegrationError names the start of the first step, counted from step
    `first`, whose theta^2 is not positive and finite.
    """
    a1, a2 = a
    b1, b2 = b
    half = 0.5 * h
    comm = _COMMUTATOR * h * h
    p = comm * (a2 - a1)
    g = half * (a1 + a2)
    theta2 = h * g - p * p
    # theta^2 = h^2 (a1 + a2)/2 - h^4 (a2 - a1)^2/48 turns nonpositive when
    # Omega^2 jumps between the nodes of a step by more than about
    # 24/(h Omega)^2 times; the max catches an overflow, and both a NaN
    if not (theta2.min() > 0.0 and theta2.max() < math.inf):
        bad = ~((theta2 > 0.0) & (theta2 < math.inf))
        raise IntegrationError("Magnus exponent became nonpositive: Omega(t) is "
                               "under-resolved in the step",
                               h * (first + int(np.argmax(bad))))
    # from the half angle, (1 - cos(theta))/theta^2 = (sin(theta/2)/(theta/2))^2/2
    # has no cancellation at small theta and no zero divisor at odd multiples
    # of pi, where a coarse step at constant Omega may land
    half_theta = 0.5 * np.sqrt(theta2)
    cos_half = np.cos(half_theta)
    ratio = np.sin(half_theta) / half_theta
    sinc = cos_half * ratio
    damp = 0.5 * (ratio * ratio)
    cos = 1.0 - theta2 * damp
    v1 = comm * (b1 - b2)
    v2 = half * (b1 + b2)
    sinc_p = sinc * p
    steps = np.empty((2, 3, len(theta2)))
    np.add(cos, sinc_p, out=steps[0, 0])
    np.multiply(sinc, h, out=steps[0, 1])
    np.add(sinc * v1, damp * (p * v1 + h * v2), out=steps[0, 2])
    np.multiply(sinc, -g, out=steps[1, 0])
    np.subtract(cos, sinc_p, out=steps[1, 1])
    np.subtract(sinc * v2, damp * (g * v1 + p * v2), out=steps[1, 2])
    return steps


def _compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for stacks of affine maps [[a, b, e], [c, d, f], [0, 0, 1]].

    A stack has shape (2, 3, ...), the two top rows of each map.
    """
    out = left[:, 0, None] * right[0] + left[:, 1, None] * right[1]
    out[:, 2] += left[:, 2]
    return out


def _compose_floats(left: list, right: list) -> list:
    """`_compose` of two maps given as the floats [a, b, e, c, d, f]."""
    la, lb, le, lc, ld, lf = left
    ra, rb, re, rc, rd, rf = right
    return [la * ra + lb * rc, la * rb + lb * rd, la * re + lb * rf + le,
            lc * ra + ld * rc, lc * rb + ld * rd, lc * re + ld * rf + lf]


def _ordered_product(maps: np.ndarray, total: list) -> list:
    """maps[..., m-1] @ ... @ maps[..., 0] @ total for a (2, 3, m) stack.

    `total` is a map in the floats of `_compose_floats`.  Pairs of
    neighbours are multiplied as whole stacks until few maps are left; the
    rest are multiplied one by one in floats, which is cheaper than a numpy
    call on a handful of elements.
    """
    # maps set aside at odd lengths; each is later than all still in `maps`
    later = []
    while maps.shape[-1] > _FLOAT_TAIL:
        if maps.shape[-1] % 2:
            later.append(maps[..., -1].ravel().tolist())
            maps = maps[..., :-1]
        maps = _compose(maps[..., 1::2], maps[..., 0::2])
    for step in [*maps.reshape(6, -1).T.tolist(), *reversed(later)]:
        total = _compose_floats(step, total)
    return total


def _monodromy(params: PhysicalParams, omega_of_t, trap, n_steps: int) -> list:
    """Map of (u, u', 1) from 0 to T under u'' + Omega^2 u = Omega^2 Q, in Magnus steps.

    Each step is one closed-form exponential of the two-node 4th-order
    Magnus exponent built from Omega^2 and Omega^2 Q at its two Gauss nodes
    (`_magnus_steps`).  The steps of a block of at most BLOCK_STEPS are
    multiplied as a tree of (2, 3, n) stacks; the blocks are composed in
    time order.  The map is the floats [a, b, e, c, d, f] of
    [[a, b, e], [c, d, f], [0, 0, 1]].
    """
    h = params.duration / n_steps
    total = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    for first in range(0, n_steps, BLOCK_STEPS):
        count = min(BLOCK_STEPS, n_steps - first)
        # all first nodes of the block, then all second nodes
        tg = h * (first + _NODE_OFFSETS[:, :count].ravel())
        om = np.asarray(omega_of_t(tg), dtype=float)
        _reject_first(~(np.isfinite(om) & (om > 0.0)), tg,
                      "omega_of_t must stay positive and finite on [0, T]")
        Q = np.asarray(trap(tg), dtype=float)
        _reject_first(~np.isfinite(Q), tg, "trap path must stay finite on [0, T]")
        a = om * om
        b = a * Q
        steps = _magnus_steps(a.reshape(2, count), b.reshape(2, count), h, first)
        total = _ordered_product(steps, total)
    return total


def solve_auxiliary(params: PhysicalParams, omega_of_t, trap,
                    n_steps: int = DEFAULT_STEPS) -> AuxiliarySolution:
    """Endpoint values of the width and trajectory at T from the rest initial conditions.

    rho^2 = u1^2 + u2^2, where u1 and u2 solve u'' + Omega^2 u = 0 with
    u1(0) = 1, u1'(0) = 0, u2(0) = 0 and u2'(0) = omega0; the trajectory
    rides in the same map.

    `omega_of_t` and the trap path `trap` are vectorized callables of t.
    Omega must stay positive and finite on the window, and Q(t) must stay
    finite; otherwise ValueError names the first bad Gauss-node time.  The
    map is also propagated in n_steps // 2 steps.  If that moves an
    endpoint entry by more than HALVING_TOL (u and u2 relative to 1, u' and
    u2' to omega0, qc to the distance d, qc' to d*omega0), or if theta^2 of
    a step's Magnus exponent is not positive, IntegrationError is raised.
    The largest scaled change is returned as `halving_change`.
    """
    if n_steps < 100:
        raise ValueError("n_steps >= 100 required")
    T, w0, d = params.duration, params.omega0, params.distance
    fine = _monodromy(params, omega_of_t, trap, n_steps)
    coarse = _monodromy(params, omega_of_t, trap, n_steps // 2)
    scales = (1.0, 1.0 / w0, d, w0, 1.0, d * w0)
    # np.max keeps a NaN, and the negated test fails on it
    change = float(np.max(np.abs(np.subtract(fine, coarse)) / scales))
    if not change <= HALVING_TOL:
        raise IntegrationError(f"halving the step count moved the endpoint by "
                               f"{change:.1e} (limit {HALVING_TOL:.0e})", T)
    u1, b, qc, u1_dot, d_entry, qc_dot = fine
    u2, u2_dot = w0 * b, w0 * d_entry
    rho = math.hypot(u1, u2)
    rho_dot = (u1 * u1_dot + u2 * u2_dot) / rho
    return AuxiliarySolution(rho, rho_dot, qc, qc_dot, change)


def exact_energy(sol: AuxiliarySolution, params: PhysicalParams,
                 omega_T: float, Q_T: float, n: int = 0) -> EnergyQuanta:
    """Exact mean energy at T for initial eigenstate n.

    The formula consumes the endpoint values `sol` and the trap state
    (omega_T, Q_T) at T.
    """
    rho, rhod, qc, qcd = sol.rho, sol.rho_dot, sol.qc, sol.qc_dot
    m, w0, hbar = params.mass, params.omega0, params.hbar
    energy = (0.5 * m * omega_T**2 * (qc - Q_T)**2 + 0.5 * m * qcd**2
              + hbar / (4.0 * w0) * (2 * n + 1)
              * (rhod**2 + w0**2 / rho**2 + omega_T**2 * rho**2))
    return EnergyQuanta(params.to_quanta(energy), n)


def perturbed_frequency(params: PhysicalParams, pert: Perturbation | None):
    """Omega(t) callable for a frequency perturbation; constant omega0 otherwise."""
    w0 = params.omega0
    if pert is None or not pert.is_frequency or pert.amplitude == 0.0:
        return lambda t: w0 * np.ones_like(np.asarray(t, dtype=float))
    amp = pert.amplitude

    def omega(t):
        return w0 * (1.0 + amp * eval_perturbation(pert, t))

    return omega


def exact_transport(params: PhysicalParams, proto: Protocol, pert: Perturbation,
                    n: int = 0, n_steps: int = DEFAULT_STEPS
                    ) -> tuple[EnergyQuanta, AuxiliarySolution]:
    """Excitation above hbar*Omega(T)*(n+1/2) at T, and the endpoint solution behind it.

    The perturbation is applied to the trap frequency or to the trap position
    according to its kind; the ideal trap path comes from the protocol.
    """
    trap = trap_from_classical(proto, params)
    if pert.is_position and pert.amplitude != 0.0:
        omega = perturbed_frequency(params, None)
        trap = shifted_trap(trap, pert, params)
    else:
        omega = perturbed_frequency(params, pert)
    sol = solve_auxiliary(params, omega, trap, n_steps)
    T = params.duration
    omega_T = float(omega(np.asarray(T)))
    Q_T = float(trap(T))
    total = exact_energy(sol, params, omega_T, Q_T, n)
    baseline = params.hbar * omega_T * (n + 0.5) / params.energy_quantum
    return EnergyQuanta(total.value - baseline, n), sol
