"""Exact propagation of the auxiliary width and trajectory equations.

This module is the non-perturbative oracle for

    rho'' + Omega^2(t) rho = Omega0^2 / rho^3
    q''   + Omega^2(t) q   = Omega^2(t) Q(t)

The width equation is nonlinear, but rho^2 = u1^2 + u2^2 for two solutions
of the linear u'' + Omega^2(t) u = 0 (Lewis & Riesenfeld, J. Math. Phys. 10,
1458 (1969)), and q is affine in the same equation.  One map of (u, u', 1)
over [0, T] therefore gives every endpoint value, and the exact final energy
follows from them.  The map is a product of fixed commutator-free 4th-order
Magnus steps (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)), multiplied
in blocks with a few numpy calls and checked at run time against half the
step count.  Fixed stepping keeps every output bit-reproducible for a given
step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (EnergyQuanta, Perturbation, PhysicalParams, Protocol,
                    eval_perturbation)

DEFAULT_STEPS = 20000
# steps multiplied as one tree: 8192 Gauss nodes, 64 KiB per float64 array,
# below glibc's 128 KiB mmap threshold, so block temporaries are not mapped
# and faulted in anew
BLOCK_STEPS = 4096
# largest endpoint change allowed when the step count is halved
HALVING_TOL = 1e-8
# times of the two Gauss-Legendre nodes of each step of a block, in steps
# from the block start, and the weights of the commutator-free 4th-order
# Magnus step (Blanes & Moan 2006)
_NODE_OFFSETS = np.add.outer(np.arange(float(BLOCK_STEPS)),
                             [0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0]).ravel()
_CF4_LARGE = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_SMALL = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
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
    """Raise ValueError naming the first time of the grid `tg` where `bad` holds."""
    if bad.any():
        raise ValueError(f"{what}; first violation at t={tg[int(np.argmax(bad))]:.6e} s")


def _flow(a: np.ndarray, b: np.ndarray, tau: float) -> tuple:
    """exp(tau*[[0, 1, 0], [-a, 0, b], [0, 0, 0]]) for a > 0, entrywise.

    It is the flow of u'' = b - a*u over tau, a rotation about the
    equilibrium b/a, in the (a, b, c, d, e, f) entries of `_compose`.
    """
    k = np.sqrt(a)
    cos = np.cos(k * tau)
    ksin = k * np.sin(k * tau)
    x = b / a
    return cos, ksin / a, -ksin, cos, x * (1.0 - cos), x * ksin


def _compose(left: tuple, right: tuple) -> tuple:
    """left @ right for affine maps [[a, b, e], [c, d, f], [0, 0, 1]] of (u, u', 1).

    Each map is the tuple (a, b, c, d, e, f) of arrays or floats.
    """
    la, lb, lc, ld, le, lf = left
    ra, rb, rc, rd, re, rf = right
    return (la * ra + lb * rc, la * rb + lb * rd,
            lc * ra + ld * rc, lc * rb + ld * rd,
            la * re + lb * rf + le, lc * re + ld * rf + lf)


def _ordered_product(maps: tuple, total: tuple) -> tuple:
    """maps[m-1] @ ... @ maps[0] @ total, where `total` is a tuple of floats.

    Pairs of neighbours are multiplied as whole arrays until few maps are
    left; the rest are multiplied one by one in floats, which is cheaper
    than a numpy call on a handful of elements.
    """
    # maps set aside at odd lengths; each is later than all still in `maps`
    later = []
    while maps[0].size > _FLOAT_TAIL:
        if maps[0].size % 2:
            later.append(tuple(float(x[-1]) for x in maps))
            maps = tuple(x[:-1] for x in maps)
        maps = _compose(tuple(x[1::2] for x in maps), tuple(x[0::2] for x in maps))
    for step in [*zip(*(x.tolist() for x in maps)), *reversed(later)]:
        total = _compose(step, total)
    return total


def _monodromy(params: PhysicalParams, omega_of_t, trap, n_steps: int) -> tuple:
    """Map of (u, u', 1) from 0 to T under u'' + Omega^2 u = Omega^2 Q, in CF4 steps.

    Each step multiplies two closed-form exponentials built from Omega^2 and
    Omega^2 Q at its two Gauss nodes (Blanes & Moan's commutator-free 4th
    order Magnus method).  The steps of a block of at most BLOCK_STEPS are
    multiplied as a tree; the blocks are composed in time order.
    """
    h = params.duration / n_steps
    total = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    for first in range(0, n_steps, BLOCK_STEPS):
        count = min(BLOCK_STEPS, n_steps - first)
        tg = h * (first + _NODE_OFFSETS[:2 * count])
        om = np.asarray(omega_of_t(tg), dtype=float)
        _reject_first(~(np.isfinite(om) & (om > 0.0)), tg,
                      "omega_of_t must stay positive and finite on [0, T]")
        Q = np.asarray(trap(tg), dtype=float)
        _reject_first(~np.isfinite(Q), tg, "trap path must stay finite on [0, T]")
        a = om * om
        b = a * Q
        # the step's first exponential leans on its first node, the second on
        # its second; each spans h/2 of the stiffness 2*(weighted Omega^2)
        a_first = 2.0 * (_CF4_LARGE * a[0::2] + _CF4_SMALL * a[1::2])
        a_second = 2.0 * (_CF4_SMALL * a[0::2] + _CF4_LARGE * a[1::2])
        # _CF4_SMALL < 0, so a node-to-node jump in Omega^2 by more than about
        # 14x makes an exponent nonpositive; this also catches an overflow
        bad = ~((np.minimum(a_first, a_second) > 0.0)
                & (np.maximum(a_first, a_second) < math.inf))
        if bad.any():
            raise IntegrationError("CF4 exponent became nonpositive: Omega(t) is "
                                   "under-resolved in the step",
                                   h * (first + int(np.argmax(bad))))
        steps = _compose(
            _flow(a_second, 2.0 * (_CF4_SMALL * b[0::2] + _CF4_LARGE * b[1::2]), h / 2),
            _flow(a_first, 2.0 * (_CF4_LARGE * b[0::2] + _CF4_SMALL * b[1::2]), h / 2))
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
    u2' to omega0, qc to the distance d, qc' to d*omega0), or if a step
    exponent is not positive, IntegrationError is raised.
    """
    if n_steps < 100:
        raise ValueError("n_steps >= 100 required")
    T, w0, d = params.duration, params.omega0, params.distance
    fine = _monodromy(params, omega_of_t, trap, n_steps)
    coarse = _monodromy(params, omega_of_t, trap, n_steps // 2)
    scales = (1.0, 1.0 / w0, w0, 1.0, d, d * w0)
    # np.max keeps a NaN, and the negated test fails on it
    change = float(np.max(np.abs(np.subtract(fine, coarse)) / scales))
    if not change <= HALVING_TOL:
        raise IntegrationError(f"halving the step count moved the endpoint by "
                               f"{change:.1e} (limit {HALVING_TOL:.0e})", T)
    u1, b, u1_dot, d_entry, qc, qc_dot = fine
    u2, u2_dot = w0 * b, w0 * d_entry
    rho = math.hypot(u1, u2)
    rho_dot = (u1 * u1_dot + u2 * u2_dot) / rho
    return AuxiliarySolution(rho, rho_dot, qc, qc_dot)


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


def excess_energy_exact(params: PhysicalParams, proto: Protocol,
                        pert: Perturbation, n: int = 0,
                        n_steps: int = DEFAULT_STEPS) -> EnergyQuanta:
    """Final excitation above the adiabatic baseline hbar*Omega(T)*(n+1/2).

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
    return EnergyQuanta(total.value - baseline, n)
