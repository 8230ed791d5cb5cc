"""Exact integration of the auxiliary width and trajectory equations.

This module is the non-perturbative oracle: it integrates

    rho'' + Omega^2(t) rho = Omega0^2 / rho^3
    q''   + Omega^2(t) q   = Omega^2(t) Q(t)

with a fixed-step classical Runge-Kutta 4 scheme and evaluates the exact
final energy from the endpoint values.  Fixed stepping keeps every output
bit-reproducible for a given step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import (EnergyQuanta, Perturbation, PhysicalParams, Protocol,
                    eval_perturbation)

DEFAULT_STEPS = 20000


class IntegrationError(RuntimeError):
    """The width variable left the physical domain (integrator failure)."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6e} s")
        self.time = time


@dataclass(frozen=True)
class AuxiliarySolution:
    """Grids of the auxiliary variables over the transport window."""

    times: np.ndarray     # uniform, [0, T]
    rho: np.ndarray       # dimensionless width factor
    rho_dot: np.ndarray   # 1/s
    qc: np.ndarray        # m
    qc_dot: np.ndarray    # m/s


class TrapTrajectory:
    """Evaluator for the trap center Q(t); `ideal` marks the unperturbed design."""

    def __init__(self, fn, ideal: bool = True):
        self._fn = fn
        self.ideal = ideal

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=float))


def trap_from_classical(proto: Protocol, params: PhysicalParams) -> TrapTrajectory:
    """Inverse-engineered ideal trap path for constant trap frequency.

    Q0(t) = q(t) + q''(t)/omega0^2, which drives the given classical
    trajectory exactly when the frequency stays at omega0.  omega0 is read
    from the protocol's own parameters, which `params` must match.
    """
    if params.omega0 != proto.params.omega0:
        raise ValueError(f"params.omega0 = {params.omega0!r} differs from the "
                         f"protocol's omega0 = {proto.params.omega0!r}")
    return TrapTrajectory(proto.trap_path, ideal=True)


def shifted_trap(trap: TrapTrajectory, pert: Perturbation,
                 params: PhysicalParams) -> TrapTrajectory:
    """Trap path with a position perturbation applied: Q0 + amplitude*d*h(t)."""
    if not pert.is_position:
        raise ValueError("shifted_trap expects a position perturbation")
    amp_d = pert.amplitude * params.distance

    def fn(t):
        return trap(t) + amp_d * eval_perturbation(pert, t)

    return TrapTrajectory(fn, ideal=False)


def _reject_first(bad: np.ndarray, tg: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first time of the grid `tg` where `bad` holds."""
    if bad.any():
        raise ValueError(f"{what}; first violation at t={tg[int(np.argmax(bad))]:.6e} s")


def solve_auxiliary(params: PhysicalParams, omega_of_t, trap: TrapTrajectory,
                    n_steps: int = DEFAULT_STEPS) -> AuxiliarySolution:
    """Fixed-step RK4 solution over [0, duration] from the rest initial conditions.

    `omega_of_t` must accept ndarray arguments and stay positive and finite
    on the window, and `trap` must stay finite; otherwise ValueError names
    the first bad time.  Doubling `n_steps` should move the endpoint values
    by less than 1e-8 relative; that convergence contract substitutes for
    step control.
    """
    if n_steps < 100:
        raise ValueError("n_steps >= 100 required")
    T = params.duration
    h = T / n_steps
    # stage times of classic RK4 live on the half-step grid, so the whole
    # time dependence can be evaluated vectorized up front
    tg = np.linspace(0.0, T, 2 * n_steps + 1)
    # a NaN here would end in a misleading rho failure or a silent NaN energy
    om = np.asarray(omega_of_t(tg), dtype=float)
    _reject_first(~(np.isfinite(om) & (om > 0.0)), tg,
                  "omega_of_t must stay positive and finite on [0, T]")
    Q = np.asarray(trap(tg), dtype=float)
    _reject_first(~np.isfinite(Q), tg, "trap path must stay finite on [0, T]")
    om2 = om ** 2
    om2_l = om2.tolist()
    forc_l = (om2 * Q).tolist()
    w0sq = params.omega0**2

    grids = [np.empty(n_steps + 1) for _ in range(4)]
    # memoryviews store a Python float into the numpy grids at half the cost
    # of ndarray indexing
    rho_g, rhod_g, qc_g, qcd_g = map(memoryview, grids)
    rho, rhod, qc, qcd = 1.0, 0.0, 0.0, 0.0
    rho_g[0], rhod_g[0], qc_g[0], qcd_g[0] = rho, rhod, qc, qcd

    h2 = 0.5 * h
    h6 = h / 6.0
    # step idx takes Omega^2 and the forcing at its start (a0, b0), midpoint
    # (a1, b1) and end (a2, b2): half-step samples 2*idx - 2, 2*idx - 1, 2*idx
    samples = zip(range(1, n_steps + 1),
                  islice(om2_l, 0, None, 2), islice(om2_l, 1, None, 2),
                  islice(om2_l, 2, None, 2), islice(forc_l, 0, None, 2),
                  islice(forc_l, 1, None, 2), islice(forc_l, 2, None, 2))
    for idx, a0, a1, a2, b0, b1, b2 in samples:
        try:
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
            raise IntegrationError(f"integration blew up ({exc})", idx * h) from None

        rho = rho + h6 * (k1r + 2.0 * (k2r + k3r) + k4r)
        rhod = rhod + h6 * (k1s + 2.0 * (k2s + k3s) + k4s)
        qc = qc + h6 * (k1q + 2.0 * (k2q + k3q) + k4q)
        qcd = qcd + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        # rejects nonpositive, NaN and +inf
        if not 0.0 < rho < math.inf:
            raise IntegrationError("width factor rho became nonpositive", idx * h)
        rho_g[idx], rhod_g[idx], qc_g[idx], qcd_g[idx] = rho, rhod, qc, qcd

    return AuxiliarySolution(tg[::2].copy(), *grids)


def exact_energy(sol: AuxiliarySolution, params: PhysicalParams,
                 omega_T: float, Q_T: float, n: int = 0) -> EnergyQuanta:
    """Exact mean energy at the solution endpoint for initial eigenstate n.

    Also valid at intermediate times by passing a truncated solution; the
    formula only consumes the endpoint values and the instantaneous trap
    state (omega_T, Q_T).
    """
    rho, rhod = sol.rho[-1], sol.rho_dot[-1]
    qc, qcd = sol.qc[-1], sol.qc_dot[-1]
    m, w0, hbar = params.mass, params.omega0, params.hbar
    energy = (0.5 * m * omega_T**2 * (qc - Q_T)**2 + 0.5 * m * qcd**2
              + hbar / (4.0 * w0) * (2 * n + 1)
              * (rhod**2 + w0**2 / rho**2 + omega_T**2 * rho**2))
    return EnergyQuanta(params.to_quanta(energy), n)


def energy_profile(sol: AuxiliarySolution, params: PhysicalParams,
                   omega_of_t, trap: TrapTrajectory, n: int = 0) -> np.ndarray:
    """Exact energy (quanta) evaluated at every stored grid point."""
    om = np.asarray(omega_of_t(sol.times), dtype=float)
    Q = np.asarray(trap(sol.times), dtype=float)
    m, w0, hbar = params.mass, params.omega0, params.hbar
    energy = (0.5 * m * om**2 * (sol.qc - Q)**2 + 0.5 * m * sol.qc_dot**2
              + hbar / (4.0 * w0) * (2 * n + 1)
              * (sol.rho_dot**2 + w0**2 / sol.rho**2 + om**2 * sol.rho**2))
    return energy / params.energy_quantum


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
