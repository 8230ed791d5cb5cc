"""Corridor-constrained genetic search and the minimum-transient-energy extremal.

The genetic algorithm explores the nullspace of an underdetermined sine-series
constraint system, so every candidate satisfies the endpoint and excitation
constraints exactly by construction; the cost callable only has to rank trap
paths.  The optimal-control extremal minimizes the time-averaged dynamical
potential energy; its control is linear in four costate constants, which a
4x4 probe solve pins to the boundary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .design import AnsatzSystem, DesignError
from .dynamics import TrapTrajectory, perturbed_frequency, trap_from_classical
from .model import (FourierSineProtocol, Perturbation, PhysicalParams,
                    Protocol, ProtocolKind)

__all__ = [
    "GaConfig", "GaResult", "OctSolution", "SingularSystemError",
    "corridor_cost", "nullspace_parametrize", "ga_minimize", "oct_solve",
    "avg_dynamical_potential", "OctExtremalProtocol",
]


CORRIDOR_MIN_SAMPLES = 1000   # fewest samples of the trap path in corridor_cost
OCT_MIN_STEPS = 2000          # fewest RK4 steps of oct_solve


class SingularSystemError(RuntimeError):
    """The endpoint probe matrix of the extremal solve is numerically singular."""


def corridor_cost(trap: TrapTrajectory, params: PhysicalParams,
                  n_samples: int = 2001) -> float | np.ndarray:
    """Integrated excursion of the trap path outside [0, d], units m*s.

    Zero iff the sampled path stays inside the corridor; grows linearly with
    the overshoot amplitude, which gives the search a usable gradient.  When
    `trap(t)` has shape (rows, samples), one cost per row is returned.
    """
    if n_samples < CORRIDOR_MIN_SAMPLES:
        raise ValueError(f"n_samples >= {CORRIDOR_MIN_SAMPLES} required")
    t = np.linspace(0.0, params.duration, n_samples)
    Q = np.asarray(trap(t), dtype=float)
    # |Q - clip(Q, 0, d)| is the excursion and the trapezoid rule follows
    # np.trapezoid step by step, in place: a population batch holds at most
    # two (rows, samples) arrays
    excess = np.clip(Q, 0.0, params.distance)
    np.subtract(Q, excess, out=excess)
    np.abs(excess, out=excess)
    del Q
    panels = excess[..., 1:] + excess[..., :-1]
    del excess
    panels *= np.diff(t)
    panels /= 2.0
    cost = panels.sum(axis=-1)
    return float(cost) if cost.ndim == 0 else cost


def nullspace_parametrize(system: AnsatzSystem) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm particular solution and an orthonormal nullspace basis.

    Any coefficient vector particular + basis @ z satisfies the constraints;
    the basis columns are unit vectors in coefficient space (m/s^2 direction
    cosines), so z carries the m/s^2 scale.
    """
    scaled, *_ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
    particular = scaled * system.coeff_scale
    _, sv, vt = np.linalg.svd(system.matrix)
    basis = vt[system.rank:].T    # (n_terms, nullspace_dim), orthonormal rows of V
    return particular, basis


@dataclass(frozen=True)
class GaConfig:
    """Search hyperparameters; the seed fully determines the run."""

    seed: int
    population: int = 64
    generations: int = 500
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    mutation_scale: float = 0.2       # fraction of the initial spread
    stagnation_limit: int = 60
    tournament: int = 3
    blend_alpha: float = 0.5
    init_spread: float | None = None  # defaults to |particular solution|

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed >= 0 required")
        if self.population < 10:
            raise ValueError("population >= 10 required")
        if self.generations < 1:
            raise ValueError("generations >= 1 required")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit >= 1 required")


@dataclass
class GaResult:
    protocol: Protocol
    best_cost: float
    history: list[float] = field(default_factory=list)
    generations_used: int = 0
    converged: bool = False
    coefficients: np.ndarray | None = None


def ga_minimize(params: PhysicalParams, system: AnsatzSystem, cost,
                cfg: GaConfig) -> GaResult:
    """Evolve nullspace coordinates to minimize `cost(trap)` over valid designs.

    Tournament selection, blend crossover and Gaussian mutation with elitism;
    stops on an exact zero of the cost or after `stagnation_limit`
    generations without improvement.  Identical seeds give bit-identical
    results.

    `cost` is called once per generation with the trap path of the whole
    population: `trap(t)` has shape (population, samples), and `cost` returns
    one cost per candidate or a scalar that applies to every candidate.
    """
    particular, basis = nullspace_parametrize(system)
    dim = basis.shape[1]
    if dim < 1:
        raise DesignError("nothing to optimize: the constraint system has no nullspace")
    rng = np.random.default_rng(cfg.seed)
    spread = cfg.init_spread if cfg.init_spread is not None \
        else float(np.linalg.norm(particular))
    sigma_mut = cfg.mutation_scale * spread

    pop = rng.normal(0.0, spread, (cfg.population, dim))
    best_z = pop[0].copy()
    best_cost = np.inf
    history: list[float] = []
    stall = 0
    for generation in range(cfg.generations):
        # one matrix-vector product per candidate, the same arithmetic as
        # the coefficients of the result below
        coeffs = particular + np.matmul(basis, pop[:, :, None])[:, :, 0]
        trap = trap_from_classical(FourierSineProtocol(params, coeffs), params)
        costs = np.broadcast_to(cost(trap), (cfg.population,))
        leader = int(np.argmin(costs))
        if costs[leader] < best_cost:
            best_cost = float(costs[leader])
            best_z = pop[leader].copy()
            stall = 0
        else:
            stall += 1
        history.append(best_cost)
        if best_cost == 0.0 or stall >= cfg.stagnation_limit:
            break
        # tournament selection
        draws = rng.integers(0, cfg.population, (cfg.population, cfg.tournament))
        winners = draws[np.arange(cfg.population), np.argmin(costs[draws], axis=1)]
        parents = pop[winners]
        children = parents.copy()
        # blend crossover on consecutive pairs
        for k in range(0, cfg.population - 1, 2):
            if rng.random() < cfg.crossover_rate:
                lo, hi = -cfg.blend_alpha, 1.0 + cfg.blend_alpha
                mix = rng.uniform(lo, hi, dim)
                children[k] = mix * parents[k] + (1.0 - mix) * parents[k + 1]
                mix = rng.uniform(lo, hi, dim)
                children[k + 1] = mix * parents[k + 1] + (1.0 - mix) * parents[k]
        mutate = rng.random((cfg.population, dim)) < cfg.mutation_rate
        children = np.where(mutate,
                            children + rng.normal(0.0, sigma_mut, (cfg.population, dim)),
                            children)
        children[0] = best_z  # elitism
        pop = children

    coeffs = particular + basis @ best_z
    return GaResult(protocol=FourierSineProtocol(params, coeffs),
                    best_cost=best_cost, history=history,
                    generations_used=generation + 1,
                    converged=best_cost == 0.0, coefficients=coeffs)


# -- optimal-control extremal --------------------------------------------------

class OctExtremalProtocol(Protocol):
    """Trajectory of the minimum-transient-energy extremal.

    Position and velocity interpolate the dense state grid; the acceleration
    follows the analytic control, which jumps at the endpoints (exempted from
    the boundary-condition contract).
    """

    kind = ProtocolKind.OCT_EXTREMAL

    def __init__(self, params: PhysicalParams, solution: "OctSolution"):
        super().__init__(params)
        self.solution = solution
        self._pos = CubicSpline(solution.times, solution.x[0])
        self._vel = CubicSpline(solution.times, solution.x[1])

    def position(self, t):
        return self._pos(np.asarray(t, dtype=float))

    def velocity(self, t):
        return self._vel(np.asarray(t, dtype=float))

    def acceleration(self, t):
        return -self.params.omega0**2 * self.solution.control(t)


@dataclass
class OctSolution:
    """Extremal control, states and averaged dynamical potential energy."""

    params: PhysicalParams
    omega: float
    constants: np.ndarray     # costate constants c1..c4
    times: np.ndarray
    x: np.ndarray             # (4, n+1): trajectory, velocity, first-order pair
    u: np.ndarray             # control samples on `times`, meters
    e_bar: float              # time-averaged dynamical potential energy, joules
    jump_start: float         # |u(0)|: trap-path discontinuity at t=0, meters
    jump_end: float           # |u(T)|: discontinuity at t=T, meters
    endpoint_residual: float  # |x(T) - (d,0,0,0)| after the probe solve

    def control(self, t):
        """Analytic extremal control u(t) = -(p2 + 2 sin(omega*t) p4)."""
        c1, c2, c3, c4 = self.constants
        t = np.asarray(t, dtype=float)
        w0 = self.params.omega0
        p2 = c1 * t + c2
        p4 = c3 * np.cos(w0 * t) + c4 * np.sin(w0 * t)
        return -(p2 + 2.0 * np.sin(self.omega * t) * p4)

    def trap_trajectory(self) -> TrapTrajectory:
        """Trap path x1 - u inside (0, T), clamped to the endpoints outside."""
        pos = CubicSpline(self.times, self.x[0])
        d, T = self.params.distance, self.params.duration

        def fn(t):
            t = np.asarray(t, dtype=float)
            inside = pos(np.clip(t, 0.0, T)) - self.control(np.clip(t, 0.0, T))
            return np.where(t <= 0.0, 0.0, np.where(t >= T, d, inside))

        return TrapTrajectory(fn, ideal=True)

    def protocol(self) -> OctExtremalProtocol:
        return OctExtremalProtocol(self.params, self)


def _control_basis(omega: float, w0: float, t: np.ndarray) -> np.ndarray:
    """Controls for unit costate constants: u = basis.T @ c."""
    sw = np.sin(omega * t)
    return np.stack([-t, -np.ones_like(t), -2.0 * sw * np.cos(w0 * t),
                     -2.0 * sw * np.sin(w0 * t)])


def _integrate_states(params: PhysicalParams, omega: float, u_half: np.ndarray,
                      n_steps: int, keep: bool):
    """RK4 of the four state equations driven by control samples on the half grid.

    `u_half` has shape (n_controls, 2*n_steps+1); all controls integrate in
    lockstep, which serves both the unit probes and the final solution pass.
    """
    T = params.duration
    w0sq = params.omega0**2
    h = T / n_steps
    tg = np.linspace(0.0, T, 2 * n_steps + 1)
    sin_half = np.sin(omega * tg)
    n_controls = u_half.shape[0]
    X = np.zeros((4, n_controls))
    stored = np.zeros((4, n_controls, n_steps + 1)) if keep else None

    def deriv(i, X):
        u = u_half[:, i]
        return np.stack([X[1], -w0sq * u, X[3],
                         -w0sq * X[2] - 2.0 * w0sq * sin_half[i] * u])

    for k in range(n_steps):
        i0 = 2 * k
        k1 = deriv(i0, X)
        k2 = deriv(i0 + 1, X + 0.5 * h * k1)
        k3 = deriv(i0 + 1, X + 0.5 * h * k2)
        k4 = deriv(i0 + 2, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if keep:
            stored[:, :, k + 1] = X
    return X, stored, tg


def oct_solve(params: PhysicalParams, omega: float,
              n_steps: int = 8000) -> OctSolution:
    """Extremal of the averaged dynamical potential energy for a sine error at omega.

    Integrates the linear state system for four unit costate probes, solves
    the 4x4 endpoint map for the constants, then rebuilds the full solution.
    """
    if omega <= 0:
        raise ValueError("omega > 0 required")
    if n_steps < OCT_MIN_STEPS:
        raise ValueError(f"n_steps >= {OCT_MIN_STEPS} required")
    T, d = params.duration, params.distance
    tg = np.linspace(0.0, T, 2 * n_steps + 1)
    basis = _control_basis(omega, params.omega0, tg)
    endpoint, _, _ = _integrate_states(params, omega, basis, n_steps, keep=False)

    target = np.array([d, 0.0, 0.0, 0.0])
    # equilibrate rows and columns so the conditioning check sees the geometry
    # of the probe map, not the m vs m/s unit disparity of the states
    row_scale = 1.0 / np.linalg.norm(endpoint, axis=1)
    scaled = endpoint * row_scale[:, None]
    col_scale = 1.0 / np.linalg.norm(scaled, axis=0)
    scaled = scaled * col_scale[None, :]
    cond = np.linalg.cond(scaled)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystemError(
            f"endpoint probe matrix is singular (equilibrated cond={cond:.3e}, "
            f"det={np.linalg.det(endpoint):.3e}); resonant degeneracy")
    constants = col_scale * np.linalg.solve(scaled, target * row_scale)
    residual = float(np.linalg.norm(endpoint @ constants - target))

    u_half = (constants @ basis)[None, :]
    _, stored, _ = _integrate_states(params, omega, u_half, n_steps, keep=True)
    x = stored[:, 0, :]
    u_full = u_half[0, ::2]
    e_bar = (params.mass * params.omega0**2 / 2.0
             * float(np.trapezoid(u_half[0] ** 2, tg)) / T)
    return OctSolution(params=params, omega=omega, constants=constants,
                       times=tg[::2].copy(), x=x, u=u_full.copy(), e_bar=e_bar,
                       jump_start=abs(float(u_half[0, 0])),
                       jump_end=abs(float(u_half[0, -1])),
                       endpoint_residual=residual)


def avg_dynamical_potential(params: PhysicalParams, proto: Protocol,
                            trap: TrapTrajectory, pert: Perturbation | None = None,
                            include_first_order: bool = False,
                            n_steps: int = 20000) -> float:
    """Time average of (m*Omega^2/2)(q - Q0)^2 over the transport, joules.

    With `include_first_order` the classical trajectory gains its first-order
    response to the frequency perturbation, integrated alongside on the same
    grid; for small amplitudes the correction is indistinguishable.
    """
    T = params.duration
    h = T / n_steps
    t_half = np.linspace(0.0, T, 2 * n_steps + 1)
    t_full = t_half[::2]
    omega = perturbed_frequency(params, pert)
    om2 = np.asarray(omega(t_full), dtype=float) ** 2
    q0 = np.asarray(proto.position(t_full), dtype=float)
    Q = np.asarray(trap(t_full), dtype=float)
    deviation = q0 - Q

    if include_first_order and pert is not None and pert.is_frequency \
            and pert.amplitude > 0.0:
        from .model import eval_perturbation
        w0sq = params.omega0**2
        forcing = 2.0 * np.asarray(eval_perturbation(pert, t_half), dtype=float) \
            * np.asarray(proto.acceleration(t_half), dtype=float)
        q1 = np.zeros(n_steps + 1)
        y, yd = 0.0, 0.0
        f_l = forcing.tolist()
        for k in range(n_steps):
            i0 = 2 * k
            k1y, k1v = yd, f_l[i0] - w0sq * y
            k2y, k2v = yd + 0.5 * h * k1v, f_l[i0 + 1] - w0sq * (y + 0.5 * h * k1y)
            k3y, k3v = yd + 0.5 * h * k2v, f_l[i0 + 1] - w0sq * (y + 0.5 * h * k2y)
            k4y, k4v = yd + h * k3v, f_l[i0 + 2] - w0sq * (y + h * k3y)
            y += (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
            yd += (h / 6.0) * (k1v + 2.0 * (k2v + k3v) + k4v)
            q1[k + 1] = y
        deviation = deviation + pert.amplitude * q1

    integrand = 0.5 * params.mass * om2 * deviation**2
    return float(np.trapezoid(integrand, t_full)) / T
