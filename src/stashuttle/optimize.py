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
from functools import cached_property

import numpy as np

from .analysis import CORRIDOR_MIN_SAMPLES
from .design import AnsatzSystem, DesignError
from .dynamics import perturbed_frequency
from .model import (FourierSineProtocol, Perturbation, PhysicalParams,
                    Protocol, eval_perturbation, row_blocks)

__all__ = [
    "GaConfig", "GaResult", "OctSolution", "SingularSystemError",
    "corridor_cost", "nullspace_parametrize", "ga_minimize", "oct_solve",
    "avg_dynamical_potential", "OctExtremalProtocol",
]


OCT_MIN_STEPS = 2000          # fewest output-grid intervals of oct_solve
# grid intervals per pass of oct_solve: 8192 Gauss nodes, 64 KiB per float64
# array, the sizing of dynamics.BLOCK_STEPS
OCT_BLOCK = 1024

# fixed operators of the genetic search
CROSSOVER_RATE = 0.9          # chance that a pair of parents is blended
MUTATION_RATE = 0.15          # chance that a coordinate of a child mutates
MUTATION_SCALE = 0.2          # mutation width as a fraction of the initial spread
TOURNAMENT = 3                # candidates drawn per selection
BLEND_ALPHA = 0.5             # blend crossover draws its mix from [-alpha, 1 + alpha]


class SingularSystemError(RuntimeError):
    """The endpoint probe matrix of the extremal solve is numerically singular."""


def corridor_cost(trap, params: PhysicalParams,
                  n_samples: int = 2001) -> float | np.ndarray:
    """Integrated excursion of the trap path Q(t) outside [0, d], units m*s.

    Zero iff the sampled path stays inside the corridor; grows linearly with
    the overshoot amplitude, which gives the search a usable gradient.  When
    `trap(t)` has shape (rows, samples), one cost per row is returned.
    """
    if n_samples < CORRIDOR_MIN_SAMPLES:
        raise ValueError(f"n_samples >= {CORRIDOR_MIN_SAMPLES} required")
    t = np.linspace(0.0, params.duration, n_samples)
    dt = np.diff(t)
    Q = np.asarray(trap(t), dtype=float)
    rows = Q.reshape(-1, n_samples)
    cost = np.empty(len(rows))
    # |Q - clip(Q, 0, d)| is the excursion and the trapezoid rule follows
    # np.trapezoid step by step, one row block of at most BLOCK_ELEMENTS
    # samples at a time, so every temporary is reused from the heap
    for block in row_blocks(len(rows), n_samples):
        excess = np.clip(rows[block], 0.0, params.distance)
        np.subtract(rows[block], excess, out=excess)
        np.abs(excess, out=excess)
        panels = excess[:, 1:] + excess[:, :-1]
        panels *= dt
        panels /= 2.0
        cost[block] = panels.sum(axis=-1)
    cost = cost.reshape(Q.shape[:-1])
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
    stagnation_limit: int = 60

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


def ga_minimize(params: PhysicalParams, system: AnsatzSystem, cost,
                cfg: GaConfig) -> GaResult:
    """Evolve nullspace coordinates to minimize `cost(trap)` over valid designs.

    Tournament selection, blend crossover and Gaussian mutation with elitism,
    sized by the module constants above, from an initial population drawn
    with the particular solution's norm as its spread.  Stops on an exact
    zero of the cost or after `stagnation_limit` generations without
    improvement.  Identical seeds give bit-identical results.

    `cost` is called once per generation with the trap path of the whole
    population: `trap(t)` has shape (population, *t.shape), and `cost` returns
    one cost per candidate or a scalar that applies to every candidate.  Those
    paths are sums of nullspace paths, which round differently from the
    result's path, built from its coefficients, by about 2e-15 d.
    """
    particular, basis = nullspace_parametrize(system)
    dim = basis.shape[1]
    if dim < 1:
        raise DesignError("nothing to optimize: the constraint system has no nullspace")
    rng = np.random.default_rng(cfg.seed)
    spread = float(np.linalg.norm(particular))
    sigma_mut = MUTATION_SCALE * spread

    # a candidate's path is linear in its coordinates: the path of the
    # particular solution plus z_i times the path of basis column i.  These
    # 1 + dim paths are evaluated once per sample grid, of which the last one
    # is kept as a copy, so a generation's paths are one matrix product
    paths = FourierSineProtocol(params, np.vstack([particular, basis.T]))
    grid = grid_paths = None   # last sample grid and the 1 + dim paths on it

    def population_trap(weights: np.ndarray):
        def fn(t):
            nonlocal grid, grid_paths
            t = np.asarray(t, dtype=float)
            if grid is None or not np.array_equal(grid, t):
                grid, grid_paths = t.copy(), paths.trap_path(t).reshape(1 + dim, -1)
            return (weights @ grid_paths).reshape(weights.shape[:1] + t.shape)

        return fn

    pop = rng.normal(0.0, spread, (cfg.population, dim))
    best_z = pop[0].copy()
    best_cost = np.inf
    history: list[float] = []
    stall = 0
    for generation in range(cfg.generations):
        weights = np.hstack([np.ones((cfg.population, 1)), pop])
        costs = np.broadcast_to(cost(population_trap(weights)), (cfg.population,))
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
        draws = rng.integers(0, cfg.population, (cfg.population, TOURNAMENT))
        winners = draws[np.arange(cfg.population), np.argmin(costs[draws], axis=1)]
        parents = pop[winners]
        children = parents.copy()
        # blend crossover on consecutive pairs
        for k in range(0, cfg.population - 1, 2):
            if rng.random() < CROSSOVER_RATE:
                lo, hi = -BLEND_ALPHA, 1.0 + BLEND_ALPHA
                mix = rng.uniform(lo, hi, dim)
                children[k] = mix * parents[k] + (1.0 - mix) * parents[k + 1]
                mix = rng.uniform(lo, hi, dim)
                children[k + 1] = mix * parents[k + 1] + (1.0 - mix) * parents[k]
        mutate = rng.random((cfg.population, dim)) < MUTATION_RATE
        children = np.where(mutate,
                            children + rng.normal(0.0, sigma_mut, (cfg.population, dim)),
                            children)
        children[0] = best_z  # elitism
        pop = children

    coeffs = particular + basis @ best_z
    return GaResult(protocol=FourierSineProtocol(params, coeffs),
                    best_cost=best_cost, history=history,
                    generations_used=generation + 1,
                    converged=best_cost == 0.0)


# -- optimal-control extremal --------------------------------------------------

# one Gauss-Legendre panel per grid interval: eight nodes integrate an
# oscillation of up to 2 rad per interval to rounding (1.5e-13 at 4 rad); a
# CLI sweep gives oct_solve at least 300 intervals per cycle
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss_panels(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one Gauss-Legendre panel on each interval [a, b]."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = (0.5 * (b - a))[..., None]
    return (0.5 * (a + b))[..., None] + half * _GL_NODES, half * _GL_WEIGHTS


def _oscillator_sums(w: float, gw: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Panel sums of the weighted drive `gw` at nodes `s`, over the last axis.

    They are the sums against (1, s) when w = 0 and against (cos ws, sin ws)
    otherwise, stacked on a new first axis.
    """
    if w == 0.0:
        return np.stack([gw.sum(axis=-1), (gw * s).sum(axis=-1)])
    return np.stack([(gw * np.cos(w * s)).sum(axis=-1),
                     (gw * np.sin(w * s)).sum(axis=-1)])


def _cumulative(sums: np.ndarray) -> np.ndarray:
    """Running sums over the grid intervals, starting from 0 at the first point."""
    cum = np.cumsum(sums, axis=-1)
    return np.concatenate([np.zeros(cum.shape[:-1] + (1,)), cum], axis=-1)


def _below(times: np.ndarray, at) -> tuple[np.ndarray, np.ndarray]:
    """Points `at` and the index of the grid point at or below each."""
    t = np.asarray(at, dtype=float)
    return t, np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)


def _oscillator_states(w: float, cum: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity at `t` from the sums `cum` up to `t` (variation of constants)."""
    p, q = cum
    if w == 0.0:
        return t * p - q, p
    cos, sin = np.cos(w * t), np.sin(w * t)
    return (sin * p - cos * q) / w, cos * p + sin * q


def _panel_sums(oscillators, g, a, b) -> list:
    """Panel sums over the intervals [a, b] of each x'' + w^2 x = factor(t) g(t).

    `oscillators` holds (w, factor) pairs.  The drive g is evaluated once on
    the nodes for all of them; each oscillator's weighted drive is freed
    before the next one's is made.
    """
    s, weights = _gauss_panels(a, b)
    gs = g(s)
    return [_oscillator_sums(w, factor(s) * gs * weights, s) for w, factor in oscillators]


def _grid_sums(oscillators, g, times) -> list:
    """Cumulative panel sums of the oscillators of `_panel_sums` on the grid `times`."""
    return [_cumulative(sums)
            for sums in _panel_sums(oscillators, g, times[:-1], times[1:])]


def _driven_oscillators(oscillators, g, times, at=None, grid=None) -> list:
    """Position and velocity of each x'' + w^2 x = factor(t) g(t), at rest at times[0].

    `oscillators` holds (w, factor) pairs.  The response is a convolution of
    the drive: one Gauss-Legendre panel on each interval of the sorted grid
    `times` gives cumulative sums of it weighted by (1, s) when w = 0 and by
    (cos ws, sin ws) otherwise, and variation of constants turns them into
    the states on the grid.  With `at`, the states at those points of
    [times[0], times[-1]] add one partial panel to the sums at the grid point
    below each.  `grid` takes the `_grid_sums` of an earlier call, so that
    only those partial panels evaluate g.  `g` is vectorized; axes it
    prepends are kept in front of the time axes.
    """
    times = np.asarray(times, dtype=float)
    if grid is None:
        grid = _grid_sums(oscillators, g, times)
    if at is None:
        t, cums = times, grid
    else:
        t, k = _below(times, at)
        cums = [cum[..., k] + part
                for cum, part in zip(grid, _panel_sums(oscillators, g, times[k], t))]
    return [_oscillator_states(w, cum, t) for (w, _), cum in zip(oscillators, cums)]


def _extremal_oscillators(params: PhysicalParams, omega: float) -> list:
    """(w, factor) of the extremal's two oscillators, both driven by the control u.

    x1'' = -w0^2 u gives the trajectory and its velocity, and
    x3'' + w0^2 x3 = -2 w0^2 sin(omega t) u the first-order pair.
    """
    w0sq = params.omega0**2
    return [(0.0, lambda s: -w0sq),
            (params.omega0, lambda s: -2.0 * w0sq * np.sin(omega * s))]


def _extremal_states(params: PhysicalParams, omega: float, control, times,
                     at=None, grid=None) -> np.ndarray:
    """States (x1, x2, x3, x4) of the extremal's state system driven by `control`.

    All from rest at t = 0; `times`, `at` and `grid` as in `_driven_oscillators`.
    """
    (x1, x2), (x3, x4) = _driven_oscillators(_extremal_oscillators(params, omega),
                                             control, times, at, grid)
    return np.stack([x1, x2, x3, x4])


class OctExtremalProtocol(Protocol):
    """Trajectory of the minimum-transient-energy extremal.

    Position and velocity are the exact states of the solution; the
    acceleration follows the analytic control, which jumps at the endpoints
    (exempted from the boundary-condition contract).
    """

    edge_jumps = True

    def __init__(self, params: PhysicalParams, solution: "OctSolution"):
        super().__init__(params)
        self.solution = solution

    def position(self, t):
        return self.solution.states(t)[0]

    def velocity(self, t):
        return self.solution.states(t)[1]

    def acceleration(self, t):
        return -self.params.omega0**2 * self.solution.control(t)


@dataclass
class OctSolution:
    """Extremal control, states and averaged dynamical potential energy."""

    params: PhysicalParams
    omega: float
    constants: np.ndarray     # costate constants c1..c4
    times: np.ndarray         # output grid, n_steps intervals over [0, T]
    u: np.ndarray             # control samples on `times`, meters
    e_bar: float              # time-averaged dynamical potential energy, joules
    jump_start: float         # |u(0)|: trap-path discontinuity at t=0, meters
    jump_end: float           # |u(T)|: discontinuity at t=T, meters
    endpoint_residual: float  # |x(T) - (d,0,0,0)| after the probe solve
    # cumulative panel sums of the states on `times`, built by the first read
    # of `x` or `states`
    _grid: list | None = field(default=None, init=False, repr=False, compare=False)

    def control(self, t):
        """Analytic extremal control u(t) = -(p2 + 2 sin(omega*t) p4)."""
        c1, c2, c3, c4 = self.constants
        t = np.asarray(t, dtype=float)
        w0 = self.params.omega0
        p2 = c1 * t + c2
        p4 = c3 * np.cos(w0 * t) + c4 * np.sin(w0 * t)
        return -(p2 + 2.0 * np.sin(self.omega * t) * p4)

    def _state_sums(self) -> list:
        if self._grid is None:
            self._grid = _grid_sums(_extremal_oscillators(self.params, self.omega),
                                    self.control, self.times)
        return self._grid

    @cached_property
    def x(self) -> np.ndarray:
        """(4, n+1) states on `times`: trajectory, velocity, first-order pair."""
        return _extremal_states(self.params, self.omega, self.control, self.times,
                                grid=self._state_sums())

    def states(self, t):
        """Exact states x1..x4 at any t in [0, T], shape (4, *t.shape).

        The grid sums are built once per solution; after that a call
        evaluates the control on one partial panel per point of `t`.
        """
        return _extremal_states(self.params, self.omega, self.control, self.times, t,
                                self._state_sums())

    def trap_trajectory(self):
        """Trap path Q(t) = x1 - u inside (0, T), clamped to the endpoints outside."""
        d, T = self.params.distance, self.params.duration

        def fn(t):
            t = np.asarray(t, dtype=float)
            inside = np.clip(t, 0.0, T)
            path = self.states(inside)[0] - self.control(inside)
            return np.where(t <= 0.0, 0.0, np.where(t >= T, d, path))

        return fn


def _control_basis(omega: float, w0: float, t: np.ndarray) -> np.ndarray:
    """Controls for unit costate constants: u = basis.T @ c."""
    sw = np.sin(omega * t)
    return np.stack([-t, -np.ones_like(t), -2.0 * sw * np.cos(w0 * t),
                     -2.0 * sw * np.sin(w0 * t)])


def _control_gram(omega: float, w0: float, times: np.ndarray) -> np.ndarray:
    """Gram matrix G_ij = int b_i b_j dt of the control basis over the grid `times`.

    One Gauss-Legendre panel per interval, OCT_BLOCK intervals per pass, so
    the nodes, the trig arrays and each basis row of a pass stay 64 KiB.
    """
    gram = np.zeros((4, 4))
    n = times.size - 1
    for lo in range(0, n, OCT_BLOCK):
        hi = min(lo + OCT_BLOCK, n)
        nodes, weights = _gauss_panels(times[lo:hi], times[lo + 1:hi + 1])
        basis = _control_basis(omega, w0, nodes.ravel())
        gram += (basis * weights.ravel()) @ basis.T
    return gram


def _endpoint_map(params: PhysicalParams, gram: np.ndarray) -> np.ndarray:
    """States at T (rows) of the four unit costate probes (columns), from their Gram matrix.

    The quadrature-weighted drives of the two extremal oscillators, -w0^2 w
    against (1, s) and -2 w0^2 w sin(omega s) against (cos w0 s, sin w0 s),
    are w0^2 w times the basis rows (1, 0) and (2, 3).  So the sums (p, q)
    that `_oscillator_states` takes for probe i are w0^2 G[i, (1, 0)] and
    w0^2 G[i, (2, 3)]: as for any minimum-energy control, the endpoint map
    is the Gram matrix rearranged.
    """
    T, w0 = params.duration, params.omega0
    sums = w0**2 * gram
    x1, x2 = _oscillator_states(0.0, sums[:, [1, 0]].T, T)
    x3, x4 = _oscillator_states(w0, sums[:, [2, 3]].T, T)
    return np.stack([x1, x2, x3, x4])


def oct_solve(params: PhysicalParams, omega: float,
              n_steps: int = 8000) -> OctSolution:
    """Extremal of the averaged dynamical potential energy for a sine error at omega.

    The state system is linear in the four costate constants, and both its
    endpoint map and the energy integral of u^2 are contractions of the Gram
    matrix of the control basis, summed by Gauss-Legendre quadrature over the
    `n_steps` intervals of the output grid in one blocked pass.  Solving the
    4x4 endpoint map fixes the constants; the states on the grid are built
    from the solution's own control only when `x` or `states` is read.
    """
    if omega <= 0:
        raise ValueError("omega > 0 required")
    if n_steps < OCT_MIN_STEPS:
        raise ValueError(f"n_steps >= {OCT_MIN_STEPS} required")
    T, d, w0 = params.duration, params.distance, params.omega0
    times = np.linspace(0.0, T, n_steps + 1)
    gram = _control_gram(omega, w0, times)
    endpoint = _endpoint_map(params, gram)

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

    u = constants @ _control_basis(omega, w0, times)
    e_bar = params.mass * w0**2 / 2.0 * float(constants @ gram @ constants) / T
    return OctSolution(params=params, omega=omega, constants=constants,
                       times=times, u=u, e_bar=e_bar,
                       jump_start=abs(float(u[0])), jump_end=abs(float(u[-1])),
                       endpoint_residual=residual)


def avg_dynamical_potential(params: PhysicalParams, proto: Protocol, trap,
                            pert: Perturbation | None = None,
                            include_first_order: bool = False,
                            n_steps: int = 20000) -> float:
    """Time average of (m*Omega^2/2)(q - Q0)^2 over the transport, joules.

    The integral is summed on one Gauss-Legendre panel per interval of a
    grid of `n_steps` intervals, whose nodes never sample t = 0 or T, where
    a trap path may jump.  With `include_first_order` the classical
    trajectory gains its first-order response q1'' + w0^2 q1 = 2 f(t) q''(t)
    to the frequency perturbation, summed by quadrature on the same grid;
    for small amplitudes the correction is indistinguishable.
    """
    T = params.duration
    t = np.linspace(0.0, T, n_steps + 1)
    nodes, weights = _gauss_panels(t[:-1], t[1:])
    omega = perturbed_frequency(params, pert)
    om2 = np.asarray(omega(nodes), dtype=float) ** 2
    q0 = np.asarray(proto.position(nodes), dtype=float)
    Q = np.asarray(trap(nodes), dtype=float)
    deviation = q0 - Q

    if include_first_order and pert is not None and pert.is_frequency \
            and pert.amplitude > 0.0:
        def forcing(s):
            return 2.0 * eval_perturbation(pert, s) * proto.acceleration(s)

        [(q1, _)] = _driven_oscillators([(params.omega0, lambda s: 1.0)], forcing, t,
                                        at=nodes)
        deviation = deviation + pert.amplitude * q1

    integrand = 0.5 * params.mass * om2 * deviation**2
    return float(np.sum(weights * integrand)) / T
