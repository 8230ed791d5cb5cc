"""Robust trajectory designers: auxiliary-function and sine-series methods.

Both methods zero the overlap integral

    I(omega, omega0) = int_0^T sin(omega*t) q''(t) exp(-i*omega0*t) dt

whose squared modulus is (up to 2m) the dynamical excitation for a sinusoidal
frequency error at omega.  The auxiliary-function route builds a polynomial
acceleration whose transform vanishes at omega0 -/+ omega; the sine-series
route solves a linear system on the series coefficients and extends to
derivative cancellation in omega and omega0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.polynomial import Polynomial

from .model import (FourierSineProtocol, PhysicalParams, PolynomialTrajectory,
                    Protocol, ProtocolKind)
from .perturbation import accel_ft
from .quadrature import adaptive_quad, oscillation_panels

CONDITION_LIMIT = 1e12


class DesignError(RuntimeError):
    """Design construction failed (singular target or ill-conditioned system)."""


def target_integral(params: PhysicalParams, proto: Protocol, omega: float) -> complex:
    """Overlap integral I(omega, omega0) of the protocol acceleration, units m/s.

    The dynamical second-order excitation for f(t)=sin(omega*t) is
    2*m*|I|^2; designers drive |I| to zero at their target frequencies.
    """
    w0 = params.omega0
    return (accel_ft(proto, w0 - omega) - accel_ft(proto, w0 + omega)) / 2j


# -- auxiliary-function designer ---------------------------------------------

@dataclass(frozen=True)
class AuxFunctionSpec:
    """Record of an auxiliary-function design: targets, edge order, normalization."""

    frequencies: tuple[float, ...]
    edge_exponent: int        # 4p+1 zeros of the auxiliary function at each edge
    normalization: float      # overall amplitude fixed by the endpoint position


def _design_aux(params: PhysicalParams, omegas: tuple[float, ...]) -> PolynomialTrajectory:
    w0, T, d = params.omega0, params.duration, params.distance
    p = len(omegas)
    if len(set(omegas)) != p:
        raise DesignError("repeated target frequencies make the design degenerate")
    for omega in omegas:
        if abs(omega - w0) < 1e-9 * w0:
            raise DesignError(
                "target frequency equal to the trap frequency: the normalization "
                "prefactor vanishes and no such design exists")

    # auxiliary function in centered reduced time v = t/T - 1/2:
    #   g(v) = v * (v^2 - 1/4)^(4p+1)
    # the centered basis keeps coefficients O(1) so the 8p+2 endpoint zeros
    # survive in floating point
    edge = 4 * p + 1
    g = Polynomial([0.0, 1.0]) * Polynomial([-0.25, 0.0, 1.0]) ** edge

    # detunings (omega0 -/+ omega_i) folded dimensionless through T
    squares = []
    for omega in omegas:
        squares.extend([((w0 - omega) * T) ** 2, ((w0 + omega) * T) ** 2])
    accel = Polynomial([0.0])
    for j in range(2 * p + 1):
        elementary = 1.0 if j == 0 else float(
            sum(np.prod(c) for c in combinations(squares, j)))
        accel = accel + elementary * g.deriv(4 * p - 2 * j)

    proto = PolynomialTrajectory(params, accel, 1.0, kind=ProtocolKind.AUX_FUNCTION)
    end_position = float(proto.position(T))
    amplitude = d / end_position
    proto = PolynomialTrajectory(params, accel, amplitude, kind=ProtocolKind.AUX_FUNCTION)
    proto.design = AuxFunctionSpec(tuple(omegas), edge, amplitude)
    return proto


def design_aux_single(params: PhysicalParams, omega: float) -> Protocol:
    """Trajectory whose acceleration transform vanishes at omega0 - omega and omega0 + omega."""
    return _design_aux(params, (float(omega),))


def design_aux_multi(params: PhysicalParams, omegas) -> Protocol:
    """Generalized design zeroing the overlap integral at several frequencies.

    The auxiliary function gains 4 more vanishing endpoint derivatives per
    added frequency; picking the targets close together flattens the
    excitation across the enclosed window.
    """
    return _design_aux(params, tuple(float(w) for w in omegas))


# -- sine-series (linear system) designer -------------------------------------

@dataclass(frozen=True)
class DesignConstraints:
    """Targets and derivative-cancellation orders for the sine-series designer."""

    targets: tuple[float, ...]
    omega_derivatives: int = 0
    omega0_derivatives: int = 0
    n_terms: int | None = None

    def minimum_terms(self) -> int:
        if not self.targets:
            raise ValueError("at least one target frequency is required")
        return (4 + 2 * self.omega_derivatives + 2 * self.omega0_derivatives
                + 2 * (len(self.targets) - 1))


def mode_overlap_integral(params: PhysicalParams, j: int, omega: float) -> complex:
    """Overlap of the j-th sine mode with the perturbation kernel.

    Closed form of int_0^T sin(omega*t) sin(j*pi*t/T) exp(-i*omega0*t) dt with
    a quadrature fallback near its removable singularities at
    (j*pi -/+ omega*T)^2 = (omega0*T)^2, where the rational form is unstable.
    """
    if j < 1:
        raise ValueError("mode index j >= 1")
    T, w0 = params.duration, params.omega0
    A = j * np.pi - omega * T
    B = j * np.pi + omega * T
    W = w0 * T
    dA, dB = A * A - W * W, B * B - W * W
    # the rational form loses about 1e-16*W^2/|dA| relative: 1e-12 at the band
    # edge, 5e-9 at 2e-8*W^2
    if min(abs(dA), abs(dB)) < 1e-4 * W * W:
        return _mode_overlap_quad(params, j, omega)
    phase = np.exp(-1j * W)
    term_a = (1j * W + phase * (A * np.sin(A) - 1j * W * np.cos(A))) / dA
    term_b = (1j * W + phase * (B * np.sin(B) - 1j * W * np.cos(B))) / dB
    return (T / 2.0) * (term_a - term_b)


def _mode_overlap_quad(params: PhysicalParams, j: int, omega: float,
                       d_omega: int = 0, d_omega0: int = 0) -> complex:
    """Quadrature of the mode overlap or its parameter derivatives.

    Differentiation under the integral sign: each omega derivative inserts
    t^r sin(omega*t + r*pi/2); each omega0 derivative inserts (-i*t)^s.
    """
    T, w0 = params.duration, params.omega0
    jpt = j * np.pi / T

    def integrand(t):
        value = (t ** (d_omega + d_omega0)
                 * np.sin(omega * t + d_omega * np.pi / 2.0)
                 * np.sin(jpt * t) * np.exp(-1j * w0 * t))
        return value * (-1j) ** d_omega0

    panels = oscillation_panels((abs(omega) + w0 + jpt) * T)
    return complex(adaptive_quad(integrand, 0.0, T, 1e-11, panels))


class AnsatzSystem:
    """Linear constraint system on the sine-series coefficients.

    Rows are assembled dimensionless (coefficients rescaled by d/T^2 and each
    row normalized), so the reported condition number reflects the geometry of
    the constraints rather than unit bookkeeping.
    """

    def __init__(self, params: PhysicalParams, constraints: DesignConstraints,
                 matrix: np.ndarray, rhs: np.ndarray, labels: list[str]):
        self.params = params
        self.constraints = constraints
        self.matrix = matrix          # row-normalized, dimensionless
        self.rhs = rhs
        self.labels = labels
        self.n_terms = matrix.shape[1]
        self.coeff_scale = params.distance / params.duration**2

        rank = np.linalg.matrix_rank(matrix)
        self.rank = int(rank)
        self.nullspace_dim = self.n_terms - self.rank
        sv = np.linalg.svd(matrix, compute_uv=False)
        self.condition_number = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")

    def solve(self) -> np.ndarray:
        """Coefficients in m/s^2: unique for a square system, minimum-norm otherwise."""
        if self.matrix.shape[0] >= self.n_terms and self.condition_number > CONDITION_LIMIT:
            raise DesignError(
                f"constraint system ill-conditioned (condition number "
                f"{self.condition_number:.3e} > {CONDITION_LIMIT:.0e}); "
                f"rank {self.rank} of {self.matrix.shape[0]} rows")
        scaled, *_ = np.linalg.lstsq(self.matrix, self.rhs, rcond=None)
        return scaled * self.coeff_scale

    def residual(self, coefficients: np.ndarray) -> float:
        """Relative residual of the constraints for coefficients in m/s^2."""
        scaled = np.asarray(coefficients, dtype=float) / self.coeff_scale
        return float(np.linalg.norm(self.matrix @ scaled - self.rhs)
                     / max(np.linalg.norm(self.rhs), 1.0))


def assemble_system(params: PhysicalParams, constraints: DesignConstraints) -> AnsatzSystem:
    """Build the endpoint + overlap (+ derivative) constraint rows."""
    n = constraints.n_terms or constraints.minimum_terms()
    if n < constraints.minimum_terms():
        raise ValueError(
            f"underdetermined request: {n} terms cannot satisfy "
            f"{constraints.minimum_terms()} constraints")
    T = params.duration
    js = np.arange(1, n + 1)

    rows = [1.0 / (js * np.pi), (1.0 - (-1.0) ** js) / js]
    rhs = [1.0, 0.0]
    labels = ["endpoint position", "endpoint velocity"]
    for omega in constraints.targets:
        overlap = np.array([mode_overlap_integral(params, int(j), omega) for j in js]) / T
        rows += [overlap.real, overlap.imag]
        rhs += [0.0, 0.0]
        labels += [f"Re I(omega={omega:.6e})", f"Im I(omega={omega:.6e})"]
    omega_main = constraints.targets[0]
    for r in range(1, constraints.omega_derivatives + 1):
        der = np.array([_mode_overlap_quad(params, int(j), omega_main, d_omega=r)
                        for j in js]) / T**(r + 1)
        rows += [der.real, der.imag]
        rhs += [0.0, 0.0]
        labels += [f"Re d^{r}I/domega^{r}", f"Im d^{r}I/domega^{r}"]
    for s in range(1, constraints.omega0_derivatives + 1):
        der = np.array([_mode_overlap_quad(params, int(j), omega_main, d_omega0=s)
                        for j in js]) / T**(s + 1)
        rows += [der.real, der.imag]
        rhs += [0.0, 0.0]
        labels += [f"Re d^{s}I/domega0^{s}", f"Im d^{s}I/domega0^{s}"]

    matrix = np.vstack(rows)
    rhs = np.asarray(rhs, dtype=float)
    norms = np.linalg.norm(matrix, axis=1)
    for label, norm in zip(labels, norms):
        if not norm > 0.0:
            raise DesignError(f"constraint row {label} is zero: it cannot be normalised")
    return AnsatzSystem(params, constraints, matrix / norms[:, None], rhs / norms, labels)


def design_fourier(params: PhysicalParams,
                   constraints: DesignConstraints) -> tuple[Protocol, AnsatzSystem]:
    """Solve the constraint system and return the resulting sine-series protocol."""
    system = assemble_system(params, constraints)
    coefficients = system.solve()
    return FourierSineProtocol(params, coefficients), system

