"""Domain types: trap parameters, perturbation functions, shuttling protocols.

Units are strict SI throughout (kg, m, s, rad/s, J); unit conversion happens
only at the CLI boundary.  Parameters and perturbations are immutable, and
their evaluators are pure.
"""

from __future__ import annotations

import enum
import sys
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

HBAR = 1.054571817e-34  # J*s

AMPLITUDE_CAP = 0.2       # hard cap on the dimensionless perturbation amplitude
AMPLITUDE_WARN = 0.05     # above this, second-order theory degrades noticeably

# Elements of one row block of a batched evaluation: 8 rows of 2001 samples.
# glibc maps a request whose padded size reaches its default mmap threshold
# of 128 KiB, so a block stays 64 float64 short of 1 << 14: its temporaries
# are reused from the heap instead of being mapped and page-faulted anew for
# every block, also at a sample count that divides 1 << 14.
BLOCK_ELEMENTS = (1 << 14) - 64


def row_blocks(rows: int, row_elements: int):
    """Slices over `rows` rows, each of at most BLOCK_ELEMENTS elements (one row at least)."""
    step = max(1, BLOCK_ELEMENTS // max(row_elements, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


@dataclass(frozen=True)
class PhysicalParams:
    """Trap and transport parameters: mass, angular trap frequency, distance, duration.

    Construction is permissive so `validate` can report violations on degenerate
    inputs; numerical routines assume a params object that `validate` accepts.
    """

    mass: float          # kg
    omega0: float        # rad/s, unperturbed angular trap frequency
    distance: float      # m, transport distance
    duration: float      # s, transport time
    hbar: float = HBAR   # J*s

    @property
    def energy_quantum(self) -> float:
        """One motional quantum, hbar*omega0, in joules."""
        return self.hbar * self.omega0

    def to_quanta(self, energy_joules: float) -> float:
        return energy_joules / self.energy_quantum


class PerturbationKind(enum.Enum):
    FREQUENCY_SINE = "frequency_sine"
    FREQUENCY_SUM = "frequency_sum"
    POSITION_SINE = "position_sine"


_FREQUENCY_KINDS = {PerturbationKind.FREQUENCY_SINE, PerturbationKind.FREQUENCY_SUM}


def _caller_stacklevel() -> int:
    """`stacklevel` of a warning raised in this module that names its first outside caller.

    The frames skipped are this module's, the `__init__` that dataclass
    generates among them (it runs in the module's globals), so a warning
    names the same caller line whether a constructor is called directly or
    through a classmethod.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class Perturbation:
    """Dimensionless perturbation of the trap frequency or the trap position.

    Frequency kinds describe f(t) in Omega(t) = Omega0*(1 + amplitude*f(t));
    position kinds describe h(t) in Q(t) = Q0(t) + amplitude*d*h(t).
    `components` holds (angular frequency rad/s, phase rad, weight) triples,
    whose sines superpose to f or h.
    """

    kind: PerturbationKind
    amplitude: float
    components: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= AMPLITUDE_CAP:
            raise ValueError(
                f"perturbation amplitude {self.amplitude} outside [0, {AMPLITUDE_CAP}]; "
                "second-order theory is meaningless beyond a few percent")
        if self.amplitude > AMPLITUDE_WARN:
            warnings.warn(
                f"amplitude {self.amplitude} > {AMPLITUDE_WARN}: perturbative accuracy degraded",
                stacklevel=_caller_stacklevel())
        if self.kind is PerturbationKind.FREQUENCY_SINE:
            if len(self.components) != 1 or self.components[0][1] != 0.0 \
                    or self.components[0][2] != 1.0:
                raise ValueError("frequency_sine takes exactly one component, phase 0, weight 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def frequency_sine(cls, omega: float, amplitude: float) -> "Perturbation":
        return cls(PerturbationKind.FREQUENCY_SINE, amplitude, ((omega, 0.0, 1.0),))

    @classmethod
    def frequency_sum(cls, components, amplitude: float) -> "Perturbation":
        return cls(PerturbationKind.FREQUENCY_SUM, amplitude,
                   tuple((float(w), float(p), float(c)) for w, p, c in components))

    @classmethod
    def position_sine(cls, omega: float, amplitude: float) -> "Perturbation":
        return cls(PerturbationKind.POSITION_SINE, amplitude, ((omega, 0.0, 1.0),))

    @property
    def is_frequency(self) -> bool:
        return self.kind in _FREQUENCY_KINDS

    @property
    def is_position(self) -> bool:
        return not self.is_frequency


def eval_perturbation(pert: Perturbation, t):
    """Evaluate f(t) (frequency kinds) or h(t) (position kinds); pure and vectorized."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for omega, phase, weight in pert.components:
        out = out + weight * np.sin(omega * t + phase)
    return out if out.ndim else float(out)


# -- validation ------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]   # one message per violated invariant

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(params: PhysicalParams) -> ValidationReport:
    """Collect every invariant violation instead of raising on the first one."""
    issues: list[str] = []
    for name in ("mass", "omega0", "distance", "duration"):
        value = getattr(params, name)
        if not np.isfinite(value) or value <= 0:
            issues.append(f"{name} > 0 violated (got {value})")
    product = params.omega0 * params.duration
    if not np.isfinite(product) or product == 0:
        issues.append(f"omega0*duration must be finite and nonzero (got {product})")
    return ValidationReport(tuple(issues))


# -- shuttling protocols ----------------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    position_start: float
    velocity_start: float
    acceleration_start: float
    position_end: float      # q(T) - d
    velocity_end: float
    acceleration_end: float
    ok: bool


class Protocol(ABC):
    """Ideal classical trajectory q(t) carried through the transport.

    Subclasses provide position/velocity/acceleration evaluators valid on
    [0, duration], vectorized over numpy arrays.
    """

    # True when the acceleration jumps at the endpoints by design, which
    # exempts it from the boundary-condition contract
    edge_jumps = False

    def __init__(self, params: PhysicalParams):
        self.params = params

    @abstractmethod
    def position(self, t):
        ...

    @abstractmethod
    def velocity(self, t):
        ...

    @abstractmethod
    def acceleration(self, t):
        ...

    def trap_path(self, t):
        """Ideal trap path q(t) + q''(t)/omega0^2 for constant trap frequency."""
        return self.position(t) + self.acceleration(t) / self.params.omega0**2

    def boundary_report(self, rtol: float = 1e-10) -> BoundaryReport:
        """Residuals of the six transport boundary conditions, scaled checks included."""
        p = self.params
        d, T = p.distance, p.duration
        res = (float(self.position(0.0)), float(self.velocity(0.0)),
               float(self.acceleration(0.0)),
               float(self.position(T)) - d, float(self.velocity(T)),
               float(self.acceleration(T)))
        scales = (d, d / T, d / T**2, d, d / T, d / T**2)
        checks = [abs(r) <= rtol * s for r, s in zip(res, scales)]
        if self.edge_jumps:
            checks[2] = checks[5] = True
        return BoundaryReport(*res, ok=all(checks))


class Polynomial5(Protocol):
    """Lowest-order polynomial satisfying all six rest-to-rest boundary conditions."""

    # Horner forms in x = t/T - 1/2, about which q - d/2 and q'' are odd and q'
    # is even, so t and T - t round alike; no power s**k is taken.
    # trap_path stays position + acceleration/omega0^2: one fused quintic of
    # Q(t) rounds differently and moves criterion 6 and the corridor checks.
    def position(self, t):
        x = np.asarray(t, dtype=float) / self.params.duration - 0.5
        x2 = x * x
        return self.params.distance * (0.5 + x * (1.875 + x2 * (6 * x2 - 5)))

    def velocity(self, t):
        p = self.params
        x = np.asarray(t, dtype=float) / p.duration - 0.5
        x2 = x * x
        return p.distance / p.duration * (1.875 + x2 * (30 * x2 - 15))

    def acceleration(self, t):
        p = self.params
        x = np.asarray(t, dtype=float) / p.duration - 0.5
        return p.distance / p.duration**2 * (x * (120 * (x * x) - 30))


def _series(coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_j coef[..., j] * basis[j] for a basis of shape (terms, *t.shape).

    Each coefficient row is its own vector-matrix product, so a row of a
    coefficient matrix goes through the same arithmetic as a one-row
    evaluation and gives the same bits.
    """
    flat = basis.reshape(len(basis), -1)
    rows = np.matmul(coef[..., None, :], flat)[..., 0, :]
    return rows.reshape(coef.shape[:-1] + basis.shape[1:])


class FourierSineProtocol(Protocol):
    """Trajectory whose acceleration is a finite sine series over the transport window.

    With acceleration sum_j a_j sin(j*pi*t/T), position and velocity follow by
    integration from rest at t=0; the endpoint conditions at t=T hold iff the
    coefficients satisfy the two linear endpoint constraints.

    A (rows, terms) coefficient matrix describes `rows` trajectories at once;
    the evaluators then return one row per trajectory, shape (rows, *t.shape).
    """

    def __init__(self, params: PhysicalParams, coefficients):
        super().__init__(params)
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.size == 0:
            raise ValueError("need at least one coefficient")
        self._j = np.arange(1, self.coefficients.shape[-1] + 1)

    def acceleration(self, t):
        T = self.params.duration
        t = np.asarray(t, dtype=float)
        arg = np.multiply.outer(self._j * np.pi / T, t)
        return _series(self.coefficients, np.sin(arg))

    def velocity(self, t):
        T = self.params.duration
        t = np.asarray(t, dtype=float)
        arg = np.multiply.outer(self._j * np.pi / T, t)
        coef = self.coefficients * T / (self._j * np.pi)
        return _series(coef, 1.0 - np.cos(arg))

    def position(self, t):
        T = self.params.duration
        t = np.asarray(t, dtype=float)
        jpi = self._j * np.pi
        arg = np.multiply.outer(jpi / T, t)
        coef = self.coefficients * T / jpi**2
        terms = np.multiply.outer(jpi, t) - T * np.sin(arg)
        return _series(coef, terms)

    def trap_path(self, t):
        """position(t) + acceleration(t)/omega0^2 from one shared sine basis.

        The bits are those of the two evaluators, which build the same
        argument.  The coefficient rows are evaluated in row blocks of at
        most BLOCK_ELEMENTS elements into one output array; a single vector
        is one row.
        """
        T = self.params.duration
        t = np.asarray(t, dtype=float)
        jpi = self._j * np.pi
        sines = np.sin(np.multiply.outer(jpi / T, t))
        terms = np.multiply.outer(jpi, t) - T * sines
        coef = self.coefficients
        cpos = coef * T / jpi**2
        w2 = self.params.omega0**2
        coef = coef.reshape(-1, coef.shape[-1])
        cpos = cpos.reshape(coef.shape)
        out = np.empty((len(coef),) + t.shape)
        for block in row_blocks(len(coef), t.size):
            acc = _series(coef[block], sines)
            acc /= w2
            np.add(_series(cpos[block], terms), acc, out=out[block])
        return out.reshape(self.coefficients.shape[:-1] + t.shape)


class PolynomialTrajectory(Protocol):
    """Polynomial trajectory in the centered reduced time v = t/T - 1/2.

    The centered basis keeps coefficient magnitudes small for the high-degree
    polynomials produced by the auxiliary-function designer, so the endpoint
    conditions survive in floating point.  `accel_poly` is dimensionless;
    q''(t) = amplitude * accel_poly(v).
    """

    def __init__(self, params: PhysicalParams, accel_poly: Polynomial, amplitude: float):
        super().__init__(params)
        self._accel = accel_poly
        vel = accel_poly.integ()
        self._vel = vel - vel(-0.5)
        pos = self._vel.integ()
        self._pos = pos - pos(-0.5)
        self.amplitude = amplitude

    def _v(self, t):
        return np.asarray(t, dtype=float) / self.params.duration - 0.5

    def position(self, t):
        return self.amplitude * self.params.duration**2 * self._pos(self._v(t))

    def velocity(self, t):
        return self.amplitude * self.params.duration * self._vel(self._v(t))

    def acceleration(self, t):
        return self.amplitude * self._accel(self._v(t))


class TabulatedProtocol(Protocol):
    """Cubic-spline trajectory through uniform position samples on [0, T]."""

    def __init__(self, params: PhysicalParams, positions):
        # imported here so that scipy stays off the import path of the package
        from scipy.interpolate import CubicSpline

        super().__init__(params)
        positions = np.asarray(positions, dtype=float)
        if positions.size < 4:
            raise ValueError("tabulated protocol needs at least 4 samples")
        times = np.linspace(0.0, params.duration, positions.size)
        self._spline = CubicSpline(times, positions)
        self._dspline = self._spline.derivative()
        self._ddspline = self._dspline.derivative()

    def position(self, t):
        return self._spline(np.asarray(t, dtype=float))

    def velocity(self, t):
        return self._dspline(np.asarray(t, dtype=float))

    def acceleration(self, t):
        return self._ddspline(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class EnergyQuanta:
    """Energy in units of hbar*omega0 for a transport starting in eigenstate `level`."""

    value: float
    level: int = 0
