"""Closed-form analysis of the polynomial protocol under a sinusoidal frequency error.

Everything here is analytic except the Fourier projection and the corridor
check, which sample deterministically.  The envelope formulas are
phenomenological curves through the maxima of the oscillating excitation; they
are exact bounds only at commensurate parameter points (see tests).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Polynomial5
from .quadrature import adaptive_quad, oscillation_panels

CORRIDOR_MIN_SAMPLES = 1000  # fewest samples of a trap path in a corridor check or cost
POLE_GUARD = 1e-6  # relative half-width of the excluded band around each pole


class PoleError(ValueError):
    """Evaluation too close to a non-removable pole of a closed form."""


def _check_pole(omega: float, pole: float, omega0: float, name: str):
    # the closed forms depend on omega**2 only, so -pole is a pole too
    if abs(abs(omega) - pole) < POLE_GUARD * omega0:
        raise PoleError(
            f"omega within {POLE_GUARD:g}*omega0 of the {name} pole at {pole:.6e} rad/s; "
            "use the time-integral forms, which stay finite there")


def static_closed_form(params: PhysicalParams, omega: float, n: int = 0) -> float:
    """Static second-order excitation for f(t)=sin(omega*t), quanta per amplitude^2.

    Exact for any protocol (the static part is protocol independent).  The
    factor 1/(omega^2 - 4*omega0^2) is cancelled analytically through the sinc
    sd = sin((omega - 2*omega0)*T/2)/(omega - 2*omega0), so the removable
    point omega = 2*omega0 takes its finite limit.
    """
    w0, T = params.omega0, params.duration
    omega = abs(omega)  # the excitation is even in omega
    s = omega + 2.0 * w0
    sd = 0.5 * T * float(np.sinc((omega - 2.0 * w0) * T / (2.0 * math.pi)))
    a = omega * (math.sin(omega * T) + 4.0 * w0 * math.cos(0.5 * s * T) * sd) / s
    b = -4.0 * omega * w0 * math.sin(0.5 * s * T) * sd / s
    energy = params.hbar * w0 * (2 * n + 1) / 4.0 * (a**2 + b**2)
    return energy / params.energy_quantum


class ConditionKind(enum.Enum):
    VANISH_EVEN = "vanish_even"        # wT even multiple of pi, 2*w0*T even multiple of pi
    VANISH_ODD = "vanish_odd"          # both odd multiples of pi
    MAX_EVEN = "max_even"              # wT even, 2*w0*T odd
    MAX_ODD = "max_odd"                # wT odd, 2*w0*T even
    NON_COMMENSURATE = "non_commensurate"


@dataclass(frozen=True)
class CommensurateClass:
    kind: ConditionKind
    i: int | None = None   # wT = 2*i*pi (even) or (2*i+1)*pi (odd)
    j: int | None = None   # 2*w0*T = 2*j*pi (even) or (2*j+1)*pi (odd)


def _integer_multiple(x: float, tol: float) -> int | None:
    k = round(x)
    return k if abs(x - k) <= tol and k >= 0 else None


def classify_commensurate(params: PhysicalParams, omega: float,
                          tol: float = 1e-9) -> CommensurateClass:
    """Classify (omega*T/pi, 2*omega0*T/pi) parity for the static-vanishing rules."""
    k = _integer_multiple(omega * params.duration / math.pi, tol)
    m = _integer_multiple(2.0 * params.omega0 * params.duration / math.pi, tol)
    if k is None or m is None or k == 0:
        return CommensurateClass(ConditionKind.NON_COMMENSURATE)
    k_even, m_even = k % 2 == 0, m % 2 == 0
    if k_even and m_even:
        return CommensurateClass(ConditionKind.VANISH_EVEN, k // 2, m // 2)
    if not k_even and not m_even:
        return CommensurateClass(ConditionKind.VANISH_ODD, (k - 1) // 2, (m - 1) // 2)
    if k_even:
        return CommensurateClass(ConditionKind.MAX_EVEN, k // 2, (m - 1) // 2)
    return CommensurateClass(ConditionKind.MAX_ODD, (k - 1) // 2, m // 2)


def envelope_static(params: PhysicalParams, omega: float, T: float,
                    n: int = 0, oscillating: bool = True) -> float:
    """Envelope through the maxima of the static excitation, quanta per amplitude^2."""
    w0 = params.omega0
    _check_pole(omega, 2.0 * w0, w0, "parametric")
    bracket = 1.0 + abs(math.cos(2.0 * w0 * T)) if oscillating else 2.0
    energy = (2.0 * params.hbar * w0 * (2 * n + 1) * omega**2 * w0**2 * bracket
              / (omega**2 - 4.0 * w0**2)**2)
    return energy / params.energy_quantum


def envelope_dynamical(params: PhysicalParams, omega: float, T: float,
                       oscillating: bool = True) -> float:
    """Approximate envelope of the polynomial protocol's dynamical excitation."""
    w0 = params.omega0
    _check_pole(omega, w0, w0, "trajectory")
    bracket = 1.0 + abs(math.cos(w0 * T)) if oscillating else 2.0
    energy = (57600.0 * params.mass * params.distance**2 * omega**2 * w0**2 * bracket
              / (T**6 * (w0**2 - omega**2)**4))
    return energy / params.energy_quantum


def crossing_time(params: PhysicalParams, omega: float) -> float:
    """Transport time where the non-oscillating envelopes cross, for level 0.

    Below it the dynamical part dominates (longer transports pay off); above
    it the static part does and slowing down no longer helps.
    """
    w0 = params.omega0
    _check_pole(omega, w0, w0, "trajectory")
    _check_pole(omega, 2.0 * w0, w0, "parametric")
    ratio = (omega**2 - 4.0 * w0**2) / (omega**2 - w0**2)**2
    return (28800.0 * params.mass * params.distance**2 / (params.hbar * w0) * ratio**2) ** (1.0 / 6.0)


def fourier_projection(params: PhysicalParams, K: int) -> float:
    """Modulus of the polynomial acceleration projected on exp(-2*pi*i*K*t/T), m/s.

    Computed by quadrature.  The projection vanishes for K=0 by antisymmetry
    and falls off as 1/|K|^3: the exact projection is
    -i*sign(K)*90*d/(pi^3*T*|K|^3).
    """
    if K == 0:
        proto = Polynomial5(params)
        return abs(float(np.real(adaptive_quad(proto.acceleration, 0.0, params.duration,
                                               1e-12, 16))))
    T = params.duration
    proto = Polynomial5(params)
    nu = 2.0 * math.pi * K / T

    def integrand(t):
        return proto.acceleration(t) * np.exp(-1j * nu * t)

    value = adaptive_quad(integrand, 0.0, T, 1e-12, oscillation_panels(abs(nu) * T))
    return abs(complex(value))


def corridor_check(trap, params: PhysicalParams,
                   n_samples: int = 2001) -> tuple[float, float]:
    """Extremal excursions of the trap path Q(t) outside [0, d]: (above d, below 0), meters.

    Samples a uniform closed grid; the symmetric grid preserves the edge
    symmetry of the polynomial protocol's overshoot.
    """
    if n_samples < CORRIDOR_MIN_SAMPLES:
        raise ValueError(f"n_samples >= {CORRIDOR_MIN_SAMPLES} required")
    t = np.linspace(0.0, params.duration, n_samples)
    Q = np.asarray(trap(t), dtype=float)
    above = float(max(np.max(Q) - params.distance, 0.0))
    below = float(max(-np.min(Q), 0.0))
    return above, below
