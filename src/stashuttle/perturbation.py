"""Second-order excitation energy for frequency and position perturbations.

Three equivalent routes are implemented deliberately: the time-integral form
built from the first-order auxiliary solutions, the compact Fourier-transform
forms, and (in `analysis`) the closed form for a plain sinusoid.  Their mutual
agreement is the main internal consistency check of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Perturbation, PhysicalParams, Protocol, FourierSineProtocol,
                    eval_perturbation)
from .quadrature import (PANEL_ORDER, adaptive_quad, oscillation_panels,
                         sine_phase_integral)

RTOL = 1e-10  # relative tolerance of every quadrature in this module
# bound on lanes x nodes of the estimated finest grid of one block of lanes
LANE_NODES = 1 << 15
# kernel rows of the first-order responses: name -> (kernel, its frequency in
# units of omega0, weighted by the trap acceleration)
_ROWS = {"qc1": (np.sin, 1.0, True), "qc1_dot": (np.cos, 1.0, True),
         "rho1": (np.sin, 2.0, False), "rho1_dot": (np.cos, 2.0, False),
         "qp1": (np.sin, 1.0, False), "qp1_dot": (np.cos, 1.0, False)}


def _as_function(f):
    """Accept either a Perturbation or a plain callable of time."""
    if isinstance(f, Perturbation):
        return (lambda t: eval_perturbation(f, t)), f
    return f, None


def _lane_frequencies(f):
    """Angular frequency of each lane of `f`, or None when it is not known.

    A `SineLanes` has one per lane; a sine-kind perturbation has its fastest
    component.
    """
    if isinstance(f, SineLanes):
        return f.omegas
    if isinstance(f, Perturbation) and f.components:
        return max(abs(omega) for omega, _, _ in f.components)
    return None


class _Scratch:
    """Float64 buffers and grid-only factors shared by the lane blocks of one axis.

    A buffer is allocated once and grown only when a call needs more, so the
    blocks of an axis do not map and fault their arrays anew.  Factors are
    kept for the latest key only, one per grid, and used only for a grid
    equal to the one they were computed on.
    """

    def __init__(self):
        self._buffers = {}
        self._key = None
        self._factors = {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """Uninitialised float64 array of `shape` in the buffer `name`."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def factor(self, key: tuple, grid: np.ndarray, compute) -> np.ndarray:
        """compute(grid), read-only, remembered under `key` and the nodes of `grid`.

        A new key drops the factors of the previous one.
        """
        if key != self._key:
            self._key, self._factors = key, {}
        entry = self._factors.get(grid.size)
        if entry is None or not np.array_equal(entry[0], grid):
            values = np.array(compute(grid))  # a read-only copy for every block
            values.flags.writeable = False
            entry = self._factors[grid.size] = (grid.copy(), values)
        return entry[1]


class SineLanes:
    """f(t) = sin(omega*t) for each of `omegas`, shape (lanes, *t.shape).

    `lanes[block]` is the block of lanes `omegas[block]`.  All slices share
    one `_Scratch`: the values a call returns live in its buffer and are
    overwritten by the next call of any slice.
    """

    def __init__(self, omegas: np.ndarray, scratch: _Scratch):
        self.omegas = omegas
        self.scratch = scratch

    def __getitem__(self, block) -> "SineLanes":
        return SineLanes(self.omegas[block], self.scratch)

    def __call__(self, t) -> np.ndarray:
        out = self.scratch.buffer("lanes", self.omegas.shape + np.shape(t))
        np.multiply.outer(self.omegas, t, out=out)
        return np.sin(out, out=out)


@dataclass(frozen=True)
class ExcitationReport:
    """Static/dynamical split of the second-order excitation, quanta per amplitude^2."""

    static_quanta: float
    dynamical_quanta: float
    level: int = 0

    @property
    def total_quanta(self) -> float:
        return self.static_quanta + self.dynamical_quanta


class FirstOrderSolution:
    """First-order responses of the width factor and the classical trajectory.

    `responses` integrates the formal convolution solutions

        rho1(t) = -w0 * int_0^t f(t') sin[2 w0 (t-t')] dt'
        qc1(t)  = (2/w0) * int_0^t f(t') q0''(t') sin[w0 (t-t')] dt'
        qp1(t)  = d w0 * int_0^t h(t') sin[w0 (t-t')] dt'

    (and the cosine kernels for the derivatives, six rows in all) by adaptive
    Gauss-Legendre quadrature at 1e-10 relative tolerance.  `qp1` is the
    trajectory's response to a trap-position error Q0 + amplitude*d*h(t); its
    rows never read the protocol, which may then be None.  When `f(t)` returns
    shape (*lanes, *t.shape), every response has the lane shape, so position
    lanes work as frequency lanes do.  A `SineLanes` `f` lends the scratch of
    its axis; any other `f` gets a scratch of its own.  A `SineLanes` or
    sine-kind `f` starts each lane on the grid of its own frequency; a plain
    callable starts every lane on the grid of a perturbation at 2 w0.
    """

    def __init__(self, params: PhysicalParams, proto: Protocol | None, f):
        self.params = params
        self.proto = proto
        self._f, _ = _as_function(f)
        self._omegas = _lane_frequencies(f)
        self._scratch = f.scratch if isinstance(f, SineLanes) else _Scratch()

    def responses(self, t: float, names: tuple) -> list:
        """The responses `names` at `t`, each of the lane shape.

        `names` picks from the rows of `_ROWS` in any order, which the list
        follows.  Their kernel rows integrate as one stack f(t') x rows(t'),
        each lane starting on the `oscillation_panels` grid of its own phase
        against the stack's highest kernel frequency and each element
        converging on its own.  For a given `t` and protocol the rows depend
        on the grid only, so the scratch keeps them.
        """
        w0 = self.params.omega0
        freq = max(_ROWS[name][1] for name in names) * w0
        omega = 2.0 * w0 if self._omegas is None else np.abs(self._omegas)
        panels = np.expand_dims(oscillation_panels((omega + freq) * t), -1)
        scratch = self._scratch

        def rows(tp):
            out = np.empty((len(names), tp.size))
            for row, name in zip(out, names):
                kernel, freq, accelerated = _ROWS[name]
                kernel(freq * w0 * (t - tp), out=row)
                if accelerated:
                    row *= self.proto.acceleration(tp)
            return out

        def integrand(tp):
            kernel_rows = scratch.factor((self.proto, w0, t, names), tp, rows)
            w = np.asarray(self._f(tp))[..., None, :]
            shape = w.shape[:-2] + kernel_rows.shape
            # filled in place: in a block of lanes the stack is the largest array
            out = (scratch.buffer("stack", shape)
                   if np.result_type(w, kernel_rows) == np.float64 else None)
            return np.multiply(w, kernel_rows, out=out)

        values = np.real(adaptive_quad(integrand, 0.0, t, RTOL, panels))
        d = self.params.distance
        scale = {"qc1": 2.0 / w0, "qc1_dot": 2.0, "rho1": -w0, "rho1_dot": -2.0 * w0**2,
                 "qp1": d * w0, "qp1_dot": d * w0**2}
        return [scale[name] * values[..., k] for k, name in enumerate(names)]


def second_order_energy_freq(params: PhysicalParams, proto: Protocol, f,
                             n: int = 0) -> ExcitationReport:
    """Second-order excitation for Omega(t) = omega0*(1 + amplitude*f(t)).

    Reported per squared amplitude, split into the trajectory-dependent
    (dynamical) and trajectory-independent (static) parts.  A callable `f`
    whose values carry leading lane axes, f(t) of shape (*lanes, *t.shape),
    gives report fields of the lane shape, each lane computed as on its own.
    """
    sol = FirstOrderSolution(params, proto, f)
    T = params.duration
    w0, m = params.omega0, params.mass
    # a copy: lane values live in a buffer that the quadrature overwrites
    fT = np.array(sol._f(T), dtype=float)
    q1, q1d, r1, r1d = sol.responses(T, ("qc1", "qc1_dot", "rho1", "rho1_dot"))
    # squares go through C pow (np.float_power), which Python's float ** also
    # calls, so scan CSVs keep their bytes; numpy's ** multiplies instead and
    # rounds about one square in a thousand differently
    dyn = 0.5 * m * w0**2 * (np.float_power(q1, 2) + np.float_power(q1d / w0, 2))
    stat = 0.25 * params.hbar * w0 * (2 * n + 1) * (np.float_power(2.0 * r1 + fT, 2)
                                                   + np.float_power(r1d / w0, 2))
    eq = params.energy_quantum
    return ExcitationReport(stat / eq, dyn / eq, level=n)


def sine_lanes(omegas) -> SineLanes:
    """f(t) = sin(omega*t) for each of `omegas`, shape (lanes, *t.shape).

    Slice it with the blocks of `lane_blocks` to evaluate one axis block by
    block in one shared scratch.
    """
    return SineLanes(np.asarray(omegas, dtype=float), _Scratch())


def _estimated_panels(params: PhysicalParams, omegas):
    """Panels of the finest grid the quadrature of lanes at `omegas` should reach.

    The lane's first grid against the stack's highest kernel frequency,
    2 w0, doubled once by the convergence check.
    """
    return 2 * oscillation_panels((np.abs(omegas) + 2.0 * params.omega0) * params.duration)


def lane_blocks(params: PhysicalParams, omegas) -> list[slice]:
    """Consecutive blocks of the frequency lanes `omegas` for `second_order_energy_freq`.

    A block's lanes times the nodes of its widest `_estimated_panels` grid
    stay within LANE_NODES; a lane above it alone forms a block of its own.
    The grid is an estimate, not a bound: the peak RSS measured on scans
    is what checks the block size.
    """
    blocks, start, widest = [], 0, 0
    estimates = _estimated_panels(params, np.asarray(omegas, dtype=float))
    for k, nodes in enumerate((PANEL_ORDER * estimates).tolist()):
        widest = max(widest, nodes)
        if k > start and (k + 1 - start) * widest > LANE_NODES:
            blocks.append(slice(start, k))
            start, widest = k, nodes
    return blocks + [slice(start, len(omegas))]


def second_order_energy_pos(params: PhysicalParams, h, n: int = 0) -> ExcitationReport:
    """Second-order excitation for a trap-position error Q = Q0 + amplitude*d*h(t).

    The width factor is untouched at first order, so the excitation is purely
    static: it does not depend on the ideal trajectory at all.  The responses
    are the `qp1` rows of `FirstOrderSolution`, so `h` takes the same forms as
    the `f` of `second_order_energy_freq`: a `sine_lanes` axis gives report
    fields of the lane shape, each lane computed as on its own.
    """
    sol = FirstOrderSolution(params, None, h)
    T, w0, m, d = params.duration, params.omega0, params.mass, params.distance
    # a copy: lane values live in a buffer that the quadrature overwrites
    hT = np.array(sol._f(T), dtype=float)
    q1, q1d = sol.responses(T, ("qp1", "qp1_dot"))
    stat = 0.5 * m * w0**2 * (np.float_power(q1 - d * hT, 2) + np.float_power(q1d / w0, 2))
    eq = params.energy_quantum
    return ExcitationReport(stat / eq, np.zeros_like(stat)[()], level=n)


def accel_ft(proto: Protocol, nu: float, rtol: float = RTOL) -> complex:
    """Fourier transform of the protocol acceleration at angular frequency nu.

    Uses the exact antiderivative for sine-series protocols and adaptive
    quadrature otherwise.
    """
    T = proto.params.duration
    if isinstance(proto, FourierSineProtocol):
        total = 0.0 + 0.0j
        for idx, a in enumerate(proto.coefficients, start=1):
            total += a * sine_phase_integral(idx * np.pi / T, 0.0, nu, T)
        return total
    panels = oscillation_panels(abs(nu) * T)

    def integrand(t):
        return proto.acceleration(t) * np.exp(-1j * nu * t)

    return complex(adaptive_quad(integrand, 0.0, T, rtol, panels))


def fourier_dynamical(params: PhysicalParams, proto: Protocol, f) -> float:
    """Dynamical excitation from the acceleration transform, quanta per amplitude^2.

    Evaluates 2*m*|int f(t) q0''(t) exp(-i*w0*t) dt|^2.  Frequency
    perturbations split into transforms at omega0 -/+ omega; callables are
    integrated directly.
    """
    fn, pert = _as_function(f)
    T, w0 = params.duration, params.omega0
    if pert is not None and pert.is_frequency:
        total = 0.0 + 0.0j
        for omega, phase, weight in pert.components:
            total += weight * (np.exp(1j * phase) * accel_ft(proto, w0 - omega)
                               - np.exp(-1j * phase) * accel_ft(proto, w0 + omega)) / 2j
    else:
        max_omega = w0 + max((c[0] for c in getattr(pert, "components", ())), default=w0)

        def integrand(t):
            return fn(t) * proto.acceleration(t) * np.exp(-1j * w0 * t)

        total = adaptive_quad(integrand, 0.0, T, RTOL,
                              oscillation_panels(max_omega * T))
    return 2.0 * params.mass * abs(total)**2 / params.energy_quantum


def _transform_of_perturbation(fn, pert, freq: float, T: float) -> complex:
    """int_0^T f(t) exp(-i*freq*t) dt, in closed form for a Perturbation."""
    if pert is not None:
        return sum(weight * sine_phase_integral(omega, phase, freq, T)
                   for omega, phase, weight in pert.components)
    panels = oscillation_panels(2.0 * freq * T)

    def integrand(t):
        return fn(t) * np.exp(-1j * freq * t)

    return complex(adaptive_quad(integrand, 0.0, T, RTOL, panels))


def fourier_static_freq(params: PhysicalParams, f, n: int = 0) -> float:
    """Static excitation from the Fourier form at 2*omega0, quanta per amplitude^2.

    Requires no perturbation at the final time (f(T) = 0 within 1e-10); the
    time-integral form in `second_order_energy_freq` stays valid otherwise.
    """
    fn, pert = _as_function(f)
    T, w0 = params.duration, params.omega0
    fT = float(np.asarray(fn(T), dtype=float))
    if abs(fT) > 1e-10:
        raise ValueError(
            f"fourier_static_freq requires f(T)=0 (got {fT:.3e}); "
            "use the time-integral form for nonvanishing endpoint perturbations")
    transform = _transform_of_perturbation(fn, pert, 2.0 * w0, T)
    return w0**2 * (2 * n + 1) * abs(transform)**2


def fourier_static_pos(params: PhysicalParams, h, n: int = 0) -> float:
    """Static excitation of a position error from its transform at omega0."""
    hn, pert = _as_function(h)
    T, w0 = params.duration, params.omega0
    hT = float(np.asarray(hn(T), dtype=float))
    if abs(hT) > 1e-10:
        raise ValueError(f"fourier_static_pos requires h(T)=0 (got {hT:.3e})")
    transform = _transform_of_perturbation(hn, pert, w0, T)
    energy = 0.5 * params.mass * w0**4 * params.distance**2 * abs(transform)**2
    return energy / params.energy_quantum


def eta_ratio(params: PhysicalParams, n: int = 0) -> float:
    """Prefactor ratio of frequency-error to position-error static excitation.

    Much smaller than 1 for trapped-ion parameters, which is why faithful
    trap-position control matters more than frequency control.
    """
    return 2.0 * params.hbar * (2 * n + 1) / (params.mass * params.omega0 * params.distance**2)
