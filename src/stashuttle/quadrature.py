"""Gauss-Legendre panel quadrature and stable phase integrals.

All oscillatory integrals in the package go through `adaptive_quad`, which
doubles a uniform Gauss-Legendre panel grid until two successive estimates
agree.  Order-16 panels resolve smooth integrands spectrally, so a couple of
panels per oscillation already saturates double precision; the doubling acts
as the error estimate.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "oscillation_panels",
    "phase_integral",
    "sine_phase_integral",
]

PANEL_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)
# integrand values `_panel_sum` weights in place; others are copied first
_OWNED_TYPES = (np.dtype(np.float64), np.dtype(np.complex128))


class QuadratureError(RuntimeError):
    """Panel refinement hit the panel cap before reaching the tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative change {achieved:.3e})")
        self.achieved = achieved


def _panel_sum(f, a: float, b: float, n_panels: int):
    """Panel-grid integral and max |f| of each integrand element (lane axes first)."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    ft = f(t)
    if not (isinstance(ft, np.ndarray) and ft.dtype in _OWNED_TYPES
            and ft.flags.writeable and ft.flags.c_contiguous):
        # the values the weighted product would have: same bits, our own copy
        ft = np.asarray(ft)
        ft = ft.astype(np.result_type(ft, _WEIGHTS), order="C")
    if ft.dtype.kind == "f":
        scale = np.maximum(ft.max(axis=-1), -ft.min(axis=-1))
    else:
        scale = np.max(np.abs(ft), axis=-1)
    # weighted in place: in a block of lanes these are the largest arrays
    panels = ft.reshape(ft.shape[:-1] + (n_panels, PANEL_ORDER))
    np.multiply(panels, _WEIGHTS, out=panels)
    panels *= half[:, None]
    return np.sum(panels, axis=(-2, -1)), scale


def oscillation_panels(total_phase: float) -> int:
    """Initial panel count resolving an oscillatory phase accumulated over the interval."""
    return max(8, int(math.ceil(1.5 * abs(total_phase) / math.pi)))


def adaptive_quad(f, a: float, b: float, rtol: float = 1e-10,
                  initial_panels=8, max_panels: int = 1 << 17):
    """Integrate a vectorized (possibly complex) integrand over [a, b].

    Convergence is declared when doubling the panel count changes the result
    by less than ``rtol`` relative, with an absolute floor tied to the
    integrand magnitude so integrals that cancel to ~0 still terminate.

    ``f(t)`` may return shape ``(*lanes, len(t))``: every element of the lane
    axes is then an integral of its own, with its own floor (from its own
    values), keeping the value of its own first converged doubling, and the
    result has the lane shape.  The call raises if any element fails, with
    the worst achieved change.  A 1-D integrand gives a scalar.

    ``initial_panels`` is one start for every element or an array that
    broadcasts to the lane shape, one start per element.  The grids run from
    the smallest start up, and an element counts a doubling only from its
    own start on, so it gets the bits of a call started at its own start.
    Every start must therefore be the smallest times a power of two.

    The call owns the array ``f(t)`` returns and weights it in place, so an
    integrand returns a fresh array or a scratch buffer it overwrites on its
    next call, never values it still needs.  A read-only, non-contiguous or
    not float64/complex128 result is copied first, with the same bits.
    """
    if b == a:
        return np.zeros(np.shape(f(np.empty(0)))[:-1])[()]
    starts = np.maximum(4, np.asarray(initial_panels).astype(np.int64))
    n = int(starts.min())
    steps = starts // n
    if np.any(starts % n) or np.any(steps & (steps - 1)):
        raise ValueError("every initial panel count must be the smallest times a power of two")
    prev, _ = _panel_sum(f, a, b, n)
    starts = np.broadcast_to(starts, prev.shape)
    result = np.zeros_like(prev)
    done = np.zeros(prev.shape, dtype=bool)
    relative = np.full(prev.shape, np.inf)
    while n <= max_panels:
        n *= 2
        cur, scale = _panel_sum(f, a, b, n)
        change = np.abs(cur - prev)
        converged = change <= np.maximum(rtol * np.abs(cur), 1e-14 * abs(b - a) * scale)
        # a doubling from a grid below an element's own start does not count
        converged &= 2 * starts <= n
        np.copyto(result, cur, where=converged & ~done)
        done |= converged
        if done.all():
            return result[()]
        relative = change / np.maximum(np.abs(cur), 1e-300)
        prev = cur
    raise QuadratureError(
        f"quadrature not converged to rtol={rtol:g} within {max_panels} panels",
        float(np.max(relative[~done])))


def phase_integral(kappa: float, duration: float) -> complex:
    """Integral of exp(i*kappa*t) over [0, duration], stable for small kappa."""
    z = kappa * duration
    if abs(z) < 1e-4:
        # series in z keeps full precision through the kappa -> 0 limit
        zz = 1j * z
        return duration * (1.0 + zz / 2.0 + zz**2 / 6.0 + zz**3 / 24.0 + zz**4 / 120.0)
    return (np.exp(1j * z) - 1.0) / (1j * kappa)


def sine_phase_integral(omega: float, phase: float, freq: float, duration: float) -> complex:
    """Integral of sin(omega*t + phase) * exp(-i*freq*t) over [0, duration]."""
    return (np.exp(1j * phase) * phase_integral(omega - freq, duration)
            - np.exp(-1j * phase) * phase_integral(-omega - freq, duration)) / 2j
