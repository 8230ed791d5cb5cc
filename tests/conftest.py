import numpy as np
import pytest
from _pytest.python_api import ApproxScalar

from stashuttle import PhysicalParams

TWO_PI_MHZ = 2 * np.pi * 1e6


@pytest.fixture
def params():
    """Sr-88 reference point used throughout: 4 MHz trap, 50 um in 2 us."""
    return PhysicalParams(mass=1.455e-25, omega0=4 * TWO_PI_MHZ,
                          distance=50e-6, duration=2e-6)


@pytest.fixture(autouse=True)
def _no_default_abs_floor(monkeypatch):
    """Fail a `pytest.approx` comparison that passes only by its default abs=1e-12.

    Without an explicit `abs`, approx accepts any difference below 1e-12,
    which in SI units is everything: energies here are near 1e-25 J and
    distances near 1e-5 m.  A comparison that holds only at the default
    floor, and not at abs=0, fails, so a test names its scale.
    """
    original = ApproxScalar.__eq__

    def checked(self, actual):
        equal = original(self, actual)
        if equal and self.abs is None:
            rel = ApproxScalar.DEFAULT_RELATIVE_TOLERANCE if self.rel is None else self.rel
            if not original(ApproxScalar(self.expected, rel, 0.0, self.nan_ok), actual):
                pytest.fail(f"{actual!r} == {self!r} holds only by the default "
                            "abs=1e-12; give pytest.approx an explicit abs")
        return equal

    monkeypatch.setattr(ApproxScalar, "__eq__", checked)
