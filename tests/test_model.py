import numpy as np
import pytest

from stashuttle import (FourierSineProtocol, Perturbation, PerturbationKind,
                        PhysicalParams, Polynomial5, TabulatedProtocol,
                        eval_perturbation, validate)


class TestEvalPerturbation:
    def test_sine_at_zero(self):
        p = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        assert eval_perturbation(p, 0.0) == 0.0

    def test_sine_peak(self):
        omega = 2 * np.pi * 6e6
        p = Perturbation.frequency_sine(omega, 0.01)
        assert eval_perturbation(p, np.pi / (2 * omega)) == pytest.approx(1.0, abs=1e-12)

    def test_sum_at_integer_half_periods(self):
        omega = 2 * np.pi * 2e6
        p = Perturbation.frequency_sum([(omega, 0.0, 1.0), (2 * omega, 0.0, 0.5)], 0.01)
        assert eval_perturbation(p, np.pi / omega) == pytest.approx(0.0, abs=1e-12)

    def test_periodicity(self):
        omega = 2 * np.pi * 3.7e6
        p = Perturbation.frequency_sine(omega, 0.02)
        rng = np.random.default_rng(1)
        for t in rng.uniform(0, 5e-6, 50):
            assert eval_perturbation(p, t + 2 * np.pi / omega) == \
                pytest.approx(eval_perturbation(p, t), abs=1e-12)

    def test_deterministic_bit_identical(self):
        p = Perturbation.frequency_sine(2 * np.pi * 6e6, 0.01)
        t = np.linspace(0, 2e-6, 100)
        a = eval_perturbation(p, t)
        b = eval_perturbation(p, t)
        assert np.array_equal(a, b)


class TestPerturbationInvariants:
    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            Perturbation.frequency_sine(1e6, 0.3)
        with pytest.raises(ValueError):
            Perturbation.position_sine(1e6, -0.01)

    def test_amplitude_warning(self):
        with pytest.warns(UserWarning, match="perturbative accuracy"):
            Perturbation.frequency_sine(1e6, 0.1)

    @pytest.mark.parametrize("build", [
        lambda: Perturbation(PerturbationKind.FREQUENCY_SINE, 0.1, ((1e6, 0.0, 1.0),)),
        lambda: Perturbation.frequency_sine(1e6, 0.1),
        lambda: Perturbation.frequency_sum([(1e6, 0.5, 2.0)], 0.1),
        lambda: Perturbation.position_sine(1e6, 0.1),
    ], ids=["direct", "frequency_sine", "frequency_sum", "position_sine"])
    def test_amplitude_warning_names_the_caller(self, build):
        # the warning points at the line that built the perturbation, here
        # the lambda, whether it called the class or a classmethod
        with pytest.warns(UserWarning, match="perturbative accuracy") as record:
            build()
        assert len(record) == 1
        assert record[0].filename == __file__
        assert record[0].lineno == build.__code__.co_firstlineno

    def test_zero_amplitude_is_the_unperturbed_limit(self):
        p = Perturbation.frequency_sine(1e6, 0.0)
        assert p.amplitude == 0.0


class TestPhysicalParams:
    def test_planck_constant_default(self, params):
        assert params.hbar == 1.054571817e-34

    def test_quanta_conversion(self, params):
        assert params.to_quanta(params.energy_quantum) == 1.0


class TestValidate:
    def test_reference_point_ok(self, params):
        report = validate(params)
        assert report.ok and not report.issues

    def test_zero_duration_reported(self):
        bad = PhysicalParams(mass=1e-25, omega0=1e7, distance=1e-5, duration=0.0)
        report = validate(bad)
        assert not report.ok
        assert any("duration > 0" in message for message in report.issues)


class TestProtocols:
    def test_polynomial5_boundaries(self, params):
        proto = Polynomial5(params)
        rep = proto.boundary_report()
        assert rep.ok
        d, T = params.distance, params.duration
        assert proto.position(T) == pytest.approx(d, rel=1e-12)
        assert proto.position(T / 2) == pytest.approx(d / 2, rel=1e-12)
        assert proto.acceleration(T / 2) == pytest.approx(0.0, abs=1e-9 * d / T**2)

    def test_fourier_sine_evaluators_consistent(self, params):
        proto = FourierSineProtocol(params, [1e7, -3e6, 2e6, 5e5])
        T = params.duration
        ts = np.linspace(0, T, 7)
        # velocity is the running integral of the acceleration
        for t in ts[1:]:
            grid = np.linspace(0, t, 20001)
            v = np.trapezoid(proto.acceleration(grid), grid)
            assert proto.velocity(t) == pytest.approx(v, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("rows", [13, 64])
    @pytest.mark.parametrize("samples", [1000, 2001, 16384, 16385])
    def test_fourier_trap_path_blocks_bit_identical(self, params, rows, samples):
        # 13 and 64 rows leave a partial last block; from 16384 samples on a
        # block holds one row
        coef = np.random.default_rng(rows + samples).normal(0.0, 1e8, (rows, 8))
        t = np.linspace(0.0, params.duration, samples)
        Q = FourierSineProtocol(params, coef).trap_path(t)
        assert Q.shape == (rows, samples)
        w2 = params.omega0**2
        for k in range(rows):
            row = FourierSineProtocol(params, coef[k])
            assert np.array_equal(Q[k], row.position(t) + row.acceleration(t) / w2)

    def test_fourier_trap_path_of_one_vector_is_one_row(self, params):
        proto = FourierSineProtocol(params, [1e7, -3e6, 2e6, 5e5])
        t = np.linspace(0.0, params.duration, 2001)
        Q = proto.trap_path(t)
        assert Q.shape == t.shape
        assert np.array_equal(
            Q, proto.position(t) + proto.acceleration(t) / params.omega0**2)

    def test_tabulated_protocol_roundtrip(self, params):
        ref = Polynomial5(params)
        t = np.linspace(0, params.duration, 201)
        tab = TabulatedProtocol(params, ref.position(t))
        mid = np.linspace(0, params.duration, 97)
        assert np.allclose(tab.position(mid), ref.position(mid),
                           atol=1e-6 * params.distance)
