import numpy as np
import pytest
from scipy.integrate import quad

from scatterlab import propagator
from scatterlab.numerics import ParameterError
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
ZERO = PotentialModel(kind="zero")


def fourier_oracle(fhat, x, t):
    """Direct trapezoid Fourier synthesis, independent of the FFT path."""
    k = np.linspace(-12.0, 12.0, 40001)
    ph = np.asarray(fhat(k)) * np.exp(1j * (np.outer(x, k) - k * k * t))
    return np.trapezoid(ph, k, axis=1) / np.sqrt(2 * np.pi)


class TestFreeEvolution:
    def test_against_fourier_oracle(self):
        f0 = propagator.gaussian_packet(n=2**11, dx=0.4, center=0.0, k0=2.0,
                                        sigma=1.5)
        fhat = propagator.gaussian_spectral_profile(0.0, 2.0, 1.5)
        out = propagator.free_evolve(f0, 3.0)
        idx = np.searchsorted(f0.grid, [10.0, 12.0, 14.5])
        oracle = fourier_oracle(fhat, f0.grid[idx], 3.0)
        assert np.allclose(out.values[idx], oracle, atol=1e-7)

    def test_unitary(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.5, center=0.0, k0=1.0,
                                        sigma=2.0)
        out = propagator.free_evolve(f0, 7.0)
        assert out.norm() == pytest.approx(f0.norm(), rel=1e-12)

    def test_zero_time_identity(self):
        f0 = propagator.gaussian_packet(n=2**9, dx=0.5, center=0.0, k0=1.0,
                                        sigma=2.0)
        out = propagator.free_evolve(f0, 0.0)
        assert np.allclose(out.values, f0.values, atol=1e-13)

    @pytest.mark.parametrize("geometry,center", [("line", 0.0), ("radial", 60.0)])
    def test_series_matches_one_kinetic_step_per_time(self, geometry, center):
        f0 = propagator.gaussian_packet(n=2**9, dx=0.5, center=center, k0=1.0,
                                        sigma=2.0, geometry=geometry)
        times = [0.0, 1.5, 4.0]
        series = list(propagator.free_evolve_series(f0, times))
        assert [ev.t for ev in series] == times
        for t, ev in zip(times, series):
            step = propagator._apply_kinetic(
                f0.values, propagator._kinetic_phase(f0, t), geometry)
            assert np.array_equal(ev.values, step)


class TestSplitStep:
    def test_matches_free_for_zero_potential(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0, k0=1.0,
                                        sigma=2.0)
        cfg = propagator.EvolutionConfig(model=ZERO, dt=0.02)
        a = propagator.split_step_evolve(f0, cfg, 2.0)
        b = propagator.free_evolve(f0, 2.0)
        assert np.allclose(a.values, b.values, atol=1e-10)

    def test_norm_conserved(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0, k0=1.0,
                                        sigma=2.0)
        cfg = propagator.EvolutionConfig(model=GAUSS, dt=0.02)
        out = propagator.split_step_evolve(f0, cfg, 5.0)
        assert out.norm() == pytest.approx(f0.norm(), rel=1e-11)

    def test_second_order_in_dt(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=-4.0,
                                        k0=1.5, sigma=2.0)
        ref = propagator.split_step_evolve(
            f0, propagator.EvolutionConfig(model=GAUSS, dt=0.0025), 2.0)
        errs = []
        for dt in (0.02, 0.01):
            out = propagator.split_step_evolve(
                f0, propagator.EvolutionConfig(model=GAUSS, dt=dt), 2.0)
            errs.append(np.linalg.norm(out.values - ref.values)
                        * np.sqrt(f0.dx))
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(2.0, abs=0.3)

    def test_stability_guard(self):
        f0 = propagator.gaussian_packet(n=2**9, dx=0.2, center=0.0, k0=1.0,
                                        sigma=2.0)
        with pytest.raises(ParameterError):
            propagator.EvolutionConfig(model=GAUSS, dt=0.05).validate(f0)

    def test_reflection_detected(self):
        f0 = propagator.gaussian_packet(n=2**8, dx=0.65, center=0.0, k0=2.0,
                                        sigma=2.0)
        cfg = propagator.EvolutionConfig(model=GAUSS, dt=0.012)
        with pytest.raises(propagator.ReflectionError):
            propagator.split_step_evolve(f0, cfg, 40.0)

    def test_radial_dirichlet_origin(self):
        # radial geometry = odd extension: a sine mode stays a sine mode
        n, dx = 2**9, 0.3
        pk = propagator.WavePacket(geometry="radial",
                                   values=np.zeros(n, complex), dx=dx)
        r = pk.grid
        L = (n + 0) * dx  # odd extension period scale
        k1 = np.pi / (n * dx)
        from dataclasses import replace
        mode = replace(pk, values=np.sin(8 * k1 * r).astype(complex))
        out = propagator.free_evolve(mode, 1.7)
        expect = mode.values * np.exp(-1j * (8 * k1) ** 2 * 1.7)
        assert np.allclose(out.values[:-1], expect[:-1], atol=1e-9)

    def test_radial_kinetic_keeps_last_sample(self):
        # the odd extension covers samples 0..n-2; the last is passed through
        rng = np.random.default_rng(5)
        n = 2**9
        pk = propagator.WavePacket(
            geometry="radial", dx=0.3,
            values=rng.standard_normal(n) + 1j * rng.standard_normal(n))
        phase = propagator._kinetic_phase(pk, 0.05)
        out = propagator._apply_kinetic(pk.values, phase, "radial")
        assert out[-1] == pk.values[-1]
        assert not np.allclose(out[:-1], pk.values[:-1])


class TestAsymptotics:
    def test_error_decays(self):
        f0 = propagator.gaussian_packet(n=2**13, dx=0.65, center=0.0, k0=2.0,
                                        sigma=1.0)
        fhat = propagator.gaussian_spectral_profile(0.0, 2.0, 1.0)
        errs = []
        for t in (50.0, 100.0):
            exact = propagator.free_evolve(f0, t)
            approx = propagator.free_asymptotics(fhat, t, n=len(f0.values),
                                                 dx=f0.dx)
            errs.append(np.sqrt(np.sum(np.abs(exact.values - approx.values)**2)
                                * f0.dx))
        assert errs[1] < errs[0]
        assert errs[1] == pytest.approx(errs[0] / 2, rel=0.1)

    def test_zero_time_rejected(self):
        fhat = propagator.gaussian_spectral_profile(0.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            propagator.free_asymptotics(fhat, 0.0)

    def test_modified_equals_free_asymptote_for_zero_potential(self):
        fhat = propagator.gaussian_spectral_profile(0.0, 2.0, 1.0)
        a = propagator.free_asymptotics(fhat, 60.0)
        b = propagator.modified_free_evolution(ZERO, fhat, 60.0)
        assert np.allclose(a.values, b.values, atol=1e-14)

    @pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
    def test_gaussian_xi_term_matches_quadrature(self, width):
        # closed form t v0 (sqrt(pi)/2) erf(u)/u, u = |x|/width, against
        # t int_0^1 v(s x) ds by adaptive quadrature at each point
        model = PotentialModel(kind="gaussian_well", v0=-1.3, width=width)
        x = np.array([-400.0, -7.5, -1e-13, 0.0, 1e-9, 0.3, 2.0, 40.0])
        t = 3.5
        closed = propagator._xi_potential_term(model, x, t)
        loop = [t * quad(lambda s: float(model.radial_values(s * abs(a))),
                         0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
                for a in x]
        assert closed[3] == t * model.v0
        assert np.allclose(closed, loop, rtol=1e-10, atol=0.0)
        # far out erf(u) = 1; adaptive quad on [0, 1] can miss the peak there
        far = propagator._xi_potential_term(model, np.array([5e3]), t)
        assert far[0] == pytest.approx(
            t * model.v0 * 0.5 * np.sqrt(np.pi) * width / 5e3, rel=1e-15)


class TestMollerProbes:
    TIMES = [5.0, 10.0, 20.0, 40.0]

    def test_zero_potential_increments_vanish(self):
        f0 = propagator.gaussian_packet(n=2**11, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        rep = propagator.moller_probe(ZERO, f0, self.TIMES)
        assert np.max(rep.increments) < 1e-12
        assert rep.verdict == "converging"

    def test_modified_zero_potential_trivial(self):
        f0 = propagator.gaussian_packet(n=2**11, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        rep = propagator.modified_moller_probe(ZERO, f0, self.TIMES)
        assert np.max(rep.increments) < 1e-12
        assert rep.modified

    def test_input_validation(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        with pytest.raises(ParameterError):
            propagator.moller_probe(ZERO, f0, [10.0, 5.0, 20.0])

    def test_each_packet_built_once(self, monkeypatch):
        # a 5-time probe needs the 5 free packets u(T_j) once each; every
        # increment equals the one computed from freshly built packets
        f0 = propagator.gaussian_packet(n=2**9, dx=0.65, center=0.0, k0=0.5,
                                        sigma=3.0)
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        free_evolve = propagator.free_evolve
        config = propagator.EvolutionConfig(model=GAUSS, dt=0.02)
        expect = []
        for t0, t1 in zip(times[:-1], times[1:]):
            back = propagator.split_step_evolve(free_evolve(f0, t1), config,
                                                t1 - (t1 - t0))
            u0 = free_evolve(f0, t0)
            expect.append(float(np.sqrt(np.sum(np.abs(back.values - u0.values)
                                               ** 2) * u0.dx)))
        calls = []

        def counting(packet, t):
            calls.append(t)
            return free_evolve(packet, t)

        monkeypatch.setattr(propagator, "free_evolve", counting)
        rep = propagator.moller_probe(GAUSS, f0, times)
        assert calls == times
        assert rep.increments.tolist() == expect


class TestTimeDomainSMatrix:
    def test_zero_potential_unit_element(self):
        val = propagator.scattering_phase_from_time_domain(ZERO, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_bandwidth_guard(self):
        with pytest.raises(ParameterError):
            propagator.scattering_phase_from_time_domain(GAUSS, 1.0,
                                                         packet_width=1.0)

    def test_unit_modulus(self):
        val = propagator.scattering_phase_from_time_domain(GAUSS, 1.0)
        assert abs(val) == pytest.approx(1.0, abs=5e-3)
