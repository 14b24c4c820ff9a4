from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from scatterlab import propagator
from scatterlab.numerics import DomainError, ParameterError, dft, dft_freqs
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
ZERO = PotentialModel(kind="zero")
TAIL = PotentialModel(kind="power_tail", v0=0.5, rho=1.0)


# ---------------------------------------------------------------------------
# oracle: the Strang loop that extends and restricts the packet around every
# kinetic step.  Its "radial" geometry is the l = 0 channel as n samples at
# r = dx..n dx: samples 0..n-2 are mirrored into an odd array of 2n points
# for each kinetic step, and the last one (the wall node) is passed through.
# ---------------------------------------------------------------------------

def _oracle_extend(values, geometry):
    if geometry == "line":
        return values
    n = len(values)
    ext = np.zeros(2 * n, dtype=complex)
    ext[1:n] = values[: n - 1]
    ext[n + 1:] = -values[n - 2::-1]
    return ext


def _oracle_restrict(out, values, geometry):
    if geometry == "line":
        return out
    n = len(values)
    res = out[1:n + 1].copy()
    res[n - 1] = values[n - 1]
    return res


def _oracle_apply_kinetic(values, phase, geometry):
    out = dft(dft(_oracle_extend(values, geometry)) * phase, "inverse")
    return _oracle_restrict(out, values, geometry)


def _oracle_edge_mass(values, geometry):
    if geometry == "line":
        return propagator.WavePacket(values, 1.0).edge_mass()
    m = max(1, int(round(propagator.EDGE_FRACTION * len(values) / 2)))
    p = np.abs(values) ** 2
    return float(p[-2 * m:].sum() / p.sum())


def split_step_oracle(packet, config, t_target, geometry="line"):
    config.validate(packet)
    span = t_target - packet.t
    if span == 0.0:
        return packet
    n_steps = max(1, int(np.ceil(abs(span) / config.dt)))
    dt = span / n_steps
    n = len(packet.values)
    if geometry == "line":
        r = np.abs(packet.grid)
        kin = propagator._kinetic_phase(packet, dt)
    else:
        r = (np.arange(n) + 1.0) * packet.dx
        k = dft_freqs(2 * n, packet.dx)
        kin = np.exp(-1j * k * k * dt)
    v = config.model.radial_values(r)
    half = np.exp(-0.5j * v * dt)
    full = half * half
    vals = packet.values * half
    check_every = max(1, n_steps // 64)
    out = replace(packet, values=vals, t=t_target)
    for i in range(n_steps):
        vals = _oracle_apply_kinetic(vals, kin, geometry)
        vals *= full if i < n_steps - 1 else half
        if (i + 1) % check_every == 0 or i == n_steps - 1:
            edge = _oracle_edge_mass(vals, geometry)
            if edge > propagator.EDGE_THRESHOLD:
                raise propagator.ReflectionError(
                    f"edge mass {edge:.2e} exceeds "
                    f"{propagator.EDGE_THRESHOLD:.1e} at step {i + 1}")
    return replace(out, values=vals)


def _odd_packet(n, dx, center, k0, sigma):
    """The l = 0 packet on (0, n dx] as the odd packet f(x) - f(-x) of 2n
    points, as scattering_phase_from_time_domain builds it."""
    pk = propagator.gaussian_packet(2 * n, dx, center=center, k0=k0,
                                    sigma=sigma)
    return replace(pk, values=pk.values - pk.values[-np.arange(2 * n)])


def _radial_samples(odd):
    """The oracle's radial samples of an odd packet: x = dx..(n-1) dx, then
    the wall node x = n dx (the self-mirrored x = -n dx), which is 0."""
    n = len(odd.values) // 2
    return replace(odd, values=np.append(odd.values[n + 1:], odd.values[0]))


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
        if geometry == "line":
            f0 = propagator.gaussian_packet(n=2**9, dx=0.5, center=center,
                                            k0=1.0, sigma=2.0)
        else:
            f0 = _odd_packet(2**9, 0.5, center=center, k0=1.0, sigma=2.0)
        times = [0.0, 1.5, 4.0]
        series = list(propagator.free_evolve_series(f0, times))
        assert [ev.t for ev in series] == times
        for t, ev in zip(times, series):
            step = propagator._apply_kinetic(
                f0.values, propagator._kinetic_phase(f0, t))
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
        # l = 0 channel = odd packet on (-n dx, n dx]: a sine mode with a
        # node at both Dirichlet points stays a sine mode
        n, dx = 2**9, 0.3
        x = propagator.WavePacket(np.zeros(2 * n, complex), dx).grid
        k1 = np.pi / (n * dx)
        mode = propagator.WavePacket(np.sin(8 * k1 * x).astype(complex), dx)
        out = propagator.free_evolve(mode, 1.7)
        expect = mode.values * np.exp(-1j * (8 * k1) ** 2 * 1.7)
        assert np.allclose(out.values, expect, atol=1e-9)


def _radial_packet(n=2**10, dx=0.65, center=150.0, k0=-1.0, sigma=8.0):
    # the l = 0 channel on (0, n dx] as an odd packet of 2n points
    return _odd_packet(n, dx, center=center, k0=k0, sigma=sigma)


def _time_domain_setting():
    # scattering_phase_from_time_domain(GAUSS, 1.0) with its defaults:
    # n 512, dx 0.8, r0 = 0.45 n dx, 6145 Strang steps of dt ~ 0.03
    n, dx, k = 2**9, 0.8, 1.0
    r0 = n * dx * 0.45
    pk = _odd_packet(n, dx, center=r0, k0=-k, sigma=20.0)
    return pk, propagator.EvolutionConfig(model=GAUSS, dt=0.03), r0 / k


def _l2_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestStrangOnPeriodicArray:
    @pytest.mark.parametrize("model", [GAUSS, TAIL])
    def test_line_matches_oracle_exactly(self, model):
        # line geometry has no extension: the arithmetic is unchanged
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=-20.0,
                                        k0=1.5, sigma=3.0)
        cfg = propagator.EvolutionConfig(model=model, dt=0.02)
        out = propagator.split_step_evolve(f0, cfg, 12.0)
        ref = split_step_oracle(f0, cfg, 12.0)
        assert out.t == ref.t
        assert np.array_equal(out.values, ref.values)

    @pytest.mark.parametrize("model", [GAUSS, TAIL])
    def test_radial_matches_oracle(self, model):
        # the odd packet's samples at x > 0 against the oracle's radial
        # samples 0..n-2
        pk = _radial_packet()
        n = len(pk.values) // 2
        cfg = propagator.EvolutionConfig(model=model, dt=0.02)
        out = propagator.split_step_evolve(pk, cfg, 60.0)
        ref = split_step_oracle(_radial_samples(pk), cfg, 60.0, "radial")
        assert out.t == ref.t and len(out.values) == 2 * len(ref.values)
        assert _l2_rel(out.values[n + 1:], ref.values[:n - 1]) <= 1e-12

    def test_time_domain_setting_matches_oracle(self):
        pk, cfg, t_out = _time_domain_setting()
        n = len(pk.values) // 2
        assert int(np.ceil(t_out / cfg.dt)) == 6145
        out = propagator.split_step_evolve(pk, cfg, t_out)
        ref = split_step_oracle(_radial_samples(pk), cfg, t_out, "radial")
        assert _l2_rel(out.values[n + 1:], ref.values[:n - 1]) <= 1e-12

    @pytest.mark.parametrize("model", [GAUSS, TAIL])
    def test_odd_packet_dirichlet_nodes_stay_zero(self, model):
        # x = 0 and the self-mirrored x = -n dx are the two Dirichlet nodes
        pk = _radial_packet()
        n = len(pk.values) // 2
        cfg = propagator.EvolutionConfig(model=model, dt=0.02)
        out = propagator.split_step_evolve(pk, cfg, 60.0)
        scale = np.max(np.abs(out.values))
        assert abs(out.values[n]) <= 1e-13 * scale
        assert abs(out.values[0]) <= 1e-13 * scale

    @pytest.mark.parametrize("case", ["line", "radial"])
    def test_reflection_same_step_and_message(self, case):
        if case == "line":   # test_reflection_detected's case
            pk = propagator.gaussian_packet(n=2**8, dx=0.65, center=0.0,
                                            k0=2.0, sigma=2.0)
            cfg = propagator.EvolutionConfig(model=GAUSS, dt=0.012)
            t = 40.0
            with pytest.raises(propagator.ReflectionError) as expect:
                split_step_oracle(pk, cfg, t)
        else:                # outgoing radial packet runs into the wall
            pk = _radial_packet(n=2**9, center=150.0, k0=1.5)
            cfg = propagator.EvolutionConfig(model=GAUSS, dt=0.02)
            t = 60.0
            with pytest.raises(propagator.ReflectionError) as expect:
                split_step_oracle(_radial_samples(pk), cfg, t, "radial")
        with pytest.raises(propagator.ReflectionError) as got:
            propagator.split_step_evolve(pk, cfg, t)
        if case == "line":
            assert str(got.value) == str(expect.value)
        else:
            # the edge strips differ by a sample (51 of 1024 points on each
            # side against the oracle's 52 of 512), so only the step agrees
            step = str(expect.value).rsplit(" at ", 1)[1]
            assert step == "step 1794"
            assert str(got.value).endswith(" at " + step)

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    def test_one_kinetic_step_two_transforms_per_step(self, monkeypatch,
                                                      geometry):
        if geometry == "line":
            pk = propagator.gaussian_packet(n=2**9, dx=0.65, center=0.0,
                                            k0=1.0, sigma=2.0)
        else:
            pk = _radial_packet(n=2**9)
        cfg = propagator.EvolutionConfig(model=GAUSS, dt=0.02)
        n_steps = int(np.ceil(3.0 / cfg.dt))
        kinetic, transforms = [], []
        apply_kinetic = propagator._apply_kinetic

        def counted_kinetic(values, phase):
            kinetic.append(len(values))
            return apply_kinetic(values, phase)

        def counted_dft(values, direction="forward"):
            transforms.append(direction)
            return dft(values, direction)

        monkeypatch.setattr(propagator, "_apply_kinetic", counted_kinetic)
        monkeypatch.setattr(propagator, "dft", counted_dft)
        propagator.split_step_evolve(pk, cfg, 3.0)
        # each kinetic step acts on the whole packet: 2n points for the
        # l = 0 channel on (0, n dx]
        width = 2**9 * (2 if geometry == "radial" else 1)
        assert kinetic == [width] * n_steps
        assert transforms == ["forward", "inverse"] * n_steps


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


class TestXiTerm:
    """t (1/|x|) int_0^|x| v(r) dr on the default `moller` grid against a
    closed form (or a quadrature on the support) for every finite kind."""

    X = propagator.WavePacket(np.zeros(2**13, complex), 0.65).grid
    T = 3.5

    def _check(self, model, profile):
        # profile(a) = (1/a) int_0^a v(r) dr / v0 for a > 0; v(0)/v0 at 0
        ax = np.abs(self.X)
        safe = np.where(ax > 0, ax, 1.0)
        oracle = self.T * model.v0 * np.where(ax > 0, profile(safe), 1.0)
        got = propagator._xi_potential_term(model, self.X, self.T)
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
    def test_gaussian_well(self, width):
        model = PotentialModel(kind="gaussian_well", v0=-1.3, width=width)
        self._check(model, lambda a: 0.5 * np.sqrt(np.pi) * width
                    * erf(a / width) / a)

    @pytest.mark.parametrize("rho,primitive", [(1.0, np.arcsinh),
                                               (2.0, np.arctan)])
    def test_power_tail(self, rho, primitive):
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        self._check(model, lambda a: primitive(a) / a)

    @pytest.mark.parametrize("width", [1.0, 2.3])
    def test_square_well(self, width):
        model = PotentialModel(kind="square_well", v0=-0.7, width=width)
        self._check(model, lambda a: np.minimum(1.0, width / a))

    @pytest.mark.parametrize("width", [1.0, 1.3])
    def test_compact_bump(self, width):
        model = PotentialModel(kind="compact_bump", v0=0.8, width=width)

        def integral(b):
            return quad(lambda r: float(model.radial_values(r)), 0.0, b,
                        epsabs=0.0, epsrel=2e-14, limit=200)[0]

        full = integral(width)
        self._check(model, lambda a: np.array(
            [integral(b) if b < width else full for b in a]) / (model.v0 * a))

    def test_zero_potential(self):
        got = propagator._xi_potential_term(ZERO, self.X, self.T)
        assert np.array_equal(got, np.zeros_like(self.X))

    @pytest.mark.parametrize("model,error", [
        (PotentialModel(kind="yukawa", v0=0.5, width=0.3), DomainError),
        (PotentialModel(kind="power_tail", v0=0.5, rho=0.5), ParameterError),
    ], ids=["yukawa", "rho0.5"])
    def test_refused_before_any_evolution(self, monkeypatch, model, error):
        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved a packet for a refused model")

        for name in ("free_evolve", "split_step_evolve"):
            monkeypatch.setattr(propagator, name, no_evolution)
        fhat = propagator.gaussian_spectral_profile(0.0, 2.0, 1.0)
        with pytest.raises(error):
            propagator.modified_free_evolution(model, fhat, 60.0)
        f0 = propagator.gaussian_packet(n=2**9, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        with pytest.raises(error):
            propagator.modified_moller_probe(model, f0, [5.0, 10.0, 20.0])


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

    def test_zero_potential_evolves_freely_once(self, monkeypatch):
        # the reference and the "interacting" packet are one free evolution
        n, dx, k = 2**9, 0.8, 1.0
        r0 = n * dx * 0.45
        pk = _odd_packet(n, dx, center=r0, k0=-k, sigma=20.0)
        u_v = propagator.free_evolve(pk, r0 / k)
        u_0 = propagator.free_evolve(pk, r0 / k)
        sin_k = np.sin(k * pk.grid[n + 1:])
        expect = complex(np.sum(sin_k * u_v.values[n + 1:]) * dx
                         / (np.sum(sin_k * u_0.values[n + 1:]) * dx))
        calls = []
        free_evolve = propagator.free_evolve

        def counting(packet, t):
            calls.append(t)
            return free_evolve(packet, t)

        monkeypatch.setattr(propagator, "free_evolve", counting)
        val = propagator.scattering_phase_from_time_domain(ZERO, k)
        assert calls == [r0 / k]
        assert val == expect

    def test_unit_modulus(self):
        val = propagator.scattering_phase_from_time_domain(GAUSS, 1.0)
        assert abs(val) == pytest.approx(1.0, abs=5e-3)
