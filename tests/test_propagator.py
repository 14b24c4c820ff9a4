from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, jv

from scatterlab import propagator
from scatterlab.numerics import DomainError, NumericalError, ParameterError, dft, dft_freqs
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
ZERO = PotentialModel(kind="zero")
TAIL = PotentialModel(kind="power_tail", v0=0.5, rho=1.0)
# the size below which a Chebyshev coefficient |J_k(b tau)| is dropped
JV_TOL = 1e-17


# ---------------------------------------------------------------------------
# oracle: Strang splitting e^{-iV dt/2} e^{-iH0 dt} e^{-iV dt/2}, second order
# in dt and unitary, with the kinetic factor exact in Fourier space
# ---------------------------------------------------------------------------

def split_step_oracle(packet, model, dt, t_target):
    span = t_target - packet.t
    n_steps = max(1, int(np.ceil(abs(span) / dt)))
    dt = span / n_steps
    k = dft_freqs(len(packet.values), packet.dx)
    kin = np.exp(-1j * k * k * dt)
    half = np.exp(-0.5j * model.radial_values(np.abs(packet.grid)) * dt)
    full = half * half
    vals = packet.values * half
    for i in range(n_steps):
        vals = dft(dft(vals) * kin, "inverse")
        vals *= full if i < n_steps - 1 else half
    return replace(packet, values=vals, t=t_target)


# ---------------------------------------------------------------------------
# oracle: the Chebyshev propagator as a chain of expansions, one per
# edge-check span, each restarted from the state at the end of the last
# and checked on that full state.  `masses` collects each span's edge mass.
# ---------------------------------------------------------------------------

def chebyshev_span_oracle(packet, model, t_target, masses=None):
    span = float(t_target - packet.t)
    n, dx = len(packet.values), packet.dx
    v = model.radial_values(np.abs(packet.grid))
    lo, hi = float(np.min(v)), (np.pi / dx) ** 2 + float(np.max(v))
    a, b = 0.5 * (hi + lo), 0.5 * (hi - lo)
    tau_max = min(propagator._edge_width(n) * dx * dx / (2 * np.pi),
                  propagator.MAX_SPAN_PHASE / b)
    n_spans = int(max(1.0, np.ceil(abs(span) / tau_max)))
    z = b * min(abs(span), tau_max)
    tau = span / n_spans
    bessel = jv(np.arange(int(z + 10.0 * z ** (1 / 3) + 30.0)), b * abs(tau))
    bessel = bessel[:max(2, np.flatnonzero(np.abs(bessel) >= JV_TOL)[-1] + 1)]
    order = np.arange(len(bessel))
    unit = np.array([1, -1j, -1, 1j] if tau > 0 else [1, 1j, -1, -1j])
    coef = (np.where(order == 0, 1.0, 2.0) * unit[order % 4] * bessel
            * np.exp(-1j * a * tau))
    kin = (dft_freqs(n, dx) ** 2 * (2.0 / b)).astype(complex)
    pot = ((v - a) * (2.0 / b)).astype(complex)

    def twice_g(phi):
        return dft(dft(phi) * kin, "inverse") + pot * phi

    vals = packet.values
    for i in range(n_spans):
        prev, cur = vals, 0.5 * twice_g(vals)
        acc = coef[0] * prev + coef[1] * cur
        for c in coef[2:]:
            nxt = twice_g(cur) - prev
            acc += nxt * c
            prev, cur = cur, nxt
        vals = acc
        out = replace(packet, values=vals, t=packet.t + (i + 1) * tau)
        edge = out.edge_mass()
        if masses is not None:
            masses.append(edge)
        if edge > propagator.EDGE_THRESHOLD:
            raise propagator.ReflectionError(
                f"edge mass {edge:.2e} exceeds "
                f"{propagator.EDGE_THRESHOLD:.1e} at span {i + 1}")
    return replace(out, t=t_target)


def _odd_packet(n, dx, center, k0, sigma):
    """The l = 0 packet on (0, n dx] as the odd packet f(x) - f(-x) of 2n
    points, as scattering_phase_from_time_domain builds it."""
    pk = propagator.gaussian_packet(2 * n, dx, center=center, k0=k0,
                                    sigma=sigma)
    return replace(pk, values=pk.values - pk.values[-np.arange(2 * n)])


def kinetic_oracle(packet, t):
    """e^{-iH0 t} on the grid: one forward transform, the phase, one inverse."""
    k = dft_freqs(len(packet.values), packet.dx)
    return dft(dft(packet.values) * np.exp(-1j * k * k * t), "inverse")


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
            assert np.array_equal(ev.values, kinetic_oracle(f0, t))

    def test_series_phases_are_the_kinetic_step_bit_for_bit(self):
        # the Kato and Moller grid (n = 8192), a packet at t = 2.5 and 97
        # times over [-50, 320]: each sample's phase is formed from one
        # exponent per call, with the bits of the phase formed at each time
        f0 = replace(propagator.gaussian_packet(n=2**13, dx=0.65, center=0.0,
                                                k0=2.0, sigma=1.0), t=2.5)
        times = np.linspace(-50.0, 320.0, 97)
        for t, ev in zip(times, propagator.free_evolve_series(f0, times)):
            assert np.array_equal(ev.values, kinetic_oracle(f0, t - f0.t))

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
    # n 512, dx 0.8, r0 = 0.45 n dx, evolved to t = r0 / k
    n, dx, k = 2**9, 0.8, 1.0
    r0 = n * dx * 0.45
    pk = _odd_packet(n, dx, center=r0, k0=-k, sigma=20.0)
    return pk, r0 / k


def _l2_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _reflection_case(case):
    """(packet, t) of a run whose packet reaches the edge strip."""
    if case == "line":
        return (propagator.gaussian_packet(n=2**8, dx=0.65, center=0.0,
                                           k0=2.0, sigma=2.0), 40.0)
    # an outgoing radial packet runs into the wall
    return _radial_packet(n=2**9, center=150.0, k0=1.5), 60.0


class TestPacketWidth:
    @pytest.mark.parametrize("sigma", [1e-300, 1.5e-162, 6e153, 1e200, np.nan])
    def test_width_outside_float_range_refused(self, sigma):
        # 2 pi sigma**2 underflows to 0 or overflows, where sigma**2 alone
        # is still finite at 6e153
        with pytest.raises(ParameterError, match="packet width sigma="):
            propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=1.0,
                                       sigma=sigma)

    @pytest.mark.parametrize("sigma", [5.3e153])
    def test_width_at_the_float_range_ends_accepted(self, sigma):
        packet = propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=1.0,
                                            sigma=sigma)
        assert np.all(np.isfinite(packet.values))

    @pytest.mark.parametrize("sigma", [1.6e-162, 0.1, 0.6499])
    def test_width_below_the_grid_step_refused(self, sigma):
        # inside the float range (1.6e-162 is its lower end), but the grid
        # does not resolve the packet, so the continuum factor would not
        # normalize its samples
        with pytest.raises(ParameterError, match=(
                rf"sigma={sigma!r} below the grid step dx=0\.65: the grid does "
                r"not resolve the packet")):
            propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=1.0,
                                       sigma=sigma)

    def test_width_at_the_grid_step_normalized(self):
        # by Poisson summation the samples' squared norm misses 1 by at most
        # 2 exp(-2 pi^2 sigma^2 / dx^2) = 5.4e-9 at sigma = dx; a packet
        # centred on a node misses by about that
        packet = propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=1.0,
                                            sigma=0.65)
        assert 5e-9 < abs(packet.norm() ** 2 - 1.0) <= 5.4e-9


class TestChebyshev:
    def test_zero_potential_matches_free_evolve(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0, k0=1.0,
                                        sigma=2.0)
        out = propagator.chebyshev_evolve(f0, ZERO, 5.0)
        assert out.t == 5.0
        assert _l2_rel(out.values, propagator.free_evolve(f0, 5.0).values) <= 1e-13

    @pytest.mark.parametrize("model", [
        ZERO, PotentialModel(kind="gaussian_well", v0=0.0)], ids=["zero", "v0=0"])
    @pytest.mark.parametrize("t0,t1", [(0.0, 10.0), (10.0, 0.0)],
                             ids=["forward", "backward"])
    def test_vanishing_potential_is_free_evolve_bit_for_bit(self, model, t0, t1):
        # v = 0 on every node: H = k^2, whose series sums to e^{-ik^2 t}, so
        # the run is free_evolve's multiply, checked at three span ends
        f0 = replace(propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0,
                                                k0=1.0, sigma=4.0), t=t0)
        assert propagator._edge_spans(f0, t1) == 3.0
        out = propagator.chebyshev_evolve(f0, model, t1)
        assert out.t == t1
        assert np.array_equal(out.values, propagator.free_evolve(f0, t1).values)

    def test_non_finite_spectral_width_refused(self):
        # an infinite v makes hi - lo NaN; refused before any coefficient
        model = PotentialModel(kind="gaussian_well", v0=np.inf, width=1e300)
        f0 = propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=1.0,
                                        sigma=6.0)
        with pytest.raises(NumericalError, match=r"\[inf, inf\] has half-width nan"):
            propagator.chebyshev_evolve(f0, model, 1.0)

    def test_strang_converges_to_it_at_second_order(self):
        # C10's setting: each halving of Strang's dt divides its gap to the
        # time-exact evolution by 4 (gaps about 4.6e-5, 1.15e-5, 2.9e-6 from
        # dt = 0.03, 6145 steps)
        pk, t_out = _time_domain_setting()
        exact = propagator.chebyshev_evolve(pk, GAUSS, t_out).values
        gaps = [_l2_rel(split_step_oracle(pk, GAUSS, dt, t_out).values, exact)
                for dt in (0.03, 0.015, 0.0075)]
        assert gaps[0] < 1e-4
        for coarse, fine in pairwise(gaps):
            assert coarse / fine == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("model", [GAUSS, TAIL])
    def test_norm_conserved(self, model):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=-20.0,
                                        k0=1.5, sigma=3.0)
        out = propagator.chebyshev_evolve(f0, model, 12.0)
        assert abs(out.norm() - f0.norm()) <= 1e-12

    @pytest.mark.parametrize("model", [GAUSS, TAIL])
    def test_odd_packet_dirichlet_nodes_stay_zero(self, model):
        pk = _radial_packet()
        n = len(pk.values) // 2
        out = propagator.chebyshev_evolve(pk, model, 60.0)
        scale = np.max(np.abs(out.values))
        assert abs(out.values[n]) <= 1e-13 * scale
        assert abs(out.values[0]) <= 1e-13 * scale

    def test_forward_then_back_round_trip(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=-20.0,
                                        k0=1.5, sigma=3.0)
        there = propagator.chebyshev_evolve(f0, GAUSS, 12.0)
        back = propagator.chebyshev_evolve(there, GAUSS, 0.0)
        assert back.t == 0.0
        assert _l2_rel(back.values, f0.values) <= 1e-13

    def test_deep_well_spans_keep_the_coefficients_few(self, monkeypatch):
        # b tau = 1e4 in one edge span; MAX_SPAN_PHASE cuts it into three,
        # so no coefficient array grows with the depth of the well
        well = PotentialModel(kind="square_well", v0=-1e9, width=1.0)
        f0 = propagator.gaussian_packet(n=64, dx=1.0, center=0.0, k0=0.0,
                                        sigma=2.0)
        sizes = []
        expansion = propagator._expansion

        def sized(a, b, tau, size):
            coef, table, counts = expansion(a, b, tau, size)
            sizes.append(len(coef))
            return coef, table, counts

        monkeypatch.setattr(propagator, "_expansion", sized)
        out = propagator.chebyshev_evolve(f0, well, 2e-5)
        cap = propagator._terms(propagator.MAX_SPAN_PHASE)
        assert len(sizes) == 1 and sizes[0] <= cap
        assert abs(out.norm() - f0.norm()) <= 1e-10

    @pytest.mark.parametrize("case,span", [("line", 9), ("radial", 11)])
    def test_reflection_at_the_end_of_a_span(self, case, span):
        # a line packet and an outgoing radial one; the spans are no longer
        # than the edge strip's crossing time at the top group velocity, so
        # the monitor cannot miss the crossing
        pk, t = _reflection_case(case)
        with pytest.raises(propagator.ReflectionError,
                           match=f"exceeds 1.0e-06 at span {span}$"):
            propagator.chebyshev_evolve(pk, GAUSS, t)


    @pytest.mark.parametrize("t0,t1", [(4.0, 2.0), (2.0, 4.0)],
                             ids=["backward", "forward"])
    def test_one_check_run_is_within_1e14_of_the_span_chain(self, t0, t1):
        # a Moller gap of the benchmark's probes (n = 4096): the edge strip's
        # crossing time, 13.8, is longer than the gap, so the run is one
        # span and one expansion, whose check table is empty.  Its
        # coefficients come from the transform, the chain's from jv
        f0 = propagator.gaussian_packet(n=2**12, dx=0.65, center=0.0, k0=2.0,
                                        sigma=6.0)
        u = propagator.free_evolve(f0, t0)
        out = propagator.chebyshev_evolve(u, GAUSS, t1)
        assert out.t == t1
        assert _l2_rel(out.values, chebyshev_span_oracle(u, GAUSS, t1).values) <= 1e-14

    @pytest.mark.parametrize("case", ["time_domain", "backward_gap",
                                      "three_expansions"])
    def test_checks_read_from_the_terms_match_the_span_chain(self, monkeypatch,
                                                             case):
        # C10's evolution (36 checks) and a backward gap of 12 checks, each
        # one expansion, and 35 checks on 256 points, which the table's
        # share of the terms cuts into expansions of 14, 14 and 7.  Every
        # check's edge part, the last one's (the final state's edge_mass)
        # too, lies within 1e-13 of the norm of the span chain's:
        # |sqrt(m) - sqrt(m')| is at most the relative L2 gap of the two
        # states' edges.  The chain's coefficients come from jv, whose own
        # error at C10 (b t = 1513) is 3e-13.
        if case == "time_domain":
            pk, t = _time_domain_setting()
        elif case == "backward_gap":
            pk = replace(propagator.gaussian_packet(
                n=2**10, dx=0.65, center=-20.0, k0=1.5, sigma=3.0), t=60.0)
            t = 20.0
        else:
            pk = propagator.gaussian_packet(n=2**8, dx=0.65, center=-30.0,
                                            k0=0.0, sigma=6.0)
            t = 30.0
        expect_masses = []
        expect = chebyshev_span_oracle(pk, GAUSS, t, expect_masses)
        got, sizes = [], []
        check_edge, expansion = propagator.check_edge, propagator._expansion

        def recorded(mass, span):
            got.append((span, mass))
            check_edge(mass, span)

        def sized(a, b, tau, size):
            sizes.append(size)
            return expansion(a, b, tau, size)

        monkeypatch.setattr(propagator, "check_edge", recorded)
        monkeypatch.setattr(propagator, "_expansion", sized)
        out = propagator.chebyshev_evolve(pk, GAUSS, t)
        assert sizes == {"time_domain": [36], "backward_gap": [12],
                         "three_expansions": [14, 7]}[case]
        assert [span for span, _ in got] == list(range(1, len(expect_masses) + 1))
        assert _l2_rel(out.values, expect.values) <= 5e-13
        for (_, mass), ref in zip(got, expect_masses, strict=True):
            assert abs(np.sqrt(mass) - np.sqrt(ref)) <= 1e-13

    def test_check_tables_stay_within_their_cap(self, monkeypatch):
        # 44 checks of b tau = 84 on 2048 points: one expansion would need a
        # table of 43 x 8192 entries, so _CHECK_TABLE (4 MB) cuts it in two
        pk = propagator.gaussian_packet(n=2**11, dx=0.65, center=-100.0, k0=0.0,
                                        sigma=8.0)
        tables = []
        expansion = propagator._expansion

        def recorded(a, b, tau, size):
            coef, table, counts = expansion(a, b, tau, size)
            tables.append(len(table) * propagator._table_points(size * (b * abs(tau))))
            return coef, table, counts

        monkeypatch.setattr(propagator, "_expansion", recorded)
        out = propagator.chebyshev_evolve(pk, GAUSS, 300.0)
        assert len(tables) == 2 and max(tables) <= propagator._CHECK_TABLE
        assert abs(out.norm() - pk.norm()) <= 1e-12

    @pytest.mark.parametrize("tau", [3.3, -3.3], ids=["forward", "backward"])
    def test_check_table_holds_the_bessel_coefficients(self, tau):
        # row j: (2 - delta_k0) (-i)^k J_k(b t_j) e^{-i a t_j} at t_j = j tau
        # (i^k backward), from transforms where jv is the oracle; check j
        # reads the _terms bound of its phase, and past that count its
        # series lies below JV_TOL
        a, b = 7.2, 8.2
        coef, table, counts = propagator._expansion(a, b, tau, 12)
        assert table.shape == (11, len(coef))
        k = np.arange(len(coef))
        for j, row in enumerate(table, start=1):
            t = j * tau
            bessel = jv(k, b * abs(t))
            expect = (np.where(k == 0, 1.0, 2.0) * (-1j * np.sign(t)) ** k
                      * bessel * np.exp(-1j * a * t))
            assert np.max(np.abs(row - expect)) <= 1e-13
            phase = j * (b * abs(tau))
            assert counts[j - 1] == int(propagator._terms(phase))
            past = jv(np.arange(counts[j - 1], 2 * len(coef)), phase)
            assert np.max(np.abs(past)) < JV_TOL

    def test_terms_reach_the_last_coefficient_above_jv_tol(self):
        # the series of phase z keeps every k with |J_k(z)| >= JV_TOL, and
        # at most 3 terms past the last of them
        for z in np.geomspace(1e-10, propagator.MAX_SPAN_PHASE, 1000):
            terms = int(propagator._terms(z))
            bessel = jv(np.arange(terms + 40), z)
            needed = max(2, np.flatnonzero(np.abs(bessel) >= JV_TOL)[-1] + 1)
            assert needed <= terms <= needed + 3, z

    @pytest.mark.parametrize("a", [7.2, -3.0])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("sign", [1, -1], ids=["forward", "backward"])
    def test_final_coefficients_match_jv(self, a, size, sign):
        # (2 - delta_k0) (-i)^k J_k(b |t|) e^{-iat} (i^k backward) at
        # t = size * tau, within a few ulps of the largest coefficient, 2,
        # plus the rounding of the ring's phase, about z eps
        b = 8.2
        for z in np.geomspace(1e-6, propagator.MAX_SPAN_PHASE, 25):
            tau = sign * z / (size * b)
            coef, _, _ = propagator._expansion(a, b, tau, size)
            k = np.arange(len(coef))
            expect = (np.where(k == 0, 1.0, 2.0) * (-1j * sign) ** k * jv(k, z)
                      * np.exp(-1j * a * size * tau))
            assert np.max(np.abs(coef - expect)) <= 2e-15 + 1e-16 * z, z

    def test_final_coefficients_match_40_digit_values(self):
        mpmath = pytest.importorskip("mpmath")
        a, b, tau = 7.2, 8.2, 2.5 / 8.2
        coef, _, _ = propagator._expansion(a, b, tau, 1)
        with mpmath.workdps(40):
            expect = [complex((2 if k else 1) * (-1j) ** k * mpmath.besselj(k, 2.5)
                              * mpmath.expj(-a * mpmath.mpf(tau)))
                      for k in range(len(coef))]
        assert np.max(np.abs(coef - np.array(expect))) <= 1e-15

    @pytest.mark.parametrize("case", ["edge_moller_n64", "line"])
    def test_failing_run_stops_at_its_first_failing_check(self, monkeypatch,
                                                          case):
        # edge.moller.n64's first gap (100 checks; the packet already fills
        # the edge strips) and the line reflection case (46 checks, the
        # ninth fails inside the first expansion): the same span as the
        # span chain, after no more terms than the _terms bound of that
        # check's phase (two transforms each), past which its series lies
        # below JV_TOL, and one transform per coefficient row
        if case == "line":
            pk, t = _reflection_case("line")
        else:
            f0 = propagator.gaussian_packet(n=64, dx=0.65, center=0.0, k0=2.0,
                                            sigma=6.0)
            pk, t = propagator.free_evolve(f0, 40.0), 20.0
        with pytest.raises(propagator.ReflectionError) as expect:
            chebyshev_span_oracle(pk, GAUSS, t)
        span = int(str(expect.value).rsplit(" ", 1)[1])
        calls, built = [], []
        expansion = propagator._expansion

        def counting_dft(values, direction="forward"):
            calls.append(direction)
            return dft(values, direction)

        def recorded(a, b, tau, size):
            built.append((b * abs(tau), size))
            return expansion(a, b, tau, size)

        monkeypatch.setattr(propagator, "dft", counting_dft)
        monkeypatch.setattr(propagator, "_expansion", recorded)
        with pytest.raises(propagator.ReflectionError,
                           match=f"at span {span}$"):
            propagator.chebyshev_evolve(pk, GAUSS, t)
        (q, size), = built
        assert span < size
        terms = int(propagator._terms(span * q))
        past = jv(np.arange(terms, terms + 200), span * q)
        assert np.max(np.abs(past)) < JV_TOL
        assert len(calls) <= 2 * terms + size - 1

    def test_one_bessel_array_per_expansion(self, monkeypatch):
        # C10's evolution, one expansion of 36 checks: one array of final
        # coefficients, no longer than the _terms bound at MAX_SPAN_PHASE
        built = []
        expansion = propagator._expansion

        def recorded(a, b, tau, size):
            coef, table, counts = expansion(a, b, tau, size)
            built.append((size, len(coef)))
            return coef, table, counts

        monkeypatch.setattr(propagator, "_expansion", recorded)
        propagator.scattering_phase_from_time_domain(GAUSS, 1.0)
        (size, terms), = built
        assert size == 36
        assert terms <= propagator._terms(propagator.MAX_SPAN_PHASE)


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
            propagator.free_asymptotics(fhat, 0.0, n=2**13, dx=0.65)

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

        for name in ("free_evolve", "chebyshev_evolve"):
            monkeypatch.setattr(propagator, name, no_evolution)
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

    def test_input_validation(self):
        f0 = propagator.gaussian_packet(n=2**10, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        with pytest.raises(ParameterError):
            propagator.moller_probe(ZERO, f0, [10.0, 5.0, 20.0])

    def test_each_packet_built_once(self, monkeypatch):
        self._check_built_once(monkeypatch, modified=False)

    def test_each_modified_packet_built_once(self, monkeypatch):
        self._check_built_once(monkeypatch, modified=True)

    def _check_built_once(self, monkeypatch, modified):
        # a 5-time probe takes its 5 packets u(T_j) from one forward
        # transform of f0; every increment equals the one computed from
        # freshly built packets: e^{-iH0 T} f0 (free_evolve), and for the
        # modified probe e^{-iX(T, P)} applied to it in momentum space
        f0 = propagator.gaussian_packet(n=2**9, dx=0.65, center=0.0, k0=0.5,
                                        sigma=3.0)
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        free_evolve = propagator.free_evolve
        p = dft_freqs(len(f0.values), f0.dx)

        def fresh(t):
            u = free_evolve(f0, t)
            if not modified:
                return u
            x = propagator._xi_potential_term(GAUSS, 2 * p * t, t)
            return replace(u, values=dft(dft(u.values) * np.exp(-1j * x),
                                         "inverse"))

        expect = []
        for t0, t1 in zip(times[:-1], times[1:]):
            back = propagator.chebyshev_evolve(fresh(t1), GAUSS, t1 - (t1 - t0))
            u0 = fresh(t0)
            expect.append(float(np.sqrt(np.sum(np.abs(back.values - u0.values)
                                               ** 2) * u0.dx)))
        forward, inside = [], []
        chebyshev = propagator.chebyshev_evolve

        def counting_dft(values, direction="forward"):
            if direction == "forward" and not inside:
                forward.append(len(values))
            return dft(values, direction)

        def marked_chebyshev(*args):
            inside.append(True)
            try:
                return chebyshev(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(propagator, "dft", counting_dft)
        monkeypatch.setattr(propagator, "chebyshev_evolve", marked_chebyshev)
        probe = (propagator.modified_moller_probe if modified
                 else propagator.moller_probe)
        rep = probe(GAUSS, f0, times)
        assert forward == [len(f0.values)]
        if modified:
            np.testing.assert_allclose(rep.increments, expect, rtol=1e-10)
        else:
            assert rep.increments.tolist() == expect

    @pytest.mark.parametrize("rho", [0.75, 1.0, 1.5])
    def test_modified_increments_halve_at_the_paper_rate(self, rho):
        # under Dollard's modifier the increment over (T, 2T] falls like
        # T^-rho, so each doubling of T divides it by 2^rho; the last of
        # the three doublings is within 5%
        f0 = propagator.gaussian_packet(n=2**11, dx=0.65, center=0.0, k0=2.0,
                                        sigma=3.0)
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        rep = propagator.modified_moller_probe(model, f0, self.TIMES)
        ratio = rep.increments[-2] / rep.increments[-1]
        assert ratio == pytest.approx(2.0 ** rho, rel=0.05)


class TestTimeDomainSMatrix:
    def test_zero_potential_unit_element(self):
        # on v = 0 chebyshev_evolve is the exact free multiply, bit for bit
        # the free reference, so the amplitudes' ratio is 1 to the last bit
        assert propagator.scattering_phase_from_time_domain(ZERO, 1.0) == 1.0

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_non_finite_momentum_refused(self, monkeypatch, k):
        # k = nan ended in a bare ValueError, and k = inf returned nan + nan j
        def no_packet(*args, **kwargs):
            raise AssertionError("built a packet for a refused k")

        monkeypatch.setattr(propagator, "gaussian_packet", no_packet)
        with pytest.raises(ParameterError, match="positive and finite"):
            propagator.scattering_phase_from_time_domain(GAUSS, k)

    def test_bandwidth_guard(self):
        # the width-20 packet's relative bandwidth 1 / (40 k) passes 20%
        # below k = 0.125
        with pytest.raises(ParameterError, match="packet band too wide"):
            propagator.scattering_phase_from_time_domain(GAUSS, 0.124)

    def test_yukawa_refused_by_its_core(self):
        # at its defaults the clipped core would ask for 4.8e9 terms
        yukawa = PotentialModel(kind="yukawa", v0=0.5, width=0.3)
        with pytest.raises(DomainError, match="its 1/r core, sampled at the grid"):
            propagator.scattering_phase_from_time_domain(yukawa, 1.0)

    def test_unit_modulus(self):
        val = propagator.scattering_phase_from_time_domain(GAUSS, 1.0)
        assert abs(val) == pytest.approx(1.0, abs=5e-3)
