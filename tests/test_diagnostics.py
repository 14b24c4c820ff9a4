import time

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, solve_banded

from scatterlab import acceptance, diagnostics, numerics, propagator
from scatterlab.numerics import DomainError, ParameterError
from scatterlab.potentials import PotentialModel

ZERO = PotentialModel(kind="zero")
GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
DEEP = PotentialModel(kind="gaussian_well", v0=-5.0, width=1.0)


# ---------------------------------------------------------------------------
# oracles: the dense and per-row implementations the tridiagonal LAPACK
# paths replaced, kept as they were
# ---------------------------------------------------------------------------

def dense_fd(model, n, extent):
    """Dense H = -Delta_h + v and its kinetic part (second-order FD)."""
    x = np.linspace(-extent, extent, n)
    dx = x[1] - x[0]
    main = np.full(n, 2.0 / dx**2)
    off = np.full(n - 1, -1.0 / dx**2)
    kin = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    h = kin + np.diag(model.radial_values(np.abs(x)))
    return x, h, kin


def dense_mourre_check(model, window, n=1024, extent=160.0):
    lo, hi = window
    x, matrix, kinetic = dense_fd(model, n, extent)
    evals, evecs = eigh(matrix)
    sel = (evals >= lo) & (evals <= hi)
    vs = evecs[:, sel]
    h = 1e-6
    xv = np.abs(x)
    dv = (model.radial_values(xv + h) - model.radial_values(np.abs(xv - h))) / (2 * h)
    comm = 4.0 * kinetic - np.diag(2.0 * np.abs(x) * dv)
    m = vs.T @ comm @ vs
    m = 0.5 * (m + m.T)
    return float(np.min(np.linalg.eigvalsh(m)))


def banded_lap_norms(model, lam, r, epsilons, n=80_000, extent=10_000.0,
                     iters=60, seed=7):
    """The power iteration with two solve_banded calls per step."""
    x, diag, off = diagnostics._tridiag(model, n, extent)
    w = (1.0 + x * x) ** (-r / 2.0)
    rng = np.random.default_rng(seed)
    norms = []
    for eps in epsilons:
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = off
        ab[1] = diag - lam - 1j * eps
        ab[2, :-1] = off
        ab_c = ab.conj()

        def apply_b(vec, band):
            return w * solve_banded((1, 1), band, w * vec)

        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        s = 0.0
        for _ in range(iters):
            u = apply_b(v, ab)
            u = apply_b(u, ab_c)      # B* B v  (H real symmetric)
            s_new = np.linalg.norm(u)
            v = u / s_new
            if abs(s_new - s) < 1e-10 * s_new:
                s = s_new
                break
            s = s_new
        norms.append(np.sqrt(s))
    return np.asarray(norms)


def pivot_count_below(diag, off, a):
    """Sturm-sequence count of eigenvalues below a (tridiagonal)."""
    count = 0
    d = diag[0] - a
    if d < 0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(diag)):
        d = (diag[i] - a) - off[i - 1] ** 2 / (d if abs(d) > tiny else tiny)
        if d < 0:
            count += 1
    return count


def free_evolve_loop_integrals(r, f, T_values, dt):
    """Kato integrals with one free_evolve from t = 0 per sample time."""
    x = f.grid
    w2 = (1.0 + x * x) ** -r
    norm2 = np.sum(np.abs(f.values) ** 2) * f.dx
    ts = np.arange(0.0, T_values[-1] + 0.5 * dt, dt)
    g = np.empty(len(ts))
    for i, t in enumerate(ts):
        ev = propagator.free_evolve(f, t)
        g[i] = np.sum(w2 * np.abs(ev.values) ** 2) * f.dx
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
    return np.interp(T_values, ts, cum) / norm2


class TestDiscretization:
    def test_operator_hermitian(self):
        # the tridiagonal (diag, off) holds every entry of the dense
        # symmetric FD matrix
        x, diag, off = diagnostics._tridiag(GAUSS, 128, 20.0)
        _, dense, _ = dense_fd(GAUSS, 128, 20.0)
        assert np.array_equal(x, np.linspace(-20.0, 20.0, 128))
        assert np.array_equal(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1),
                              dense)

    def test_kinetic_positive_semidefinite(self):
        _, diag, off = diagnostics._tridiag(ZERO, 128, 20.0)
        ev = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert ev.min() > -1e-12

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            diagnostics._tridiag(ZERO, 7, 20.0)


class TestHsNorm:
    def test_gaussian_closed_form(self):
        val = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        assert val == pytest.approx(np.sqrt(np.pi) / 8, rel=1e-10)

    def test_c_scaling_exact(self):
        v1 = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        v16 = diagnostics.hs_norm_resolvent_weight(GAUSS, 16.0)
        assert v16 / v1 == pytest.approx(0.25, abs=1e-12)

    def test_non_integrable_rejected(self):
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
        with pytest.raises(DomainError):
            diagnostics.hs_norm_resolvent_weight(tail, 1.0)

    def test_bad_c_rejected(self):
        with pytest.raises(ParameterError):
            diagnostics.hs_norm_resolvent_weight(GAUSS, 0.0)


class TestKato:
    def _packet(self):
        return propagator.gaussian_packet(n=2**12, dx=0.65, center=0.0,
                                          k0=2.0, sigma=1.0)

    def test_threshold_flip(self):
        Ts = [10.0, 20.0, 40.0, 80.0]
        r1 = diagnostics.kato_smoothness_integral(1.0, self._packet(), Ts,
                                                  dt=0.5)
        r025 = diagnostics.kato_smoothness_integral(0.25, self._packet(), Ts,
                                                    dt=0.5)
        assert r1.saturating
        assert not r025.saturating

    def test_integrals_monotone(self):
        rep = diagnostics.kato_smoothness_integral(
            1.0, self._packet(), [5.0, 10.0, 20.0], dt=0.5)
        assert np.all(np.diff(rep.integrals) > 0)

    def test_zero_packet(self):
        f = self._packet()
        from dataclasses import replace
        zero = replace(f, values=np.zeros_like(f.values))
        rep = diagnostics.kato_smoothness_integral(1.0, zero, [5.0, 10.0])
        assert np.all(rep.integrals == 0.0) and rep.saturating

    def test_bad_times(self):
        with pytest.raises(ParameterError):
            diagnostics.kato_smoothness_integral(1.0, self._packet(),
                                                 [10.0, 5.0])

    def test_single_time_rejected(self):
        # the verdict compares the last two T values
        with pytest.raises(ParameterError, match="two"):
            diagnostics.kato_smoothness_integral(1.0, self._packet(), [5.0])

    @pytest.mark.parametrize("r", [1.0, 0.25])
    def test_matches_one_evolution_per_time(self, r):
        Ts = [5.0, 10.0, 20.0]
        rep = diagnostics.kato_smoothness_integral(r, self._packet(), Ts,
                                                   dt=0.5)
        oracle = free_evolve_loop_integrals(r, self._packet(),
                                            np.asarray(Ts), 0.5)
        assert np.array_equal(rep.integrals, oracle)

    def test_one_forward_transform_per_call(self, monkeypatch):
        # C13: two calls of 401 sample times each; one forward transform
        # per call plus one inverse per sample time
        calls = []

        def counted(values, direction="forward"):
            calls.append(direction)
            return numerics.dft(values, direction)

        monkeypatch.setattr(propagator, "dft", counted)
        assert acceptance.criterion_13().passed
        assert len(calls) == 804
        assert calls.count("forward") == 2


class TestMourre:
    def test_free_window_oracle(self):
        val = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024)
        assert val == pytest.approx(4.0, abs=0.1)

    def test_free_second_window(self):
        val = diagnostics.mourre_check(ZERO, (2.0, 3.0), n=1024)
        assert val == pytest.approx(8.0, abs=0.2)

    def test_refinement_trend(self):
        v1 = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024)
        v2 = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=2048)
        assert abs(v1 - 4.0) / 4.0 < 0.05
        assert abs(v2 - 4.0) / 4.0 < 0.05

    def test_weak_well_stays_positive(self):
        weak = PotentialModel(kind="gaussian_well", v0=-0.1, width=1.0)
        assert diagnostics.mourre_check(weak, (1.0, 2.0), n=1024) >= 3.0

    def test_empty_window(self):
        with pytest.raises(diagnostics.WindowError):
            diagnostics.mourre_check(ZERO, (1e-6, 2e-6), n=256)

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            diagnostics.mourre_check(ZERO, (2.0, 1.0), n=256)

    @pytest.mark.parametrize("model", [ZERO, GAUSS], ids=["zero", "gaussian"])
    @pytest.mark.parametrize("window", [(1.0, 2.0), (2.0, 3.0), (0.3, 1.7)])
    def test_matches_dense_oracle(self, model, window):
        val = diagnostics.mourre_check(model, window)
        assert val == pytest.approx(dense_mourre_check(model, window),
                                    rel=1e-12)

    def test_large_grid(self):
        # n = 2**16: the dense path would need 34 GB per n x n matrix
        start = time.perf_counter()
        val = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=2**16)
        assert time.perf_counter() - start < 20.0
        assert val == pytest.approx(4.0, abs=0.1)


class TestLap:
    EPS = [1e-1, 3e-2, 1e-2, 3e-3]

    def test_free_stable_at_r1(self):
        rep = diagnostics.lap_probe(ZERO, 1.0, 1.0, self.EPS)
        assert rep.stable
        assert np.all(np.diff(rep.norms) >= -1e-10)

    def test_threshold_violation_at_small_r(self):
        rep = diagnostics.lap_probe(ZERO, 1.0, 0.25, self.EPS)
        assert not rep.stable
        assert rep.last_change > 0.20

    def test_below_spectrum_trivially_stable(self):
        rep = diagnostics.lap_probe(ZERO, -1.0, 1.0, self.EPS)
        assert rep.stable
        assert np.all(rep.norms <= 1.0 + 1e-6)  # <= 1/dist(-1, spec)

    def test_resonance_proximity_detected(self):
        # deep well: isolated bound state below the continuum
        deep = PotentialModel(kind="gaussian_well", v0=-5.0, width=1.0)
        n, extent = 4000, 400.0
        x = np.linspace(-extent, extent, n)
        dx = x[1] - x[0]
        diag = 2.0 / dx**2 + deep.radial_values(np.abs(x))
        off = np.full(n - 1, -1.0 / dx**2)
        e0 = eigh_tridiagonal(diag, off, select="i",
                              select_range=(0, 0))[0][0]
        assert e0 < -0.5
        with pytest.raises(diagnostics.ResonanceProximityError):
            diagnostics.lap_probe(deep, float(e0), 1.0, self.EPS,
                                  n=n, extent=extent)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e-2, 1e-1])
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, -1.0, self.EPS)

    def test_single_epsilon_rejected(self):
        # the verdict compares the last two epsilons
        with pytest.raises(ParameterError, match="two"):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e-1])

    @pytest.mark.parametrize("model,lam,r,eps,n,extent", [
        (ZERO, 1.0, 1.0, [0.1, 0.03], 80_000, 10_000.0),
        (ZERO, 1.0, 0.25, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], 8_000, 1_000.0),
        (GAUSS, 0.7, 1.0, [1e-1, 1e-2], 8_000, 1_000.0),
    ], ids=["default-grid", "small-r", "gaussian"])
    def test_norms_match_banded_oracle(self, model, lam, r, eps, n, extent):
        rep = diagnostics.lap_probe(model, lam, r, eps, n=n, extent=extent)
        oracle = banded_lap_norms(model, lam, r, eps, n=n, extent=extent)
        assert np.array_equal(rep.norms, oracle)


class TestSturmCount:
    @pytest.mark.parametrize("model,n,extent", [
        (ZERO, 80_000, 10_000.0), (GAUSS, 4_000, 400.0),
        (DEEP, 4_000, 400.0), (ZERO, 2_000, 10_000.0),
    ], ids=["lap-grid", "gaussian", "deep-well", "coarse"])
    def test_matches_pivot_count(self, model, n, extent):
        _, diag, off = diagnostics._tridiag(model, n, extent)
        top = float(diag.max() + 2.0 * abs(off[0]))
        shifts = [-1e6, -10.0, -3.0, -0.5, 0.0, 1e-3, 0.5, 0.99, 1.01, 2.0,
                  10.0, 0.5 * top, top + 1.0, 1e9]
        for a in shifts:
            assert (diagnostics._eig_count_below(diag, off, a)
                    == pivot_count_below(diag, off, a)), a

    def test_deep_well_bound_state(self):
        _, diag, off = diagnostics._tridiag(DEEP, 4_000, 400.0)
        ev = eigh_tridiagonal(diag, off, eigvals_only=True)
        e0, gap = ev[0], ev[1] - ev[0]
        assert e0 < -0.5 and gap > 0.1
        for a, expected in ((e0 - 1e-6, 0), (e0 + 1e-6, 1),
                            (0.5 * (ev[5] + ev[6]), 6)):
            assert diagnostics._eig_count_below(diag, off, a) == expected
            assert pivot_count_below(diag, off, a) == expected
