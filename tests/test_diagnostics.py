import time

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import zgttrf, zgttrs
from scipy.sparse.linalg import LinearOperator, eigsh

from scatterlab import acceptance, diagnostics, numerics, propagator
from scatterlab.numerics import DomainError, NumericalError, ParameterError
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


def eigsh_lap_norms(model, lam, r, epsilons, n, extent, seed=7):
    """||B|| from Lanczos (eigsh) on B*B, a LinearOperator on the full-grid
    zgttrf factors of H - lam - i eps."""
    x, diag, off = diagnostics._tridiag(model, n, extent)
    w = (1.0 + x * x) ** (-r / 2.0)
    rng = np.random.default_rng(seed)
    norms = []
    for eps in epsilons:
        factors = zgttrf(off, diag - lam - 1j * eps, off)[:5]

        def apply_b(vec):
            return w * zgttrs(*factors, w * vec)[0]

        op = LinearOperator(
            (n, n), dtype=complex,
            matvec=lambda v: apply_b(apply_b(v.ravel()).conj()).conj())
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        top = eigsh(op, k=1, which="LA", tol=1e-12, v0=v0,
                    return_eigenvectors=False)
        norms.append(np.sqrt(top[0]))
    return np.asarray(norms)


def dense_lap_norms(model, lam, r, epsilons, n, extent):
    """Largest singular value of the dense W (H - lam - i eps)^{-1} W."""
    x, h, _ = dense_fd(model, n, extent)
    w = (1.0 + x * x) ** (-r / 2.0)
    return np.array([
        np.linalg.svd(w[:, None] * np.linalg.inv(h - (lam + 1j * eps)
                                                 * np.eye(n)) * w[None, :],
                      compute_uv=False)[0]
        for eps in epsilons])


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

    def test_wide_gaussian_closed_form(self):
        # ||v||_1 / (8 pi) = sqrt(pi) w^3 / 8 at c = 1; the forward rule ends
        # past r = 1e6, where a capped search read 57% low
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1e6)
        val = diagnostics.hs_norm_resolvent_weight(model, 1.0)
        assert val == pytest.approx(np.sqrt(np.pi) * 1e18 / 8, rel=1e-10)

    @pytest.mark.parametrize("kind,width", [
        *[(kind, 1e308) for kind in ("gaussian_well", "yukawa", "square_well", "compact_bump")],
        ("gaussian_well", 1e110)])
    def test_widest_width_refused_not_nan(self, kind, width):
        # at width 1e110 ||v||_1, of order w^3, read inf
        model = PotentialModel(kind=kind, v0=-1.0, width=width)
        with pytest.raises(NumericalError, match="the radial rule would end at R = "):
            diagnostics.hs_norm_resolvent_weight(model, 1.0)

    def test_c_scaling_exact(self):
        v1 = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        v16 = diagnostics.hs_norm_resolvent_weight(GAUSS, 16.0)
        assert v16 / v1 == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-300, 1e-155, 1e300])
    def test_c_scaling_at_extreme_c(self, c):
        # q^2 (q^2 + c)^-2 dq over- or underflows in parts at these c;
        # c^(-1/2) u^2 (u^2 + (1 - u)^2)^-2 du does not
        v1 = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        vc = diagnostics.hs_norm_resolvent_weight(GAUSS, c)
        assert vc * np.sqrt(c) == pytest.approx(v1, rel=1e-14)

    @pytest.mark.parametrize("rho", [3.1, 3.5, 4.0, 6.0])
    def test_power_tail_whole_tail(self, rho):
        # ||v||_1 = 4 pi (sqrt(pi)/4) Gamma((rho-3)/2) / Gamma(rho/2); the
        # tail past tail_radius(1e-14), about R^(3-rho) / (rho - 3), was
        # 36% of it at rho = 3.1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            l1 = float(mpmath.pi ** 1.5 * mpmath.gamma((mpmath.mpf(rho) - 3) / 2)
                       / mpmath.gamma(mpmath.mpf(rho) / 2))
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=rho)
        val = diagnostics.hs_norm_resolvent_weight(tail, 1.0)
        assert val == pytest.approx(l1 / (8 * np.pi), rel=1e-12)
        if rho == 3.1:
            assert val == pytest.approx(4.8530566664727, rel=1e-12)

    # the ids keep their established names, in which rho = inf reads 2
    @pytest.mark.parametrize("model", [
        GAUSS,
        PotentialModel(kind="gaussian_well", v0=-0.7, width=2.0),
        PotentialModel(kind="square_well", v0=-1.0, width=1.0),
        PotentialModel(kind="square_well", v0=2.5, width=0.7),
        PotentialModel(kind="yukawa", v0=0.1, width=1.0),
        PotentialModel(kind="yukawa", v0=-1.0, width=0.5),
        PotentialModel(kind="compact_bump", v0=-1.0, width=1.0),
        PotentialModel(kind="compact_bump", v0=0.5, width=2.0),
        *(PotentialModel(kind="power_tail", v0=1.0, rho=rho)
          for rho in (3.1, 6.0, 344.0, 1000.0, 1e4)),
        PotentialModel(kind="zero"),
    ], ids=lambda m: f"{m.kind}-{m.v0:g}-{m.width:g}-{2.0 if m.rho == np.inf else m.rho:g}")
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_every_kind_against_closed_form(self, model, c):
        # ||v||_1 / (8 pi sqrt(c)), with ||v||_1 at 40 digits
        mpmath = pytest.importorskip("mpmath")
        v0, w = abs(model.v0), model.width
        with mpmath.workdps(40):
            l1 = {
                "gaussian_well": lambda: mpmath.pi ** 1.5 * w**3,
                "square_well": lambda: 4 * mpmath.pi / 3 * w**3,
                "yukawa": lambda: 4 * mpmath.pi * w**2,
                "compact_bump": lambda: 4 * mpmath.pi * w**3 * mpmath.quad(
                    lambda u: u * u * mpmath.exp(1 - 1 / (1 - u * u)), [0, 1]),
                "power_tail": lambda: mpmath.pi ** 1.5 * mpmath.gamma(
                    (mpmath.mpf(model.rho) - 3) / 2) / mpmath.gamma(mpmath.mpf(model.rho) / 2),
                "zero": lambda: 0,
            }[model.kind]()
            expect = float(v0 * l1 / (8 * mpmath.pi * mpmath.sqrt(c)))
        val = diagnostics.hs_norm_resolvent_weight(model, c)
        assert val == pytest.approx(expect, rel=2e-15, abs=0.0)

    def test_non_integrable_rejected(self):
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
        with pytest.raises(DomainError):
            diagnostics.hs_norm_resolvent_weight(tail, 1.0)

    def test_bad_c_rejected(self):
        with pytest.raises(ParameterError):
            diagnostics.hs_norm_resolvent_weight(GAUSS, 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c_refused(self, monkeypatch, c):
        # c = nan returned nan
        def no_amplitude(*args, **kwargs):
            raise AssertionError("integrated v for a refused c")

        monkeypatch.setattr(diagnostics.born, "born_first_amplitude", no_amplitude)
        with pytest.raises(ParameterError, match="positive and finite"):
            diagnostics.hs_norm_resolvent_weight(GAUSS, c)


class TestKato:
    def _packet(self):
        return propagator.gaussian_packet(n=2**12, dx=0.65, center=0.0,
                                          k0=2.0, sigma=1.0)

    def test_threshold_flip(self):
        Ts = [10.0, 20.0, 40.0, 80.0]
        [r1] = diagnostics.kato_smoothness_integrals([1.0], self._packet(), Ts,
                                                     dt=0.5)
        [r025] = diagnostics.kato_smoothness_integrals([0.25], self._packet(),
                                                       Ts, dt=0.5)
        assert r1.saturating
        assert not r025.saturating

    def test_integrals_monotone(self):
        [rep] = diagnostics.kato_smoothness_integrals(
            [1.0], self._packet(), [5.0, 10.0, 20.0], dt=0.5)
        assert np.all(np.diff(rep.integrals) > 0)

    def test_zero_packet(self):
        f = self._packet()
        from dataclasses import replace
        zero = replace(f, values=np.zeros_like(f.values))
        [rep] = diagnostics.kato_smoothness_integrals([1.0], zero, [5.0, 10.0])
        assert np.all(rep.integrals == 0.0) and rep.saturating

    def test_bad_times(self):
        with pytest.raises(ParameterError):
            diagnostics.kato_smoothness_integrals([1.0], self._packet(),
                                                  [10.0, 5.0])

    def test_single_time_rejected(self):
        # the verdict compares the last two T values
        with pytest.raises(ParameterError, match="two"):
            diagnostics.kato_smoothness_integrals([1.0], self._packet(), [5.0])

    @pytest.mark.parametrize("r", [1.0, 0.25])
    def test_matches_one_evolution_per_time(self, r):
        Ts = [5.0, 10.0, 20.0]
        [rep] = diagnostics.kato_smoothness_integrals([r], self._packet(), Ts,
                                                      dt=0.5)
        oracle = free_evolve_loop_integrals(r, self._packet(),
                                            np.asarray(Ts), 0.5)
        assert np.array_equal(rep.integrals, oracle)

    def test_one_forward_transform_per_call(self, monkeypatch):
        # C13: one call for both weights over 401 sample times; one forward
        # transform plus one inverse per sample time
        calls = []

        def counted(values, direction="forward"):
            calls.append(direction)
            return numerics.dft(values, direction)

        monkeypatch.setattr(propagator, "dft", counted)
        assert acceptance.criterion_13().passed
        assert len(calls) == 402
        assert calls.count("forward") == 1

    def test_several_weights_match_one_call_each(self):
        Ts, rs = [5.0, 10.0, 20.0], [1.0, 0.25, 0.5]
        reps = diagnostics.kato_smoothness_integrals(rs, self._packet(), Ts, dt=0.5)
        assert len(reps) == len(rs)
        for r, rep in zip(rs, reps):
            [one] = diagnostics.kato_smoothness_integrals([r], self._packet(), Ts,
                                                          dt=0.5)
            assert np.array_equal(rep.integrals, one.integrals)
            assert rep.saturating == one.saturating

    def test_no_weight_rejected(self):
        with pytest.raises(ParameterError, match="rs"):
            diagnostics.kato_smoothness_integrals([], self._packet(),
                                                  [5.0, 10.0])


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

    def test_window_counted_before_eigenvectors(self, monkeypatch):
        # an empty window and one over MAX_WINDOW_FLOATS are refused on the
        # eigenvalue count alone
        calls = []

        def counting(*args, eigvals_only=False, **kwargs):
            calls.append(eigvals_only)
            return eigh_tridiagonal(*args, eigvals_only=eigvals_only, **kwargs)

        monkeypatch.setattr(diagnostics, "eigh_tridiagonal", counting)
        with pytest.raises(diagnostics.WindowError):
            diagnostics.mourre_check(ZERO, (1e-6, 2e-6), n=256)
        with pytest.raises(ParameterError, match="MAX_WINDOW_FLOATS"):
            diagnostics.mourre_check(ZERO, (1.0, 100.0), n=2**20)
        assert calls == [True, True]

    def test_window_cap_threshold(self, monkeypatch):
        # C12's window (1, 2] holds 43 eigenvectors of 1024 points
        monkeypatch.setattr(diagnostics, "MAX_WINDOW_FLOATS", 1024 * 43)
        assert diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024) == pytest.approx(
            4.0, abs=0.1)
        monkeypatch.setattr(diagnostics, "MAX_WINDOW_FLOATS", 1024 * 43 - 1)
        with pytest.raises(ParameterError, match="43 window eigenvectors"):
            diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024)

    def test_whole_reliable_range_admitted_at_default_grid(self):
        # every eigenvalue below a quarter of lambda_max at the config's
        # default n = 1024 (340)
        dx = 320.0 / 1023
        val = diagnostics.mourre_check(GAUSS, (1e-3, 0.999 / dx**2), n=1024)
        assert np.isfinite(val)

    @pytest.mark.parametrize("model", [ZERO, GAUSS], ids=["zero", "gaussian"])
    @pytest.mark.parametrize("window", [(1.0, 2.0), (2.0, 3.0), (0.3, 1.7)])
    def test_matches_dense_oracle(self, model, window):
        val = diagnostics.mourre_check(model, window, n=1024)
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

    @pytest.mark.parametrize("eps", [[1e-20, 1e-21], [1e-299, 1e-300]],
                             ids=["1e-20", "1e-299"])
    def test_guard_below_float_spacing_refused(self, eps):
        # 10 min(eps) below half the spacing at e0 rounds the guard window
        # to a point, where the isolated level could not be seen
        n, extent = 4000, 400.0
        _, diag, off = diagnostics._tridiag(DEEP, n, extent)
        e0 = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
        with pytest.raises(ParameterError, match="rounds to a point"):
            diagnostics.lap_probe(DEEP, float(e0), 1.0, eps, n=n, extent=extent)

    def test_zero_pivot_is_numerical_error(self, monkeypatch):
        # a zero pivot in zgttrf (info > 0) ends in the typed error the CLI
        # maps to exit 2, not in numpy's LinAlgError
        factor = diagnostics.zgttrf

        def singular(*args):
            *factors, _ = factor(*args)
            return (*factors, 3)

        monkeypatch.setattr(diagnostics, "zgttrf", singular)
        with pytest.raises(numerics.NumericalError, match="zgttrf info=3"):
            diagnostics.lap_probe(ZERO, -1.0, 1.0, self.EPS, n=800, extent=100.0)

    def test_underflowing_norm_is_numerical_error(self):
        # eps near the float64 limit: |<x>^-r A^-1 <x>^-r v|^2 underflows to 0
        with pytest.raises(numerics.NumericalError, match="eps = 1e\\+308"):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e308, 1e307])

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e-2, 1e-1])
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, -1.0, self.EPS)

    def test_single_epsilon_rejected(self):
        # the verdict compares the last two epsilons
        with pytest.raises(ParameterError, match="two"):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e-1])

    @pytest.mark.parametrize("model,lam,r,eps,n,extent,power_converges", [
        (ZERO, 1.0, 1.0, [0.1, 0.03], 80_000, 10_000.0, True),
        (ZERO, 1.0, 0.25, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], 8_000, 1_000.0,
         False),
        (GAUSS, 0.7, 1.0, [1e-1, 1e-2], 8_000, 1_000.0, False),
    ], ids=["default-grid", "small-r", "gaussian"])
    def test_norms_match_banded_oracle(self, model, lam, r, eps, n, extent,
                                       power_converges):
        # the full-grid power iteration stops at its 60-step cap on small-r
        # and gaussian, where the top even and odd singular values are
        # close; Lanczos is the oracle on every case
        rep = diagnostics.lap_probe(model, lam, r, eps, n=n, extent=extent)
        assert rep.converged
        np.testing.assert_allclose(
            rep.norms, eigsh_lap_norms(model, lam, r, eps, n, extent),
            rtol=1e-9, atol=0)
        if power_converges:
            np.testing.assert_allclose(
                rep.norms, banded_lap_norms(model, lam, r, eps, n=n,
                                            extent=extent),
                rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("model", [ZERO, GAUSS], ids=["zero", "gaussian"])
    @pytest.mark.parametrize("r", [1.0, 0.25])
    def test_norms_match_dense_svd(self, model, r, n):
        # both parities: an even grid and one with a centre node
        eps = [0.1, 0.03]
        rep = diagnostics.lap_probe(model, 1.0, r, eps, n=n, extent=40.0)
        np.testing.assert_allclose(
            rep.norms, dense_lap_norms(model, 1.0, r, eps, n, 40.0),
            rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("model", [ZERO, GAUSS], ids=["zero", "gaussian"])
    def test_mirror_blocks_split_the_spectrum(self, model, n):
        _, diag, off = diagnostics._tridiag(model, n, 10.0)
        blocks = diagnostics._mirror_blocks(diag, off, np.ones(n))
        assert [len(d) for d, _, _ in blocks] == [n - n // 2, n // 2]
        halves = np.concatenate([eigh_tridiagonal(d, o, eigvals_only=True)
                                 for d, o, _ in blocks])
        full = eigh_tridiagonal(diag, off, eigvals_only=True)
        np.testing.assert_allclose(np.sort(halves), full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [1.0, 0.25])
    def test_criterion_14_converged(self, r):
        eps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        rep = diagnostics.lap_probe(ZERO, 1.0, r, eps)
        assert rep.converged
        assert np.all(rep.steps < diagnostics._POWER_STEPS)
        assert np.all((0 < rep.residuals) & (rep.residuals < 1e-4))
        np.testing.assert_allclose(
            rep.norms, eigsh_lap_norms(ZERO, 1.0, r, eps, 80_000, 10_000.0),
            rtol=1e-9, atol=0)

    def test_step_cap_reported(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_POWER_STEPS", 2)
        rep = diagnostics.lap_probe(ZERO, 1.0, 1.0, [0.1, 0.03], n=8_000,
                                    extent=1_000.0)
        assert not rep.converged
        assert rep.steps.tolist() == [[2, 2], [2, 2]]
        assert rep.residuals.shape == (2, 2)

    def test_benchmark_config_solve_count(self, monkeypatch):
        # the benchmark's lap task: the full-grid probe made 66 solves on
        # 80 000 rows
        solve = diagnostics.zgttrs
        rows = []

        def spy(*args, **kwargs):
            rows.append(len(args[5]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "zgttrs", spy)
        rep = diagnostics.lap_probe(ZERO, 1.0, 1.0, [0.1, 0.03])
        assert len(rows) == rep.solves <= 64
        assert set(rows) == {40_000}


class TestSturmCount:
    """diagnostics._eig_count, LAPACK stebz's count on (lo, hi], against the
    per-row Sturm recurrence pivot_count_below (eigenvalues below a)."""

    @pytest.mark.parametrize("model,n,extent", [
        (ZERO, 80_000, 10_000.0), (GAUSS, 4_000, 400.0),
        (DEEP, 4_000, 400.0), (ZERO, 2_000, 10_000.0),
    ], ids=["lap-grid", "gaussian", "deep-well", "coarse"])
    def test_matches_pivot_count(self, model, n, extent):
        _, diag, off = diagnostics._tridiag(model, n, extent)
        top = float(diag.max() + 2.0 * abs(off[0]))
        shifts = sorted([-1e6, -10.0, -3.0, -0.5, 0.0, 1e-3, 0.5, 0.99, 1.01,
                         2.0, 10.0, 0.5 * top, top + 1.0, 1e9])
        below = [pivot_count_below(diag, off, a) for a in shifts]
        # every window between two shifts: below, across and above the
        # spectrum, one level wide and all of it
        for i, lo in enumerate(shifts):
            for hi, expected in zip(shifts[i + 1:], below[i + 1:]):
                assert (diagnostics._eig_count(diag, off, lo, hi)
                        == expected - below[i]), (lo, hi)

    @pytest.mark.parametrize("model,n,extent,lam,guard,expected", [
        # wholly below, wholly above the spectrum
        (ZERO, 80_000, 10_000.0, -1e6, 1.0, 0),
        (ZERO, 80_000, 10_000.0, 1e9, 1.0, 0),
        # lap_probe's defaults: the quasi-continuum at lam = 1, eps 3e-3
        (ZERO, 80_000, 10_000.0, 1.0, 0.03, 192),
        # guard 10 * 1e-300 rounds the window (1 - g, 1 + g] to a point
        (ZERO, 80_000, 10_000.0, 1.0, 1e-299, 0),
        # epsilons [1e308, 1e307]: (-1e308, 1e308], width inf
        (ZERO, 80_000, 10_000.0, 1.0, 1e308, 80_000),
        # eps = 1e308: guard 1e309 is inf
        (GAUSS, 4_000, 400.0, 1.0, 10.0 * 1e308, 4_000),
    ], ids=["below", "above", "quasi-continuum", "point", "huge", "infinite"])
    def test_edge_windows(self, model, n, extent, lam, guard, expected):
        _, diag, off = diagnostics._tridiag(model, n, extent)
        lo, hi = lam - guard, lam + guard
        assert diagnostics._eig_count(diag, off, lo, hi) == expected
        assert (pivot_count_below(diag, off, hi)
                - pivot_count_below(diag, off, lo)) == expected

    def test_deep_well_bound_state(self):
        _, diag, off = diagnostics._tridiag(DEEP, 4_000, 400.0)
        ev = eigh_tridiagonal(diag, off, eigvals_only=True)
        e0, gap = ev[0], ev[1] - ev[0]
        assert e0 < -0.5 and gap > 0.1
        # the last window is lap_probe's guard 10 * 3e-3 around the level
        for lo, hi, expected in ((-1e6, e0 - 1e-6, 0), (-1e6, e0 + 1e-6, 1),
                                 (-1e6, 0.5 * (ev[5] + ev[6]), 6),
                                 (e0 - 0.03, e0 + 0.03, 1)):
            assert diagnostics._eig_count(diag, off, lo, hi) == expected
            assert (pivot_count_below(diag, off, hi)
                    - pivot_count_below(diag, off, lo)) == expected
