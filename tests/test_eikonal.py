import functools
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from scatterlab import _cyl, eikonal
from scatterlab.eikonal import (S0_SIGN, TAPER_FRACTION, _PsiEvaluator,
                                _plane_rule, _taper_profile)
from scatterlab.numerics import DomainError, ParameterError
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
TAIL2 = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
TAIL1 = PotentialModel(kind="power_tail", v0=0.5, rho=1.0)
ZAXIS = np.array([0.0, 0.0, 1.0])


class TestPhaseIntegral:
    @pytest.mark.parametrize("s", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("xi", [1.0, 5.0])
    def test_rho2_closed_form(self, s, xi):
        x = np.array([s, 0.0, 0.0])
        val = eikonal.eikonal_phase_integral(TAIL2, x, xi * ZAXIS, +1)
        closed = (np.pi * TAIL2.v0 / (4 * xi)) * ((1 + s * s) ** -0.5 - 1.0)
        assert val == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("s,xi", [(1.0, 1.0), (4.0, 2.5)])
    def test_rho1_closed_form(self, s, xi):
        x = np.array([s, 0.0, 0.0])
        closed = -(TAIL1.v0 / (2 * xi)) * np.log(np.sqrt(1 + s * s))
        val = eikonal.eikonal_phase_integral(TAIL1, x, xi * ZAXIS, +1)
        assert val == pytest.approx(closed, abs=1e-8)
        val_m = eikonal.eikonal_phase_integral(TAIL1, x, xi * ZAXIS, -1)
        assert val_m == pytest.approx(-closed, abs=1e-8)

    def test_reflection_identity(self):
        # Phi_-(x, xi) = -Phi_+(-x, xi)
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.normal(size=3) * 3.0
            if abs(x[2]) / np.linalg.norm(x) > 0.9:
                x[2] = 0.1
            plus = eikonal.eikonal_phase_integral(GAUSS, -x, 2.0 * ZAXIS, +1)
            minus = eikonal.eikonal_phase_integral(GAUSS, x, 2.0 * ZAXIS, -1)
            assert minus == pytest.approx(-plus, abs=1e-9)

    def test_cone_rejected(self):
        # x in the backward cone for the + sign is outside the domain
        with pytest.raises(DomainError):
            eikonal.eikonal_phase_integral(GAUSS, [0.0, 0.0, -5.0],
                                           2.0 * ZAXIS, +1)

    def test_too_slow_decay_rejected(self):
        slow = PotentialModel(kind="power_tail", v0=1.0, rho=0.4)
        with pytest.raises(Exception):
            eikonal.eikonal_phase_integral(slow, [1.0, 0.0, 0.0],
                                           2.0 * ZAXIS, +1)

    def test_yukawa_refused(self):
        # int_0^inf v diverges at the 1/r core, so Phi_pm has no value
        yukawa = PotentialModel(kind="yukawa", v0=0.5, width=0.3)
        with pytest.raises(DomainError):
            eikonal.eikonal_phase_integral(yukawa, [1.0, 0.0, 2.0],
                                           2.0 * ZAXIS, +1)


def _crossing_points(width):
    """(x, sign, s, a): |x| <= 12 at 16-170 degrees from -sign * e_z, turned
    about the axis, whose ray x + sign t e_z crosses the ball of radius
    width; s is the ray's distance from the axis, a = sign * z its start."""
    out = []
    for sign in (+1, -1):
        for i, r in enumerate(np.linspace(0.25, 12.0, 48)):
            for deg in np.linspace(16.0, 170.0, 31):
                th, turn = np.deg2rad(deg), 0.7 * i
                s, a = r * np.sin(th), -r * np.cos(th)
                if s < width and a < np.sqrt(width**2 - s * s):
                    x = np.array([s * np.cos(turn), s * np.sin(turn), sign * a])
                    out.append((x, sign, s, a))
    return out


class TestPhaseIntegralScan:
    """Phi_pm where the ray crosses a compact support, against the chord
    closed form (square well) and a trapezoid reference (bump)."""

    XI = 1.5

    def test_square_well_chord(self):
        model = PotentialModel(kind="square_well", v0=-1.0, width=1.0)
        # |x| = 3.5 at 16 degrees from -xi: closed form 0.2368
        th = np.deg2rad(16.0)
        x = 3.5 * np.array([np.sin(th), 0.0, -np.cos(th)])
        assert eikonal.eikonal_phase_integral(model, x, ZAXIS, +1) == pytest.approx(
            0.5 * (1.0 - 2.0 * np.sqrt(1.0 - (3.5 * np.sin(th)) ** 2)), abs=1e-12)
        points = _crossing_points(1.0)
        assert len(points) > 200
        for x, sign, s, a in points:
            h = np.sqrt(1.0 - s * s)
            chord = h - max(a, -h)
            closed = sign * 0.5 * model.v0 * (chord - 1.0) / self.XI
            got = eikonal.eikonal_phase_integral(model, x, self.XI * ZAXIS, sign)
            assert got == pytest.approx(closed, abs=1e-8), (x, sign)

    def test_compact_bump_trapezoid(self):
        model = PotentialModel(kind="compact_bump", v0=0.8, width=1.3)
        u = np.linspace(0.0, 1.3, 100001)
        full = np.trapezoid(model.radial_values(u), u)
        for x, sign, s, a in _crossing_points(1.3)[::10]:
            h = np.sqrt(1.3**2 - s * s)
            w = np.linspace(max(a, -h), h, 100001)
            part = np.trapezoid(model.radial_values(np.hypot(s, w)), w)
            ref = sign * 0.5 * (part - full) / self.XI
            got = eikonal.eikonal_phase_integral(model, x, self.XI * ZAXIS, sign)
            assert got == pytest.approx(ref, abs=1e-8), (x, sign)


class TestIteration:
    def test_default_orders(self):
        assert eikonal.default_n0(2.0) == 0
        assert eikonal.default_n0(1.5) == 0
        assert eikonal.default_n0(1.0) == 2
        assert eikonal.default_n0(0.75) == 2

    def test_phi1_solves_ray_equation(self):
        # (2|xi|)^{-1} phi_1 equals the exact ray integral Phi
        data = eikonal.eikonal_iterate(GAUSS, ZAXIS, 5.0, N0=1)
        phi1_scaled = data.phi_n[1] / (2 * data.xi_norm)
        assert np.max(np.abs(phi1_scaled - data.Phi)) < 1e-10

    def test_phi_at_matches_quadrature(self):
        data = eikonal.eikonal_iterate(GAUSS, ZAXIS, 5.0, N0=1)
        pts = np.array([[1.0, 0.5, 2.0], [0.2, -0.4, 0.0]])
        direct = np.array([
            eikonal.eikonal_phase_integral(GAUSS, p, 5.0 * ZAXIS, +1)
            for p in pts])
        assert np.allclose(data.Phi_at(pts), direct, atol=2e-4)

    def test_zero_n0_means_no_phase(self):
        data = eikonal.eikonal_iterate(GAUSS, ZAXIS, 5.0)
        assert data.N0 == 0
        assert np.all(data.Phi == 0.0)

    def test_n0_zero_rejected_for_long_range(self):
        with pytest.raises(ParameterError):
            eikonal.eikonal_iterate(TAIL1, ZAXIS, 5.0, N0=0)

    def test_yukawa_refused(self):
        yukawa = PotentialModel(kind="yukawa", v0=0.5, width=0.3)
        with pytest.raises(DomainError):
            eikonal.eikonal_iterate(yukawa, ZAXIS, 5.0, N0=1)

    def test_default_n0_three_path(self):
        # rho = 0.7 takes N0 = 3: the phi_3 anchor, checked on a few rows
        # against adaptive quadrature of its defining integral with the
        # exact d_s phi_1 = -rho s v0 int_w^inf (1 + s^2 + u^2)^(-rho/2-1) du
        # (w > 0 on the anchor rows)
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            data = eikonal.eikonal_iterate(model, ZAXIS, 5.0)
        assert data.N0 == 3
        rho, v0 = model.rho, model.v0

        def v(r):
            return v0 * (1.0 + r * r) ** (-rho / 2)

        def ds_phi1(s, w):
            # u = w y keeps the integrand of order one for every w > 0
            c = (1.0 + s * s) / (w * w)
            tail = quad(lambda y: (c + y * y) ** (-rho / 2 - 1), 1.0, np.inf,
                        epsabs=0.0, epsrel=1e-11)[0]
            return -rho * s * v0 * w ** (-rho - 1) * tail

        def reference(s, a):
            # int_0^inf (f3(s, a + t) - f3(0, t)) dt, split where the
            # reference ray passes the origin's unit scale
            def f(t):
                return v(np.hypot(s, a + t)) ** 2 + ds_phi1(s, a + t) ** 2 - v(t) ** 2
            return sum(quad(f, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-10)[0]
                       for lo, hi in ((0.0, 1.0), (1.0, 100.0), (100.0, np.inf)))

        grid = data.grid
        for sign in (+1, -1):
            a = grid.z[-1] if sign > 0 else -grid.z[0]
            rows = np.array([0, 20, 80, 160])
            got = eikonal._phi3_anchor(model, grid.s[rows], a, sign)
            ref = [sign * reference(grid.s[i], a) for i in rows]
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(
            data.phi_n[3][:, -1], eikonal._phi3_anchor(model, grid.s, grid.z[-1], +1),
            rtol=0.0, atol=0.0)


class TestTransport:
    def test_zero_potential_trivial(self):
        data = eikonal.eikonal_iterate(PotentialModel(kind="zero"),
                                       ZAXIS, 5.0)
        sol = eikonal.transport_solve(PotentialModel(kind="zero"), data, 2)
        assert sol.residual_norm < 1e-12
        assert np.allclose(sol.b_n[1], 0.0)

    def test_b0_is_one(self):
        data = eikonal.eikonal_iterate(GAUSS, ZAXIS, 5.0)
        sol = eikonal.transport_solve(GAUSS, data, 1)
        assert np.all(sol.b_n[0] == 1.0)

    def test_residual_lambda_scaling(self):
        # ||residual|| ~ lambda^{-N/2} at fixed N with Phi = 0
        norms = {}
        for lam in (25.0, 100.0):
            data = eikonal.eikonal_iterate(GAUSS, ZAXIS, np.sqrt(lam))
            norms[lam] = eikonal.transport_solve(GAUSS, data, 1).residual_norm
        slope = np.log(norms[100.0] / norms[25.0]) / np.log(4.0)
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestS0:
    def test_taper_profile(self):
        u = np.linspace(-0.5, 1.5, 101)
        vals = eikonal._taper_profile(u)
        assert vals[0] == 1.0 and vals[-1] == 0.0
        assert np.all(np.diff(vals) <= 1e-14)

    def test_reciprocity(self):
        # radial v: s0(omega, omega') = s0(omega', omega)
        lam = 25.0
        sols = eikonal.s0_solutions(GAUSS, lam, 1)
        th = np.deg2rad(20.0)
        e1 = np.array([1.0, 0.0, 0.0])
        w = np.cos(th / 2) * ZAXIS + np.sin(th / 2) * e1
        wp = np.cos(th / 2) * ZAXIS - np.sin(th / 2) * e1
        a = eikonal.s0_kernel(GAUSS, lam, w, wp, ZAXIS, N=1, solutions=sols)
        b = eikonal.s0_kernel(GAUSS, lam, wp, w, ZAXIS, N=1, solutions=sols)
        assert a.value == pytest.approx(b.value, rel=1e-6)

    def test_cap_restriction(self):
        sols = None
        with pytest.raises(ParameterError):
            eikonal.s0_kernel(GAUSS, 25.0, [1, 0, 0], [0, 1, 0],
                              ZAXIS, N=1, solutions=sols)

    def test_coincident_directions_rejected(self):
        with pytest.raises(ParameterError):
            eikonal.s0_kernel(GAUSS, 25.0, ZAXIS, ZAXIS, ZAXIS, N=1)

    def test_diagonal_probe_validation(self):
        with pytest.raises(ParameterError):
            eikonal.diagonal_exponent_probe(TAIL1, 25.0, ZAXIS,
                                            [0.5, 0.4, 0.3])


def _full_plane_s0_quadrature(psi_plus: _PsiEvaluator, psi_minus: _PsiEvaluator,
                              omega, omega_prime, omega0, lam: float,
                              window: float) -> complex:
    """The S0 plane quadrature on the whole n x n tensor rule, kept as it
    was before coplanar pairs were folded over b -> -b."""
    sql = np.sqrt(lam)
    rule = _plane_rule(window, sql)
    e1, e2 = _cyl.plane_basis(omega0)

    taper = _taper_profile(
        (np.abs(rule.nodes) - window * (1 - TAPER_FRACTION))
        / (window * TAPER_FRACTION))
    w = rule.weights * taper
    n = len(rule.nodes)
    pts = (rule.nodes[:, None, None] * e1[None, None, :]
           + rule.nodes[None, :, None] * e2[None, None, :]).reshape(-1, 3)
    pp, dpp = psi_plus(pts, omega, omega0)
    pm, dpm = psi_minus(pts, omega_prime, omega0)
    # subtract the free-field (v = 0) integrand: off the diagonal it
    # contributes nothing over the infinite plane, but its finite-window
    # taper leakage would otherwise swamp the scattering part
    zp = pts @ omega
    zm = pts @ omega_prime
    fp = np.exp(1j * sql * zp)
    fm = np.exp(1j * sql * zm)
    dfp = 1j * sql * float(omega @ omega0) * fp
    dfm = 1j * sql * float(omega_prime @ omega0) * fm
    integrand = (np.conj(pp) * dpm - np.conj(dpp) * pm
                 - (np.conj(fp) * dfm - np.conj(dfp) * fm)).reshape(n, n)
    total = w @ integrand @ w
    return S0_SIGN * 1j * np.pi * lam ** 0.5 * (2 * np.pi) ** -3 * total


@functools.cache
def _solutions(model, lam, N):
    return eikonal.s0_solutions(model, lam, N)


def _pair(theta_deg, turn_deg=0.0):
    """(omega, omega') at angle theta in the (z, x) plane, omega then turned
    by turn_deg about the z axis."""
    th = np.deg2rad(theta_deg)
    e1 = np.array([1.0, 0.0, 0.0])
    w = np.cos(th / 2) * ZAXIS + np.sin(th / 2) * e1
    wp = np.cos(th / 2) * ZAXIS - np.sin(th / 2) * e1
    c, s = np.cos(np.deg2rad(turn_deg)), np.sin(np.deg2rad(turn_deg))
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return turn @ w, wp


class _CountingPsi:
    def __init__(self, psi):
        self.psi = psi
        self.points = []

    def __call__(self, points, omega, deriv_dir):
        self.points.append(len(points))
        return self.psi(points, omega, deriv_dir)


class TestS0Fold:
    """Coplanar pairs are summed over the b >= 0 half of the plane rule with
    doubled weights; the full-plane quadrature is the oracle."""

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("theta", [10.0, 30.0])
    @pytest.mark.parametrize("lam", [25.0, 64.0])
    def test_gaussian_matches_full_plane(self, lam, theta, N):
        pp, pm = _solutions(GAUSS, lam, N)
        w, wp = _pair(theta)
        window = max(3.0 * GAUSS.effective_range, 60.0 / np.sqrt(lam))
        folded = eikonal._s0_quadrature(pp, pm, w, wp, ZAXIS, lam, window)
        full = _full_plane_s0_quadrature(pp, pm, w, wp, ZAXIS, lam, window)
        assert abs(folded - full) <= 1e-12 * abs(full)

    def test_power_tail_matches_full_plane(self):
        lam = 25.0
        pp, pm = _solutions(TAIL1, lam, 1)
        w, wp = _pair(20.0)
        for window in (30.0, 37.5):
            folded = eikonal._s0_quadrature(pp, pm, w, wp, ZAXIS, lam, window)
            full = _full_plane_s0_quadrature(pp, pm, w, wp, ZAXIS, lam,
                                             window)
            assert abs(folded - full) <= 1e-12 * abs(full)

    def test_folded_rule_halves_the_points(self):
        lam = 25.0
        pp, pm = (_CountingPsi(p) for p in _solutions(GAUSS, lam, 1))
        n = len(_plane_rule(18.0, np.sqrt(lam)).nodes)
        eikonal._s0_quadrature(pp, pm, *_pair(20.0), ZAXIS, lam, 18.0)
        eikonal._s0_quadrature(pp, pm, *_pair(20.0, 30.0), ZAXIS, lam, 18.0)
        assert pp.points == pm.points == [n * n // 2, n * n]

    def test_non_coplanar_pair_unchanged(self):
        lam = 25.0
        pp, pm = _solutions(GAUSS, lam, 1)
        w, wp = _pair(20.0, turn_deg=30.0)
        assert w[1] != 0.0
        folded = eikonal._s0_quadrature(pp, pm, w, wp, ZAXIS, lam, 18.0)
        full = _full_plane_s0_quadrature(pp, pm, w, wp, ZAXIS, lam, 18.0)
        assert folded == full
