import functools

import numpy as np
import pytest

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
