import functools
import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from scatterlab import _cyl, eikonal
from scatterlab.eikonal import (S0_SIGN, TAPER_FRACTION, _PsiEvaluator,
                                _plane_rule, _taper_profile)
from scatterlab.numerics import DomainError, ParameterError, composite_gauss
from scatterlab.potentials import PotentialModel, ray_difference

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
TAIL2 = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
TAIL1 = PotentialModel(kind="power_tail", v0=0.5, rho=1.0)
ZAXIS = np.array([0.0, 0.0, 1.0])
# the S0 plane z = 0 and its basis; the angles 0 < theta < CAP_LIMIT keep
# both directions of the pair in the cap omega . e_z > S0_CAP_DELTA
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
CAP_LIMIT = 2.0 * np.arccos(eikonal.S0_CAP_DELTA)


def _amplitudes(data, N):
    """b_0..b_N from one march of the recursion on the tables data."""
    return tuple(islice(eikonal._recursion(data, N), 0, 2 * N + 1, 2))


class _TablesBuilt(Exception):
    """Raised in place of building tables: the refusals before it passed."""


def _build_nothing(*args, **kwargs):
    raise _TablesBuilt


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
        # at N0 = 1, Phi = (2|xi|)^{-1} phi_1, and phi_1 is the difference ray
        # integral; on the far row it is the anchor itself
        data = eikonal.eikonal_iterate(GAUSS, 5.0, N0=1)
        grid = data.grid
        phi1 = data.Phi * (2 * data.xi_norm)
        np.testing.assert_allclose(
            phi1[:, -1], ray_difference(GAUSS, grid.s, grid.z[-1]), rtol=1e-14, atol=1e-15)
        rows, cols = np.array([0, 10, 40, 100]), np.array([0, 120, 240, 360])
        ref = ray_difference(GAUSS, grid.s[rows][:, None], grid.z[cols])
        assert np.max(np.abs(phi1[np.ix_(rows, cols)] - ref)) < 1e-10

    def test_phi_at_matches_quadrature(self):
        data = eikonal.eikonal_iterate(GAUSS, 5.0, N0=1)
        pts = np.array([[1.0, 0.5, 2.0], [0.2, -0.4, 0.0]])
        direct = np.array([
            eikonal.eikonal_phase_integral(GAUSS, p, 5.0 * ZAXIS, +1)
            for p in pts])
        s, z = _cyl.cyl_coords(pts, ZAXIS)
        phi = _cyl.interpolator(data.grid, data.Phi)(np.column_stack([s, z]))
        assert np.allclose(phi, direct, atol=2e-4)

    def test_zero_n0_means_no_phase(self):
        data = eikonal.eikonal_iterate(GAUSS, 5.0)
        assert data.N0 == 0
        assert np.all(data.Phi == 0.0)

    def test_overflowing_phase_weight_refused(self, monkeypatch):
        # (2 |xi|)^-2 overflows at xi_norm = 1e-160 (N0 = 2 at rho = 0.9);
        # refused before the potential is evaluated on the grid
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.9)
        monkeypatch.setattr(_cyl, "make_grid", _build_nothing)
        with pytest.raises(ParameterError, match=r"\(2 \|xi\|\)\^-N0 overflows"):
            eikonal.eikonal_iterate(model, 1e-160)
        with pytest.raises(_TablesBuilt):
            eikonal.eikonal_iterate(model, 1e-150)

    def test_n0_zero_rejected_for_long_range(self):
        with pytest.raises(ParameterError):
            eikonal.eikonal_iterate(TAIL1, 5.0, N0=0)

    def test_odd_depths_carry_the_even_tables(self):
        # with zero vector potential phi_2 = phi_4 = 0, so N0 = 1 builds the
        # tables of N0 = 2; both run at rho = 0.6, where N0 rho <= 1
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.6)
        one, two = (eikonal.eikonal_iterate(model, 5.0, N0=n) for n in (1, 2))
        assert np.array_equal(one.Phi, two.Phi) and np.array_equal(one.q, two.q)
        assert np.array_equal(eikonal.residual_norms(one, 1),
                              eikonal.residual_norms(two, 1))

    def test_yukawa_refused(self):
        yukawa = PotentialModel(kind="yukawa", v0=0.5, width=0.3)
        with pytest.raises(DomainError):
            eikonal.eikonal_iterate(yukawa, 5.0, N0=1)

    def test_default_n0_three_path(self):
        # rho = 0.7 takes N0 = 3: the phi_3 anchor, checked on a few rows
        # against adaptive quadrature of its defining integral with the
        # exact d_s phi_1 = -rho s v0 int_w^inf (1 + s^2 + u^2)^(-rho/2-1) du
        # (w > 0 on the anchor rows)
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            data = eikonal.eikonal_iterate(model, 5.0)
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
        # phi_3 = (Phi at N0 = 3 - Phi at N0 = 2) (2|xi|)^3: phi_2 = 0, so the
        # two sums share every other term
        two = eikonal.eikonal_iterate(model, 5.0, N0=2)
        phi3 = (data.Phi[:, -1] - two.Phi[:, -1]) * (2 * data.xi_norm) ** 3
        np.testing.assert_allclose(
            phi3, eikonal._phi3_anchor(model, grid.s, grid.z[-1], +1),
            rtol=1e-12, atol=0.0)


class TestTransport:
    def test_zero_potential_trivial(self):
        data = eikonal.eikonal_iterate(PotentialModel(kind="zero"), 5.0)
        assert eikonal.residual_norms(data, 2)[-1] < 1e-12
        assert np.allclose(_amplitudes(data, 2)[1], 0.0)

    def test_b0_is_one(self):
        data = eikonal.eikonal_iterate(GAUSS, 5.0)
        assert np.all(_amplitudes(data, 1)[0] == 1.0)

    def test_residual_lambda_scaling(self):
        # ||residual|| ~ lambda^{-N/2} at fixed N with Phi = 0
        norms = {}
        for lam in (25.0, 100.0):
            data = eikonal.eikonal_iterate(GAUSS, np.sqrt(lam))
            norms[lam] = eikonal.residual_norms(data, 1)[-1]
        slope = np.log(norms[100.0] / norms[25.0]) / np.log(4.0)
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestS0:
    def test_taper_profile(self):
        u = np.linspace(-0.5, 1.5, 101)
        vals = eikonal._taper_profile(u)
        assert vals[0] == 1.0 and vals[-1] == 0.0
        assert np.all(np.diff(vals) <= 1e-14)

    def test_reciprocity(self):
        # radial v: s0(omega, omega') = s0(omega', omega); the swapped pair
        # on the whole plane, with psi_- from the sign -1 tables
        lam, window = 25.0, 18.0
        w, wp = _pair(20.0)
        a, _ = eikonal._s0_quadrature(_solutions(GAUSS, lam, 1)[0],
                                      np.deg2rad(20.0), (window, 1.25 * window))
        b = _full_plane_s0_quadrature(*_two_table_pair(GAUSS, lam, 1), wp, w,
                                      lam, window)
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_cap_restriction(self, monkeypatch):
        # only 0 < theta < 2 arccos(0.5) puts both directions in the cap:
        # -0.35 and 4 pi + 0.35 are the pair of 0.35, under another label
        monkeypatch.setattr(eikonal, "s0_solutions", _build_nothing)
        for theta in (np.deg2rad(130.0), -0.35, 4 * np.pi + 0.35, CAP_LIMIT,
                      np.nan):
            with pytest.raises(ParameterError, match="cap around omega0"):
                eikonal.s0_samples(GAUSS, 25.0, 1, [theta])
        with pytest.raises(_TablesBuilt):
            eikonal.s0_samples(GAUSS, 25.0, 1, [np.nextafter(CAP_LIMIT, 0.0)])

    def test_coincident_directions_rejected(self, monkeypatch):
        monkeypatch.setattr(eikonal, "s0_solutions", _build_nothing)
        with pytest.raises(ParameterError, match="differ: theta = 0 is outside"):
            eikonal.s0_samples(GAUSS, 25.0, 1, [0.0])

    def test_diagonal_probe_validation(self, monkeypatch):
        # refused before any table
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        with pytest.raises(ParameterError):
            eikonal.diagonal_exponent_probe(TAIL1, 25.0, [0.5, 0.4, 0.3])

    def test_diagonal_probe_angles_in_any_order(self, monkeypatch):
        # the span is read from the extremes and the fit does not depend on
        # the order; samples |omega - omega'|^-2 fit the exponent -2
        def samples(model, lam, N, thetas):
            return [eikonal.S0Sample((2.0 * np.sin(th / 2)) ** -2.0, 0.0, True)
                    for th in thetas]

        monkeypatch.setattr(eikonal, "s0_samples", samples)
        angles = np.geomspace(0.5, 0.05, 6)
        fits = [eikonal.diagonal_exponent_probe(TAIL1, 25.0, order).fitted_exponent
                for order in (angles, angles[::-1], angles[[3, 0, 5, 1, 4, 2]])]
        assert fits == pytest.approx([-2.0] * 3, rel=1e-12)
        with pytest.raises(ParameterError, match="spanning a decade"):
            eikonal.diagonal_exponent_probe(TAIL1, 25.0, [0.1, 0.2, 0.3, 0.4, 0.5])


class TestS0Samples:
    """s0_samples, the one angle loop of the s0 experiment, C7 and the
    diagonal probe."""

    def test_every_pair_checked_before_tables(self, monkeypatch):
        monkeypatch.setattr(eikonal, "s0_solutions", _build_nothing)
        with pytest.raises(ParameterError, match="cap around omega0"):
            eikonal.s0_samples(GAUSS, 25.0, 1, [0.3, np.deg2rad(130.0)])

    def test_one_build_serves_every_angle(self, monkeypatch):
        builds = []
        solutions = eikonal.s0_solutions

        def counting(*args):
            builds.append(args)
            return solutions(*args)

        monkeypatch.setattr(eikonal, "s0_solutions", counting)
        thetas = np.deg2rad([10.0, 20.0])
        samples = eikonal.s0_samples(GAUSS, 25.0, 1, thetas)
        assert builds == [(GAUSS, 25.0, 1)]
        psi = _solutions(GAUSS, 25.0, 1)[0]
        assert psi.N == 1
        for th, sample in zip(thetas, samples):
            assert sample == eikonal.s0_kernel(psi, th)


def _full_plane_s0_quadrature(psi_plus: _PsiEvaluator, psi_minus: _PsiEvaluator,
                              omega, omega_prime, lam: float,
                              window: float, rule=None) -> complex:
    """The S0 quadrature over the plane z = 0 for any pair (omega, omega'):
    psi_+ and psi_- looked up at 3D points on the whole n x n tensor rule,
    with no fold over b -> -b, tapered at window; the rule defaults to
    _window_rule(window, sqrt(lam))."""
    sql = np.sqrt(lam)
    if rule is None:
        rule = _window_rule(window, sql)

    taper = _taper_profile(
        (np.abs(rule.nodes) - window * (1 - TAPER_FRACTION))
        / (window * TAPER_FRACTION))
    w = rule.weights * taper
    n = len(rule.nodes)
    pts = (rule.nodes[:, None, None] * EX[None, None, :]
           + rule.nodes[None, :, None] * EY[None, None, :]).reshape(-1, 3)
    pp, dpp = psi_plus(pts, omega, ZAXIS)
    pm, dpm = psi_minus(pts, omega_prime, ZAXIS)
    # subtract the free-field (v = 0) integrand: off the diagonal it
    # contributes nothing over the infinite plane, but its finite-window
    # taper leakage would otherwise swamp the scattering part
    zp = pts @ omega
    zm = pts @ omega_prime
    fp = np.exp(1j * sql * zp)
    fm = np.exp(1j * sql * zm)
    dfp = 1j * sql * float(omega @ ZAXIS) * fp
    dfm = 1j * sql * float(omega_prime @ ZAXIS) * fm
    integrand = (np.conj(pp) * dpm - np.conj(dpp) * pm
                 - (np.conj(fp) * dfm - np.conj(dfp) * fm)).reshape(n, n)
    total = w @ integrand @ w
    return S0_SIGN * 1j * np.pi * lam ** 0.5 * (2 * np.pi) ** -3 * total


def _window_rule(window, sql):
    """The Gauss rule of PLANE_NODES nodes per panel on the _plane_panels
    panels of [-window, window] alone, which _plane_rule nests."""
    edges = np.linspace(-window, window, eikonal._plane_panels(window, sql) + 1)
    return eikonal._PlaneRule(*composite_gauss(eikonal.PLANE_NODES, edges))


@functools.cache
def _solutions(model, lam, N):
    return eikonal.s0_solutions(model, lam, N)


def _pair(theta_deg, turn_deg=0.0):
    """(omega, omega') at angle theta in the (z, x) plane, unit vectors as
    _s0_quadrature rounds them, omega then turned by turn_deg about the z
    axis."""
    th = np.deg2rad(theta_deg)
    w = eikonal._unit(np.cos(th / 2) * ZAXIS + np.sin(th / 2) * EX)
    wp = eikonal._unit(np.cos(th / 2) * ZAXIS - np.sin(th / 2) * EX)
    c, s = np.cos(np.deg2rad(turn_deg)), np.sin(np.deg2rad(turn_deg))
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return turn @ w, wp


class _CountingPsi:
    """Counts the points of each amplitudes read."""

    def __init__(self, psi):
        self.psi = psi
        self.xi = psi.xi
        self.workspace = psi.workspace
        self.points = []

    def amplitudes(self, s, z, ds_dt, dz_dt, out):
        self.points.append(np.size(s))
        return self.psi.amplitudes(s, z, ds_dt, dz_dt, out)


def _both_full_plane(psi_plus, psi_minus, omega, omega_prime, lam, windows):
    """The full-plane oracles of _s0_quadrature's pair: the window's sum on
    _window_rule(window) and the enlarged window's on the nested rule."""
    window, reach = windows
    nested = _plane_rule(window, np.sqrt(lam), reach)
    args = (psi_plus, psi_minus, omega, omega_prime, lam)
    return (_full_plane_s0_quadrature(*args, window),
            _full_plane_s0_quadrature(*args, reach, nested))


class TestS0Fold:
    """The pair is summed over the b >= 0 half of the nested plane rule with
    doubled weights, in row blocks of the node mesh; the full-plane
    quadrature is the oracle of both windows' sums."""

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("theta", [10.0, 30.0])
    @pytest.mark.parametrize("lam", [25.0, 64.0])
    def test_gaussian_matches_full_plane(self, lam, theta, N):
        pp, pm = _solutions(GAUSS, lam, N)
        windows = eikonal._s0_windows(GAUSS, np.sqrt(lam))
        folded = eikonal._s0_quadrature(pp, np.deg2rad(theta), windows)
        full = _both_full_plane(pp, pm, *_pair(theta), lam, windows)
        for got, ref in zip(folded, full):
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_power_tail_matches_full_plane(self):
        lam = 25.0
        pp, pm = _solutions(TAIL1, lam, 1)
        folded = eikonal._s0_quadrature(pp, np.deg2rad(20.0), (30.0, 37.5))
        full = _both_full_plane(pp, pm, *_pair(20.0), lam, (30.0, 37.5))
        for got, ref in zip(folded, full):
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_folded_rule_halves_the_points(self):
        # totals over the row blocks' amplitudes reads, none larger than a
        # block
        lam = 25.0
        pp = _CountingPsi(_solutions(GAUSS, lam, 1)[0])
        n = len(_plane_rule(18.0, np.sqrt(lam), 22.5).nodes)
        eikonal._s0_quadrature(pp, np.deg2rad(20.0), (18.0, 22.5))
        assert max(pp.points) <= eikonal._PLANE_BLOCK
        assert sum(pp.points) == n * n // 2

    @pytest.mark.parametrize("theta", [20.0], ids=["coplanar"])
    def test_short_last_block_matches_full_plane(self, theta):
        # the 1/r tail keeps the integrand off zero out to the enlarged
        # window's edge, where the last block of rows lies
        lam, windows = 25.0, (18.0, 22.5)
        pp, pm = _solutions(TAIL1, lam, 1)
        n = len(_plane_rule(18.0, np.sqrt(lam), 22.5).nodes)
        rows = eikonal._PLANE_BLOCK // (n // 2)
        # several blocks of rows, the last one short and holding both the
        # window's last rows and the extension past it (296 rows in blocks
        # of 110, the last of 76; the window's rows end at 264)
        assert n > rows and 0.2 * n < n % rows
        blocked = eikonal._s0_quadrature(pp, np.deg2rad(theta), windows)
        full = _both_full_plane(pp, pm, *_pair(theta), lam, windows)
        for got, ref in zip(blocked, full):
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_samples_repeat_bit_for_bit(self):
        # the blocked sums must not depend on where the allocator puts the
        # block temporaries: a large array allocated and freed in between
        # moves glibc's mmap threshold and with it their addresses
        thetas = np.deg2rad([10.0, 30.0])
        first = eikonal.s0_samples(GAUSS, 25.0, 1, thetas)
        big = np.ones(2**21)
        big[::4096] = 2.0
        del big
        assert eikonal.s0_samples(GAUSS, 25.0, 1, thetas) == first

    @pytest.mark.parametrize("theta", [30.0], ids=["coplanar"])
    def test_peak_memory_is_a_few_blocks(self, theta):
        # at C7's lambda = 100: about 20 complex block arrays (5 MB), where
        # the whole-mesh form held 19 MB and grew with the mesh; doubling
        # the window makes 4x the mesh
        lam = 100.0
        pp = _solutions(GAUSS, lam, 3)[0]
        window, _ = eikonal._s0_windows(GAUSS, np.sqrt(lam))
        peaks = []
        for win in (window, 2.0 * window):
            tracemalloc.start()
            try:
                eikonal._s0_quadrature(pp, np.deg2rad(theta),
                                       (win, 1.25 * win))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 32 * 16 * eikonal._PLANE_BLOCK
        assert peaks[1] <= 1.05 * peaks[0]


def _long_double_s0_quadrature(psi, theta, windows):
    """_s0_quadrature's two sums with the integrand of the pair and of the
    free field formed point by point, as before the plane wave was factored
    out, in np.longdouble from the same plane values, geometry and rule."""
    ld, cld = np.longdouble, np.clongdouble
    sql = psi.xi
    window, reach = windows
    rule = _plane_rule(window, sql, reach)
    nodes = rule.nodes
    edge = np.searchsorted(nodes, -window)
    inner = slice(edge, len(nodes) - edge)

    def tapered(part, win):
        taper = _taper_profile((np.abs(nodes[part]) - win * (1 - TAPER_FRACTION))
                               / (win * TAPER_FRACTION))
        return (rule.weights[part] * taper).astype(ld)

    w, w_big = tapered(inner, window), tapered(slice(None), reach)
    half = len(nodes) // 2
    wb, wb_big = 2 * w[len(w) // 2:], 2 * w_big[half:]
    p, _, c = eikonal._unit([np.sin(theta / 2), 0.0, np.cos(theta / 2)])
    xi, cl = ld(sql), ld(c)
    sums = []
    for i in range(0, len(nodes), 64):
        s, z, ds_dt = eikonal._plane_geometry(nodes[i:i + 64], nodes[half:], p, c)
        planes = psi._planes(s, z, psi.workspace(np.size(z), np.size(s))).astype(ld)
        z, ds_dt = z.astype(ld), ds_dt.astype(ld)
        b = planes[0] + 1j * planes[1].astype(cld)
        db_dt = ((planes[2] + 1j * planes[3].astype(cld)) * ds_dt
                 + (planes[4] + 1j * planes[5].astype(cld)) * cl)
        arg, dphi_dt = xi * z, xi * cl
        if len(planes) > 6:
            arg = arg + planes[6]
            dphi_dt = dphi_dt + planes[7] * ds_dt + planes[8] * cl
        phase = np.exp(1j * arg.astype(cld))
        pp = phase * b
        dpp = phase * (1j * dphi_dt * b + db_dt)
        pm, dpm = np.conj(pp), -np.conj(dpp)
        fp, fm = np.exp(1j * (xi * z).astype(cld)), np.exp(-1j * (xi * z).astype(cld))
        dfp, dfm = 1j * xi * cl * fp, 1j * xi * cl * fm
        sums.append(np.conj(pp) * dpm - np.conj(dpp) * pm
                    - (np.conj(fp) * dfm - np.conj(dfp) * fm))
    integrand = np.concatenate(sums)
    m = len(wb)
    scale = S0_SIGN * 1j * np.pi * ld(sql) * (2 * np.pi) ** -3
    return (scale * (w @ (integrand[inner, :m] @ wb)),
            scale * (w_big @ (integrand @ wb_big)))


class TestS0LongDouble:
    """The amplitude-form integrand -2 exp(-2 i sql z) conj(A D - i sql c)
    subtracts no two O(1) terms at a node off the tables, where the pair's
    integrand and the free field's once cancelled point by point: at C7's
    setting both sums lie within 1e-12 of the point-by-point form taken in
    long double (4.5e-12 at 30 degrees with it in double)."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than double here")
    @pytest.mark.parametrize("theta", [30.0, 10.0])
    def test_c7_sums_within_1e12_of_long_double(self, theta):
        lam = 100.0
        psi = _solutions(GAUSS, lam, 3)[0]
        windows = eikonal._s0_windows(GAUSS, np.sqrt(lam))
        got = eikonal._s0_quadrature(psi, np.deg2rad(theta), windows)
        ref = _long_double_s0_quadrature(psi, np.deg2rad(theta), windows)
        for value, exact in zip(got, ref):
            assert abs(value - exact) <= 1e-12 * abs(exact)


# (window, lam): 46, 29, 96 and 6 window panels, of which 96 is C15's
NESTED_CASES = [(18.0, 64.0), (18.0, 25.0), (30.0, 100.0), (1.0, 25.0)]


class TestNestedPlaneRule:
    """_plane_rule(window, sql, reach): the window's own rule in the middle,
    nested in ceil(P / 8) panels on each side out to reach = 1.25 window,
    so that one pass over its nodes gives both of s0_kernel's sums."""

    @pytest.mark.parametrize("window,lam", NESTED_CASES)
    def test_inner_rule_is_the_windows(self, window, lam):
        sql = np.sqrt(lam)
        plain = _window_rule(window, sql)
        nested = _plane_rule(window, sql, 1.25 * window)
        panels = eikonal._plane_panels(window, sql)
        edge = eikonal.PLANE_NODES * -(-panels // 8)
        assert len(nested.nodes) == len(plain.nodes) + 2 * edge
        assert np.array_equal(nested.nodes[edge:-edge], plain.nodes)
        assert np.array_equal(nested.weights[edge:-edge], plain.weights)
        assert np.all(nested.nodes[:edge] < -window)
        assert np.all(nested.nodes[-edge:] > window)

    @pytest.mark.parametrize("window,lam", NESTED_CASES)
    def test_ends_at_reach_within_a_wavelength(self, window, lam):
        sql = np.sqrt(lam)
        reach = 1.25 * window
        nested = _plane_rule(window, sql, reach)
        # a panel's weights sum to its width, none wider than the window's
        # own panels, which are no wider than a wavelength
        widths = nested.weights.reshape(-1, eikonal.PLANE_NODES).sum(axis=1)
        own = 2 * window / eikonal._plane_panels(window, sql)
        assert own <= 2 * np.pi / sql
        assert np.max(widths) <= own * (1 + 1e-14)
        assert np.sum(widths) == pytest.approx(2 * reach, rel=1e-14)

    def test_one_lookup_per_node(self, monkeypatch):
        # one s0_kernel call reads the amplitudes at each node of the nested
        # half-mesh once: 464 x 232 = 107 648 points at lam = 64, where
        # separate rules of the window (368 nodes) and of its enlargement
        # (464) read 175 360; one read per row block, none larger than it
        lam = 64.0
        psi = _solutions(GAUSS, lam, 1)[0]
        window, reach = eikonal._s0_windows(GAUSS, np.sqrt(lam))
        n = len(_plane_rule(window, np.sqrt(lam), reach).nodes)
        points = []
        amplitudes = _PsiEvaluator.amplitudes

        def counting(self, s, z, ds_dt, dz_dt, out):
            points.append(np.size(s))
            return amplitudes(self, s, z, ds_dt, dz_dt, out)

        monkeypatch.setattr(_PsiEvaluator, "amplitudes", counting)
        eikonal.s0_kernel(psi, np.deg2rad(20.0))
        assert n == 464
        assert sum(points) == n * n // 2 == 107_648
        rows = eikonal._PLANE_BLOCK // (n // 2)
        assert len(points) == -(-n // rows)
        assert max(points) <= eikonal._PLANE_BLOCK

    def test_gaussian_sensitivity_is_the_windows_effect(self):
        # C7's samples: past |x| of about 14 the Gaussian's integrand is
        # exactly 0 (b = 1 off the tables, or b_n underflowed to 0), so on
        # shared nodes the enlarged window adds nothing
        psi = _solutions(GAUSS, 100.0, 3)[0]
        for theta in np.deg2rad([10.0, 20.0, 30.0]):
            sample = eikonal.s0_kernel(psi, theta)
            assert sample.sensitivity == 0.0 and sample.converged

    def test_c15_sensitivity_is_the_two_rule_value(self):
        # at C15's lam = 100 the power tail's window 30 has 96 panels, a
        # multiple of 8, so the nested rule is the enlarged window's own
        # rule bit for bit, and the sensitivity at theta = 0.5 is the one
        # that separate rules for the two windows give: the window's sum on
        # its own rule and the enlarged window's sum on its own rule
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.75)
        sql = 10.0
        window, reach = eikonal._s0_windows(model, sql)
        nested = _plane_rule(window, sql, reach)
        enlarged = _window_rule(reach, sql)
        assert np.array_equal(nested.nodes, enlarged.nodes)
        assert np.array_equal(nested.weights, enlarged.weights)
        psi = _solutions(model, 100.0, 1)[0]
        own, _ = eikonal._s0_quadrature(psi, 0.5, (window, reach))
        big, _ = eikonal._s0_quadrature(psi, 0.5, (reach, 1.25 * reach))
        sample = eikonal.s0_kernel(psi, 0.5)
        assert sample.sensitivity == abs(big - own) / abs(own)
        # a regression value of the tables, with the Laplacian's axis row
        # the even fit through rows 1 and 2 (_cyl.laplacian)
        assert sample.sensitivity == pytest.approx(1.277942293603464,
                                                   rel=0.0, abs=1e-12)


TAIL09 = PotentialModel(kind="power_tail", v0=0.5, rho=0.9)


class TestPlaneGeometry:
    """The S0 quadrature's (a, b) mesh geometry against the 3D form that
    _PsiEvaluator.__call__ takes: cyl_coords and perp . dir_perp / s."""

    def test_mesh_matches_3d_points(self):
        # omega = (+-sin(theta/2), 0, cos(theta/2)), the two directions of
        # the pair, over the plane z = 0: s and z within 8 ulp of |x|,
        # ds/dt (|ds/dt| <= sqrt(3) in the cap) within 16 ulp
        rng = np.random.default_rng(25)
        eps = np.finfo(float).eps
        for trial in range(40):
            th = rng.uniform(0.01, CAP_LIMIT)
            p = (-1) ** trial * np.sin(th / 2)
            c = np.cos(th / 2)
            omega = np.array([p, 0.0, c])
            a = rng.uniform(-40.0, 40.0, 16)
            b = rng.uniform(-40.0, 40.0, 11)
            s, z, ds_dt = eikonal._plane_geometry(a, b, p, c)
            pts = (a[:, None, None] * EX + b[None, :, None] * EY).reshape(-1, 3)
            s3, z3 = _cyl.cyl_coords(pts, omega)
            perp = pts - np.outer(z3, omega)
            ds3 = (perp @ (ZAXIS - c * omega)) / s3
            r = np.hypot(a[:, None], b[None, :]).ravel()
            z = np.broadcast_to(z, s.shape).ravel()
            assert np.all(np.abs(s.ravel() - s3) <= 8 * eps * r)
            assert np.all(np.abs(z - z3) <= 8 * eps * r)
            assert np.all(np.abs(ds_dt.ravel() - ds3) <= 16 * eps)

    def test_reversed_lookup_is_its_call(self):
        # psi_-(x; omega) = conj psi_+(x; -omega): bit for bit between the
        # twin's __call__ and psi_+'s, and against the stacked amplitudes
        # read at (s, -z) with both rates of -omega within their rounding
        pp, pm = _solutions(GAUSS, 25.0, 1)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-15.0, 15.0, size=(300, 3))
        omega, _ = _pair(20.0, turn_deg=30.0)
        s, z = _cyl.cyl_coords(pts, omega)
        dz_dt = float(omega @ ZAXIS)
        ds_dt = ((pts - np.outer(z, omega)) @ (ZAXIS - dz_dt * omega)) / s
        wave = np.exp(1j * (pp.xi * -z))
        outgoing = pp.amplitudes(s, -z, ds_dt, -dz_dt, pp.workspace(len(z), len(s)))
        called = pm(pts, omega, ZAXIS)
        reversed_call = pp(pts, -omega, ZAXIS)
        for o, c, r in zip(outgoing, called, reversed_call):
            assert np.array_equal(c, np.conj(r))
            assert np.max(np.abs(np.conj(wave * o) - c)) <= 1e-13 * np.max(np.abs(c))


class TestStackedLookup:
    """amplitudes reads one stack of planes with one cell search per axis;
    __call__, on nine scipy RegularGridInterpolators of the same tables,
    times exp(i xi z) is its oracle."""

    @staticmethod
    def _probe_points(grid, rng):
        """(s, z) off the grid on every side, on nodes and on node lines,
        on s = s_max and z = +-z_max, one ulp past each of them, and random
        inside."""
        s_max, z_max = grid.s[-1], grid.z[-1]
        s = rng.uniform(0.0, s_max + 5.0, 600)
        z = rng.uniform(-z_max - 5.0, z_max + 5.0, 600)
        s[:60] = grid.s[rng.integers(0, len(grid.s), 60)]
        z[:60] = grid.z[rng.integers(0, len(grid.z), 60)]
        s[60:80] = s_max
        z[80:100] = z_max
        z[100:120] = -z_max
        s[120:130] = np.nextafter(s_max, np.inf)
        z[130:140] = np.nextafter(z_max, np.inf)
        z[140:150] = np.nextafter(-z_max, -np.inf)
        s[150:160], z[150:160] = s_max, z_max
        s[160:170] = 0.0
        s[170:230] = grid.s[rng.integers(0, len(grid.s), 60)]
        z[230:290] = grid.z[rng.integers(0, len(grid.z), 60)]
        return s, z

    @pytest.mark.parametrize("model", [GAUSS, TAIL09], ids=["N0=0", "N0=2"])
    def test_matches_scipy(self, model):
        psi = _solutions(model, 25.0, 1)[0]
        grid = psi.eikonal.grid
        assert len(psi._stack) == (6 if psi.eikonal.N0 == 0 else 9)
        s, z = self._probe_points(grid, np.random.default_rng(33))
        # the points (s, 0, z) about e_z, moving along d, with the rates
        # __call__ forms
        pts = np.column_stack([s, np.zeros_like(s), z])
        d = eikonal._unit([0.6, 0.3, 0.8])
        s3, z3 = _cyl.cyl_coords(pts, ZAXIS)
        assert np.array_equal(s3, s) and np.array_equal(z3, z)
        dz_dt = float(d @ ZAXIS)
        ds_dt = np.where(s > 1e-12, s * d[0] / np.where(s > 1e-12, s, 1.0), 0.0)
        wave = np.exp(1j * (psi.xi * z))
        got = [wave * f for f in psi.amplitudes(s, z, ds_dt, dz_dt,
                                                psi.workspace(len(z), len(s)))]
        ref = psi(pts, ZAXIS, d)
        # each axis blends f0 (1 - t) + f1 t as scipy does, so the two agree
        # bit for bit on the node lines; elsewhere they round differently,
        # and at lam = 25 the phase xi z + Phi rounds at ulp(5 z_max) =
        # 5.7e-14, so a Phi one bit off scipy's stays inside
        on_line = np.isin(s, grid.s) | np.isin(z, grid.z)
        assert on_line.sum() >= 250
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
            assert np.array_equal(g[on_line], r[on_line])
        # outside the grid b = 1 and Phi = 0
        outside = (s > grid.s[-1]) | (np.abs(z) > grid.z[-1])
        assert 60 < outside.sum() < len(s) - 60
        free = np.exp(1j * (psi.xi * z[outside]))
        assert np.array_equal(got[0][outside], free)
        assert np.array_equal(ref[0][outside], free)

    def test_row_z_equals_point_z(self):
        # z given once per row reads what z given at every point reads
        psi = _solutions(TAIL09, 25.0, 1)[0]
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 45.0, (7, 50))
        z = rng.uniform(-65.0, 65.0, (7, 1))
        ds_dt = rng.uniform(-1.0, 1.0, (7, 50))
        rows = psi.amplitudes(s, z, ds_dt, 0.8, psi.workspace(z.size, s.size))
        points = psi.amplitudes(s, np.broadcast_to(z, s.shape).copy(), ds_dt,
                                0.8, psi.workspace(s.size, s.size))
        for r, p in zip(rows, points):
            assert np.array_equal(r, p)

    def test_s0_runs_without_scipy_interpolator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the S0 path built a RegularGridInterpolator")

        monkeypatch.setattr(_cyl, "RegularGridInterpolator", refuse)
        theta = np.deg2rad(20.0)
        [sample] = eikonal.s0_samples(GAUSS, 25.0, 1, [theta])
        assert sample == eikonal.s0_kernel(_solutions(GAUSS, 25.0, 1)[0], theta)


class TestS0Tables:
    """s0_solutions builds b_0..b_N only, from the recursion itself."""

    @pytest.mark.parametrize("model,lam,N", [(GAUSS, 64.0, 3),
                                             (TAIL09, 100.0, 1)])
    def test_tables_equal_transport_series(self, model, lam, N, monkeypatch):
        data = eikonal.eikonal_iterate(model, np.sqrt(lam))
        ref = _amplitudes(data, N)
        built = []
        derivatives = []
        init = _PsiEvaluator.__init__

        def spy(self, eik, b_n):
            built.append((b_n, len(derivatives)))
            init(self, eik, b_n)

        def refuse(*args, **kwargs):
            raise AssertionError("s0_solutions ran the residual series")

        def counting(derivative):
            def count(f, *args, **kwargs):
                derivatives.append(f.dtype)
                return derivative(f, *args, **kwargs)
            return count

        monkeypatch.setattr(_PsiEvaluator, "__init__", spy)
        monkeypatch.setattr(eikonal, "residual_norms", refuse)
        monkeypatch.setattr(eikonal, "eikonal_iterate", lambda *a, **k: data)
        monkeypatch.setattr(_cyl, "d_ds", counting(_cyl.d_ds))
        monkeypatch.setattr(_cyl, "d_dz", counting(_cyl.d_dz))
        pp, pm = eikonal.s0_solutions(model, lam, N)
        [(b_n, before_evaluator)] = built
        assert pp.N == pm.N == N and len(b_n) == N + 1
        # the sources f_1..f_{N-1} take four derivative calls each (d_ds and
        # d_dz of b_n and of its Laplacian's second derivatives), on
        # b_n whole: real where Phi = 0 (N0 = 0), complex otherwise; f_N,
        # the source past b_N, is never formed
        dtype = np.dtype(float if data.N0 == 0 else complex)
        assert derivatives[:before_evaluator] == [dtype] * 4 * (N - 1)
        for got, want in zip(b_n, ref):
            assert np.array_equal(got, want)


class TestS0Preflight:
    """s0_solutions refuses, before any table is built, a lambda whose plane
    panels are wider than the tables' s extent or whose plane node mesh
    exceeds MAX_PLANE_POINTS; the lambdas that C7, C15 and the benchmark
    use pass.  The CLI tests cover lam = 1e-300."""

    @pytest.mark.parametrize("N", [0, 3])
    def test_panel_threshold(self, monkeypatch, N):
        # the Gaussian's tables reach s = 20; below lam = 11.1 the window is
        # 60 / sqrt(lam), with 20 panels, and the nested rule adds 3 panels
        # of 5 / sqrt(lam) on each side, so the widest panel is the
        # window's 6 / sqrt(lam): 20 at lam = 0.09
        threshold = (6.0 / 20.0) ** 2
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        with pytest.raises(ParameterError, match="exceed the tables' s extent 20"):
            eikonal.s0_solutions(GAUSS, threshold * (1.0 - 1e-9), N)
        with pytest.raises(_TablesBuilt):
            eikonal.s0_solutions(GAUSS, threshold * (1.0 + 1e-9), N)

    def test_plane_mesh_threshold(self, monkeypatch):
        # above lam = 11.1 the Gaussian's window is 18, with P =
        # ceil(36 sqrt(lam) / 2 pi) panels, and the nested rule has P +
        # 2 ceil(P / 8) panels of 8 nodes: P = 204 makes 256 panels and
        # 2048^2 = MAX_PLANE_POINTS nodes, and P = 205 makes 2056^2
        threshold = (204 * 2 * np.pi / 36) ** 2
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        with pytest.raises(_TablesBuilt):
            eikonal.s0_solutions(GAUSS, threshold * (1.0 - 1e-9), 3)
        with pytest.raises(ParameterError, match="S0 plane mesh of 4.227e\\+06 "
                           "points at lambda = 1267.7 exceeds MAX_PLANE_POINTS"):
            eikonal.s0_solutions(GAUSS, threshold * (1.0 + 1e-9), 3)

    def test_mesh_counted_on_the_nested_rule(self, monkeypatch):
        # a window of 6 panels (the minimum) is nested in 8: 64^2 = 4096
        # nodes, where a 6-panel enlarged window alone would be 48^2
        sql = 5.0
        window = 0.5 * 2 * np.pi / sql
        assert eikonal._plane_panels(window, sql) == 6
        assert eikonal._plane_panels(1.25 * window, sql) == 6
        assert len(_plane_rule(window, sql, 1.25 * window).nodes) ** 2 == 4096
        monkeypatch.setattr(eikonal, "_s0_windows",
                            lambda model, sql: (window, 1.25 * window))
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        monkeypatch.setattr(eikonal, "MAX_PLANE_POINTS", 4096)
        with pytest.raises(_TablesBuilt):
            eikonal.s0_solutions(GAUSS, sql**2, 1)
        monkeypatch.setattr(eikonal, "MAX_PLANE_POINTS", 4095)
        with pytest.raises(ParameterError, match="S0 plane mesh of 4096 points "
                           "at lambda = 25 exceeds MAX_PLANE_POINTS = 4095"):
            eikonal.s0_solutions(GAUSS, sql**2, 1)

    @pytest.mark.parametrize("width,lam,message", [
        (1e150, 100.0, "S0 plane mesh of 3.283e\\+305 points"),
        (1e300, 100.0, "S0 plane mesh of inf points"),
        (1e306, 1e300, "S0 plane mesh of inf points"),
        (5e306, 100.0, "z span 3 L overflows"), (1e308, 100.0, "z span 3 L overflows")])
    def test_wide_window_refused_before_its_panels(self, monkeypatch, width, lam, message):
        # 3 effective_range is 1.8e151 up to inf.  The mesh is counted in
        # floats: an integer count past the float range failed to print, and
        # a window of too many wavelengths gave an infinite panel count, no
        # integer; both read inf points now.  Past a width of 3.4e306 the
        # tables' z span overflows first
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=width)
        with pytest.raises(ParameterError, match=message):
            eikonal.s0_solutions(model, lam, 3)

    @pytest.mark.parametrize("lam", [1e6, 1e30, 1e300])
    def test_large_lambda_refused_before_tables(self, monkeypatch, lam):
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        with pytest.raises(ParameterError, match="exceeds MAX_PLANE_POINTS"):
            eikonal.s0_solutions(GAUSS, lam, 3)

    @pytest.mark.parametrize("model,lam", [
        (GAUSS, 60.0), (GAUSS, 68.0), (GAUSS, 100.0),
        (PotentialModel(kind="power_tail", v0=0.5, rho=0.75), 100.0),
        (TAIL1, 100.0)])
    def test_acceptance_and_benchmark_lambdas_admitted(self, monkeypatch,
                                                       model, lam):
        monkeypatch.setattr(eikonal, "eikonal_iterate", _build_nothing)
        with pytest.raises(_TablesBuilt):
            eikonal.s0_solutions(model, lam, 3)


def _two_table_pair(model, lam, N):
    """(psi_plus, psi_minus) with psi_minus built from its own sign -1
    tables: the oracle of the time-reversed incoming evaluator."""
    sql = np.sqrt(lam)
    psi_plus = _solutions(model, lam, N)[0]
    incoming = eikonal.eikonal_iterate(model, sql, sign=-1)
    return psi_plus, _PsiEvaluator(incoming, _amplitudes(incoming, N))


class TestTimeReversal:
    """psi_-(x; omega) = conj psi_+(x; -omega) for a real radial potential,
    with the sign -1 tables as the oracle."""

    @pytest.mark.parametrize("model,lam", [(GAUSS, 25.0), (GAUSS, 64.0),
                                           (TAIL09, 100.0), (TAIL1, 100.0)])
    def test_incoming_tables_mirror_outgoing(self, model, lam):
        # Phi_-(s, z) = -Phi_+(s, -z), b_-,n(s, z) = (-1)^n conj b_+,n(s, -z)
        sql = np.sqrt(lam)
        plus = eikonal.eikonal_iterate(model, sql, sign=+1)
        minus = eikonal.eikonal_iterate(model, sql, sign=-1)
        assert np.array_equal(plus.grid.z, -plus.grid.z[::-1])
        assert np.array_equal(minus.Phi, -plus.Phi[:, ::-1])
        b_plus = _amplitudes(plus, 3)
        b_minus = _amplitudes(minus, 3)
        for n, (bp, bm) in enumerate(zip(b_plus, b_minus)):
            mirror = (-1) ** n * np.conj(bp[:, ::-1])
            np.testing.assert_allclose(bm, mirror, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(bp)))

    @pytest.mark.parametrize("model,lam,N", [(GAUSS, 64.0, 3),
                                             (TAIL09, 25.0, 1)])
    def test_quadrature_matches_two_tables(self, model, lam, N):
        # the folded sum reads psi_- off psi_+; the whole-plane sum of the
        # pair and of its swap, with psi_- from its own tables, is the oracle
        reversed_pair = _solutions(model, lam, N)
        two_tables = _two_table_pair(model, lam, N)
        assert reversed_pair[1].reverses is reversed_pair[0]
        assert two_tables[1].reverses is None
        w, wp = _pair(20.0)
        windows = eikonal._s0_windows(model, np.sqrt(lam))
        got = eikonal._s0_quadrature(reversed_pair[0], np.deg2rad(20.0), windows)
        for omega, omega_prime in ((w, wp), (wp, w)):
            refs = _both_full_plane(*two_tables, omega, omega_prime, lam,
                                    windows)
            for value, ref, win in zip(got, refs, windows):
                assert abs(value - ref) <= 1e-10 * abs(ref), (omega, win)

    def test_symmetric_pair_evaluates_psi_plus_once(self):
        # one psi_+ amplitudes read per row block, from which the pair's
        # integrand is formed
        lam = 25.0
        pp = _CountingPsi(_solutions(GAUSS, lam, 1)[0])
        n = len(_plane_rule(18.0, np.sqrt(lam), 22.5).nodes)
        rows = eikonal._PLANE_BLOCK // (n // 2)
        eikonal._s0_quadrature(pp, np.deg2rad(20.0), (18.0, 22.5))
        assert len(pp.points) == -(-n // rows)

    def test_one_table_set(self, monkeypatch):
        built = []
        iterate = eikonal.eikonal_iterate

        def counting(*args, **kwargs):
            built.append(kwargs.get("sign", +1))
            return iterate(*args, **kwargs)

        monkeypatch.setattr(eikonal, "eikonal_iterate", counting)
        pp, pm = eikonal.s0_solutions(GAUSS, 25.0, 1)
        assert built == [+1]
        assert pp.eikonal.sign == +1 and pm.reverses is pp
        assert pm._stack is pp._stack
        assert pm.time_reversed() is pp


class TestTransportSeries:
    @pytest.mark.parametrize("model,N", [(GAUSS, 2), (TAIL09, 3)])
    def test_each_order_equals_its_own_solve(self, model, N):
        # order n of one march is bit for bit the last order of a series
        # that stops at n
        data = eikonal.eikonal_iterate(model, 5.0)
        norms = eikonal.residual_norms(data, N)
        b_n = _amplitudes(data, N)
        assert len(norms) == len(b_n) == N + 1
        for n in range(N + 1):
            assert norms[n] == eikonal.residual_norms(data, n)[-1]
            for got, want in zip(b_n[:n + 1], _amplitudes(data, n)):
                assert np.array_equal(got, want)


def transport_series_loop(model, data, N):
    """(b_n, residual norm) per order from the source closure and march
    that the residual series ran before it took its orders from
    born.transport_orders, kept as a bit-for-bit oracle; -Lap b is formed
    from complex b whole, as the recursion forms it."""
    grid = data.grid
    xi = data.xi_norm
    march = _cyl.march_down if data.sign > 0 else _cyl.march_up

    def source(bn):
        bs, bz = _cyl.d_ds(bn, grid), _cyl.d_dz(bn, grid, np.empty_like(bn))
        return (-_cyl.laplacian(bs, bz, grid)
                - 2j * (data.Phi_s * bs + data.Phi_z * bz)
                - 1j * data.lap_Phi * bn
                + data.q * bn)

    ss, zz = np.meshgrid(grid.s, grid.z, indexing="ij")
    phase = np.exp(1j * (xi * zz + data.Phi))
    mask = data.off_cone()
    mask[:3, :] = False
    mask[-3:, :] = False
    mask[:, :3] = False
    mask[:, -3:] = False
    weight = 2.0 * np.pi * np.maximum(ss, grid.ds / 4.0)
    b = [np.ones(ss.shape, dtype=complex)]
    norms = []
    for n in range(N + 1):
        f = source(b[n])
        residual = phase * ((2j * xi) ** -n * f)
        norm2 = np.sum(np.abs(residual[mask]) ** 2 * weight[mask]) * grid.ds * grid.dz
        norms.append(float(np.sqrt(norm2)))
        if n < N:
            b.append(march(f, grid, np.zeros(len(grid.s))))
    return b, norms


BUMP = PotentialModel(kind="compact_bump", v0=-2.0, width=2.0)


class TestTransportOrders:
    """residual_norms and the amplitudes on the shared recursion
    born.transport_orders."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("lam", [25.0, 100.0])
    @pytest.mark.parametrize("model", [GAUSS, BUMP, TAIL2, TAIL09],
                             ids=["gaussian_well", "compact_bump", "rho2", "rho0.9"])
    def test_matches_source_closure(self, model, lam, sign):
        # the closed-form source of b_0, q - i Lap Phi, is what the closure
        # formed from -Lap 1 and grad 1, exactly 0 on these grids.  The
        # closure multiplies by the phase exp(i(xi z + Phi)), whose modulus
        # is 1 up to rounding, where residual_norms leaves it out: the
        # residual norms agree to rounding, not bit for bit
        data = eikonal.eikonal_iterate(model, np.sqrt(lam), sign=sign)
        b, norms = transport_series_loop(model, data, 3)
        got = eikonal.residual_norms(data, 3)
        np.testing.assert_allclose(got, norms, rtol=1e-15, atol=0.0)
        for n, bn in enumerate(_amplitudes(data, 3)):
            assert np.array_equal(bn, b[n]), n

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("lam", [25.0, 100.0])
    @pytest.mark.parametrize("model", [GAUSS, BUMP, TAIL2],
                             ids=["gaussian_well", "compact_bump", "rho2"])
    def test_real_path_equals_zero_phase_held_complex(self, model, lam, sign,
                                                      monkeypatch):
        # N0 = 0: _recursion passes phi = None, and its float64 b_n and the
        # residual norms are those of the complex recursion on Phi = 0
        data = eikonal.eikonal_iterate(model, np.sqrt(lam), sign=sign)
        assert data.N0 == 0
        real = eikonal.residual_norms(data, 3), _amplitudes(data, 3)
        orders = eikonal.transport_orders
        zero = np.zeros(data.q.shape, dtype=complex)

        def zero_phase_held_complex(*args):
            assert args[-1] is None
            return orders(*args[:-1], (zero, zero, zero))

        monkeypatch.setattr(eikonal, "transport_orders", zero_phase_held_complex)
        held = eikonal.residual_norms(data, 3), _amplitudes(data, 3)
        assert real[0] == held[0]
        for got, want in zip(real[1], held[1]):
            assert got.dtype == np.dtype(float) and want.dtype == np.dtype(complex)
            assert np.array_equal(got, want.real)
            assert not np.any(want.imag)

    def test_phase_keeps_the_complex_recursion(self):
        # rho = 0.9 takes N0 = 2: Phi != 0, so the tables recurse complex
        data = eikonal.eikonal_iterate(TAIL09, 10.0)
        assert data.N0 == 2 and np.any(data.Phi)
        b_n = _amplitudes(data, 2)
        assert [b.dtype for b in b_n] == [np.dtype(complex)] * 3
        assert np.any(b_n[1].imag)
