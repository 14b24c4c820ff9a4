import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.special import erfc

from scatterlab import _cyl, born, eikonal
from scatterlab.numerics import DomainError, NumericalError, ParameterError, composite_gauss
from scatterlab.potentials import PotentialModel, line_integral

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
TAIL2 = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
BUMP = PotentialModel(kind="compact_bump", v0=-2.0, width=2.0)
YUKAWA = PotentialModel(kind="yukawa", v0=0.5, width=0.3)


def _plane_basis(axis):
    """Orthonormal e2, e3 spanning the plane orthogonal to the unit vector
    axis, e2 from the x axis (the y axis when axis is near x)."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ axis) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e2 = ref - (ref @ axis) * axis
    e2 = e2 / np.linalg.norm(e2)
    return e2, np.cross(axis, e2)


def kernel_slice_loop(model, lam, omega, omega_prime, N, grid=None):
    """The 3-D cube rule that the (s, z) kernel replaced, kept as an
    independent oracle: Gauss panels along e1 = delta/|delta| times a
    tensor rule over the (e2, e3) plane, one u1 slice at a time, with one
    RegularGridInterpolator per b_n table.  Returns k_0 .. k_N."""
    omega = np.asarray(omega, dtype=float)
    omega_prime = np.asarray(omega_prime, dtype=float)
    omega = omega / np.linalg.norm(omega)
    omega_prime = omega_prime / np.linalg.norm(omega_prime)
    R = born._support_radius(model)
    sql = np.sqrt(lam)
    delta = omega_prime - omega
    kappa = sql * np.linalg.norm(delta)

    # orthonormal frame with e1 along the oscillation direction
    e1 = delta / np.linalg.norm(delta)
    e2, e3 = _plane_basis(e1)

    n1 = max(96, int(np.ceil(2 * R * kappa / (2 * np.pi)) * 10))
    nt = max(96, int(np.ceil(8 * R)))
    nodes1, weights1 = composite_gauss(12, np.linspace(-R, R, max(2, n1 // 12 + 1)))
    ut, wt = composite_gauss(12, np.linspace(-R, R, max(2, nt // 12 + 1)))

    expansion_grid = grid or born._default_cyl_grid(model)
    tables = born._bn_tables(model, N, expansion_grid)
    interps = [None] + [_cyl.interpolator(expansion_grid, t) for t in tables[1:]]

    integrals = np.zeros(N + 1, dtype=complex)
    Y2, Y3 = np.meshgrid(ut, ut, indexing="ij")
    W23 = np.outer(wt, wt)
    for u1, w1 in zip(nodes1, weights1):
        x = (u1 * e1)[None, None, :] + Y2[..., None] * e2 + Y3[..., None] * e3
        r = np.sqrt(np.sum(x * x, axis=-1))
        v = model.radial_values(r)
        phase = np.exp(1j * sql * u1 * np.linalg.norm(delta))  # x.delta = u1 |delta|
        base = w1 * phase * (W23 * v)
        integrals[0] += np.sum(base)
        if N >= 1:
            z = x @ omega_prime
            s = np.sqrt(np.maximum(r * r - z * z, 0.0))
            pts = np.column_stack([s.ravel(), z.ravel()])
            for n in range(1, N + 1):
                bn = interps[n](pts).reshape(s.shape)
                integrals[n] += np.sum(base * bn)

    orders = (2j * sql) ** (-np.arange(N + 1))
    # k_0 .. k_N: every truncation shares the integrals
    return -1j * np.pi * (2 * np.pi) ** -3 * sql * np.cumsum(orders * integrals)


class TestFirstBorn:
    @pytest.mark.parametrize("g,mu,k,theta", [(0.1, 1.0, 2.0, np.pi / 2),
                                              (0.5, 2.0, 1.0, np.pi / 3),
                                              (-0.3, 0.5, 3.0, 2.0)])
    def test_yukawa_closed_form(self, g, mu, k, theta):
        model = PotentialModel(kind="yukawa", v0=g, width=1.0 / mu)
        q2 = (2 * k * np.sin(theta / 2)) ** 2
        assert born.born_first_amplitude(model, k, theta) == pytest.approx(
            -g / (q2 + mu * mu), rel=1e-8)

    def test_gaussian_closed_form(self):
        # f1(q) = -(v0 sqrt(pi)^3 / 4 pi) e^{-q^2/4} for v = v0 e^{-r^2}
        v0, k, theta = -1.0, 2.0, np.pi / 2
        q = 2 * k * np.sin(theta / 2)
        expect = -(v0 * np.pi**1.5 / (4 * np.pi)) * np.exp(-q * q / 4)
        assert born.born_first_amplitude(GAUSS, k, theta) == pytest.approx(
            expect, rel=1e-8)

    def test_forward_limit(self):
        # q -> 0: -(4 pi)^-1 int v = -v0 sqrt(pi)/4 for the unit gaussian
        val = born.born_first_amplitude(GAUSS, 1.0, 0.0)
        assert val == pytest.approx(-(-1.0) * np.sqrt(np.pi) / 4, rel=1e-8)

    @pytest.mark.parametrize("g,width", [(0.1, 1.0), (-1.0, 0.5), (0.5, 0.3)])
    def test_yukawa_forward_closed_form(self, g, width):
        # -(4 pi)^-1 int v = -g width^2 for v = g e^{-r/width} / r
        model = PotentialModel(kind="yukawa", v0=g, width=width)
        val = born.born_first_amplitude(model, 1.0, 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(-g * width**2, rel=2e-15)

    @pytest.mark.parametrize("kind,theta", [
        *[("gaussian_well", theta) for theta in (1e-11, 1e-8, 1e-6)],
        *[("yukawa", theta) for theta in (1e-11, 1e-8, 1e-6, 1e-4)]])
    def test_small_angle_closed_form(self, kind, theta):
        # k = 1, unit v0 and width: -sqrt(pi)/4 e^{-q^2/4} for the Gaussian
        # and -1/(1 + q^2) for yukawa.  The radial form's tail bound grows
        # like 1/q and refused these angles
        model = PotentialModel(kind=kind, v0=1.0, width=1.0)
        q = 2.0 * np.sin(theta / 2.0)
        expect = (-np.sqrt(np.pi) / 4.0 * np.exp(-q * q / 4.0) if kind == "gaussian_well"
                  else -1.0 / (1.0 + q * q))
        val = born.born_first_amplitude(model, 1.0, theta)
        assert val.imag == 0.0
        assert val.real == pytest.approx(expect, rel=1e-14)

    def test_yukawa_radial_form_small_q(self):
        # q = 0.05 against -1/(1 + q^2), on the radial form (q
        # effective_range = 2): its rule ends where |v| < 1e-18 |v0|, where
        # ending at |v| < 1e-13 left 9.0e-12
        model = PotentialModel(kind="yukawa", v0=1.0, width=1.0)
        q = 0.05
        assert q * model.effective_range > 1.0
        val = born.born_first_amplitude(model, 0.5 * q, np.pi)
        expect = -1.0 / (1.0 + q * q)
        assert abs(val.real - expect) <= 1e-13 * abs(expect)

    def test_compact_bump_radial_form(self):
        # q = 1.5 against mpmath at 30 digits: at least 64 panels on the
        # bump's support, where 8 panels left 2.1e-10
        mpmath = pytest.importorskip("mpmath")
        model = PotentialModel(kind="compact_bump", v0=1.0, width=1.0)
        q = 1.5
        assert q * model.effective_range > 1.0
        with mpmath.workdps(30):
            moment = mpmath.quad(lambda r: r * mpmath.exp(1 - 1 / (1 - r * r))
                                 * mpmath.sin(q * r), mpmath.linspace(0, 1, 9))
            expect = float(-moment / q)
        val = born.born_first_amplitude(model, 0.5 * q, np.pi)
        assert abs(val.real - expect) <= 1e-13 * abs(expect)

    @pytest.mark.parametrize("v0,width", [(-1.0, 1.0), (-2.0, 2.0), (0.5, 0.7)])
    def test_compact_bump_forward_closed_form(self, v0, width):
        # -int r^2 v dr = -v0 width^3 int_0^1 u^2 e^{1 - 1/(1 - u^2)} du
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            moment = mpmath.quad(lambda u: u * u * mpmath.exp(1 - 1 / (1 - u * u)), [0, 1])
            expect = float(-v0 * mpmath.mpf(width) ** 3 * moment)
        model = PotentialModel(kind="compact_bump", v0=v0, width=width)
        val = born.born_first_amplitude(model, 1.0, 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(expect, rel=2e-15)

    @pytest.mark.parametrize("rho,theta,expect", [
        (1.5, np.pi / 2, -0.0128822561866151),
        (2.5, np.pi / 2, -0.0191871262104199),
        (3.5, np.pi / 2, -0.022503157304408),
        (3.5, 0.0, -0.87401918476404)])
    def test_power_tail_closed_form(self, rho, theta, expect):
        # v0 = 0.5, k = 2: -(1/q) int r v sin(qr) dr by mpmath's quadosc,
        # and forward -int r^2 v dr.  The radial quadrature cut at r = 2000
        # refused theta = pi/2 at rho 2.5 and 3.5 and read 4% low forward
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        val = born.born_first_amplitude(model, 2.0, theta)
        assert val.imag == 0.0 and abs(val.real - expect) <= 1e-12

    @pytest.mark.parametrize("rho", [42.9, 43.0, 100.0, 400.0, 1e4])
    @pytest.mark.parametrize("q", [0.0, 1e-6, 1.0, 30.0, 300.0])
    def test_power_tail_large_order(self, rho, q):
        # either side of nu = (rho - 3)/2 = 20, where the form turns from kve
        # to the saddle integral; Gamma(rho/2) overflows past rho = 343 and
        # kve (rho = 400, q = 1) too.  Against mpmath at 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            r, nu = mpmath.mpf(rho), (mpmath.mpf(rho) - 3) / 2
            if q == 0.0:
                ref = -mpmath.beta(1.5, nu) / 2
            else:
                ref = (-mpmath.sqrt(2 * mpmath.pi) * mpmath.power(2, -r / 2)
                       / mpmath.gamma(r / 2) * mpmath.power(q, nu) * mpmath.besselk(nu, q))
            ref = float(ref)
        model = PotentialModel(kind="power_tail", v0=1.0, rho=rho)
        k, theta = (1.0, 0.0) if q == 0.0 else (0.5 * q, np.pi)
        val = born.born_first_amplitude(model, k, theta).real
        assert val == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_power_tail_divergent_refused_before_any_quadrature(self, monkeypatch, rho):
        def no_rule(*args):
            raise AssertionError("built a quadrature rule for a refused tail")

        monkeypatch.setattr(born, "composite_gauss", no_rule)
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        with pytest.raises(DomainError,
                           match=f"needs rho > 1; this power_tail has rho = {rho:g}"):
            born.born_first_amplitude(model, 2.0, np.pi / 2)

    @pytest.mark.parametrize("q", [2.5e3, 1e10, 1e300])
    def test_power_tail_far_momentum_is_zero(self, q):
        # below 1e-320 for any finite v0; kve itself is NaN past q = 1e9
        model = PotentialModel(kind="power_tail", v0=1e300, rho=1.5)
        assert born.born_first_amplitude(model, 0.5 * q, np.pi) == 0.0

    def test_zero_potential(self):
        assert born.born_first_amplitude(PotentialModel(kind="zero"),
                                         1.0, 1.0) == 0.0

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    @pytest.mark.parametrize("kind", ["gaussian_well", "yukawa", "square_well",
                                      "compact_bump", "power_tail"])
    def test_zero_strength_is_zero(self, kind, theta):
        # every kind is v0 times a profile; at v0 = 0 the cutoff radius
        # tail_radius(1e-18 |v0|) would be asked for tol = 0, which it refuses
        model = PotentialModel(kind=kind, v0=0.0)
        assert born.born_first_amplitude(model, 1.0, theta) == 0.0
        assert born.born_first_phase_shift(model, 1.0, 0) == 0.0

    @pytest.mark.parametrize("k,theta", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0),
                                         (1.0, 3.5), (1.0, np.nan),
                                         (np.inf, 1.0), (np.nan, 1.0)])
    def test_bad_momentum_or_angle_rejected(self, monkeypatch, k, theta):
        # q = 2k sin(theta/2) <= 0 would take the forward (q -> 0) branch;
        # k = inf ended in a ConvergenceError over inf panels
        def no_rule(*args, **kwargs):
            raise AssertionError("quadrature for refused input")

        monkeypatch.setattr(born, "_radial_rule", no_rule)
        with pytest.raises(ParameterError):
            born.born_first_amplitude(GAUSS, k, theta)

    @pytest.mark.parametrize("k,l", [(0.0, 0), (-1.0, 0), (np.nan, 0),
                                     (np.inf, 0), (1.0, -1), (1.0, 1.5)])
    def test_phase_shift_bad_momentum_or_channel_rejected(self, monkeypatch, k, l):
        # at the unit Gaussian k = 0 divided by zero, k = -1 gave +0.2801
        # (-delta_0^1 at k = 1), and k = nan or l = -1 gave nan
        def no_rule(*args, **kwargs):
            raise AssertionError("quadrature for refused input")

        monkeypatch.setattr(born, "_radial_rule", no_rule)
        with pytest.raises(ParameterError, match="^(momentum|l) must be"):
            born.born_first_phase_shift(GAUSS, k, l)

    def test_phase_shift_zero_potential(self):
        assert born.born_first_phase_shift(PotentialModel(kind="zero"),
                                           1.0, 0) == 0.0

    @pytest.mark.parametrize("rho", [0.9, 1.0, 1.5])
    def test_phase_shift_slow_tail_rejected(self, rho):
        # int_R^inf v dr diverges (rho <= 1) or is far above the tolerance
        # (rho = 1.5); its closed form must not turn into a finite part
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        with pytest.raises(born.ConvergenceError):
            born.born_first_phase_shift(model, 1.0, 0)


    @pytest.mark.parametrize("kind", ["gaussian_well", "yukawa", "square_well",
                                      "compact_bump"])
    @pytest.mark.parametrize("q_range", [0.5, 2.0])
    def test_first_order_linear_in_strength(self, kind, q_range):
        # f1 and delta_l^1 are the first order in v, so f1 / v0 and
        # delta_l^1 / v0 are one number at every strength.  A cut at an
        # absolute |v| read delta_0^1 / v0 of the unit Gaussian 7.8% off at
        # v0 = -1e-12 and 43% off at -1e-20.  theta = pi/3 puts q at k, on
        # either side of q effective_range = 1
        q = q_range / PotentialModel(kind=kind, v0=1.0).effective_range
        ratios = []
        for v0 in (-1.0, -1e-6, -1e-12, -1e-20):
            model = PotentialModel(kind=kind, v0=v0)
            f1 = born.born_first_amplitude(model, q, np.pi / 3)
            assert f1.imag == 0.0
            ratios.append([f1.real / v0] + [born.born_first_phase_shift(model, q, l) / v0
                                            for l in (0, 2)])
        np.testing.assert_allclose(ratios, [ratios[0]] * 4, rtol=1e-14, atol=0.0)

    def test_wide_gaussian_forward_closed_form(self):
        # -int r^2 v dr = -v0 sqrt(pi) w^3 / 4: the rule ends where |v| <
        # 1e-18 |v0|, at 7.45e6, where a search capped at r = 1e6 read 57% low
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1e6)
        val = born.born_first_amplitude(model, 1.0, 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(np.sqrt(np.pi) * 1e18 / 4, rel=1e-10)

    def test_wide_yukawa_forward_closed_form(self):
        # -g width^2 at g = -1, width 1e5; a search capped at r = 1e6 read
        # 5.0e-4 low
        model = PotentialModel(kind="yukawa", v0=-1.0, width=1e5)
        assert born.born_first_amplitude(model, 1.0, 0.0).real == pytest.approx(
            1e10, rel=1e-10)

    def test_wide_gaussian_phase_shift_closed_form(self):
        # delta_0^1 = -(v0 / k) int v sin^2(kr) dr / v0
        #           = -(v0 / k) (sqrt(pi) w / 4) (1 - e^{-k^2 w^2}), at k w = 1;
        # a search capped at r = 1e6 read 43% low
        width, k = 1e6, 1e-6
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=width)
        expect = (1.0 / k) * (np.sqrt(np.pi) * width / 4) * -np.expm1(-(k * width) ** 2)
        assert born.born_first_phase_shift(model, k, 0) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("kind,width", [
        *[(kind, 1e308) for kind in ("gaussian_well", "yukawa", "square_well", "compact_bump")],
        ("gaussian_well", 1e120), ("yukawa", 1e120)])
    def test_radial_rule_refuses_an_end_too_large(self, monkeypatch, kind, width):
        # at width 1e308 the rule's end is 1e308 or inf (the Gaussian's
        # ladder passes the largest float with |v| above 1e-18), where r^2 v
        # on its nodes would be inf or nan; at 1e120 R^2 is finite but the
        # sums of r^2 v, of order w^3, are not, and at k = 1e-119, theta = pi
        # their terms overflowed to +-inf and summed to nan.  No node is built
        def no_rule(*args):
            raise AssertionError("built a quadrature rule past the float range")

        monkeypatch.setattr(born, "composite_gauss", no_rule)
        model = PotentialModel(kind=kind, v0=-1.0, width=width)
        for k, theta in ((1.0, 0.0), (1.0, 1e-300), (1.0, np.pi), (1e-119, np.pi)):
            with pytest.raises(NumericalError, match="the radial rule would end at R = "):
                born.born_first_amplitude(model, k, theta)
        with pytest.raises(NumericalError, match="the radial rule would end at R = "):
            born.born_first_phase_shift(model, 1.0, 0)

    def test_widest_admitted_gaussian_closed_form(self):
        # the rule ends at R = 7.45e99, where R^3 |v0| = 4.1e299 is below
        # 1e300: admitted, and f1(0) = -v0 sqrt(pi) w^3 / 4 = 4.4e296
        width = 1e99
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=width)
        assert born.born_first_amplitude(model, 1.0, 0.0).real == pytest.approx(
            np.sqrt(np.pi) * width**3 / 4, rel=1e-10)

    def test_panel_cap_refused_before_any_quadrature(self, monkeypatch):
        # the unit Gaussian's rule ends at r = 7.45: q = 2e5 and k = 2e5 ask
        # for 4.7e5 panels of pi / 2e5, past the cap of 200 000
        def no_rule(*args):
            raise AssertionError("built a quadrature rule past the panel cap")

        monkeypatch.setattr(born, "composite_gauss", no_rule)
        with pytest.raises(born.ConvergenceError, match="over 200000"):
            born.born_first_amplitude(GAUSS, 1e5, np.pi)
        with pytest.raises(born.ConvergenceError, match="over 200000"):
            born.born_first_phase_shift(GAUSS, 2e5, 0)

    def test_power_tail_large_l_phase_shift(self):
        model = PotentialModel(kind="power_tail", v0=0.5, rho=4.0)
        delta = born.born_first_phase_shift(model, 1.0, 40)
        assert np.isfinite(delta) and delta < 0.0

    def test_yukawa_large_l_phase_shift(self):
        # against a composite Gauss sum to r = 400, stable from r = 60.  The
        # channel's weight lies near r = l / k; a cut at |v| < 1e-13, r = 28.4
        # here, read -1.57e-22
        model = PotentialModel(kind="yukawa", v0=0.1, width=1.0)
        delta = born.born_first_phase_shift(model, 1.0, 40)
        assert abs(delta / -1.0947e-19 - 1.0) < 1e-2


def b_at_origin(model, N):
    """b_0..b_N at x = 0, read from the _bn_tables the kernel uses."""
    grid = born._default_cyl_grid(model)
    origin = np.zeros((1, 2))   # (s, z) of x = 0
    return np.array([_cyl.interpolator(grid, t)(origin)[0]
                     for t in born._bn_tables(model, N, grid)])


def bn_tables_loop(model, N, grid):
    """The per-order loop that built the b_n tables before they came from
    transport_orders, kept as a bit-for-bit oracle."""
    r = grid.radius()
    v = model.radial_values(r)
    tables = np.empty((N + 1,) + v.shape)
    tables[0] = 1.0
    g = v.copy()  # -Lap b_0 + v b_0
    for n in range(1, N + 1):
        anchor = np.zeros(len(grid.s))
        if n == 1 and np.max(np.abs(g[:, 0])) > born.RAY_TRUNCATION * abs(model.v0):
            anchor = line_integral(model, grid.s, -grid.z[0])
        tables[n] = _cyl.march_up(g, grid, anchor)
        if n < N:
            g = (-_cyl.laplacian(_cyl.d_ds(tables[n], grid),
                                 _cyl.d_dz(tables[n], grid, np.empty_like(tables[n])),
                                 grid)
                 + v * tables[n])
    return tables


def count_derivatives(monkeypatch):
    """The dtypes of the arrays _cyl.d_ds and _cyl.d_dz differentiate from
    now on, the Laplacian's second derivatives included."""
    calls = []

    def spy(derivative):
        def counting(f, *args, **kwargs):
            calls.append(f.dtype)
            return derivative(f, *args, **kwargs)
        return counting

    monkeypatch.setattr(_cyl, "d_ds", spy(_cyl.d_ds))
    monkeypatch.setattr(_cyl, "d_dz", spy(_cyl.d_dz))
    return calls


class TestTransport:
    @pytest.mark.parametrize("model", [GAUSS, BUMP, TAIL2], ids=lambda m: m.kind)
    def test_tables_match_loop(self, model):
        grid = born._default_cyl_grid(model)
        got = born._bn_tables(model, 3, grid)
        assert got.dtype == float
        assert np.array_equal(got, bn_tables_loop(model, 3, grid))

    @pytest.mark.parametrize("rho", [0.9, 1.0, 3.0, 5.1])
    def test_power_tails_refused_before_any_table(self, monkeypatch, rho):
        # _support_radius refuses every power tail up to rho ~ 5.1, so b_1's
        # anchor int_-inf^z_min v dz, infinite for rho <= 1, is never formed
        def no_tables(*args):
            raise AssertionError("built b_n tables for a power tail")

        monkeypatch.setattr(born, "_bn_tables", no_tables)
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        with pytest.raises(DomainError, match="support radius"):
            born.high_energy_kernel(model, 25.0, 0.3, 2)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_laplacians_per_build(self, monkeypatch, N):
        # the Laplacian's derivative work: four derivative calls per formed
        # source f_n (d_ds b, d_dz b and their second derivatives); the
        # source of b_0 is v in closed form, and b_N's source is never formed
        calls = count_derivatives(monkeypatch)
        born._bn_tables(GAUSS, N, born._default_cyl_grid(GAUSS))
        assert calls == [np.dtype(float)] * 4 * (N - 1)

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_laplacians_per_eikonal_series(self, monkeypatch, N):
        # four derivative calls per order n >= 1, on b_n whole, not on its
        # real and imaginary parts apart; none for the closed-form source of
        # b_0.  The Gaussian takes N0 = 0, so Phi = 0 and b_n is real
        data = eikonal.eikonal_iterate(GAUSS, 5.0)
        assert data.N0 == 0
        calls = count_derivatives(monkeypatch)
        assert len(eikonal.residual_norms(data, N)) == N + 1
        assert calls == [np.dtype(float)] * 4 * N

    @pytest.mark.parametrize("N", [1, 3])
    def test_laplacians_per_eikonal_series_with_phase(self, monkeypatch, N):
        # N0 = 2 (rho = 0.9): the same four calls per order, on complex b_n
        model = PotentialModel(kind="power_tail", v0=0.5, rho=0.9)
        data = eikonal.eikonal_iterate(model, 5.0)
        assert data.N0 == 2
        calls = count_derivatives(monkeypatch)
        assert len(eikonal.residual_norms(data, N)) == N + 1
        assert calls == [np.dtype(complex)] * 4 * N

    @pytest.mark.parametrize("N0", [0, 1, 2, 3, 4])
    def test_gradients_per_eikonal_iterate(self, monkeypatch, N0):
        # Phi_s, Phi_z and the two second derivatives of Lap Phi; phi_3's
        # source |grad phi_1|^2 takes two more.  N0 = 0 (Phi = 0) takes
        # none.  N0 = 0 needs rho > 1, and N0 >= 1 needs N0 rho > 1
        model = TAIL2 if N0 <= 1 else PotentialModel(kind="power_tail",
                                                     v0=0.5, rho=0.9)
        calls = count_derivatives(monkeypatch)
        eikonal.eikonal_iterate(model, 5.0, N0=N0)
        assert calls == [np.dtype(float)] * (0 if N0 == 0 else 4 if N0 <= 2 else 6)

    # tracemalloc peaks at N = 3 in tables of the grid (float64 entries),
    # measured: 10.30 for _bn_tables, and 7.32 (the Gaussian, N0 = 0, real)
    # and 15.64 (rho = 0.9, N0 = 2, complex) for residual_norms; with each
    # order's derivatives and source formed through fresh temporaries they
    # were 12.01, 9.85 and 18.70
    def test_bn_tables_peak_memory(self):
        grid = born._default_cyl_grid(GAUSS)
        tracemalloc.start()
        try:
            born._bn_tables(GAUSS, 3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.75 * 8 * len(grid.s) * len(grid.z)

    @pytest.mark.parametrize("model,tables", [
        (GAUSS, 7.75), (PotentialModel(kind="power_tail", v0=0.5, rho=0.9), 16.1)],
        ids=["real", "complex"])
    def test_residual_norms_peak_memory(self, model, tables):
        data = eikonal.eikonal_iterate(model, 5.0)
        tracemalloc.start()
        try:
            eikonal.residual_norms(data, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables * data.q.nbytes

    def test_per_order_noise_gain(self):
        # a seeded eps U(-1, 1) field added to q grows by 1e3 to 1e4 per
        # order through -Lap (measured: 2.0e3 to 6.6e3), whatever eps is:
        # the table noise bounds how many orders the grid can carry
        grid = born._default_cyl_grid(GAUSS)
        v = GAUSS.radial_values(grid.radius())
        zero = np.zeros(len(grid.s))

        def tables(q):
            orders = born.transport_orders(GAUSS, grid, q, 3, _cyl.march_up, zero)
            return list(islice(orders, 0, 7, 2))

        clean = tables(v)
        for eps in (1e-13, 1e-10):
            for seed in (0, 1, 2):
                noise = np.random.default_rng(seed).uniform(-1.0, 1.0, v.shape)
                noisy = tables(v + eps * noise)
                change = [np.max(np.abs(a - b)) for a, b in zip(noisy, clean)]
                assert change[0] == 0.0
                for n in (1, 2):
                    assert 1e3 <= change[n + 1] / change[n] <= 1e4, (eps, seed, n)

    def test_b0_is_one(self):
        assert b_at_origin(GAUSS, 2)[0] == pytest.approx(1.0)

    def test_b1_ray_integral_oracle(self):
        # b1(0) = int_-inf^0 v(t w') dt = v0 sqrt(pi)/2 for the unit gaussian
        assert b_at_origin(GAUSS, 1)[1] == pytest.approx(-np.sqrt(np.pi) / 2, rel=1e-3)

    @pytest.mark.parametrize("N", [-1, born.MAX_ORDER + 1, 100000])
    def test_order_outside_cap_refused(self, monkeypatch, N):
        # before the kernel's node stack or any table is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("allocated for a refused order")

        grid = born._default_cyl_grid(GAUSS)
        q = GAUSS.radial_values(grid.radius())
        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "ones", refuse)
        with pytest.raises(ParameterError, match=f"MAX_ORDER = {born.MAX_ORDER}"):
            born.high_energy_kernel(GAUSS, 25.0, THETA_90, N)
        orders = born.transport_orders(GAUSS, grid, q, N, _cyl.march_up,
                                       np.zeros(len(grid.s)))
        with pytest.raises(ParameterError, match="MAX_ORDER"):
            next(orders)

    def test_long_range_rejected(self):
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=1.0)
        with pytest.raises(DomainError):
            born.high_energy_kernel(tail, 25.0, THETA_90, 1)


def gauss_orders(s, z):
    """(v, b_1, f_1, b_2, f_2) in closed form for the unit Gaussian GAUSS,
    v = v0 e^(-s^2 - z^2) with v0 = -1, on the mesh (s[:, None], z[None, :]),
    marched up from -inf as _bn_tables marches: d_z b_(n+1) = f_n =
    -Lap b_n + v b_n.  With G = (sqrt(pi)/2) (1 + erf z) and H = z G +
    e^(-z^2)/2 (so H' = G, G' = e^(-z^2)):
        b_1 = v0 e^(-s^2) G,
        b_2 = -v0 (4 s^2 - 4) e^(-s^2) H - v0 e^(-s^2 - z^2)
              + v0^2 e^(-2 s^2) G^2 / 2.
    Each Laplacian is taken term by term, Lap(A(s) B(z)) = (A'' + A'/s) B
    + A B'', with A'' + A'/s written out, so s = 0 needs no limit:
    e^(-s^2) gives (4 s^2 - 4) e^(-s^2), (4 s^2 - 4) e^(-s^2) gives
    (16 s^4 - 64 s^2 + 32) e^(-s^2), and e^(-2 s^2) gives (16 s^2 - 8)
    e^(-2 s^2).  1 + erf z is taken as erfc(-z), which keeps its digits
    for z < 0."""
    v0 = GAUSS.v0
    s, z = np.asarray(s, dtype=float)[:, None], np.asarray(z, dtype=float)[None, :]
    es, e2s, ez = np.exp(-s * s), np.exp(-2.0 * s * s), np.exp(-z * z)
    G = 0.5 * np.sqrt(np.pi) * erfc(-z)
    H = z * G + 0.5 * ez
    v = v0 * es * ez
    b1 = v0 * es * G
    f1 = -v0 * (4 * s * s - 4) * es * G + 2 * z * v + v * b1
    b2 = -v0 * (4 * s * s - 4) * es * H - v + 0.5 * v0**2 * e2s * G * G
    lap_b2 = (-v0 * (16 * s**4 - 64 * s * s + 32) * es * H
              - (8 * s * s + 4 * z * z - 10) * v
              + 0.5 * v0**2 * e2s * ((16 * s * s - 8) * G * G
                                     + 2 * ez * ez - 4 * z * ez * G))
    return v, b1, f1, b2, -lap_b2 + v * b2


def _refined(grid):
    """grid with its cells halved in s and z: its row 2i is grid's row i."""
    return _cyl.make_grid(s_max=grid.s[-1], z_max=grid.z[-1],
                          n_s=2 * len(grid.s) - 1, n_z=2 * len(grid.z) - 1)


def _row_errors(table, exact):
    """max over z of |table - exact|, one value per row."""
    return np.max(np.abs(table - exact), axis=1)


class TestGaussianOrdersClosedForm:
    """_bn_tables on _default_cyl_grid (1x) and its refinement (2x) against
    gauss_orders' b_1 and b_2, and against b_3 by Simpson quadrature of the
    closed-form f_2 on a z mesh 64 times finer than 1x: each order's error
    falls by about 4 per halving, row by row.

    Measured: max |b_1 error| 1.43e-4 -> 3.57e-5, max |b_2 error| 0.409 ->
    0.102 (on the axis row), and b_3's over s >= 0.2,
    43.7 -> 11.0.  On the axis, where the Laplacian's row is the even fit
    through rows 1 and 2, b_3's error falls 64.8 -> 16.3 (4.07 at 4x)."""

    REFINE = 64

    @pytest.fixture(scope="class")
    def tables(self):
        grid = born._default_cyl_grid(GAUSS)
        return [(g, born._bn_tables(GAUSS, 3, g)) for g in (grid, _refined(grid))]

    def b3_errors(self, tables, rows):
        """Per-row b_3 errors on the 1x rows and the 2x rows over them."""
        (grid, coarse), (_, fine) = tables
        z = np.linspace(grid.z[0], grid.z[-1], self.REFINE * (len(grid.z) - 1) + 1)
        f2 = gauss_orders(grid.s[rows], z)[4]
        # f_2 ~ e^(-z^2) below z_min: the integral from z_min is b_3's
        b3 = cumulative_simpson(f2, dx=z[1] - z[0], axis=1, initial=0.0)
        return (_row_errors(coarse[3][rows], b3[:, ::self.REFINE]),
                _row_errors(fine[3][2 * rows], b3[:, ::self.REFINE // 2]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_second_order_on_every_row(self, tables, n):
        # the axis rows included; rows whose error is at roundoff, far out
        # in s, say nothing
        (grid, coarse), (fine_grid, fine) = tables
        err = _row_errors(coarse[n], gauss_orders(grid.s, grid.z)[2 * n - 1])
        err_fine = _row_errors(
            fine[n], gauss_orders(fine_grid.s, fine_grid.z)[2 * n - 1])[::2]
        rows = err > 1e-12 * np.max(np.abs(coarse[n]))
        assert rows[0] and np.count_nonzero(rows) > len(rows) // 3
        assert np.all(err[rows] >= 3.0 * err_fine[rows]), np.nonzero(err < 3.0 * err_fine)

    def test_b3_second_order_off_the_axis(self, tables):
        # every fourth row with s >= 0.2, where the error is above roundoff.
        # The error changes sign along s, and a row at such a zero says
        # nothing of the order (s = 1.43: 0.158 -> 0.063, against 11.0 and
        # 5.5 on the rows either side), so a dip below a fifth of both
        # neighbours is skipped; every other row must pass
        (grid, coarse), _ = tables
        rows = np.nonzero(grid.s >= 0.2)[0][::4]
        err, err_fine = self.b3_errors(tables, rows)
        assert np.max(err) >= 3.0 * np.max(err_fine)
        dip = np.zeros(len(rows), dtype=bool)
        dip[1:-1] = (5.0 * err[1:-1] < err[:-2]) & (5.0 * err[1:-1] < err[2:])
        checked = (err > 1e-12 * np.max(np.abs(coarse[3]))) & ~dip
        assert np.count_nonzero(dip) <= 2 and np.count_nonzero(checked) >= 20
        assert np.all(err[checked] >= 3.0 * err_fine[checked])

    def test_b3_second_order_on_the_axis(self, tables):
        err, err_fine = self.b3_errors(tables, np.array([0]))
        assert err[0] >= 3.0 * err_fine[0]


class TestCriterion06ClosedForm:
    """C6's residual norms from the exact sources of the unit Gaussian:
    gauss_orders mirrored onto the outgoing tables, b_n+(s, z) = (-1)^n
    b_n-(s, -z) and likewise f_n, stand in for the recursion, so they pass
    through C6's own off-cone mask and weights.  C6's drop r_N0 / r_N2 >= 5
    fails with exact amplitudes too: b_2 grows linearly downstream (H ~
    sqrt(pi) z), and at lambda = 25 the order-2 residual is as large as the
    order-0 one."""

    @staticmethod
    def norms(monkeypatch, xi_norm):
        """(exact, tables) residual norms of orders 0..2 at |xi| = xi_norm."""
        data = eikonal.eikonal_iterate(GAUSS, xi_norm)
        assert data.sign == +1 and data.N0 == 0

        def mirrored(eik, N):
            v, b1, f1, b2, f2 = gauss_orders(eik.grid.s, -eik.grid.z)
            return iter([np.ones_like(v), v, -b1, -f1, b2, f2][:2 * N + 2])

        tables = eikonal.residual_norms(data, 2)
        with monkeypatch.context() as patch:
            patch.setattr(eikonal, "_recursion", mirrored)
            exact = eikonal.residual_norms(data, 2)
        return exact, tables

    def test_exact_drop_fails_at_lambda_25(self, monkeypatch):
        exact, tables = self.norms(monkeypatch, 5.0)
        assert exact == pytest.approx(
            [1.2733396251186937, 0.7788174862981367, 1.3477761569344893], rel=1e-9)
        assert exact[0] / exact[2] < 5.0
        # the tables' drop is 0.981, the exact one 0.945
        assert tables[0] == pytest.approx(exact[0], rel=1e-12)
        assert tables[1] == pytest.approx(exact[1], rel=0.01)
        assert tables[2] == pytest.approx(exact[2], rel=0.05)

    def test_exact_drop_at_lambda_100(self, monkeypatch):
        exact, _ = self.norms(monkeypatch, 10.0)
        assert exact == pytest.approx(
            [1.2733396251186937, 0.38940874314906837, 0.3369440392336223], rel=1e-9)
        assert exact[0] / exact[2] == pytest.approx(3.779083399174827, rel=1e-9)


class TestKernel:
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_error_order_at_fixed_momentum_transfer(self, q):
        # at theta(lam) = 2 asin(q / 2 sqrt(lam)) the transfer q stays put,
        # and |k_exact - k_N| falls as lam^(-N/2): slopes -0.002, -0.505
        # and -1.161 at q = 1, -0.006, -0.507 and -1.066 at q = 2, every
        # error at least 2.5e-6.  At a fixed theta q grows like sqrt(lam),
        # and C4's lam >= 100 errors are the exact kernel's own size
        lams = np.array([25.0, 50.0, 100.0, 200.0])
        thetas = 2.0 * np.arcsin(q / (2.0 * np.sqrt(lams)))
        exact = np.array([born.exact_kernel(GAUSS, lam, theta)
                          for lam, theta in zip(lams, thetas)])
        for N, tol in ((0, 0.05), (1, 0.05), (2, 0.25)):
            errors = np.abs(exact - [born.high_energy_kernel(GAUSS, lam, theta, N)
                                     for lam, theta in zip(lams, thetas)])
            assert errors.min() > 1e-6
            slope = np.polyfit(np.log(lams), np.log(errors), 1)[0]
            assert abs(slope + N / 2) <= tol, (N, slope)

    def test_n0_matches_first_born(self):
        # k_0 = (i sqrt(lam) / 2 pi) f_1(q): an identity, not an expansion
        lam, theta = 4.0, np.pi / 3
        kernel = born.high_energy_kernel(GAUSS, lam, theta, 0)
        k = np.sqrt(lam)
        f1 = born.born_first_amplitude(GAUSS, k, theta)
        expect = 1j * k / (2 * np.pi) * f1
        assert kernel == pytest.approx(expect, rel=1e-4)

    def test_n0_kernel_linear_in_strength(self):
        # k_0 is the first Born kernel, linear in v; with the support radius,
        # the grid and the anchor cut at absolute |v|, k_0 / v0 read -8.70e-4i
        # at v0 = -1e-9 and -1e-12 against -1.3141e-6i at v0 = -1
        ratios = [born.high_energy_kernel(
                      PotentialModel(kind="gaussian_well", v0=v0), 25.0, THETA_90, 0) / v0
                  for v0 in (-1.0, -1e-3, -1e-9, -1e-12)]
        assert abs(ratios[0].imag + 1.3141e-6) < 1e-10
        np.testing.assert_allclose(ratios, [ratios[0]] * 4, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["gaussian_well", "yukawa", "square_well",
                                      "compact_bump", "power_tail"])
    def test_zero_strength_kernel(self, kind, monkeypatch):
        # zeros as for kind zero, before any table or radius is sized
        def no_radius(*args):
            raise AssertionError("sized a support radius for v0 = 0")

        monkeypatch.setattr(born, "_support_radius", no_radius)
        kernel = born.high_energy_kernel(PotentialModel(kind=kind, v0=0.0),
                                         [25.0, 50.0], THETA_90, 1)
        assert np.array_equal(kernel, np.zeros(2, dtype=complex))

    def test_zero_potential_kernel(self):
        kernel = born.high_energy_kernel(PotentialModel(kind="zero"), 4.0,
                                         THETA_90, 2)
        assert kernel == 0.0 and isinstance(kernel, complex)

    @pytest.mark.parametrize("lam", [0.0, -4.0, np.nan, [25.0, -1.0],
                                     np.inf, [25.0, np.inf]])
    def test_nonpositive_lambda_rejected(self, monkeypatch, lam):
        # lambda = inf returned nan
        def no_radius(*args):
            raise AssertionError("sized a support radius for a refused lambda")

        monkeypatch.setattr(born, "_support_radius", no_radius)
        with pytest.raises(ParameterError, match="lambda must be positive"):
            born.high_energy_kernel(GAUSS, lam, THETA_90, 0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_oracle_and_error_order_refuse_non_finite_lambda(self, monkeypatch, lam):
        # exact_kernel ended in a bare ValueError or OverflowError, and
        # measure_error_order read nan from the kernel at lambda = inf
        def no_work(*args, **kwargs):
            raise AssertionError("computed at a refused lambda")

        monkeypatch.setattr(born.partialwave, "phase_shift_table", no_work)
        monkeypatch.setattr(born, "high_energy_kernel", no_work)
        with pytest.raises(ParameterError, match="positive and finite"):
            born.exact_kernel(GAUSS, lam, THETA_90)
        with pytest.raises(ParameterError, match="positive and finite"):
            born.measure_error_order(GAUSS, [25.0, 50.0, 100.0, lam], THETA_90, 0)

    def test_coincident_directions_rejected(self):
        with pytest.raises(ParameterError):
            born.high_energy_kernel(GAUSS, 4.0, 0.0, 0)

    @pytest.mark.parametrize("theta", [0.0, -0.5, 3.5, np.nan])
    def test_angle_outside_range_rejected(self, monkeypatch, theta):
        # theta in (0, pi], before any b_n table, for the zero potential too
        def no_tables(*args):
            raise AssertionError("built b_n tables for a refused angle")

        monkeypatch.setattr(born, "_bn_tables", no_tables)
        for model in (GAUSS, PotentialModel(kind="zero")):
            with pytest.raises(ParameterError, match=r"theta must lie in \(0, pi\]"):
                born.high_energy_kernel(model, 25.0, theta, 1)

    def test_error_order_input_validation(self):
        with pytest.raises(ParameterError):
            born.measure_error_order(GAUSS, [25.0, 50.0], THETA_90, 0)


def _direction_pair(theta):
    return np.array([0.0, 0.0, 1.0]), np.array([np.sin(theta), 0.0, np.cos(theta)])


THETA_03, THETA_90 = 0.3, np.pi / 2
OFF_PLANE = (np.array([0.3, -0.2, 0.9]), np.array([-0.4, 0.7, 0.2]))
THETAS = [0.3, np.pi / 2, 2.5, np.pi]
LAMBDAS = np.array([4.0, 25.0, 100.0, 400.0])


def _born_kernel(lams, theta, f1):
    """k_0 = (i sqrt(lam) / 2 pi) f_1(q), q = 2 sqrt(lam) sin(theta/2)."""
    k = np.sqrt(lams)
    return 1j * k / (2 * np.pi) * f1(k, 2 * k * np.sin(theta / 2))


class TestCellRuleKernel:
    """The (s, z) rule with the azimuth in closed form."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_n0_gaussian_closed_form(self, theta):
        # f1(q) = -(v0 sqrt(pi)^3 / 4 pi) e^{-q^2/4}; what is left is the
        # truncation at the support radius (measured: up to 1.9e-11)
        expect = _born_kernel(LAMBDAS, theta,
                              lambda k, q: -GAUSS.v0 * np.pi**1.5 / (4 * np.pi)
                              * np.exp(-q * q / 4))
        got = born.high_energy_kernel(GAUSS, LAMBDAS, theta, 0)
        assert np.max(np.abs(got - expect)) <= 5e-11

    @pytest.mark.parametrize("theta", THETAS)
    def test_n0_compact_bump_first_born(self, theta):
        # against the radial Born quadrature, itself good to 1e-9 relative
        # (measured: up to 1.0e-10)
        expect = _born_kernel(LAMBDAS, theta, lambda k, q: np.array(
            [born.born_first_amplitude(BUMP, kk, theta) for kk in k]))
        got = born.high_energy_kernel(BUMP, LAMBDAS, theta, 0)
        assert np.max(np.abs(got - expect)) <= 2e-10

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("model", [GAUSS, BUMP], ids=lambda m: m.kind)
    def test_node_refinement(self, monkeypatch, model, N):
        # the panels end on the table's cell edges, where the bilinear b_n
        # has its kinks (measured: 4 against 6 nodes up to 4.4e-14)
        for theta in THETAS:
            four = born.high_energy_kernel(model, LAMBDAS, theta, N)
            monkeypatch.setattr(born, "_CELL_NODES", 6)
            six = born.high_energy_kernel(model, LAMBDAS, theta, N)
            monkeypatch.setattr(born, "_CELL_NODES", 4)
            assert np.max(np.abs(four - six)) <= 1e-13, theta

    @pytest.mark.parametrize("model", [GAUSS, BUMP], ids=lambda m: m.kind)
    def test_off_plane_pair_equals_coplanar(self, model):
        # the kernel depends on the pair only through the angle between
        # them: the 3-D cube rule, which takes the two vectors, on an
        # off-plane pair agrees with the kernel at their angle within the
        # cube rule's own error (test_matches_slice_loop's bounds; measured:
        # up to 6.2e-11 at N = 0 and 3.8e-8 at N = 1)
        omega, omega_p = (p / np.linalg.norm(p) for p in OFF_PLANE)
        expected = kernel_slice_loop(model, 25.0, omega, omega_p, 1)
        for N, tol in ((0, 2e-10), (1, 1.5e-7)):
            got = born.high_energy_kernel(model, 25.0, np.arccos(omega @ omega_p), N)
            assert abs(got - expected[N]) <= tol, (N, got, expected[N])

    @pytest.mark.parametrize("N", [0, 1, 2])
    @pytest.mark.parametrize("model", [GAUSS, BUMP, YUKAWA], ids=lambda m: m.kind)
    def test_array_lambda_matches_scalar_calls(self, model, N):
        if model is YUKAWA and N >= 1:
            # b_1 = int v dt diverges on the axis for the 1/r core
            for lam in (LAMBDAS, LAMBDAS[0]):
                with pytest.raises(DomainError, match="^the transport order N >= 1 "
                                   "needs v bounded at r = 0; this yukawa has a 1/r core$"):
                    born.high_energy_kernel(model, lam, THETA_03, N)
            return
        got = born.high_energy_kernel(model, LAMBDAS, THETA_03, N)
        assert isinstance(got, np.ndarray) and got.shape == LAMBDAS.shape
        one = [born.high_energy_kernel(model, lam, THETA_03, N) for lam in LAMBDAS]
        assert all(isinstance(v, complex) for v in one)
        np.testing.assert_allclose(got, one, rtol=1e-13, atol=1e-17)

    @pytest.mark.parametrize("model,lam,theta", [(GAUSS, 25.0, THETA_90),
                                                 (BUMP, 100.0, THETA_03)],
                             ids=["gaussian_well", "compact_bump"])
    def test_matches_slice_loop(self, model, lam, theta):
        # the 3-D cube rule misses the kinks of the bilinear b_n; its error
        # at N >= 1 is what this bound allows (measured: up to 1.47e-7)
        expected = kernel_slice_loop(model, lam, *_direction_pair(theta), 2)
        for N, tol in ((0, 2e-10), (1, 1.5e-7), (2, 1.5e-7)):
            got = born.high_energy_kernel(model, lam, theta, N)
            assert abs(got - expected[N]) <= tol, (N, got, expected[N])

    @pytest.mark.parametrize("lam,theta", [(25.0, THETA_90), (400.0, THETA_03)],
                             ids=["25-theta_90", "400-theta_03"])
    def test_yukawa_n0_nearer_closed_form_than_cube_rule(self, lam, theta):
        # v ~ 1/r at the origin limits both rules (measured: 2.6e-6 and
        # 1.1e-5 here, against 3.4e-4 and 7.5e-5 for the cube rule)
        mu = 1.0 / YUKAWA.width
        expect = _born_kernel(lam, theta, lambda k, q: -YUKAWA.v0 / (q * q + mu * mu))
        cube = kernel_slice_loop(YUKAWA, lam, *_direction_pair(theta), 0)[0]
        got = born.high_energy_kernel(YUKAWA, lam, theta, 0)
        assert abs(got - expect) < abs(cube - expect)

    def test_zero_potential_array(self):
        got = born.high_energy_kernel(PotentialModel(kind="zero"), LAMBDAS,
                                      THETA_90, 1)
        assert got.shape == LAMBDAS.shape and np.all(got == 0.0)

    def test_fit_makes_one_kernel_call(self, monkeypatch):
        calls, builds = [], []
        kernel, build = born.high_energy_kernel, born._bn_tables

        def kernel_spy(model, lam, *args):
            calls.append(np.shape(lam))
            return kernel(model, lam, *args)

        def build_spy(*args):
            builds.append(args[1])
            return build(*args)

        monkeypatch.setattr(born, "high_energy_kernel", kernel_spy)
        monkeypatch.setattr(born, "_bn_tables", build_spy)
        born.measure_error_order(GAUSS, [25.0, 50.0, 100.0, 200.0], THETA_90, 1)
        assert calls == [(4,)] and builds == [1]
