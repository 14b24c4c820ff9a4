import numpy as np
import pytest

from scatterlab import _cyl, born
from scatterlab.numerics import DomainError, ParameterError, composite_gauss
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)


def kernel_slice_loop(model, lam, omega, omega_prime, N, grid=None):
    """The per-slice quadrature loop that the blocked kernel replaced, kept
    as the reference: the same rules and tables, one u1 slice at a time,
    with one RegularGridInterpolator per b_n table.  Returns k_0 .. k_N."""
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
    e2, e3 = _cyl.plane_basis(e1)

    n1 = max(96, int(np.ceil(2 * R * kappa / (2 * np.pi)) * 10))
    nt = max(96, int(np.ceil(8 * R)))
    rule1 = composite_gauss(12, np.linspace(-R, R, max(2, n1 // 12 + 1)))
    rule_t = composite_gauss(12, np.linspace(-R, R, max(2, nt // 12 + 1)))

    expansion_grid = grid or born._default_cyl_grid(model)
    tables = born._bn_tables(model, N, expansion_grid)
    interps = [None] + [_cyl.interpolator(expansion_grid, t) for t in tables[1:]]

    u2, w2 = rule_t.nodes, rule_t.weights
    u3, w3 = rule_t.nodes, rule_t.weights
    integrals = np.zeros(N + 1, dtype=complex)
    Y2, Y3 = np.meshgrid(u2, u3, indexing="ij")
    W23 = np.outer(w2, w3)
    for u1, w1 in zip(rule1.nodes, rule1.weights):
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

    def test_zero_potential(self):
        assert born.born_first_amplitude(PotentialModel(kind="zero"),
                                         1.0, 1.0) == 0.0

    @pytest.mark.parametrize("k,theta", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0),
                                         (1.0, 3.5), (1.0, np.nan)])
    def test_bad_momentum_or_angle_rejected(self, k, theta):
        # q = 2k sin(theta/2) <= 0 would take the forward (q -> 0) branch
        with pytest.raises(ParameterError):
            born.born_first_amplitude(GAUSS, k, theta)

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


def b_at_origin(model, N):
    """b_0..b_N at x = 0, read from the _bn_tables the kernel uses."""
    grid = born._default_cyl_grid(model)
    s, z = _cyl.cyl_coords(np.zeros((1, 3)), np.array([0.0, 0.0, 1.0]))
    return _cyl.bilinear(grid, born._bn_tables(model, N, grid), s, z)[:, 0]


class TestTransport:
    def test_b0_is_one(self):
        assert b_at_origin(GAUSS, 2)[0] == pytest.approx(1.0)

    def test_b1_ray_integral_oracle(self):
        # b1(0) = int_-inf^0 v(t w') dt = v0 sqrt(pi)/2 for the unit gaussian
        assert b_at_origin(GAUSS, 1)[1] == pytest.approx(-np.sqrt(np.pi) / 2, rel=1e-3)

    def test_long_range_rejected(self):
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=1.0)
        omega, omega_p = THETA_90
        with pytest.raises(DomainError):
            born.high_energy_kernel(tail, 25.0, omega, omega_p, 1)


class TestKernel:
    def test_n0_matches_first_born(self):
        # k_0 = (i sqrt(lam) / 2 pi) f_1(q): an identity, not an expansion
        lam, theta = 4.0, np.pi / 3
        omega = np.array([0.0, 0.0, 1.0])
        omega_p = np.array([np.sin(theta), 0.0, np.cos(theta)])
        kernel = born.high_energy_kernel(GAUSS, lam, omega, omega_p, 0)
        k = np.sqrt(lam)
        f1 = born.born_first_amplitude(GAUSS, k, theta)
        expect = 1j * k / (2 * np.pi) * f1
        assert kernel == pytest.approx(expect, rel=1e-4)

    def test_zero_potential_kernel(self):
        kernel = born.high_energy_kernel(PotentialModel(kind="zero"), 4.0,
                                         [0, 0, 1], [1, 0, 0], 2)
        assert kernel == 0.0 and isinstance(kernel, complex)

    @pytest.mark.parametrize("lam", [0.0, -4.0, np.nan])
    def test_nonpositive_lambda_rejected(self, lam):
        with pytest.raises(ParameterError, match="lambda must be positive"):
            born.high_energy_kernel(GAUSS, lam, [0, 0, 1], [1, 0, 0], 0)

    def test_coincident_directions_rejected(self):
        with pytest.raises(ParameterError):
            born.high_energy_kernel(GAUSS, 4.0, [0, 0, 1], [0, 0, 1], 0)

    def test_error_order_input_validation(self):
        with pytest.raises(ParameterError):
            born.measure_error_order(GAUSS, [25.0, 50.0], [0, 0, 1],
                                     [1, 0, 0], 0)


def _direction_pair(theta):
    return np.array([0.0, 0.0, 1.0]), np.array([np.sin(theta), 0.0, np.cos(theta)])


KERNEL_MODELS = [GAUSS,
                 PotentialModel(kind="yukawa", v0=0.5, width=0.3),
                 PotentialModel(kind="compact_bump", v0=-2.0, width=2.0)]
THETA_03, THETA_90, THETA_25 = (_direction_pair(t) for t in (0.3, np.pi / 2, 2.5))
OFF_PLANE = (np.array([0.3, -0.2, 0.9]), np.array([-0.4, 0.7, 0.2]))
# every model meets every energy and every direction pair; the slice loop
# takes 0.3-2 s a case, so not every energy meets every pair.  The pi/2 and
# off-plane cases end in a partial block of slices for gaussian_well
KERNEL_CASES = [(25.0, THETA_90), (100.0, OFF_PLANE), (400.0, THETA_03),
                (400.0, THETA_25)]
# omega' in the yz-plane: e2 = x is orthogonal to omega', so the kernel
# swaps e2 and e3 before it folds the plane
YZ_PLANE = (np.array([0.0, 0.0, 1.0]), np.array([0.0, np.sin(1.2), np.cos(1.2)]))
# coplanar with the x axis on paper, but e3 . omega' is a rounding residue
_S = np.sqrt(0.5)
TILTED = (np.array([0.0, _S, _S]), np.array([np.sin(1.0), _S * np.cos(1.0), _S * np.cos(1.0)]))


class TestBlockedKernel:
    @pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
    def test_matches_slice_loop(self, model, case):
        lam, (omega, omega_p) = KERNEL_CASES[case]
        expected = kernel_slice_loop(model, lam, omega, omega_p, 2)
        for N in (0, 1, 2):
            got = born.high_energy_kernel(model, lam, omega, omega_p, N)
            # Yukawa's b_n tables sample v at r = 0, clamped to v0 / 1e-8,
            # which makes |k_1| ~ 1e2 and |k_2| ~ 1e7; there 1e-15 absolute
            # is below one ulp, so the bound is relative
            tol = 1e-15 if abs(expected[N]) <= 1.0 else 2e-14 * abs(expected[N])
            assert abs(got - expected[N]) <= tol, (N, got, expected[N])

    @pytest.mark.parametrize("N", [1, 2])
    def test_given_tables_change_nothing(self, N):
        omega, omega_p = OFF_PLANE
        grid = born._default_cyl_grid(GAUSS)
        tables = born._bn_tables(GAUSS, N, grid)
        built = born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, N)
        given = born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, N,
                                        grid=grid, tables=tables)
        assert given == built

    def test_tables_for_higher_order_serve_lower(self):
        omega, omega_p = THETA_90
        grid = born._default_cyl_grid(GAUSS)
        tables = born._bn_tables(GAUSS, 2, grid)
        built = born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, 1)
        given = born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, 1,
                                        grid=grid, tables=tables)
        assert given == built

    def test_tables_must_match(self):
        omega, omega_p = THETA_90
        grid = born._default_cyl_grid(GAUSS)
        tables = born._bn_tables(GAUSS, 1, grid)
        with pytest.raises(ParameterError):   # too few orders
            born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, 2,
                                    grid=grid, tables=tables)
        with pytest.raises(ParameterError):   # no grid to read them on
            born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, 1, tables=tables)
        small = _cyl.make_grid(4.0, 4.0, 21, 41)
        with pytest.raises(ParameterError):   # built on another grid
            born.high_energy_kernel(GAUSS, 25.0, omega, omega_p, 1,
                                    grid=small, tables=tables)

    def test_fit_builds_tables_once(self, monkeypatch):
        calls = []
        build = born._bn_tables

        def spy(*args):
            calls.append(args[1])
            return build(*args)

        monkeypatch.setattr(born, "_bn_tables", spy)
        omega, omega_p = THETA_90
        born.measure_error_order(GAUSS, [25.0, 50.0, 100.0, 200.0], omega, omega_p, 1)
        assert calls == [1]

    @pytest.mark.parametrize("model", [KERNEL_MODELS[0], KERNEL_MODELS[2]],
                             ids=lambda m: m.kind)
    def test_yz_plane_matches_slice_loop(self, model):
        omega, omega_p = YZ_PLANE
        expected = kernel_slice_loop(model, 100.0, omega, omega_p, 2)
        for N in (0, 1, 2):
            got = born.high_energy_kernel(model, 100.0, omega, omega_p, N)
            assert abs(got - expected[N]) <= 1e-15, (N, got, expected[N])

    @pytest.mark.parametrize("pair,folded", [
        (THETA_90, True), (THETA_03, True), (YZ_PLANE, True),
        (OFF_PLANE, False), (TILTED, False)],
        ids=["theta_90", "theta_03", "yz_plane", "off_plane", "tilted"])
    def test_coplanar_pairs_fold_the_plane(self, monkeypatch, pair, folded):
        omega, omega_p = (p / np.linalg.norm(p) for p in pair)
        delta = omega_p - omega
        e2, e3 = _cyl.plane_basis(delta / np.linalg.norm(delta))
        if pair is TILTED:   # the premise: a residue, not an exact zero
            assert 0.0 < abs(e3 @ omega_p) < 1e-15 and e2 @ omega_p != 0.0
        lam = 100.0
        R = born._support_radius(GAUSS)
        kappa = np.sqrt(lam) * np.linalg.norm(delta)
        n1 = max(96, int(np.ceil(2 * R * kappa / (2 * np.pi)) * 10))
        nt = max(96, int(np.ceil(8 * R)))
        full = (len(composite_gauss(12, np.linspace(-R, R, max(2, n1 // 12 + 1))).nodes)
                * len(composite_gauss(12, np.linspace(-R, R, max(2, nt // 12 + 1))).nodes) ** 2)

        points = []
        values = PotentialModel.radial_values

        def spy(self, r):
            if np.ndim(r) > 0:   # tail_radius probes single radii
                points.append(np.size(r))
            return values(self, r)

        monkeypatch.setattr(PotentialModel, "radial_values", spy)
        born.high_energy_kernel(GAUSS, lam, omega, omega_p, 0)
        assert sum(points) == (full // 2 if folded else full)
