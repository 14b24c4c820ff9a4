import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from scatterlab import _cyl, born, eikonal
from scatterlab.potentials import PotentialModel

# z_min != -z_max
ASYMMETRIC = _cyl.CylGrid(s=np.linspace(0.0, 2.5, 40), z=np.linspace(-1.3, 7.0, 90))


# ---------------------------------------------------------------------------
# oracles: the hand-rolled cumulative trapezoid marches that
# scipy.integrate.cumulative_trapezoid replaced, kept as they were
# ---------------------------------------------------------------------------

def march_up_loop(g, grid, anchor):
    dz = grid.dz
    inc = np.zeros_like(g)
    inc[:, 1:] = 0.5 * dz * (g[:, 1:] + g[:, :-1])
    return anchor[:, None] + np.cumsum(inc, axis=1)


def march_down_loop(g, grid, anchor):
    dz = grid.dz
    inc = np.zeros_like(g)
    inc[:, :-1] = 0.5 * dz * (g[:, 1:] + g[:, :-1])
    rev = np.cumsum(inc[:, ::-1], axis=1)[:, ::-1]
    return anchor[:, None] - rev


# the default born grid of the unit gaussian well, the default eikonal grids
# (extent 20, or 40 on a power tail), the asymmetric grid and the default
# born grid of a compact bump
MARCH_GRIDS = [born._default_cyl_grid(
                   PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)),
               _cyl.make_grid(s_max=20.0, z_max=30.0, n_s=161, n_z=481),
               _cyl.make_grid(s_max=40.0, z_max=60.0, n_s=161, n_z=481),
               ASYMMETRIC,
               born._default_cyl_grid(
                   PotentialModel(kind="compact_bump", v0=-2.0, width=2.0))]


class TestMarch:
    @pytest.mark.parametrize("g", range(len(MARCH_GRIDS)))
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("march,oracle", [
        (_cyl.march_up, march_up_loop), (_cyl.march_down, march_down_loop)],
        ids=["up", "down"])
    def test_matches_hand_rolled_trapezoid(self, g, dtype, march, oracle):
        grid = MARCH_GRIDS[g]
        rng = np.random.default_rng(g)
        shape = (len(grid.s), len(grid.z))
        table = rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, shape)
        anchor = rng.normal(size=len(grid.s))
        if dtype is complex:
            table = table + 1j * rng.normal(size=shape)
            anchor = anchor + 1j * rng.normal(size=len(grid.s))
        got = march(table, grid, anchor)
        assert got.dtype == table.dtype
        assert np.array_equal(got, oracle(table, grid, anchor))


# ---------------------------------------------------------------------------
# bit-for-bit oracles of the in-place kernels: numpy's gradient on the
# grid's step, scipy's cumulative_trapezoid, and the Laplacian as it was
# formed from them
# ---------------------------------------------------------------------------

def d_ds_gradient(f, grid):
    out = np.gradient(f, grid.ds, axis=0, edge_order=2)
    out[0] = 0.0
    return out


def d_dz_gradient(f, grid):
    return np.gradient(f, grid.dz, axis=1, edge_order=2)


def laplacian_gradient(fs, fz, grid):
    fss = d_ds_gradient(fs, grid)
    fzz = d_dz_gradient(fz, grid)
    out = np.empty_like(fss)
    np.divide(fs[1:].view(float), grid.s[1:, None], out=out[1:].view(float))
    out[1:] += fzz[1:] + fss[1:]
    axis = 4.0 * out[1] - out[2]
    np.divide(axis.view(float), 3.0, out=out[0].view(float))
    return out


def march_up_scipy(g, grid, anchor):
    return anchor[:, None] + cumulative_trapezoid(g, dx=grid.dz, initial=0)


def march_down_scipy(g, grid, anchor):
    rev = cumulative_trapezoid(g[:, ::-1], dx=grid.dz, initial=0)[:, ::-1]
    return anchor[:, None] - rev


def random_table(grid, dtype, seed):
    """A seeded table with entries spread over 60 decades."""
    rng = np.random.default_rng(seed)
    shape = (len(grid.s), len(grid.z))
    table = rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, shape)
    if dtype is complex:
        table = table + 1j * rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, shape)
    return table


def assert_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def exactly_uniform(x):
    dx = np.diff(x)
    return bool((dx == dx[0]).all())


def test_acceptance_and_eikonal_grids_are_exactly_uniform():
    # C4's born grid (the unit gaussian's) and the eikonal grids of the
    # unit gaussian (extent 20, step 0.125) and of a power tail (extent 40,
    # step 0.25) have equal linspace steps, so the kernels' single step ds
    # or dz is numpy's step on every node there, and no acceptance value or
    # benchmark output moves with it.  The asymmetric and the bump's axes,
    # whose steps differ by an ulp, keep the kernel tests sensitive to
    # which step the rule divides by
    grids = [born._default_cyl_grid(
                 PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0))]
    grids += [eikonal.eikonal_iterate(model, 5.0).grid for model in (
        PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0),
        PotentialModel(kind="power_tail", v0=0.5, rho=0.9))]
    assert [(g.ds, g.dz) for g in grids[1:]] == [(0.125, 0.125), (0.25, 0.25)]
    # the S0 tables of C7, of C15's two power tails and of the plane
    # workload's s0 tasks, cut below the plane's reach: slices of those
    # grids, with the same steps
    gauss = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
    cuts = [eikonal.s0_solutions(model, lam, N, theta)[0].eikonal.grid
            for model, lam, N, theta in (
                (gauss, 100.0, 3, np.deg2rad(30.0)),
                (PotentialModel(kind="power_tail", v0=0.5, rho=0.75), 100.0,
                 eikonal.PROBE_N, 0.5),
                (PotentialModel(kind="power_tail", v0=0.5, rho=1.0), 100.0,
                 eikonal.PROBE_N, 0.5),
                (gauss, 64.0, 3, np.deg2rad(32.0)))]
    assert all(len(g.z) < 481 for g in cuts)
    assert [(g.ds, g.dz) for g in cuts] == [(0.125, 0.125), (0.25, 0.25),
                                           (0.25, 0.25), (0.125, 0.125)]
    for grid in grids + cuts:
        assert exactly_uniform(grid.s) and exactly_uniform(grid.z)
    assert not any(exactly_uniform(g.s) or exactly_uniform(g.z)
                   for g in MARCH_GRIDS[3:])


def test_cut_eikonal_grid_keeps_the_whole_grids_step():
    # extent 54 (width 3): the whole grid's linspace steps differ by an ulp,
    # so a cut that would start on a row with another step starts lower
    model = PotentialModel(kind="gaussian_well", v0=-1.0, width=3.0)
    whole = eikonal._table_grid(model)
    assert not exactly_uniform(whole.z)
    lowered = 0
    for z_low in np.linspace(-40.0, -1.0, 40):
        cut = eikonal._table_grid(model, z_low, 6)
        first = len(whole.z) - len(cut.z)
        assert np.array_equal(cut.s, whole.s)
        assert np.array_equal(cut.z, whole.z[first:])
        assert cut.dz == whole.dz
        below = np.searchsorted(whole.z, z_low, side="right") - 1
        assert first <= below - 6
        lowered += first < below - 6
    assert lowered > 0


class TestKernelsBitForBit:
    """d_ds, d_dz, laplacian and the marches, with and without out=, against
    np.gradient and cumulative_trapezoid on MARCH_GRIDS."""

    @pytest.fixture(params=[False, True], ids=["new", "out"])
    def out(self, request):
        """None, or a NaN-filled array for the kernel to fill (and return)."""
        def make(like):
            if not request.param:
                return None
            return np.full(like.shape, np.nan, dtype=like.dtype)
        return make

    @pytest.mark.parametrize("g", range(len(MARCH_GRIDS)))
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("kernel,oracle", [(_cyl.d_ds, d_ds_gradient),
                                               (_cyl.d_dz, d_dz_gradient)],
                             ids=["d_ds", "d_dz"])
    def test_derivatives(self, g, dtype, kernel, oracle, out):
        grid = MARCH_GRIDS[g]
        f = random_table(grid, dtype, g)
        buf = out(f)
        if buf is None and kernel is _cyl.d_dz:
            # d_dz has no default out: the array its default allocated
            buf = np.empty_like(f)
        got = kernel(f, grid, out=buf)
        assert buf is None or got is buf
        assert_bits(got, oracle(f, grid))

    @pytest.mark.parametrize("g", range(len(MARCH_GRIDS)))
    @pytest.mark.parametrize("kernel,oracle", [
        (_cyl.d_ds, d_ds_gradient), (_cyl.d_dz, d_dz_gradient),
        (lambda f, grid, out: _cyl.march_up(f, grid, f[:, 0], out=out),
         lambda f, grid: march_up_scipy(f, grid, f[:, 0]))],
        ids=["d_ds", "d_dz", "up"])
    def test_complex_tables_with_signed_zeros(self, g, kernel, oracle):
        # a fifth of the parts -0.0: a complex table is scaled by products,
        # where numpy's complex / real goes through Smith's branch, so the
        # values are numpy's and scipy's and only a zero part's sign may
        # differ, which array_equal does not see
        grid = MARCH_GRIDS[g]
        f = random_table(grid, complex, g)
        parts = f.view(float)
        parts[np.random.default_rng(100 + g).random(parts.shape) < 0.2] = -0.0
        got, want = kernel(f, grid, out=np.empty_like(f)), oracle(f, grid)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("g", range(len(MARCH_GRIDS)))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_laplacian(self, g, dtype, out):
        grid = MARCH_GRIDS[g]
        fs, fz = random_table(grid, dtype, g), random_table(grid, dtype, g + 10)
        buf = out(fs)
        got = _cyl.laplacian(fs, fz, grid, out=buf)
        assert buf is None or got is buf
        assert_bits(got, laplacian_gradient(fs, fz, grid))

    @pytest.mark.parametrize("g", range(len(MARCH_GRIDS)))
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("march,oracle", [
        (_cyl.march_up, march_up_scipy), (_cyl.march_down, march_down_scipy)],
        ids=["up", "down"])
    def test_marches(self, g, dtype, march, oracle, out):
        grid = MARCH_GRIDS[g]
        table = random_table(grid, dtype, g)
        anchor = random_table(grid, dtype, g + 10)[:, 0]
        buf = out(table)
        got = march(table, grid, anchor, out=buf)
        assert buf is None or got is buf
        assert_bits(got, oracle(table, grid, anchor))

    @staticmethod
    def peaks(grid):
        """tracemalloc peaks of d_ds, d_dz, march_up, march_down and laplacian
        given out=, on a complex table of grid."""
        f = random_table(grid, complex, 0)
        anchor, buf = np.zeros(len(grid.s)), np.empty_like(f)
        calls = [lambda: _cyl.d_ds(f, grid, out=buf), lambda: _cyl.d_dz(f, grid, out=buf),
                 lambda: _cyl.march_up(f, grid, anchor, out=buf),
                 lambda: _cyl.march_down(f, grid, anchor, out=buf),
                 lambda: _cyl.laplacian(f, f, grid, out=buf)]
        peaks = []
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return np.array(peaks), f.nbytes

    @pytest.mark.parametrize("g", [1, 4], ids=["uniform", "non-uniform"])
    def test_out_allocates_no_table(self, g):
        # given out=, the derivatives and marches form no table-sized
        # temporary, only numpy's ufunc buffers and the edge rows; the
        # Laplacian adds one work table.  So on the grid with its cells
        # halved (4x the table) the peaks grow by at most a few rows
        # (measured: at most 23 kB)
        grid = MARCH_GRIDS[g]
        fine = _cyl.make_grid(s_max=grid.s[-1], z_max=grid.z[-1],
                              n_s=2 * len(grid.s) - 1, n_z=2 * len(grid.z) - 1)
        (coarse, table), (refined, fine_table) = self.peaks(grid), self.peaks(fine)
        assert np.all(coarse[:4] < 0.5 * table)
        assert table <= coarse[4] < 1.5 * table
        refined[4] -= fine_table - table
        assert np.all(refined <= coarse + 64 * 1024), refined - coarse


class TestTransportOrdersKeepEarlierOrders:
    @pytest.mark.parametrize("phase", [False, True], ids=["real", "complex"])
    def test_later_orders_leave_earlier_items_alone(self, phase):
        # every b_n and f_n is its own array, which no later order writes:
        # the work arrays of the sources are the generator's own
        if phase:
            # rho = 0.9 takes N0 = 2, so Phi is not 0 and the tables complex
            data = eikonal.eikonal_iterate(
                PotentialModel(kind="power_tail", v0=0.5, rho=0.9), 5.0)
            orders = eikonal._recursion(data, 3)
        else:
            model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
            grid = born._default_cyl_grid(model)
            v = model.radial_values(grid.radius())
            orders = born.transport_orders(model, grid, v, 3, _cyl.march_up,
                                           np.zeros(len(grid.s)))
        kept = [(item, item.copy()) for item in islice(orders, 8)]
        assert kept[2][0].dtype == (complex if phase else float)
        for i, (item, copy) in enumerate(kept):
            assert_bits(item, copy)
            for later, _ in kept[i + 1:]:
                assert not np.shares_memory(item, later)


# ---------------------------------------------------------------------------
# laplacian from the first derivatives, against closed forms
# ---------------------------------------------------------------------------

K_Z = 3.0   # axial wavenumber of the complex field


def gaussian_field(n, complex_field):
    """(grid, f, Lap f) for f = exp(-r^2) on s in [0, 5], z in [-5, 5] with
    spacing 5 / (n - 1), times exp(i K_Z z) when complex_field:
    Lap exp(-r^2) = (4 r^2 - 6) exp(-r^2), and the phase adds
    -4 i K_Z z - K_Z^2 to the bracket."""
    grid = _cyl.make_grid(s_max=5.0, z_max=5.0, n_s=n, n_z=2 * n - 1)
    ss, zz = np.meshgrid(grid.s, grid.z, indexing="ij")
    r2 = ss * ss + zz * zz
    f = np.exp(-r2)
    bracket = 4.0 * r2 - 6.0
    if complex_field:
        f = f * np.exp(1j * K_Z * zz)
        bracket = bracket - 4j * K_Z * zz - K_Z**2
    return grid, f, bracket * f


def laplacian_of(f, grid):
    return _cyl.laplacian(_cyl.d_ds(f, grid), _cyl.d_dz(f, grid, np.empty_like(f)), grid)


class TestLaplacian:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_second_order_under_halving(self, complex_field):
        # measured: 7.4e-3, 1.9e-3, 4.7e-4 (real) and 1.9e-2, 4.8e-3,
        # 1.2e-3 (complex) of max |Lap f|, the axis row included
        errors = []
        for n in (81, 161, 321):
            grid, f, exact = gaussian_field(n, complex_field)
            got = laplacian_of(f, grid)
            assert got.dtype == f.dtype
            errors.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
        assert errors[0] < 2e-2
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.8 <= coarse / fine <= 4.2, errors

    def test_complex_whole_matches_parts(self):
        # differentiating complex f whole is linear in its parts
        grid, f, _ = gaussian_field(161, True)
        whole = laplacian_of(f, grid)
        parts = laplacian_of(f.real, grid) + 1j * laplacian_of(f.imag, grid)
        assert np.max(np.abs(whole - parts)) <= 1e-15 * np.max(np.abs(whole))

    def test_complex_whole_equals_parts_bit_for_bit(self):
        # f_s / s is divided per real component, as it is for a real field,
        # so no step rounds a complex field apart from its parts
        grid, f, _ = gaussian_field(161, True)
        whole = laplacian_of(f, grid)
        assert np.array_equal(whole.real, laplacian_of(f.real, grid))
        assert np.array_equal(whole.imag, laplacian_of(f.imag, grid))
