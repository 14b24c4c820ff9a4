import numpy as np
import pytest

from scatterlab import _cyl, born
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
# (extent 20, or 40 on a power tail) and the asymmetric grid
MARCH_GRIDS = [born._default_cyl_grid(
                   PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)),
               _cyl.make_grid(s_max=20.0, z_max=30.0, n_s=161, n_z=481),
               _cyl.make_grid(s_max=40.0, z_max=60.0, n_s=161, n_z=481),
               ASYMMETRIC]


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
# laplacian from the first derivatives, against closed forms
# ---------------------------------------------------------------------------

K_Z = 3.0   # axial wavenumber of the complex field


def gaussian_field(n, complex_field):
    """(grid, f, Lap f) for f = exp(-r^2) on s in [0, 5], z in [-5, 5] with
    spacing 5 / (n - 1), times exp(i K_Z z) when complex_field:
    Lap exp(-r^2) = (4 r^2 - 6) exp(-r^2), and the phase adds
    -4 i K_Z z - K_Z^2 to the bracket."""
    grid = _cyl.make_grid(s_max=5.0, z_max=5.0, n_s=n, n_z=2 * n - 1)
    ss, zz = grid.mesh()
    r2 = ss * ss + zz * zz
    f = np.exp(-r2)
    bracket = 4.0 * r2 - 6.0
    if complex_field:
        f = f * np.exp(1j * K_Z * zz)
        bracket = bracket - 4j * K_Z * zz - K_Z**2
    return grid, f, bracket * f


def laplacian_of(f, grid):
    return _cyl.laplacian(_cyl.d_ds(f, grid), _cyl.d_dz(f, grid), grid)


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
