import numpy as np
import pytest

from scatterlab import _cyl, born
from scatterlab.potentials import PotentialModel

GRIDS = [_cyl.make_grid(s_max=3.0, z_max=4.0, n_s=31, n_z=57),
         _cyl.make_grid(s_max=8.19, z_max=8.19, n_s=181, n_z=481),
         _cyl.CylGrid(s=np.linspace(0.0, 2.5, 40), z=np.linspace(-1.3, 7.0, 90))]


def _points(grid, rng, n=4000):
    """Random points inside and around the grid, the four edges, the
    corners and grid nodes."""
    s_max, z_min, z_max = grid.s[-1], grid.z[0], grid.z[-1]
    span = z_max - z_min
    s = [rng.uniform(-0.2 * s_max, 1.2 * s_max, n)]
    z = [rng.uniform(z_min - 0.2 * span, z_max + 0.2 * span, n)]
    for edge in (0.0, s_max):                      # along s = 0 and s = s_max
        s.append(np.full(50, edge))
        z.append(rng.uniform(z_min, z_max, 50))
    for edge in (z_min, z_max):                    # along z = z_min and z_max
        s.append(rng.uniform(0.0, s_max, 50))
        z.append(np.full(50, edge))
    ss, zz = grid.mesh()
    pick = rng.choice(ss.size, 300, replace=False)
    s += [np.array([0.0, 0.0, s_max, s_max]), ss.ravel()[pick]]
    z += [np.array([z_min, z_max, z_min, z_max]), zz.ravel()[pick]]
    return np.concatenate(s), np.concatenate(z)


class TestBilinear:
    @pytest.mark.parametrize("g", range(len(GRIDS)))
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_regular_grid_interpolator(self, g, m):
        grid = GRIDS[g]
        rng = np.random.default_rng(10 * g + m)
        tables = rng.normal(size=(m, len(grid.s), len(grid.z)))
        s, z = _points(grid, rng)
        got = _cyl.bilinear(grid, tables, s, z)
        assert got.shape == (m, len(s))
        pts = np.column_stack([s, z])
        scale = np.max(np.abs(tables))
        for t in range(m):
            expected = _cyl.interpolator(grid, tables[t])(pts)
            assert np.max(np.abs(got[t] - expected)) <= 1e-15 * scale

    def test_zero_outside(self):
        grid = GRIDS[2]
        tables = np.ones((2, len(grid.s), len(grid.z)))
        s = np.array([-1e-12, grid.s[-1] + 1e-12, 1.0, 1.0, 50.0])
        z = np.array([0.0, 0.0, grid.z[0] - 1e-12, grid.z[-1] + 1e-12, 50.0])
        assert np.all(_cyl.bilinear(grid, tables, s, z) == 0.0)

    def test_nodes_and_shape(self):
        grid = GRIDS[0]
        rng = np.random.default_rng(3)
        tables = rng.normal(size=(2, len(grid.s), len(grid.z)))
        ss, zz = grid.mesh()
        got = _cyl.bilinear(grid, tables, ss, zz)
        assert got.shape == tables.shape
        assert np.max(np.abs(got - tables)) <= 1e-15 * np.max(np.abs(tables))


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
# (extent 20, or 40 on a power tail) and the asymmetric grid above
MARCH_GRIDS = [born._default_cyl_grid(
                   PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)),
               _cyl.make_grid(s_max=20.0, z_max=30.0, n_s=161, n_z=481),
               _cyl.make_grid(s_max=40.0, z_max=60.0, n_s=161, n_z=481),
               GRIDS[2]]


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
