import numpy as np
import pytest

from scatterlab import _cyl

GRIDS = [_cyl.make_grid(s_max=3.0, z_max=4.0, n_s=31, n_z=57),
         _cyl.make_grid(s_max=8.19, z_max=8.19, n_s=181, n_z=481),
         _cyl.make_grid(s_max=2.5, z_max=7.0, n_s=40, n_z=90, z_min=-1.3)]


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
