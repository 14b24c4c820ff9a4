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
