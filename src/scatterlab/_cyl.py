"""Cylindrical-grid helpers for ray recursions.

Radial potentials make every quantity built from rays along a fixed unit
vector axisymmetric about that axis, so fields live on an (s, z) grid:
s >= 0 the distance from the axis, z the coordinate along it.  Arrays are
shaped (n_s, n_z).

The table kernels d_ds, d_dz, laplacian, march_up and march_down take an
optional out=: a C-contiguous array of the result's shape and dtype that
shares no memory with the inputs.  They write the result into it with
numpy ufuncs and return it; without out they return a new array.  Either
way the result is bit for bit np.gradient(f, h, edge_order=2) and
scipy's cumulative_trapezoid(dx=h), with h the grid's step ds or dz.
cumulative_trapezoid here is the package's one running trapezoid rule; the
Kato integrals of diagnostics use it too.

scipy.interpolate is not imported with the module: RegularGridInterpolator,
which only interpolator (the amplitudes' oracle) builds, is imported on its
first read (numerics.lazy_names).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .numerics import lazy_names

__getattr__ = lazy_names(globals(), RegularGridInterpolator="scipy.interpolate")


@dataclass(frozen=True)
class CylGrid:
    s: np.ndarray
    z: np.ndarray

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    def radius(self) -> np.ndarray:
        r = np.add(self.s[:, None] ** 2, self.z**2)
        return np.sqrt(r, out=r)


def make_grid(s_max: float, z_max: float, n_s: int, n_z: int) -> CylGrid:
    return CylGrid(s=np.linspace(0.0, s_max, n_s),
                   z=np.linspace(-z_max, z_max, n_z))


def _gradient(f: np.ndarray, h: float, axis: int, out: np.ndarray) -> None:
    """np.gradient(f, h, axis=axis, edge_order=2) written into out, operation
    for operation: (f[i+1] - f[i-1]) / 2h inside and the second-order
    one-sided rules at both ends."""
    f, res = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=res[1:-1])
    res[1:-1] /= 2.0 * h
    res[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
    res[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]


def d_ds(f: np.ndarray, grid: CylGrid, out: np.ndarray | None = None) -> np.ndarray:
    """f_s of a field even in s, as every axisymmetric field is: central
    differences, and 0 on the axis row, where the mirrored row
    f(-ds) = f(ds) cancels the central difference."""
    out = np.empty_like(f) if out is None else out
    _gradient(f, grid.ds, 0, out)
    out[0] = 0.0
    return out


def d_dz(f: np.ndarray, grid: CylGrid, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(f) if out is None else out
    _gradient(f, grid.dz, 1, out)
    return out


def laplacian(fs: np.ndarray, fz: np.ndarray, grid: CylGrid,
              out: np.ndarray | None = None) -> np.ndarray:
    """3D Laplacian f_zz + f_ss + f_s / s of an axisymmetric field f, real or
    complex, from the first derivatives fs = d_ds(f) and fz = d_dz(f), with
    one work array.

    The Laplacian is even in s, and on the axis (s = 0) it is the even fit
    L(0) + c s^2 through rows 1 and 2, (4 L_1 - L_2) / 3, whose truncation
    error continues the other rows' (d_ds(fs) on the axis, which would take
    fs as even, is not read).  f_s / s and the / 3 are true divisions of
    each real component (numpy's complex / real multiplies by the
    reciprocal), so a complex field's Laplacian is bit for bit the
    Laplacians of its real and imaginary parts.
    """
    out = np.empty_like(fs) if out is None else out
    work = d_ds(fs, grid)
    d_dz(fz, grid, out=out)
    out[1:] += work[1:]
    np.divide(fs[1:].view(float), grid.s[1:, None], out=work[1:].view(float))
    out[1:] += work[1:]
    axis = 4.0 * out[1] - out[2]
    np.divide(axis.view(float), 3.0, out=out[0].view(float))
    return out


def cumulative_trapezoid(g: np.ndarray, dx: float, out: np.ndarray) -> None:
    """scipy's cumulative_trapezoid(g, dx=dx, initial=0) along the last
    axis of a 2-D g, written into out: 0, then the running sums of
    dx (g_j + g_{j+1}) / 2."""
    out[:, 0] = 0.0
    cells = out[:, 1:]
    np.add(g[:, 1:], g[:, :-1], out=cells)
    cells *= dx
    cells /= 2.0
    np.cumsum(cells, axis=1, out=cells)


def march_up(g: np.ndarray, grid: CylGrid, anchor: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """F(s, z) = anchor(s) + int_{z_min}^{z} g(s, z') dz' (trapezoid)."""
    out = np.empty(g.shape, np.result_type(g, anchor)) if out is None else out
    cumulative_trapezoid(g, grid.dz, out)
    return np.add(anchor[:, None], out, out=out)


def march_down(g: np.ndarray, grid: CylGrid, anchor: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """F(s, z) = anchor(s) - int_{z}^{z_max} g(s, z') dz' (trapezoid)."""
    out = np.empty(g.shape, np.result_type(g, anchor)) if out is None else out
    cumulative_trapezoid(g[:, ::-1], grid.dz, out[:, ::-1])
    return np.subtract(anchor[:, None], out, out=out)


def interpolator(grid: CylGrid, f: np.ndarray):
    """scipy's bilinear RegularGridInterpolator of f, 0 outside the grid,
    built by the module's current binding of the class (the benchmark
    tracer rebinds it to a subclass)."""
    return sys.modules[__name__].RegularGridInterpolator(
        (grid.s, grid.z), f, bounds_error=False, fill_value=0.0
    )


def cyl_coords(points: np.ndarray, axis: np.ndarray):
    """(s, z) of 3D points relative to a unit axis vector."""
    points = np.atleast_2d(points)
    z = points @ axis
    perp = points - np.outer(z, axis)
    s = np.linalg.norm(perp, axis=1)
    return s, z


def off_cone_mask(grid: CylGrid, bad_z_sign: int, half_angle: float) -> np.ndarray:
    """True where the direction of (s, z) is outside the cone around the
    bad axis direction (z < 0 axis for bad_z_sign=-1, z > 0 for +1)."""
    r = grid.radius()
    with np.errstate(invalid="ignore"):
        cos_to_bad = bad_z_sign * grid.z / np.where(r > 0, r, 1.0)
    return ~((r > 0) & (cos_to_bad > np.cos(half_angle)))
