"""Cylindrical-grid helpers for ray recursions.

Radial potentials make every quantity built from rays along a fixed unit
vector axisymmetric about that axis, so fields live on an (s, z) grid:
s >= 0 the distance from the axis, z the coordinate along it.  Arrays are
shaped (n_s, n_z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator


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

    def mesh(self):
        return np.meshgrid(self.s, self.z, indexing="ij")

    def radius(self) -> np.ndarray:
        ss, zz = self.mesh()
        return np.sqrt(ss * ss + zz * zz)


def make_grid(s_max: float, z_max: float, n_s: int, n_z: int) -> CylGrid:
    return CylGrid(s=np.linspace(0.0, s_max, n_s),
                   z=np.linspace(-z_max, z_max, n_z))


def d_ds(f: np.ndarray, grid: CylGrid) -> np.ndarray:
    """f_s of a field even in s, as every axisymmetric field is: central
    differences, and 0 on the axis row, where the mirrored row
    f(-ds) = f(ds) cancels the central difference."""
    out = np.gradient(f, grid.s, axis=0, edge_order=2)
    out[0] = 0.0
    return out


def d_dz(f: np.ndarray, grid: CylGrid) -> np.ndarray:
    return np.gradient(f, grid.z, axis=1, edge_order=2)


def laplacian(fs: np.ndarray, fz: np.ndarray, grid: CylGrid) -> np.ndarray:
    """3D Laplacian f_zz + f_ss + f_s / s of an axisymmetric field f, real or
    complex, from the first derivatives fs = d_ds(f) and fz = d_dz(f).

    The Laplacian is even in s, and on the axis (s = 0) it is the even fit
    L(0) + c s^2 through rows 1 and 2, (4 L_1 - L_2) / 3, whose truncation
    error continues the other rows' (d_ds(fs) on the axis, which would take
    fs as even, is not read).  f_s / s and the / 3 are true divisions of
    each real component (numpy's complex / real multiplies by the
    reciprocal), so a complex field's Laplacian is bit for bit the
    Laplacians of its real and imaginary parts.
    """
    fss = d_ds(fs, grid)
    fzz = d_dz(fz, grid)
    out = np.empty_like(fss)
    np.divide(fs[1:].view(float), grid.s[1:, None], out=out[1:].view(float))
    out[1:] += fzz[1:] + fss[1:]
    axis = 4.0 * out[1] - out[2]
    np.divide(axis.view(float), 3.0, out=out[0].view(float))
    return out


def march_up(g: np.ndarray, grid: CylGrid, anchor: np.ndarray) -> np.ndarray:
    """F(s, z) = anchor(s) + int_{z_min}^{z} g(s, z') dz' (trapezoid)."""
    return anchor[:, None] + cumulative_trapezoid(g, dx=grid.dz, initial=0)


def march_down(g: np.ndarray, grid: CylGrid, anchor: np.ndarray) -> np.ndarray:
    """F(s, z) = anchor(s) - int_{z}^{z_max} g(s, z') dz' (trapezoid)."""
    rev = cumulative_trapezoid(g[:, ::-1], dx=grid.dz, initial=0)[:, ::-1]
    return anchor[:, None] - rev


def interpolator(grid: CylGrid, f: np.ndarray):
    """scipy's bilinear RegularGridInterpolator of f, 0 outside the grid."""
    return RegularGridInterpolator(
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
    ss, zz = grid.mesh()
    r = np.sqrt(ss * ss + zz * zz)
    with np.errstate(invalid="ignore"):
        cos_to_bad = bad_z_sign * zz / np.where(r > 0, r, 1.0)
    return ~((r > 0) & (cos_to_bad > np.cos(half_angle)))
