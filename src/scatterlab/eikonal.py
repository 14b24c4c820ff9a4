"""Long-range eikonal machinery with zero vector potential.

Eikonal phase corrections by the explicit ray integral

    Phi_pm(x, xi) = +/- (1/2) int_0^inf ( v(x +/- t xi) - v(+/- t xi) ) dt

and by successive approximations Phi = sum_n (2|xi|)^-n phi_n; transport
coefficients multiplying exp(i(x.xi + Phi)) and the PDE residual norm of
the approximate eigenfunction of each order; the plane-integral kernel
of the scattering matrix near a reference direction; and the
diagonal-singularity exponent probe.

Axisymmetric (s, z) tables about the propagation direction carry all
fields (built-in models are radial).
"""

from __future__ import annotations

import copy
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import _cyl
from .numerics import (DomainError, NumericalError, ParameterError, composite_gauss,
                       lazy_names)
from .potentials import PotentialModel, line_integral, ray_difference
from .born import ConvergenceError, transport_orders

# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound, and scipy.integrate is imported only when it is
# first read, until the tracer drops it.
__getattr__ = lazy_names(globals(), quad="scipy.integrate")

CONE_HALF_ANGLE = np.deg2rad(15.0)
TAPER_FRACTION = 0.2
S0_CAP_DELTA = 0.5
# Sign of the plane-integral kernel for directions in the cap around +omega0.
S0_SIGN = -1.0
# Transport order of the S0 samples behind the diagonal-singularity probe.
PROBE_N = 1
# Gauss nodes per S0 plane panel, and the largest (a, b) node mesh of the
# nested plane rule (the window's and its enlargement's in one).  The
# quadrature walks the mesh in row blocks of about _PLANE_BLOCK points, in
# one workspace per call, and holds no full-mesh array: at most about 3.5 MB
# (tracemalloc peak of s0_kernel at lam = 100) with 6 psi planes and 4.3 MB
# with 9, at any mesh size, plus 32 bytes per row for the two windows' row
# sums (66 kB at the cap).
PLANE_NODES = 8
MAX_PLANE_POINTS = 2**22
_PLANE_BLOCK = 2**14


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def default_n0(rho: float) -> int:
    """Iteration depth: 0 (no phase correction needed) for short range,
    otherwise the smallest depth with margin over N0 * rho > 1."""
    if rho > 1.0:
        return 0
    return int(np.ceil(1.5 / rho))


# ---------------------------------------------------------------------------
# explicit ray integral
# ---------------------------------------------------------------------------

def eikonal_phase_integral(model: PotentialModel, x, xi, sign: int) -> float:
    """Phi_pm at a point from potentials.ray_difference (closed form for
    power tails, a composite Gauss rule on the support crossings otherwise).

    Requires rho > 1/2 for absolute convergence of the difference
    integrand; x must avoid the CONE_HALF_ANGLE cone around the -sign * xi
    direction.  yukawa raises DomainError: the reference ray int_0^inf v
    diverges at the core.
    """
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    if model.rho <= 0.5:
        raise ConvergenceError("difference ray integral requires rho > 1/2")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    xi_hat = _unit(xi)
    # t |xi| = w - sign z: the ray x + sign t xi runs along w from sign z
    # outward, on the line at distance s from the origin
    z = float(x @ xi_hat)
    s = np.linalg.norm(x - z * xi_hat)
    if -sign * z > np.cos(CONE_HALF_ANGLE) * np.linalg.norm(x):
        raise DomainError("x lies inside the excluded cone around "
                          "-sign * xi direction")
    return sign * 0.5 * float(ray_difference(model, s, sign * z)) / np.linalg.norm(xi)


# ---------------------------------------------------------------------------
# successive approximations on an axisymmetric grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EikonalData:
    """Eikonal correction tables about a propagation axis.

    sign +1 pairs with the outgoing eigenfunction (the CONE_HALF_ANGLE
    cone excluded around the negative axis); sign -1 with the incoming one
    (cone around the positive axis).  Tables are (n_s, n_z) on grid.

    The package builds sign +1 only: for a real radial potential the
    sign -1 tables are the mirror Phi_-(s, z) = -Phi_+(s, -z), and S0 needs
    psi_+ alone.  sign -1 stays as the tests' oracle of the time reversal
    _PsiEvaluator.time_reversed, which serves only __call__ and the tests.
    """

    sign: int
    model: PotentialModel
    xi_norm: float
    N0: int
    grid: _cyl.CylGrid
    phi_n: tuple[np.ndarray, ...]       # n = 0..N0
    Phi: np.ndarray
    Phi_s: np.ndarray
    Phi_z: np.ndarray
    lap_Phi: np.ndarray
    q: np.ndarray                       # eikonal residual on the grid

    @property
    def lam(self) -> float:
        return self.xi_norm**2

    def off_cone(self) -> np.ndarray:
        return _cyl.off_cone_mask(self.grid, -self.sign, CONE_HALF_ANGLE)


def _phi3_anchor(model: PotentialModel, s: np.ndarray, a: float, sign: int) -> np.ndarray:
    """phi_3 = sign * int_0^inf (f3(x + sign t e_z) - f3(t e_z)) dt on the
    anchor row (rays from w = a on the lines at distances s), with
    f3 = |grad phi_1|^2 = v^2 + (d_s phi_1)^2 and d_s phi_1 a central
    difference of ray_difference (zero on the axis).  Both line_integral
    rules end on the same sphere, so the v^2 tails of a power tail, which
    the rules cut off, cancel to O(s^2 R^(-2 rho - 1)) at its radius R."""
    h = 1e-4 * model.width

    def f3(s, w):
        ds_phi1 = (ray_difference(model, s + h, w)
                   - ray_difference(model, np.abs(s - h), w)) / (2.0 * h)
        return model.radial_values(np.hypot(s, w)) ** 2 + ds_phi1**2
    return sign * (line_integral(model, s, a, f=f3) - line_integral(model, 0.0, 0.0, f=f3))


def _check_order_weight(xi_norm: float, n: int, name: str = "N") -> None:
    """ParameterError unless (2 |xi|)^-n, the weight of order n, is finite."""
    if n > 0 and 2.0 * xi_norm < np.finfo(float).max ** (-1.0 / n):
        raise ParameterError(f"(2 |xi|)^-{name} overflows at xi_norm = "
                             f"{xi_norm:g} and {name} = {n}")


def _table_extent(model: PotentialModel) -> float:
    """The s extent L of the eikonal tables: 40 for power tails,
    max(3 effective_range, 20) otherwise."""
    if model.kind == "power_tail":
        return 40.0
    return max(3.0 * model.effective_range, 20.0)


def eikonal_iterate(model: PotentialModel, xi_norm: float,
                    N0: int | None = None, sign: int = +1) -> EikonalData:
    """Solve the linearized ray equations by successive approximations.

    With zero vector potential phi_0 = 0 and the even orders vanish;
    phi_1 solves the ray equation with source v, phi_3 the one with
    source |grad phi_1|^2.  Each table is anchored by the difference ray
    integral on the far row and marched along rays.  The grid is 161 x 481
    nodes on s in [0, L], z in [-1.5 L, 1.5 L], with L = _table_extent.
    For N0 = 0, Phi and its derivatives are one zero table, phi_0, and
    q = v.  ParameterError when a weight (2 |xi|)^-n, n <= N0, overflows;
    NumericalError when q is not finite (|grad Phi|^2 overflows on a
    strong enough v), before any transport order is marched on it.
    """
    if model.rho <= 0.5:
        raise ConvergenceError("iteration implemented for rho > 1/2")
    if N0 is None:
        N0 = default_n0(model.rho)
    if N0 == 0:
        if model.rho <= 1.0:
            raise ParameterError("N0 = 0 (no phase correction) needs rho > 1")
    elif N0 * model.rho <= 1.0:
        raise ParameterError(f"need N0 * rho > 1, got {N0 * model.rho}")
    if N0 > 4:
        raise ParameterError("N0 > 4 not supported (rho <= 1/2 regime)")
    _check_order_weight(xi_norm, N0, "N0")
    extent = _table_extent(model)
    grid = _cyl.make_grid(s_max=extent, z_max=1.5 * extent, n_s=161, n_z=481)
    v = model.radial_values(grid.radius())

    # the tables are anchored on the far row (z_max for sign +, z_min for
    # sign -), whose rays x + sign t e_z run along w = sign z from a outward.
    # phi_n, n = 0..N0, are the rows of one stack, marched into it; the even
    # orders stay 0: phi_0 = 0 for zero vector potential, and the sources of
    # phi_2 (2 grad phi_0 . grad phi_1) and phi_4 vanish with phi_0 = phi_2 = 0
    march = _cyl.march_down if sign > 0 else _cyl.march_up
    a = grid.z[-1] if sign > 0 else -grid.z[0]
    phi = np.zeros((N0 + 1,) + v.shape)
    if N0 >= 1:
        source = np.negative(v)
        march(source, grid, sign * ray_difference(model, grid.s, a), out=phi[1])
    if N0 >= 3:
        # the source -|grad phi_1|^2, with d_dz phi_1 formed in phi_3's row
        f3 = np.square(_cyl.d_ds(phi[1], grid, out=source), out=source)
        f3 += np.square(_cyl.d_dz(phi[1], grid, out=phi[3]), out=phi[3])
        np.negative(f3, out=f3)
        march(f3, grid, _phi3_anchor(model, grid.s, a, sign), out=phi[3])

    if N0 == 0:
        # Phi = 0: no derivative pass, and q = 2 |xi| Phi_z + |grad Phi|^2 + v
        # is v itself.  The shared zero table stays writeable: scipy's
        # RegularGridInterpolator skips its fast linear path on read-only
        # values, and _PsiEvaluator.__call__ interpolates Phi, Phi_s and
        # Phi_z (the amplitudes' stack has no Phi planes for N0 = 0)
        Phi = Phi_s = Phi_z = lap_Phi = phi[0]
        q = v
    else:
        # Phi and its derivatives are the rows of one stack; Lap Phi's row
        # holds each weighted order until Phi is summed
        Phi, Phi_s, Phi_z, lap_Phi = np.empty((4,) + v.shape)
        weights = (2.0 * xi_norm) ** -np.arange(N0 + 1)
        np.multiply(weights[0], phi[0], out=Phi)
        for w, p in zip(weights[1:], phi[1:]):
            Phi += np.multiply(w, p, out=lap_Phi)
        _cyl.laplacian(_cyl.d_ds(Phi, grid, out=Phi_s), _cyl.d_dz(Phi, grid, out=Phi_z),
                       grid, out=lap_Phi)
        # q = 2 |xi| Phi_z + Phi_z^2 + Phi_s^2 + v, summed left to right
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.multiply(2.0 * xi_norm, Phi_z)
            q += np.square(Phi_z, out=source)
            q += np.square(Phi_s, out=source)
            q += v
    if not np.isfinite(q).all():
        raise NumericalError("q = 2 |xi| Phi_z + |grad Phi|^2 + v is not finite "
                             "on the eikonal tables")
    return EikonalData(
        sign=sign, model=model, xi_norm=float(xi_norm),
        N0=N0, grid=grid, phi_n=tuple(phi), Phi=Phi, Phi_s=Phi_s,
        Phi_z=Phi_z, lap_Phi=lap_Phi, q=q)


# ---------------------------------------------------------------------------
# transport coefficients and the residual norms of approximate eigenfunctions
# ---------------------------------------------------------------------------

def _recursion(eikonal: EikonalData, N: int) -> Iterator[np.ndarray]:
    """b_0, f_0, ..., b_N, f_N of the amplitude recursion transport_orders,
    ray(b_{n+1}) = -Lap b_n - 2i grad Phi . grad b_n - i (Lap Phi) b_n + q b_n,
    on the eikonal tables; real for N0 = 0 (Phi = 0), complex otherwise."""
    march = _cyl.march_down if eikonal.sign > 0 else _cyl.march_up
    phi = None
    if eikonal.N0 > 0:
        phi = (eikonal.Phi_s, eikonal.Phi_z, eikonal.lap_Phi)
    return transport_orders(eikonal.model, eikonal.grid, eikonal.q, N, march,
                            np.zeros(len(eikonal.grid.s)), phi)


def residual_norms(eikonal: EikonalData, N: int) -> list[float]:
    """The norms of the PDE residuals (-Lap + v - lambda) psi over the
    off-cone interior of the approximate eigenfunctions psi_pm =
    exp(i(x.xi + Phi)) sum_n (2 i |xi|)^-n b_n of orders n = 0..N, from one
    march of _recursion."""
    grid = eikonal.grid
    xi = eikonal.xi_norm
    # the residual of order N carries (2 |xi|)^-N, which must stay finite
    _check_order_weight(xi, N)
    mask = eikonal.off_cone()
    mask[:3, :] = False
    mask[-3:, :] = False
    mask[:, :3] = False
    mask[:, -3:] = False
    weight = 2.0 * np.pi * grid.s[mask.nonzero()[0]]

    # (-Lap + v - lambda) psi = exp(i(xi z + Phi)) [ q b - i (Lap Phi) b
    #   - 2i (xi e_z + grad Phi) . grad b - Lap b ];  with the recursion the
    # bracket of order n telescopes exactly to (2 i |xi|)^-n f_n, the source
    # of b_n, which is the stable form (the direct difference cancels to the
    # differencing floor).  Phi is real, so the phase has modulus 1
    norms = []
    for n, f in enumerate(islice(_recursion(eikonal, N), 1, None, 2)):
        residual = (2.0 * xi) ** -n * f[mask]
        norm2 = np.sum(np.abs(residual) ** 2 * weight) * grid.ds * grid.dz
        norms.append(float(np.sqrt(norm2)))
        del f, residual  # not held while the recursion forms the next source
    return norms


# ---------------------------------------------------------------------------
# plane-integral kernel of the scattering matrix
# ---------------------------------------------------------------------------

def _taper_profile(u: np.ndarray) -> np.ndarray:
    """C^2 smoothstep: 1 for u <= 0, 0 for u >= 1."""
    s = np.clip(u, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


@dataclass(frozen=True)
class S0Sample:
    value: complex
    sensitivity: float
    converged: bool
    N: int


def _cells(nodes: np.ndarray):
    """(edges, origins, widths) of the cells of a node axis x_0 < ... <
    x_{n-1} in a table padded with one fill entry before x_0 and two after
    x_{n-1}.  The point x lies in cell j = searchsorted(edges, x, "right"),
    between padded entries j and j + 1, at the fraction clip((x - origins[j])
    / widths[j], 0, 1): inside, (x - x_{j-1}) / (x_j - x_{j-1}) as scipy's
    RegularGridInterpolator takes it; x = x_{n-1} reads the last node;
    before x_0 or past x_{n-1} it reads the fill."""
    edges = np.append(nodes, np.nextafter(nodes[-1], np.inf))
    origins = np.concatenate([nodes[:1], edges])
    widths = np.concatenate([[1.0], np.diff(nodes), [1.0, 1.0]])
    return edges, origins, widths


def _locate(cells, x):
    """The cell index and fraction of each x (see _cells); NaN stays NaN."""
    edges, origins, widths = cells
    j = np.searchsorted(edges, x, side="right")
    t = np.subtract(x, origins[j])
    t /= widths[j]
    return j, np.clip(t, 0.0, 1.0, out=t)


class _PsiEvaluator:
    """Evaluates psi and its derivative along a fixed space direction from
    axisymmetric tables, for any propagation direction omega.

    One real stack holds the tables as planes: the real and imaginary parts
    of b, d_s b and d_z b, then Phi, Phi_s and Phi_z when N0 >= 1 (6 or 9
    planes), each padded with its value outside the grid (b = 1, all else
    0).  amplitudes reads them bilinearly, with one cell search per axis,
    and leaves the plane wave exp(i xi z) out.

    Built from outgoing (sign +1) tables it evaluates psi_+; the __call__
    of its time_reversed() twin, which shares the stack (reverses is then
    the outgoing one), evaluates psi_-(x; omega) = conj psi_+(x; -omega).
    """

    def __init__(self, eikonal: EikonalData, b_n: tuple[np.ndarray, ...]):
        self.eikonal = eikonal
        self.N = len(b_n) - 1
        self.reverses: _PsiEvaluator | None = None
        grid = eikonal.grid
        self.xi = eikonal.xi_norm
        orders = (2j * self.xi) ** -np.arange(self.N + 1)
        # b = sum_n orders[n] b_n whole, then d_s b and d_z b in one work
        # table, each written straight into its planes
        btot = np.multiply(orders[0], b_n[0])
        work = np.empty_like(btot)
        for o, bn in zip(orders[1:], b_n[1:]):
            btot += np.multiply(o, bn, out=work)
        # (plane, z, s): a z row of each plane is contiguous
        stack = np.zeros((9 if eikonal.N0 >= 1 else 6, len(grid.z) + 3, len(grid.s) + 3))
        stack[0] = 1.0
        inner = stack[:, 1:-2, 1:-2].transpose(0, 2, 1)
        inner[0], inner[1] = btot.real, btot.imag
        _cyl.d_ds(btot, grid, out=work)
        inner[2], inner[3] = work.real, work.imag
        _cyl.d_dz(btot, grid, out=work)
        inner[4], inner[5] = work.real, work.imag
        if eikonal.N0 >= 1:
            inner[6], inner[7], inner[8] = eikonal.Phi, eikonal.Phi_s, eikonal.Phi_z
        self._stack = stack
        self._s_cells = _cells(grid.s)
        self._z_cells = _cells(grid.z)
        # the nine scipy interpolators of __call__, built on its first call
        # and shared with the twin
        self._interp: list = []

    def time_reversed(self) -> _PsiEvaluator:
        """psi_- for a real radial potential: time reversal maps psi_+(x; w)
        to conj psi_+(x; -w), so the incoming tables are never built."""
        if self.reverses is not None:
            return self.reverses
        rev = copy.copy(self)
        rev.reverses = self
        return rev

    def __call__(self, points: np.ndarray, omega: np.ndarray,
                 deriv_dir: np.ndarray):
        """(psi, d psi / d t) along deriv_dir at the given 3D points:
        exp(i xi z) times the amplitudes read off the tables by nine scipy
        RegularGridInterpolators.  It is amplitudes' oracle, and what the
        benchmark's traced check counts."""
        if self.reverses is not None:
            psi, dpsi = self.reverses(points, -omega, deriv_dir)
            return np.conj(psi), np.conj(dpsi)
        s, z = _cyl.cyl_coords(points, omega)
        dz_dt = float(omega @ deriv_dir)
        perp = points - np.outer(z, omega)
        dir_perp = deriv_dir - dz_dt * omega
        safe_s = np.where(s > 1e-12, s, 1.0)
        ds_dt = np.where(s > 1e-12, (perp @ dir_perp) / safe_s, 0.0)
        wave = np.exp(1j * (self.xi * z))
        amp, damp = self._assemble(self._scipy_planes(s, z), ds_dt, dz_dt)
        return wave * amp, wave * damp

    def workspace(self, rows: int, points: int) -> _Workspace:
        """Work arrays for amplitudes(..., out=) at up to rows z values and
        points points, which the caller owns: amplitudes writes its lookups
        and its (A, D) into them and keeps no state between calls."""
        planes, _, width = self._stack.shape
        return _Workspace(*(np.empty(n, dtype) for n, dtype in (
            (planes * rows * width, float), (planes * points, float),
            (planes * max(rows * width, points), float),
            (points, complex), (points, complex), (points, complex))))

    def amplitudes(self, s, z, ds_dt, dz_dt: float, out: _Workspace | None = None):
        """(A, D) = exp(-i xi z) (psi, d psi / d t) of the stack's tables at
        (s, z) about omega moving at rates (ds_dt, dz_dt), broadcast to the
        shape of s.  z may hold one value per row of s (the S0 mesh's rows):
        it is looked up at its own shape, so each value costs a table row.
        With out, a workspace() large enough, every lookup and sum is
        written into it, and A and D are views into it until its next use."""
        return self._assemble(self._planes(s, z, out), ds_dt, dz_dt, out)

    def _planes(self, s, z, work: _Workspace | None = None):
        """The stack's planes at (s, z), in work (a new workspace without
        it): blended along z at z's own shape, then along s at each point.
        Each axis blends f0 (1 - t) + f1 t, as scipy's bilinear rule does,
        so on a node line of the grid the value is scipy's bit for bit."""
        if work is None:
            work = self.workspace(np.size(z), np.size(s))
        stack = self._stack
        planes, _, width = stack.shape
        jz, tz = _locate(self._z_cells, np.ravel(z))
        tz = tz[:, None]
        shape = (planes, len(jz), width)
        rows = np.take(stack, jz, axis=1, out=_carve(work.rows, shape), mode="clip")
        rows *= 1.0 - tz
        hi = np.take(stack, jz + 1, axis=1, out=_carve(work.hi, shape), mode="clip")
        hi *= tz
        rows += hi
        rows = rows.reshape(planes, -1)
        js, ts = _locate(self._s_cells, s)
        js += width * np.arange(np.size(z)).reshape(np.shape(z))
        shape = (planes,) + js.shape
        out = np.take(rows, js, axis=1, out=_carve(work.lo, shape), mode="clip")
        js += 1
        hi = np.take(rows, js, axis=1, out=_carve(work.hi, shape), mode="clip")
        hi *= ts
        out *= np.subtract(1.0, ts, out=ts)
        out += hi
        return out

    def _scipy_planes(self, s, z):
        """The nine tables at (s, z) from scipy's RegularGridInterpolators,
        in the stack's order (the Phi planes are the zero table for N0 = 0)."""
        if not self._interp:
            grid, eik = self.eikonal.grid, self.eikonal
            inner = [plane[1:-2, 1:-2].T for plane in self._stack[:6]]
            tables = inner + [eik.Phi, eik.Phi_s, eik.Phi_z]
            self._interp.extend(_cyl.interpolator(grid, t) for t in tables)
            # outside the table b = 1, Phi = 0
            self._interp[0].fill_value = 1.0
        shape = np.shape(s)
        # (n, 2) in Fortran order: the interpolator's per-call NaN scan
        # then runs down contiguous columns
        pts = np.array([np.ravel(s), np.ravel(np.broadcast_to(z, shape))]).T
        return np.array([f(pts).reshape(shape) for f in self._interp])

    def _assemble(self, planes, ds_dt, dz_dt, work: _Workspace | None = None):
        """(A, D) from the plane values: A = exp(i Phi) b and D = i (xi
        dz_dt + d Phi / d t) A + exp(i Phi) d b / d t, without the plane
        wave exp(i xi z), in work's complex arrays (new ones without work).
        The Phi_s and Phi_z planes are overwritten."""
        shape = planes[0].shape
        if work is None:
            amp, db_dt, w = (np.empty(shape, complex) for _ in range(3))
        else:
            amp, db_dt, w = (_carve(a, shape) for a in (work.amp, work.damp, work.scratch))
        np.add(planes[0], np.multiply(1j, planes[1], out=amp), out=amp)
        np.add(planes[2], np.multiply(1j, planes[3], out=db_dt), out=db_dt)
        db_dt *= ds_dt
        np.add(planes[4], np.multiply(1j, planes[5], out=w), out=w)
        w *= dz_dt
        db_dt += w
        dphi_dt = self.xi * dz_dt
        if len(planes) > 6:
            Phi, Phi_s, Phi_z = planes[6:]
            phase = np.exp(np.multiply(1j, Phi, out=w), out=w)
            amp *= phase
            db_dt *= phase
            dphi_dt = np.add(dphi_dt, np.multiply(Phi_s, ds_dt, out=Phi_s), out=Phi_s)
            dphi_dt += np.multiply(Phi_z, dz_dt, out=Phi_z)
        # D = (i d Phi / d t) A + d b / d t, in d b / d t's array
        db_dt += np.multiply(np.multiply(1j, dphi_dt, out=w), amp, out=w)
        return amp, db_dt


# the work arrays of _PsiEvaluator.amplitudes: the z-blended rows of the
# stack, the planes at the points (lower and upper; the upper first holds the
# stack's upper rows), and A, D and a complex scratch
_Workspace = namedtuple("_Workspace", "rows lo hi amp damp scratch")


def _carve(buf: np.ndarray, shape) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array of shape."""
    return buf[:np.prod(shape, dtype=int)].reshape(shape)


def _s0_windows(model: PotentialModel, sql: float) -> tuple[float, float]:
    """The half-widths of S0's plane window, max(3 effective_range,
    60 / sqrt(lam)) with sql = sqrt(lam), and of its 25% enlargement."""
    window = max(3.0 * model.effective_range, 60.0 / sql)
    return window, 1.25 * window


def _plane_panels(window: float, sql: float) -> int:
    """Panels on [-window, window]: at least six, none wider than a
    wavelength 2 pi / sql."""
    wavelength = 2.0 * np.pi / sql
    return max(6, int(np.ceil(2 * window / wavelength)))


def _extension_panels(panels: int) -> int:
    """Panels on each side of a window of the given panels out to 1.25
    times its half-width: ceil(panels / 8), so none is wider than the
    window's own."""
    return -(-panels // 8)


# the benchmark's eikonal.plane recorder (perfbench/tracing.py) reads the
# nodes of a _plane_rule by name
_PlaneRule = namedtuple("_PlaneRule", "nodes weights")


def _plane_rule(window: float, sql: float, reach: float | None = None) -> _PlaneRule:
    """(nodes, weights) of the Gauss rule of PLANE_NODES nodes per panel on
    the _plane_panels panels of [-window, window]; given reach = 1.25
    window, nested in _extension_panels equal panels on each side out to
    exactly +-reach."""
    panels = _plane_panels(window, sql)
    edges = np.linspace(-window, window, panels + 1)
    if reach is not None:
        outer = np.linspace(window, reach, _extension_panels(panels) + 1)
        edges = np.concatenate([-outer[:0:-1], edges, outer[1:]])
    return _PlaneRule(*composite_gauss(PLANE_NODES, edges))


def _plane_geometry(a: np.ndarray, b: np.ndarray, p: float, c: float):
    """(s, z, ds/dt) about omega = (p, 0, c) of the plane points (a, b, 0) on
    the (a, b) node mesh, t running along the plane's normal e_z.

    z = a p, one column; s^2 = a^2 + b^2 - z^2 >= c^2 (a^2 + b^2), so s keeps
    its digits in the cap; ds/dt = -c z / s and dz/dt = c, since the plane
    point has no e_z component.
    """
    z = a[:, None] * p
    s = np.sqrt(a[:, None] ** 2 + b[None, :] ** 2 - z * z)
    return s, z, -c * z / s


def _s0_quadrature(psi: _PsiEvaluator, theta: float,
                   windows: tuple[float, float]) -> tuple[complex, complex]:
    """The tapered sums over the plane z = 0 for omega, omega' =
    (+-sin(theta/2), 0, cos(theta/2)) from psi = psi_+, over the window and
    over its enlargement, windows = (window, reach) as _s0_windows gives
    them.  Both come from one integrand on the nested rule
    _plane_rule(window, sql, reach), whose middle nodes are those of
    _plane_rule(window, sql), so each node is read once.  The integrand is
    even in b, so the b >= 0 half of the rule (symmetric, 8 nodes per
    panel) is summed with doubled weights, in blocks of _PLANE_BLOCK //
    len(b) rows of a: each block's A D - i sql c against each window's b
    weights, the row sums, times their plane-wave factor, against its a."""
    sql = psi.xi
    window, reach = windows
    nodes, weights = _plane_rule(window, sql, reach)
    # the window's own nodes are nodes[inner]
    edge = np.searchsorted(nodes, -window)
    inner = slice(edge, len(nodes) - edge)

    def tapered(part, win):
        taper = _taper_profile((np.abs(nodes[part]) - win * (1 - TAPER_FRACTION))
                               / (win * TAPER_FRACTION))
        return weights[part] * taper

    w, w_big = tapered(inner, window), tapered(slice(None), reach)
    half = len(nodes) // 2
    a, b = nodes, nodes[half:]
    # complex, so the row sums are complex @ complex products: numpy's
    # complex @ float64 matmul can take milliseconds under threaded BLAS;
    # the window's b weights are those of b[:m]
    wb = (2.0 * w[len(w) // 2:]).astype(complex)
    wb_big = (2.0 * w_big[half:]).astype(complex)
    m = len(wb)
    # omega = (p, 0, c), normalised as every 3-D direction is
    p, _, c = _unit([np.sin(theta / 2), 0.0, np.cos(theta / 2)])
    rows = max(1, _PLANE_BLOCK // len(b))
    work = psi.workspace(rows, rows * len(b))
    row_sums = np.empty((2, len(a)), dtype=complex)
    for i in range(0, len(a), rows):
        s, z, ds_dt = _plane_geometry(a[i:i + rows], b, p, c)
        # q = A D - i sql c, in A's array
        q, damp = psi.amplitudes(s, z, ds_dt, c, out=work)
        q *= damp
        q -= 1j * (sql * c)
        row_sums[0, i:i + rows] = q[:, :m] @ wb
        row_sums[1, i:i + rows] = q @ wb_big
    # psi_-(x; omega') = conj psi_+(x; -omega'): about -omega' each node has
    # omega's (s, z) while d/dt flips both rates, so the pair's integrand is
    # -2 conj(psi_+ d psi_+ / dt).  The free field's (psi = exp(i sql z)),
    # whose taper leakage would swamp the scattering part, is subtracted:
    # -2 exp(-2 i sql z) conj(A D - i sql c), with z = a p one per row
    row_sums = -2.0 * np.exp(-2j * sql * (a * p)) * np.conj(row_sums)
    scale = S0_SIGN * 1j * np.pi * sql * (2 * np.pi) ** -3
    return scale * (w @ row_sums[0, inner]), scale * (w_big @ row_sums[1])


def s0_solutions(model: PotentialModel, lam: float,
                 N: int) -> tuple[_PsiEvaluator, _PsiEvaluator]:
    """Reusable (psi_plus, psi_minus) evaluators at energy lam, with the
    default iteration depth default_n0(rho).

    Only the outgoing (sign +1) eikonal tables and their transport
    amplitudes b_0..b_N are built (no psi table or residual); psi_minus is
    psi_plus.time_reversed() on the same stack.  Before any table,
    ParameterError when (2 sqrt(lam))^-N overflows, when a panel of the
    nested plane rule is wider than the tables' s extent, whose nodes would
    then miss the tables, or when its node mesh exceeds MAX_PLANE_POINTS.
    """
    sql = np.sqrt(lam)
    _check_order_weight(sql, N)
    # the nested rule of _s0_quadrature, counted without building it: the
    # window's panels, the widest, and the extension panels on both sides
    window, _ = _s0_windows(model, sql)
    panels = _plane_panels(window, sql)
    width = 2 * window / panels
    extent = _table_extent(model)
    if width > extent:
        raise ParameterError(
            f"S0 plane panels of width {width:g} at lambda = {lam:g} "
            f"exceed the tables' s extent {extent:g}")
    points = (PLANE_NODES * (panels + 2 * _extension_panels(panels))) ** 2
    if points > MAX_PLANE_POINTS:
        raise ParameterError(f"S0 plane mesh of {points:.4g} points at lambda = "
                             f"{lam:g} exceeds MAX_PLANE_POINTS = {MAX_PLANE_POINTS}")
    eik = eikonal_iterate(model, sql, sign=+1)
    b_n = tuple(islice(_recursion(eik, N), 0, 2 * N + 1, 2))
    psi = _PsiEvaluator(eik, b_n)
    return psi, psi.time_reversed()


def s0_kernel(psi: _PsiEvaluator, theta: float) -> S0Sample:
    """Plane-integral kernel sample (d = 3, zero vector potential) at the
    angle theta between omega, omega' = (+-sin(theta/2), 0, cos(theta/2)),
    over a tapered window of the plane z = 0 of half-width max(3
    effective_range, 60 / sqrt(lam)), from the psi_plus of s0_solutions,
    which carries the model, sqrt(lam) and N.  Both directions lie in the
    cap omega . e_z > S0_CAP_DELTA for 0 < theta < 2 arccos(S0_CAP_DELTA),
    which s0_samples checks.  One pass over a nested plane rule gives two
    tapered sums, over the window and over its 25% enlargement, on the same
    nodes; the sensitivity is their relative change, the window's effect
    alone (the nodes do not move), and the sample is flagged non-converged
    when it exceeds 10%."""
    val, val_big = _s0_quadrature(psi, theta,
                                  _s0_windows(psi.eikonal.model, psi.xi))
    sens = abs(val_big - val) / max(abs(val), 1e-300)
    return S0Sample(value=complex(val), sensitivity=float(sens),
                    converged=bool(sens <= 0.10), N=psi.N)


def s0_samples(model: PotentialModel, lam: float, N: int,
               thetas) -> list[S0Sample]:
    """S0 kernel samples of transport order N at energy lam, one per angle
    in thetas: every angle is checked against the cap first, then one
    s0_solutions build serves every angle."""
    limit = 2.0 * np.arccos(S0_CAP_DELTA)
    for th in thetas:
        if not 0.0 < th < limit:
            raise ParameterError(
                f"directions must lie in the cap around omega0 and differ: "
                f"theta = {th:g} is outside (0, {limit:.6g})")
    psi, _ = s0_solutions(model, lam, N)
    return [s0_kernel(psi, th) for th in thetas]


@dataclass(frozen=True)
class DiagonalProbe:
    fitted_exponent: float
    theoretical_exponent: float
    reliable: bool


def diagonal_exponent_probe(model: PotentialModel, lam: float,
                            angles) -> DiagonalProbe:
    """Fit |s0| ~ |omega - omega'|^p near the diagonal and report p against
    the stationary-phase prediction -(1 + 1/rho) at d = 3 (informational;
    valid regime rho < 1), from the s0_samples of transport order PROBE_N
    at the angles; |omega - omega'| = 2 sin(theta / 2)."""
    angles = np.asarray(angles, dtype=float)
    if len(angles) < 5 or angles.max() < 8.0 * angles.min():
        raise ParameterError("need >= 5 angles spanning a decade")
    samples = s0_samples(model, lam, PROBE_N, angles)
    vals = np.array([sample.value for sample in samples])
    slope = float(np.polyfit(np.log(2.0 * np.sin(angles / 2)),
                             np.log(np.abs(vals)), 1)[0])
    return DiagonalProbe(
        fitted_exponent=slope,
        theoretical_exponent=-(1.0 + 1.0 / model.rho),
        reliable=all(sample.converged for sample in samples),
    )
