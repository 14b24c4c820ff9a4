"""Long-range eikonal machinery with zero vector potential.

Eikonal phase corrections by the explicit ray integral

    Phi_pm(x, xi) = +/- (1/2) int_0^inf ( v(x +/- t xi) - v(+/- t xi) ) dt

and by successive approximations Phi = sum_n (2|xi|)^-n phi_n; transport
coefficients multiplying exp(i(x.xi + Phi)); assembled approximate
eigenfunctions with their PDE residual; the plane-integral kernel of the
scattering matrix near a reference direction; and the diagonal-singularity
exponent probe.

Axisymmetric (s, z) tables about the propagation direction carry all
fields (built-in models are radial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound until the tracer drops it.
from scipy.integrate import quad  # noqa: F401

from . import _cyl
from .numerics import DomainError, ParameterError, composite_gauss
from .potentials import PotentialModel, line_integral, ray_difference
from .born import ConvergenceError

CONE_HALF_ANGLE = np.deg2rad(15.0)
TAPER_FRACTION = 0.2
S0_CAP_DELTA = 0.5
# Sign of the plane-integral kernel for directions in the cap around +omega0.
S0_SIGN = -1.0


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

def eikonal_phase_integral(model: PotentialModel, x, xi, sign: int,
                           cone_half_angle: float = CONE_HALF_ANGLE) -> float:
    """Phi_pm at a point from potentials.ray_difference (closed form for
    power tails, a composite Gauss rule on the support crossings otherwise).

    Requires rho > 1/2 for absolute convergence of the difference
    integrand; x must avoid the cone around -sign * xi direction.  yukawa
    raises DomainError: the reference ray int_0^inf v diverges at the core.
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
    if -sign * z > np.cos(cone_half_angle) * np.linalg.norm(x):
        raise DomainError("x lies inside the excluded cone around "
                          "-sign * xi direction")
    return sign * 0.5 * float(ray_difference(model, s, sign * z)) / np.linalg.norm(xi)


# ---------------------------------------------------------------------------
# successive approximations on an axisymmetric grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EikonalData:
    """Eikonal correction tables about a propagation axis.

    sign +1 pairs with the outgoing eigenfunction (cone excluded around
    the negative axis); sign -1 with the incoming one (cone around the
    positive axis).  Tables are (n_s, n_z) on grid.
    """

    sign: int
    model: PotentialModel
    xi_hat: np.ndarray
    xi_norm: float
    N0: int
    grid: _cyl.CylGrid
    phi_n: tuple[np.ndarray, ...]       # n = 0..N0
    Phi: np.ndarray
    Phi_s: np.ndarray
    Phi_z: np.ndarray
    lap_Phi: np.ndarray
    q: np.ndarray                       # eikonal residual on the grid
    cone_half_angle: float = CONE_HALF_ANGLE

    @property
    def lam(self) -> float:
        return self.xi_norm**2

    def off_cone(self) -> np.ndarray:
        return _cyl.off_cone_mask(self.grid, -self.sign, self.cone_half_angle)

    def Phi_at(self, points) -> np.ndarray:
        s, z = _cyl.cyl_coords(points, self.xi_hat)
        return _cyl.interpolator(self.grid, self.Phi)(np.column_stack([s, z]))


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


def eikonal_iterate(model: PotentialModel, xi_hat, xi_norm: float,
                    N0: int | None = None, sign: int = +1,
                    grid: _cyl.CylGrid | None = None,
                    cone_half_angle: float = CONE_HALF_ANGLE) -> EikonalData:
    """Solve the linearized ray equations by successive approximations.

    With zero vector potential phi_0 = 0 and the even orders vanish;
    phi_1 solves the ray equation with source v, phi_3 the one with
    source |grad phi_1|^2.  Each table is anchored by the difference ray
    integral on the far row and marched along rays.
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
    xi_hat = _unit(xi_hat)
    if grid is None:
        extent = 40.0 if model.kind == "power_tail" else max(
            3.0 * model.effective_range, 20.0)
        grid = _cyl.make_grid(s_max=extent, z_max=1.5 * extent,
                              n_s=161, n_z=481)
    r = grid.radius()
    v = model.radial_values(r)

    # the tables are anchored on the far row (z_max for sign +, z_min for
    # sign -), whose rays x + sign t e_z run along w = sign z from a outward
    march = _cyl.march_down if sign > 0 else _cyl.march_up
    a = grid.z[-1] if sign > 0 else -grid.z[0]
    phi = [np.zeros_like(v)]  # phi_0 = 0 for zero vector potential
    if N0 >= 1:
        phi.append(march(-v, grid, sign * ray_difference(model, grid.s, a)))
    if N0 >= 2:
        phi.append(np.zeros_like(v))  # phi_2: source 2 grad phi_0 . grad phi_1 = 0
    if N0 >= 3:
        f3 = _cyl.d_ds(phi[1], grid) ** 2 + _cyl.d_dz(phi[1], grid) ** 2
        phi.append(march(-f3, grid, _phi3_anchor(model, grid.s, a, sign)))
    if N0 >= 4:
        phi.append(np.zeros_like(v))  # phi_4: sources vanish with phi_0 = phi_2 = 0

    weights = (2.0 * xi_norm) ** -np.arange(N0 + 1)
    Phi = sum(w * p for w, p in zip(weights, phi))
    Phi_s = _cyl.d_ds(Phi, grid)
    Phi_z = _cyl.d_dz(Phi, grid)
    lap_Phi = _cyl.laplacian(Phi, grid)
    q = 2.0 * xi_norm * Phi_z + Phi_z**2 + Phi_s**2 + v
    return EikonalData(
        sign=sign, model=model, xi_hat=xi_hat, xi_norm=float(xi_norm),
        N0=N0, grid=grid, phi_n=tuple(phi), Phi=Phi, Phi_s=Phi_s,
        Phi_z=Phi_z, lap_Phi=lap_Phi, q=q, cone_half_angle=cone_half_angle,
    )


# ---------------------------------------------------------------------------
# transport coefficients and approximate eigenfunctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximateEigenfunction:
    """psi_pm = exp(i(x.xi + Phi)) sum_n (2 i |xi|)^-n b_n on the grid."""

    eikonal: EikonalData
    N: int
    b_n: tuple[np.ndarray, ...]
    psi: np.ndarray
    residual: np.ndarray        # (-Lap + v - lambda) psi, off-cone interior
    residual_norm: float

    @property
    def lam(self) -> float:
        return self.eikonal.lam

    @property
    def sign(self) -> int:
        return self.eikonal.sign


def transport_solve(model: PotentialModel, eikonal: EikonalData,
                    N: int) -> ApproximateEigenfunction:
    """Solve the amplitude recursion b_0 = 1,
    ray(b_{n+1}) = -Lap b_n - 2i grad Phi . grad b_n - i (Lap Phi) b_n + q b_n,
    and assemble psi with its PDE residual norm."""
    if model is not eikonal.model and model != eikonal.model:
        raise ParameterError("model must match the eikonal data")
    grid = eikonal.grid
    r = grid.radius()
    v = model.radial_values(r)
    xi = eikonal.xi_norm
    sign = eikonal.sign

    def source(bn):
        return (-_cyl.laplacian(bn.real, grid) - 1j * _cyl.laplacian(bn.imag, grid)
                - 2j * (eikonal.Phi_s * _cyl.d_ds(bn, grid)
                        + eikonal.Phi_z * _cyl.d_dz(bn, grid))
                - 1j * eikonal.lap_Phi * bn
                + eikonal.q * bn)

    b = [np.ones_like(v, dtype=complex)]
    for n in range(N):
        f = source(b[-1])
        zero = np.zeros(len(grid.s))
        if sign > 0:
            b.append(_cyl.march_down(f, grid, zero))
        else:
            b.append(_cyl.march_up(f, grid, zero))

    orders = (2j * xi) ** -np.arange(N + 1)
    btot = sum(o * bn for o, bn in zip(orders, b))
    ss, zz = grid.mesh()
    phase = np.exp(1j * (xi * zz + eikonal.Phi))
    psi = phase * btot

    # (-Lap + v - lambda) psi = exp(i phi) [ q b - i (Lap Phi) b
    #   - 2i (xi e_z + grad Phi) . grad b - Lap b ];  with the recursion
    # the bracket telescopes exactly to (2 i |xi|)^-N f(b_N), which is the
    # stable form (the direct difference cancels to the differencing floor)
    residual = phase * ((2j * xi) ** -N * source(b[N]))

    mask = eikonal.off_cone()
    mask[:3, :] = False
    mask[-3:, :] = False
    mask[:, :3] = False
    mask[:, -3:] = False
    weight = 2.0 * np.pi * np.maximum(ss, grid.ds / 4.0)
    norm2 = np.sum(np.abs(residual[mask]) ** 2 * weight[mask]) * grid.ds * grid.dz
    return ApproximateEigenfunction(
        eikonal=eikonal, N=N, b_n=tuple(b), psi=psi,
        residual=residual, residual_norm=float(np.sqrt(norm2)),
    )


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
    window: float
    sensitivity: float
    converged: bool
    lam: float
    omega: np.ndarray
    omega_prime: np.ndarray
    N: int


class _PsiEvaluator:
    """Evaluates psi and its derivative along a fixed space direction from
    axisymmetric tables, for any propagation direction omega."""

    def __init__(self, solution: ApproximateEigenfunction):
        self.sol = solution
        eik = solution.eikonal
        grid = eik.grid
        self.xi = eik.xi_norm
        orders = (2j * self.xi) ** -np.arange(solution.N + 1)
        btot = sum(o * bn for o, bn in zip(orders, solution.b_n))
        bs = _cyl.d_ds(btot, grid)
        bz = _cyl.d_dz(btot, grid)
        self._interp = {
            "Phi": _cyl.interpolator(grid, eik.Phi),
            "Phi_s": _cyl.interpolator(grid, eik.Phi_s),
            "Phi_z": _cyl.interpolator(grid, eik.Phi_z),
            "b_re": _cyl.interpolator(grid, btot.real),
            "b_im": _cyl.interpolator(grid, btot.imag),
            "bs_re": _cyl.interpolator(grid, bs.real),
            "bs_im": _cyl.interpolator(grid, bs.imag),
            "bz_re": _cyl.interpolator(grid, bz.real),
            "bz_im": _cyl.interpolator(grid, bz.imag),
        }
        # outside the table b = 1, Phi = 0
        self._interp["b_re"].fill_value = 1.0

    def __call__(self, points: np.ndarray, omega: np.ndarray,
                 deriv_dir: np.ndarray):
        """(psi, d psi / d t) along deriv_dir at the given 3D points."""
        s, z = _cyl.cyl_coords(points, omega)
        pts = np.column_stack([s, z])
        get = lambda name: self._interp[name](pts)
        Phi = get("Phi")
        b = get("b_re") + 1j * get("b_im")
        b_s = get("bs_re") + 1j * get("bs_im")
        b_z = get("bz_re") + 1j * get("bz_im")
        Phi_s = get("Phi_s")
        Phi_z = get("Phi_z")

        dz_dt = float(omega @ deriv_dir)
        perp = points - np.outer(z, omega)
        dir_perp = deriv_dir - dz_dt * omega
        safe_s = np.where(s > 1e-12, s, 1.0)
        ds_dt = np.where(s > 1e-12, (perp @ dir_perp) / safe_s, 0.0)

        phase = np.exp(1j * (self.xi * z + Phi))
        psi = phase * b
        dphi_dt = self.xi * dz_dt + Phi_s * ds_dt + Phi_z * dz_dt
        db_dt = b_s * ds_dt + b_z * dz_dt
        dpsi = phase * (1j * dphi_dt * b + db_dt)
        return psi, dpsi


def _plane_rule(window: float, sql: float):
    wavelength = 2.0 * np.pi / sql
    n_panels = max(6, int(np.ceil(2 * window / wavelength)))
    edges = np.linspace(-window, window, n_panels + 1)
    return composite_gauss(8, edges)


def _s0_quadrature(psi_plus: _PsiEvaluator, psi_minus: _PsiEvaluator,
                   omega, omega_prime, omega0, lam: float,
                   window: float) -> complex:
    sql = np.sqrt(lam)
    rule = _plane_rule(window, sql)
    e1, e2 = _cyl.plane_basis(omega0)

    taper = _taper_profile(
        (np.abs(rule.nodes) - window * (1 - TAPER_FRACTION))
        / (window * TAPER_FRACTION))
    w = rule.weights * taper
    a = b = rule.nodes
    wb = w
    if omega @ e2 == 0.0 and omega_prime @ e2 == 0.0:
        # b -> -b maps every node's (s, z) about omega and omega' and its
        # derivative along omega0 onto themselves, so the integrand is even
        # in b; the rule is symmetric with no node at 0 (8 per panel)
        half = len(b) // 2
        b, wb = b[half:], 2.0 * w[half:]
    pts = (a[:, None, None] * e1[None, None, :]
           + b[None, :, None] * e2[None, None, :]).reshape(-1, 3)
    pp, dpp = psi_plus(pts, omega, omega0)
    pm, dpm = psi_minus(pts, omega_prime, omega0)
    # subtract the free-field (v = 0) integrand: off the diagonal it
    # contributes nothing over the infinite plane, but its finite-window
    # taper leakage would otherwise swamp the scattering part
    zp = pts @ omega
    zm = pts @ omega_prime
    fp = np.exp(1j * sql * zp)
    fm = np.exp(1j * sql * zm)
    dfp = 1j * sql * float(omega @ omega0) * fp
    dfm = 1j * sql * float(omega_prime @ omega0) * fm
    integrand = (np.conj(pp) * dpm - np.conj(dpp) * pm
                 - (np.conj(fp) * dfm - np.conj(dfp) * fm))
    total = w @ integrand.reshape(len(a), len(b)) @ wb
    return S0_SIGN * 1j * np.pi * lam ** 0.5 * (2 * np.pi) ** -3 * total


def s0_solutions(model: PotentialModel, lam: float, N: int,
                 grid: _cyl.CylGrid | None = None,
                 N0: int | None = None) -> tuple[_PsiEvaluator, _PsiEvaluator]:
    """Reusable (psi_plus, psi_minus) evaluators at energy lam."""
    sql = np.sqrt(lam)
    axis = np.array([0.0, 0.0, 1.0])
    eik_p = eikonal_iterate(model, axis, sql, N0=N0, sign=+1, grid=grid)
    eik_m = eikonal_iterate(model, axis, sql, N0=N0, sign=-1, grid=grid)
    sol_p = transport_solve(model, eik_p, N)
    sol_m = transport_solve(model, eik_m, N)
    return _PsiEvaluator(sol_p), _PsiEvaluator(sol_m)


def coplanar_pair(omega0: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(omega, omega') = cos(theta/2) omega0 +- sin(theta/2) e1: the pair at
    angle theta symmetric about the unit vector omega0, in the plane of
    omega0 and e1 from _cyl.plane_basis(omega0)."""
    e1, _ = _cyl.plane_basis(omega0)
    return (np.cos(theta / 2) * omega0 + np.sin(theta / 2) * e1,
            np.cos(theta / 2) * omega0 - np.sin(theta / 2) * e1)


def s0_directions(omega, omega_prime, omega0):
    """Unit (omega, omega', omega0) for the S0 kernel; ParameterError when a
    direction leaves the cap omega . omega0 > 0.5 or the two coincide."""
    omega = _unit(omega)
    omega_prime = _unit(omega_prime)
    omega0 = _unit(omega0)
    if omega @ omega0 <= S0_CAP_DELTA or omega_prime @ omega0 <= S0_CAP_DELTA:
        raise ParameterError("directions must lie in the cap around omega0")
    if np.allclose(omega, omega_prime):
        raise ParameterError("omega must differ from omega_prime")
    return omega, omega_prime, omega0


def s0_kernel(model: PotentialModel, lam: float, omega, omega_prime, omega0,
              N: int = 3, window: float | None = None,
              solutions: tuple | None = None) -> S0Sample:
    """Plane-integral kernel sample over a tapered window of the plane
    through the origin orthogonal to omega0 (d = 3, zero vector potential).

    Directions must lie in the cap omega . omega0 > 0.5.  Reports the
    relative change of the value under a 25% window enlargement; the
    sample is flagged non-converged when that exceeds 10%.
    """
    omega, omega_prime, omega0 = s0_directions(omega, omega_prime, omega0)
    if window is None:
        window = max(3.0 * model.effective_range, 60.0 / np.sqrt(lam))
    if solutions is None:
        solutions = s0_solutions(model, lam, N)
    psi_plus, psi_minus = solutions
    val = _s0_quadrature(psi_plus, psi_minus, omega, omega_prime, omega0,
                         lam, window)
    val_big = _s0_quadrature(psi_plus, psi_minus, omega, omega_prime, omega0,
                             lam, 1.25 * window)
    sens = abs(val_big - val) / max(abs(val), 1e-300)
    return S0Sample(value=complex(val), window=float(window),
                    sensitivity=float(sens), converged=bool(sens <= 0.10),
                    lam=lam, omega=omega, omega_prime=omega_prime, N=N)


@dataclass(frozen=True)
class DiagonalProbe:
    angles: np.ndarray
    separations: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    theoretical_exponent: float
    reliable: bool


def diagonal_exponent_probe(model: PotentialModel, lam: float, omega0,
                            angles, N: int = 1,
                            window: float | None = None) -> DiagonalProbe:
    """Fit |s0| ~ |omega - omega'|^p near the diagonal and report p against
    the stationary-phase prediction -(1 + 1/rho) at d = 3 (informational;
    valid regime rho < 1)."""
    angles = np.asarray(angles, dtype=float)
    if len(angles) < 5 or angles[0] / angles[-1] < 8.0:
        raise ParameterError("need >= 5 decreasing angles spanning a decade")
    omega0 = _unit(omega0)
    solutions = s0_solutions(model, lam, N)
    vals, seps, ok = [], [], True
    for th in angles:
        w, wp = coplanar_pair(omega0, th)
        sample = s0_kernel(model, lam, w, wp, omega0, N=N, window=window,
                           solutions=solutions)
        vals.append(sample.value)
        seps.append(np.linalg.norm(w - wp))
        ok = ok and sample.converged
    vals = np.array(vals)
    seps = np.array(seps)
    slope = float(np.polyfit(np.log(seps), np.log(np.abs(vals)), 1)[0])
    return DiagonalProbe(
        angles=angles, separations=seps, values=vals,
        fitted_exponent=slope,
        theoretical_exponent=-(1.0 + 1.0 / model.rho),
        reliable=bool(ok),
    )
