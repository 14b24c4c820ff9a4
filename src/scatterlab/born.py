"""Born approximation and the high-energy expansion of the scattering kernel.

First Born amplitude and phase shifts, the ray-integral recursion for the
amplitude corrections b_n (b_0 = 1), the truncated kernel

    k_N = -i pi (2 pi)^-3 lambda^(1/2) sum_{n<=N} (2 i sqrt(lambda))^-n
          int exp(i sqrt(lambda) x.(w' - w)) v(x) b_n(x, w') dx      (d = 3)

and least-squares measurement of the error's energy-decay order against
the partial-wave reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound until the tracer drops it.
from scipy.integrate import quad  # noqa: F401

from . import _cyl
from .numerics import DomainError, ParameterError, composite_gauss, spherical_jl
from .potentials import PotentialModel, line_integral
from . import partialwave

FORWARD_CONE_HALF_ANGLE = np.deg2rad(15.0)
RAY_TRUNCATION = 1e-12
_SLICE_BLOCK = 8   # u1 slices of the kernel quadrature evaluated together


class ConvergenceError(RuntimeError):
    """Integral tail estimate exceeds the requested tolerance."""


# ---------------------------------------------------------------------------
# first Born order
# ---------------------------------------------------------------------------

def _radial_fourier(model: PotentialModel, q: float, tol: float = 1e-9) -> float:
    """(1/q) int_0^inf r v(r) sin(qr) dr with an oscillatory tail check."""
    r_cut = model.tail_radius(1e-13)
    if model.kind == "power_tail":
        r_cut = min(r_cut, 2000.0)
    panel = np.pi / max(q, 1e-3)
    n_panels = max(8, int(np.ceil(r_cut / panel)))
    if n_panels > 200000:
        raise ConvergenceError("oscillatory quadrature would need too many panels")
    rule = composite_gauss(12, np.linspace(0.0, r_cut, n_panels + 1))
    val = rule.integrate(lambda r: r * model.radial_values(r) * np.sin(q * r))
    # integration-by-parts bound on the tail |int_R^inf (r v) sin(qr) dr|
    g = r_cut * abs(float(model.radial_values(r_cut)))
    tail = 2.0 * g / q
    if tail > tol * (1.0 + abs(val)):
        raise ConvergenceError(
            f"tail estimate {tail:.2e} at r={r_cut:.1f} exceeds tolerance")
    return val / q


def born_first_amplitude(model: PotentialModel, k: float, theta: float) -> complex:
    """First Born amplitude f1(q) = -(4 pi)^-1 int exp(-i q.x) v(x) dx,
    q = 2 k sin(theta/2); radial reduction -(1/q) int r v sin(qr) dr."""
    if model.kind == "zero":
        return 0.0
    q = 2.0 * k * np.sin(theta / 2.0)
    if q < 1e-12:
        # q -> 0 limit: -(4 pi)^-1 int v = - int_0^inf r^2 v dr
        if model.kind == "power_tail" and model.rho <= 3.0:
            raise ConvergenceError("int |v| diverges for power tail rho <= 3")
        r_cut = model.tail_radius(1e-13)
        rule = composite_gauss(16, np.linspace(0.0, r_cut, 64))
        return complex(-rule.integrate(lambda r: r * r * model.radial_values(r)))
    return complex(-_radial_fourier(model, q))


def born_first_phase_shift(model: PotentialModel, k: float, l: int,
                           tol: float = 1e-8) -> float:
    """delta_l^1 = -k int_0^inf v(r) j_l(kr)^2 r^2 dr."""
    if model.kind == "zero":
        return 0.0
    r_cut = model.tail_radius(1e-13)
    if model.kind == "power_tail":
        r_cut = min(r_cut, 5000.0)
    panel = np.pi / k
    n_panels = max(8, int(np.ceil(r_cut / panel)))
    if n_panels > 200000:
        raise ConvergenceError("quadrature would need too many panels")
    rule = composite_gauss(12, np.linspace(0.0, r_cut, n_panels + 1))
    jl = spherical_jl(l, k * rule.nodes)
    val = -k * float(np.dot(rule.weights, model.radial_values(rule.nodes) * jl * jl * rule.nodes**2))
    # averaged tail: j_l(kr)^2 r^2 ~ 1/(2 k^2) gives -int_R v dr / (2k)
    tail = abs(float(line_integral(model, 0.0, r_cut))) / (2.0 * k)
    if tail > tol * (1.0 + abs(val)):
        raise ConvergenceError(f"tail estimate {tail:.2e} exceeds tolerance")
    return val


# ---------------------------------------------------------------------------
# transport recursion b_{n+1}(x) = int_-inf^0 (-Lap b_n + v b_n)(x + t w') dt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighEnergyExpansion:
    """b_n samples of the high-energy amplitude expansion along direction
    omega_prime; b_0 = 1 identically.  remainder_factor holds
    (-Lap b_N + v b_N)(x); the remainder is (2 i sqrt(lambda))^-N times it."""

    N: int
    omega_prime: np.ndarray
    x_grid: np.ndarray
    b: np.ndarray                  # shape (N+1, n_points), complex
    remainder_factor: np.ndarray   # shape (n_points,), complex
    cone_half_angle: float = FORWARD_CONE_HALF_ANGLE

    def __post_init__(self):
        if not np.allclose(self.b[0], 1.0):
            raise AssertionError("b_0 must be identically 1")


def _bn_tables(model: PotentialModel, N: int, grid: _cyl.CylGrid):
    """b_0..b_N stacked (N+1, n_s, n_z) on the cylindrical grid about the
    propagation axis, marching the ray integral up from z_min (incoming
    convention), and the last source -Lap b_N + v b_N."""
    r = grid.radius()
    v = model.radial_values(r)
    tables = np.empty((N + 1,) + v.shape)
    tables[0] = 1.0
    g = v.copy()  # -Lap b_0 + v b_0
    for n in range(1, N + 1):
        # tail int_-inf^z_min v dz for the n=0 source only; higher sources
        # decay at least as fast and the grid is sized so the tail is negligible
        anchor = np.zeros(len(grid.s))
        if n == 1 and np.max(np.abs(g[:, 0])) > RAY_TRUNCATION:
            anchor = line_integral(model, grid.s, -grid.z[0])
        tables[n] = _cyl.march_up(g, grid, anchor)
        g = -_cyl.laplacian(tables[n], grid) + v * tables[n]
    return tables, g


def _default_cyl_grid(model: PotentialModel, margin: float = 1.0,
                      n_s: int = 181, n_z: int = 481) -> _cyl.CylGrid:
    r_eff = max(model.tail_radius(1e-10), 2.0)
    r_eff = min(r_eff, 80.0)
    return _cyl.make_grid(s_max=r_eff * margin, z_max=r_eff * margin,
                          n_s=n_s, n_z=n_z)


def transport_coefficients(model: PotentialModel, omega_prime, x_grid,
                           N: int, grid: _cyl.CylGrid | None = None) -> HighEnergyExpansion:
    """All b_n, n <= N, at the points of x_grid (shape (m, 3)).

    Radial models use an axisymmetric (s, z) marching grid; the ray
    quadrature requires short-range decay (rho > 1 or compact support).
    """
    omega_prime = np.asarray(omega_prime, dtype=float)
    omega_prime = omega_prime / np.linalg.norm(omega_prime)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if model.kind == "power_tail" and model.rho <= 1.0:
        raise DomainError("ray quadrature does not converge for long-range decay")
    if grid is None:
        grid = _default_cyl_grid(model)
    tables, g_last = _bn_tables(model, N, grid)
    s, z = _cyl.cyl_coords(x_grid, omega_prime)
    vals = _cyl.bilinear(grid, np.concatenate((tables[1:], g_last[None])), s, z)
    b = np.empty((N + 1, len(x_grid)), dtype=complex)
    b[0] = 1.0
    b[1:] = vals[:N]
    remainder = vals[N].astype(complex)
    return HighEnergyExpansion(
        N=N, omega_prime=omega_prime, x_grid=x_grid, b=b,
        remainder_factor=remainder,
    )


# ---------------------------------------------------------------------------
# truncated high-energy kernel and its error order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BornKernelSample:
    lam: float
    omega: np.ndarray
    omega_prime: np.ndarray
    value: complex
    order: int


def _support_radius(model: PotentialModel) -> float:
    r = model.tail_radius(1e-9)
    if r > 60.0:
        raise DomainError(
            f"support radius {r:.1f} too large; kernel quadrature requires "
            "compact or super-exponentially decaying potentials")
    return r


def high_energy_kernel(model: PotentialModel, lam: float, omega, omega_prime,
                       N: int, grid: _cyl.CylGrid | None = None,
                       tables: np.ndarray | None = None) -> BornKernelSample:
    """Truncated kernel k_N(omega, omega', lambda) at d = 3 by grid
    quadrature over the (numerical) support of v: Gauss panels along
    e1 = (omega' - omega)/|omega' - omega| times a tensor rule over the
    (e2, e3) plane of _cyl.plane_basis(e1).  When omega' is orthogonal to
    e3 (or to e2, after swapping the two), as for a pair in the xz- or
    yz-plane, the integrand is even in u3 and the plane rule is folded onto
    u3 > 0 with doubled weights: half the points, the same value up to
    rounding.  Every other pair gets the full rule.

    tables: b_0..b_N (or more) from _bn_tables(model, N, grid), which do
    not depend on lambda or omega; built here when not given.
    """
    omega = np.asarray(omega, dtype=float)
    omega_prime = np.asarray(omega_prime, dtype=float)
    omega = omega / np.linalg.norm(omega)
    omega_prime = omega_prime / np.linalg.norm(omega_prime)
    if model.kind == "zero":
        return BornKernelSample(lam, omega, omega_prime, 0.0 + 0.0j, N)
    if np.allclose(omega, omega_prime):
        raise ParameterError("omega must differ from omega_prime")
    R = _support_radius(model)
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

    if N >= 1:
        if grid is None:
            if tables is not None:
                raise ParameterError("tables need the grid they were built on")
            grid = _default_cyl_grid(model, margin=1.8)
        if tables is None:
            tables, _ = _bn_tables(model, N, grid)
        if len(tables) < N + 1 or tables.shape[1:] != (len(grid.s), len(grid.z)):
            raise ParameterError(
                f"tables of shape {tables.shape} do not hold b_0..b_{N} on the grid")
        bn_tables = tables[1:N + 1]

    # x = u1 e1 + u2 e2 + u3 e3: r^2 = u1^2 + rho^2, z = x.omega' = u1 c1 + z_plane
    if e2 @ omega_prime == 0.0:
        e2, e3 = e3, e2   # both axes carry rule_t, so the swap is a relabelling
    u3, w3 = rule_t.nodes, rule_t.weights
    if e3 @ omega_prime == 0.0:
        # u3 -> -u3 leaves r, z and the phase unchanged, so the integrand is
        # even in u3; rule_t is symmetric with no node at 0 (12 per panel)
        half = len(u3) // 2
        u3, w3 = u3[half:], 2.0 * w3[half:]
    Y2, Y3 = np.meshgrid(rule_t.nodes, u3, indexing="ij")
    rho2 = (Y2 * Y2 + Y3 * Y3).ravel()
    z_plane = (Y2 * (e2 @ omega_prime) + Y3 * (e3 @ omega_prime)).ravel()
    W23 = np.outer(rule_t.weights, w3).ravel()
    c1 = e1 @ omega_prime
    u1 = rule1.nodes
    # per u1 slice: sum of W23 v b_n over the (u2, u3) plane, n = 0..N
    sums = np.empty((N + 1, len(u1)))
    for lo in range(0, len(u1), _SLICE_BLOCK):
        u = u1[lo:lo + _SLICE_BLOCK, None]
        r2 = u * u + rho2
        wv = W23 * model.radial_values(np.sqrt(r2))
        sums[0, lo:lo + _SLICE_BLOCK] = wv.sum(axis=1)
        if N >= 1:
            z = u * c1 + z_plane
            s = np.sqrt(np.maximum(r2 - z * z, 0.0))
            bn = _cyl.bilinear(grid, bn_tables, s, z)
            sums[1:, lo:lo + _SLICE_BLOCK] = np.einsum("nbp,bp->nb", bn, wv)
    phase = np.exp(1j * sql * u1 * np.linalg.norm(delta))  # x.delta = u1 |delta|
    integrals = sums @ (rule1.weights * phase)

    orders = (2j * sql) ** (-np.arange(N + 1))
    value = -1j * np.pi * (2 * np.pi) ** -3 * sql * np.sum(orders * integrals)
    return BornKernelSample(lam=lam, omega=omega, omega_prime=omega_prime,
                            value=complex(value), order=N)


def exact_kernel(model: PotentialModel, lam: float, theta: float,
                 l_max: int | None = None, dr: float = 1e-3) -> complex:
    """(i k / 2 pi) a(theta) from the partial-wave reference solver."""
    k = np.sqrt(lam)
    if l_max is None:
        l_max = int(np.ceil(k * model.effective_range)) + 12
    table = partialwave.phase_shift_table(model, k, l_max, dr=dr)
    a = partialwave.amplitude(table, theta)
    return 1j * k / (2 * np.pi) * a


@dataclass(frozen=True)
class ErrorOrderFit:
    lambdas: np.ndarray
    errors: np.ndarray
    slope: float
    theoretical: float
    floor_warning: bool


def measure_error_order(model: PotentialModel, lambdas, omega, omega_prime,
                        N: int) -> ErrorOrderFit:
    """Fitted slope of log|k_exact - k_N| against log lambda; the pointwise
    d = 3 proxy for the expansion's O(lambda^(-N/2)) error order."""
    lambdas = np.asarray(lambdas, dtype=float)
    if len(lambdas) < 4 or lambdas[-1] / lambdas[0] < 8.0:
        raise ParameterError("need >= 4 energies spanning close to a decade")
    omega = np.asarray(omega, dtype=float)
    omega_prime = np.asarray(omega_prime, dtype=float)
    cos_theta = float(omega @ omega_prime)
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    # b_n do not depend on lambda: one table build per fit
    grid = _default_cyl_grid(model, margin=1.8)
    tables = None
    if N >= 1:
        _support_radius(model)  # refuse before building tables the kernel cannot use
        tables, _ = _bn_tables(model, N, grid)
    errors = np.empty(len(lambdas))
    for i, lam in enumerate(lambdas):
        approx = high_energy_kernel(model, lam, omega, omega_prime, N,
                                    grid=grid, tables=tables).value
        exact = exact_kernel(model, lam, theta)
        errors[i] = abs(exact - approx)
    floor = bool(np.any(errors < 1e-10))
    if floor:
        slope = np.nan
    else:
        slope = float(np.polyfit(np.log(lambdas), np.log(errors), 1)[0])
    return ErrorOrderFit(lambdas=lambdas, errors=errors, slope=slope,
                         theoretical=-N / 2.0, floor_warning=floor)
