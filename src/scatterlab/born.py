"""Born approximation and the high-energy expansion of the scattering kernel.

First Born amplitude and phase shifts, the transport recursion for the
amplitude corrections b_n (b_0 = 1) that the eikonal amplitudes share, the
truncated kernel

    k_N = -i pi (2 pi)^-3 lambda^(1/2) sum_{n<=N} (2 i sqrt(lambda))^-n
          int exp(i sqrt(lambda) x.(w' - w)) v(x) b_n(x, w') dx      (d = 3)

and least-squares measurement of the error's energy-decay order against
the partial-wave reference.  v is radial, so b_n depends only on the
distance s from the axis w' and the coordinate z along it; the azimuth
integral is a Bessel J_0 and each term of k_N is a 2-D (s, z) integral.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import beta, gammaln, j0, kve, spherical_jn

from . import _cyl
from .numerics import (DomainError, ParameterError, ScatterlabError, composite_gauss,
                       gauss_panels, lazy_names)
from .potentials import PotentialModel, line_integral
from . import partialwave

# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound, and scipy.integrate is imported only when it is
# first read, until the tracer drops it.
__getattr__ = lazy_names(globals(), quad="scipy.integrate")

RAY_TRUNCATION = 1e-12
# Largest transport order N: -Lap raises table noise 1e3 to 1e4 times per
# order, so past about 4 the orders are noise; it keeps (N + 1)-table stacks
# to tens of MB.
MAX_ORDER = 8
_CELL_NODES = 4   # Gauss nodes per b_n table cell, along s and along z


class ConvergenceError(ScatterlabError, RuntimeError):
    """Integral tail estimate exceeds the requested tolerance."""

    prefix = "convergence: "


# ---------------------------------------------------------------------------
# first Born order
# ---------------------------------------------------------------------------

def _log_large_order(nu: float, q: float) -> float:
    """ln(-f1 / v0) for _power_tail_amplitude's f1 at nu >= 20 and q >= 0,
    where Gamma(rho/2) and K_nu(q) may overflow,
    from K_nu(q) = int_0^inf e^{-q cosh t} cosh(nu t) dt about its saddle
    t* = asinh(nu / q): with t = t* + x, c = sqrt(nu^2 + q^2) and
    d = c - nu = q^2 / (c + nu), Stirling's series for Gamma(rho/2) =
    Gamma(nu + 3/2) leaves

        ln(-f1 / v0) = 3/2 - ln(2 sqrt(2) nu) - (nu + 1) ln(1 + 3 / 2nu)
                       - R(nu + 3/2) + nu ln(1 + d / 2nu) - d + ln I,
        I = int e^{nu (x - sinh x) - 2c sinh^2(x/2)} (1 + e^{-2 nu t}) / 2 dx,

    R(y) = 1/12y - 1/360y^3 + 1/1260y^5 - 1/1680y^7 (the next term is below
    1e-15 at y = 21.5), so no term is much larger than the result, whatever
    nu.  At q = 0, t* is infinite and this is ln(B(3/2, nu) / 2).  The
    exponent is 0 at x = 0 and below -50 outside |x| < 16 / sqrt(c), the
    window of 8 Gauss panels of 16 nodes."""
    c = np.hypot(nu, q)
    d = q * (q / (c + nu))
    t_star = np.log(nu) + np.log1p(c / nu) - np.log(q) if q > 0.0 else np.inf
    reach = 16.0 / np.sqrt(c)
    x, w = composite_gauss(16, np.linspace(max(-t_star, -reach), reach, 9))
    g = (np.exp(nu * (x - np.sinh(x)) - 2.0 * c * np.sinh(0.5 * x) ** 2)
         * (0.5 + 0.5 * np.exp(-2.0 * nu * (t_star + x))))
    y2 = (nu + 1.5) ** -2
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - y2 / 1680) * y2) * y2) / (nu + 1.5)
    return (1.5 - np.log(2.0 * np.sqrt(2.0) * nu) - (nu + 1.0) * np.log1p(1.5 / nu)
            - stirling + nu * np.log1p(0.5 * d / nu) - d + np.log(float(np.dot(w, g))))


def _power_tail_amplitude(model: PotentialModel, q: float) -> float:
    """The first Born amplitude of v = v0 (1 + r^2)^(-rho/2) in closed form,
    the Fourier transform of a Bessel potential: for q > 0,

        f1(q) = -v0 sqrt(2 pi) 2^(-rho/2) / Gamma(rho/2) q^nu K_nu(q),

    nu = (rho - 3)/2, and for q < 1e-12 its q -> 0 limit -(v0/2) B(3/2, nu),
    which needs rho > 3.  For nu >= 20 both come from _log_large_order.
    Below, f1(q) is formed in logs with K_nu(q) from kve; past q = 2e3 it
    is below 1e-320 for any finite v0, and kve turns NaN past q = 1e9, so
    it is 0 there.  ConvergenceError for rho <= 1, where r v(r) does not
    decay and the Born integral diverges."""
    rho, v0, nu = model.rho, model.v0, 0.5 * (model.rho - 3.0)
    if rho <= 1.0:
        raise ConvergenceError(
            f"Born integral diverges for power tail rho = {rho:g} <= 1")
    if q < 1e-12:
        if rho <= 3.0:
            raise ConvergenceError("int |v| diverges for power tail rho <= 3")
        q = 0.0
    if nu >= 20.0:
        return -v0 * float(np.exp(_log_large_order(nu, q)))
    if q == 0.0:
        return -0.5 * v0 * float(beta(1.5, nu))
    if q > 2e3:
        return 0.0
    log_qk = nu * np.log(q) + np.log(kve(abs(nu), q)) - q
    return -v0 * float(np.exp(0.5 * np.log(2.0 * np.pi) - 0.5 * rho * np.log(2.0)
                              - gammaln(0.5 * rho) + log_qk))


def _radial_rule(model: PotentialModel,
                 wavenumber: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(R, nodes, weights): 16 Gauss nodes on each of at least 64 equal
    panels of [0, R], none longer than pi / wavenumber, R where |v| < 1e-18
    |v0| (at most 5000 on a power tail).  ConvergenceError past 200 000
    panels, before any node is built."""
    r_cut = model.tail_radius(1e-18 * abs(model.v0))
    if model.kind == "power_tail":
        r_cut = min(r_cut, 5000.0)
    panels = max(64.0, np.ceil(r_cut * wavenumber / np.pi))
    if not panels <= 200000:
        raise ConvergenceError(f"the radial rule would need {panels:.3g} panels, over 200000")
    return (r_cut,) + composite_gauss(16, np.linspace(0.0, r_cut, int(panels) + 1))


def born_first_amplitude(model: PotentialModel, k: float, theta: float) -> complex:
    """First Born amplitude f1(q) = -(4 pi)^-1 int exp(-i q.x) v(x) dx,
    q = 2 k sin(theta/2): -int r^2 v sinc(qr) dr on _radial_rule, where
    q effective_range > 1 with the bound 2 R |v(R)| / q on the tail
    |int_R^inf r v sin(qr) dr| below 1e-9 (|v0| + |q f1|), and for a power
    tail the closed form (_power_tail_amplitude).  v0 = 0 gives 0, as kind
    zero does.  ParameterError unless k is a positive finite float and
    theta lies in [0, pi]."""
    if not 0.0 < k < np.inf:
        raise ParameterError(f"momentum must be positive and finite, got k={k}")
    if not 0.0 <= theta <= np.pi:   # partialwave.amplitude's rule
        raise ParameterError(f"theta must lie in [0, pi], got {theta}")
    if model.v0 == 0.0:
        return 0.0
    q = 2.0 * k * np.sin(theta / 2.0)
    if model.kind == "power_tail":
        return complex(_power_tail_amplitude(model, q))
    r_cut, r, w = _radial_rule(model, q)
    val = -float(np.dot(w, r * r * model.radial_values(r) * np.sinc(q / np.pi * r)))
    if q * model.effective_range > 1.0:   # below, the bound grows like 1/q
        tail = 2.0 * r_cut * abs(float(model.radial_values(r_cut))) / q
        if tail > 1e-9 * (abs(model.v0) + abs(q * val)):
            raise ConvergenceError(
                f"tail estimate {tail:.2e} at r={r_cut:.1f} exceeds tolerance")
    return complex(val)


def born_first_phase_shift(model: PotentialModel, k: float, l: int) -> float:
    """delta_l^1 = -k int_0^inf v(r) j_l(kr)^2 r^2 dr on _radial_rule with
    panels of at most pi / k, with a tail check (relative tolerance 1e-8 of
    |v0| + |delta_l^1|).  v0 = 0 gives 0, as kind zero does.  ParameterError
    unless k is a positive finite float and l a non-negative integer."""
    if not 0.0 < k < np.inf:
        raise ParameterError(f"momentum must be positive and finite, got k={k}")
    if not (isinstance(l, (int, np.integer)) and l >= 0):
        raise ParameterError(f"l must be a non-negative integer, got l={l!r}")
    if model.v0 == 0.0:
        return 0.0
    r_cut, r, w = _radial_rule(model, k)
    jl = spherical_jn(l, k * r)
    val = -k * float(np.dot(w, model.radial_values(r) * jl * jl * r**2))
    # averaged tail: j_l(kr)^2 r^2 ~ 1/(2 k^2) gives -int_R v dr / (2k)
    tail = abs(float(line_integral(model, 0.0, r_cut))) / (2.0 * k)
    if tail > 1e-8 * (abs(model.v0) + abs(val)):
        raise ConvergenceError(f"tail estimate {tail:.2e} exceeds tolerance")
    return val


# ---------------------------------------------------------------------------
# transport_orders: the one recursion under the kernel's b_n and the eikonal
# amplitudes, ray(b_{n+1}) = -Lap b_n - 2i grad Phi.grad b_n - i Lap Phi b_n + q b_n
# ---------------------------------------------------------------------------

def transport_orders(model: PotentialModel, grid: _cyl.CylGrid, q: np.ndarray,
                     N: int, march, anchor: np.ndarray,
                     phi: tuple[np.ndarray, ...] | None = None) -> Iterator[np.ndarray]:
    """b_0, f_0, b_1, f_1, ..., b_N, f_N of the transport recursion on the
    (s, z) grid, with f_n = ray(b_{n+1}) the source of b_n and ray the
    march along the axis; each item is formed only when it is asked for.

    phi is (Phi_s, Phi_z, Lap Phi), or None for Phi = 0 (real tables, the
    kernel's b_n with q = v).  The source of b_0 = 1 is q - i Lap Phi in
    closed form.  b_1 starts from anchor on the march's first row; higher
    sources decay at least as fast as q and start from 0.  Each b_n and f_n
    is a new array, which no later order writes to; i Lap Phi is formed once,
    and each source in place.

    The recursion needs a smooth q: for yukawa, b_1 = int v dt diverges
    logarithmically on the axis, so orders N >= 1 raise DomainError.  N
    outside [0, MAX_ORDER] raises ParameterError.
    """
    if not 0 <= N <= MAX_ORDER:
        raise ParameterError(f"N must lie in [0, MAX_ORDER = {MAX_ORDER}], got {N}")
    if N >= 1 and model.kind == "yukawa":
        raise DomainError("transport orders N >= 1 need a smooth potential; "
                          "b_1 = int v dt diverges on the axis for the yukawa "
                          "1/r core")
    b = np.ones(q.shape, dtype=float if phi is None else complex)
    f = q
    if phi is not None:
        phi_s, phi_z, lap_phi = phi
        i_lap_phi = 1j * lap_phi
        f = q - i_lap_phi
    yield b
    yield f
    zeros = np.zeros(len(grid.s))
    for n in range(1, N + 1):
        b = march(f, grid, anchor if n == 1 else zeros)
        del f  # the caller's now: not held while the next source is formed
        yield b
        if n == 1:
            # the derivatives of b_n, then the terms of its source, in two
            # work arrays that every order reuses
            bs, bz = np.empty_like(b), np.empty_like(b)
        f = _cyl.laplacian(_cyl.d_ds(b, grid, out=bs), _cyl.d_dz(b, grid, out=bz), grid)
        np.negative(f, out=f)
        if phi is not None:
            np.multiply(phi_s, bs, out=bs)
            np.multiply(phi_z, bz, out=bz)
            bs += bz
            np.multiply(2j, bs, out=bs)
            f -= bs
            np.multiply(i_lap_phi, b, out=bs)
            f -= bs
        np.multiply(q, b, out=bs)
        f += bs
        yield f


def _bn_tables(model: PotentialModel, N: int, grid: _cyl.CylGrid) -> np.ndarray:
    """b_0..b_N stacked (N+1, n_s, n_z) on the cylindrical grid about the
    propagation axis: transport_orders with Phi = 0 and q = v, marched up
    from z_min (incoming convention).  b_1 starts from int_-inf^z_min v dz
    unless |v| <= RAY_TRUNCATION |v0| there (DomainError if infinite)."""
    v = model.radial_values(grid.radius())
    anchor = np.zeros(len(grid.s))
    if np.max(np.abs(v[:, 0])) > RAY_TRUNCATION * abs(model.v0):
        anchor = line_integral(model, grid.s, -grid.z[0])
        if not np.all(np.isfinite(anchor)):
            raise DomainError("b_1's anchor int_-inf^z_min v dz diverges (rho <= 1)")
    orders = transport_orders(model, grid, v, N, _cyl.march_up, anchor)
    tables = np.empty((N + 1,) + v.shape)
    for n, b in enumerate(islice(orders, 0, 2 * N + 1, 2)):
        tables[n] = b
    return tables


def _default_cyl_grid(model: PotentialModel) -> _cyl.CylGrid:
    """181 x 481 nodes on s in [0, 1.8 r_eff], z in [-1.8 r_eff, 1.8 r_eff],
    with r_eff the radius where |v| < 1e-10 |v0|, kept within [2, 80]."""
    r_eff = min(max(model.tail_radius(1e-10 * abs(model.v0)), 2.0), 80.0)
    return _cyl.make_grid(s_max=r_eff * 1.8, z_max=r_eff * 1.8, n_s=181, n_z=481)


# ---------------------------------------------------------------------------
# truncated high-energy kernel and its error order
# ---------------------------------------------------------------------------

def _support_radius(model: PotentialModel) -> float:
    r = model.tail_radius(1e-9 * abs(model.v0))
    if r > 60.0:
        raise DomainError(
            f"support radius {r:.1f} too large; kernel quadrature requires "
            "compact or super-exponentially decaying potentials")
    return r


def _lerp_cells(lo: np.ndarray, hi: np.ndarray, t: np.ndarray,
                out: np.ndarray) -> None:
    """out[a] = (1 - t[a]) lo + t[a] hi: the linear interpolant at fraction
    t[a] of every cell [lo, hi], written one fraction at a time."""
    for a, ta in enumerate(t):
        np.multiply(lo, 1.0 - ta, out=out[a])
        out[a] += ta * hi


def high_energy_kernel(model: PotentialModel, lam, theta: float,
                       N: int) -> complex | np.ndarray:
    """Truncated kernel k_N(omega, omega', lambda) at d = 3 for directions
    at angle theta in (0, pi]: a complex number for a scalar lambda, an
    array for an array of energies.

    About omega', x = z omega' + s n(phi) and b_n depends on (s, z) only, so
    the azimuth integral is 2 pi J_0(sqrt(lambda) |delta_perp| s), with
    delta = omega' - omega, omega'.delta = 1 - cos theta and |delta_perp| =
    sin theta its part normal to omega':

        int v b_n e^{i sqrt(lambda) x.delta} dx = 2 pi int_0^R s ds
            int_{-R}^{R} dz v b_n J_0(sqrt(lambda) sin(theta) s)
            e^{i sqrt(lambda) (1 - cos theta) z}.

    The (s, z) rule has _CELL_NODES Gauss nodes on each cell of the
    _default_cyl_grid table that meets s <= R, |z| <= R (R the support
    radius), so b_n, the bilinear interpolant of the _bn_tables values, is
    a polynomial on every panel.  v b_n on those nodes is formed once per
    call and serves every lambda.  Every cut is relative to |v0|, so k_0 is
    linear in v0, and v0 = 0 gives zeros, as kind zero does.
    """
    if not 0 <= N <= MAX_ORDER:
        raise ParameterError(f"N must lie in [0, MAX_ORDER = {MAX_ORDER}], got {N}")
    lams = np.asarray(lam, dtype=float)
    if not np.all((lams > 0) & (lams < np.inf)):
        raise ParameterError(f"lambda must be positive and finite, got lam={lam}")
    if not 0.0 < theta <= np.pi:
        raise ParameterError(f"theta must lie in (0, pi], got {theta}")
    if model.v0 == 0.0:
        values = np.zeros(lams.shape, dtype=complex)
        return complex(values) if values.ndim == 0 else values
    R = _support_radius(model)
    grid = _default_cyl_grid(model)

    # the table cells that cover s in [0, R] and z in [-R, R]; the grid
    # reaches at least 1.8 R on each side
    i_s = int(np.searchsorted(grid.s, R))
    j_lo = int(np.searchsorted(grid.z, -R, side="right")) - 1
    j_hi = int(np.searchsorted(grid.z, R))
    s, w_s = (a.ravel() for a in gauss_panels(_CELL_NODES, grid.s[:i_s],
                                               grid.s[1:i_s + 1]))
    z, w_z = (a.ravel() for a in gauss_panels(_CELL_NODES, grid.z[j_lo:j_hi],
                                               grid.z[j_lo + 1:j_hi + 1]))
    t = gauss_panels(_CELL_NODES, 0.0, 1.0)[0]  # the nodes' cell fractions

    # v b_n on the nodes, n = 0..N, each order written in place into one stack
    vb = np.empty((N + 1, len(s), len(z)))
    vb[0] = model.radial_values(np.sqrt(s[:, None] ** 2 + z * z))
    if N >= 1:
        tables = _bn_tables(model, N, grid)
        # b_n on the s nodes at the table's z nodes, then on the (s, z) nodes
        along_s = np.empty((i_s, _CELL_NODES, j_hi - j_lo + 1))
        flat = along_s.reshape(len(s), -1)
        for n in range(1, N + 1):
            cell = tables[n, :i_s + 1, j_lo:j_hi + 1]
            _lerp_cells(cell[:-1], cell[1:], t, np.moveaxis(along_s, 1, 0))
            bn = vb[n].reshape(len(s), -1, _CELL_NODES)
            _lerp_cells(flat[:, :-1], flat[:, 1:], t, np.moveaxis(bn, 2, 0))
            vb[n] *= vb[0]

    sql = np.sqrt(lams).ravel()
    c, d_perp = 1.0 - np.cos(theta), np.sin(theta)
    radial = (2.0 * np.pi * s * w_s) * j0(np.outer(sql * d_perp, s))
    axial = w_z * np.exp(1j * np.outer(sql * c, z))
    # integrals[l, n] = sum_s sum_z radial[l, s] vb[n, s, z] axial[l, z]
    integrals = np.einsum("nlz,lz->ln", radial @ vb, axial)
    orders = (2j * sql[:, None]) ** -np.arange(N + 1)
    values = -1j * np.pi * (2 * np.pi) ** -3 * sql * np.sum(orders * integrals, axis=1)
    values = values.reshape(lams.shape)
    return complex(values) if values.ndim == 0 else values


def exact_kernel(model: PotentialModel, lam: float, theta: float) -> complex:
    """(i k / 2 pi) a(theta) from the partial-wave reference solver, with
    channels up to k * effective_range + 12.  ParameterError unless lam is
    a positive finite float."""
    if not 0.0 < lam < np.inf:
        raise ParameterError(f"lambda must be positive and finite, got lam={lam}")
    k = np.sqrt(lam)
    l_max = int(np.ceil(k * model.effective_range)) + 12
    table = partialwave.phase_shift_table(model, k, l_max)
    a = partialwave.amplitude(table, theta)
    return 1j * k / (2 * np.pi) * a


@dataclass(frozen=True)
class ErrorOrderFit:
    lambdas: np.ndarray
    errors: np.ndarray
    slope: float
    theoretical: float
    floor_warning: bool


def measure_error_order(model: PotentialModel, lambdas, theta: float,
                        N: int) -> ErrorOrderFit:
    """Fitted slope of log|k_exact - k_N| against log lambda; the pointwise
    d = 3 proxy for the expansion's O(lambda^(-N/2)) error order."""
    lambdas = np.asarray(lambdas, dtype=float)
    if not np.all((lambdas > 0) & (lambdas < np.inf)):
        raise ParameterError(f"lambdas must be positive and finite, got {lambdas}")
    if len(lambdas) < 4 or lambdas.max() < 8.0 * lambdas.min():
        raise ParameterError("need >= 4 energies spanning close to a decade")
    approx = high_energy_kernel(model, lambdas, theta, N)
    exact = np.array([exact_kernel(model, lam, theta) for lam in lambdas])
    errors = np.abs(exact - approx)
    floor = bool(np.any(errors < 1e-10))
    slope = np.nan if floor else float(np.polyfit(np.log(lambdas), np.log(errors), 1)[0])
    return ErrorOrderFit(lambdas=lambdas, errors=errors, slope=slope,
                         theoretical=-N / 2.0, floor_warning=floor)
