"""Exact radial reference solver in d = 3.

Per-channel Numerov integration of u'' = (l(l+1)/r^2 + v - k^2) u, phase
shifts by asymptotic matching against free spherical waves, S-matrix
eigenvalues exp(2 i delta_l), the partial-wave scattering amplitude, and
the incoming/outgoing decomposition whose ratio realizes the S-matrix.

Amplitude normalization: a(theta) is the textbook f(theta); the kernel of
S(lambda) - Id on the sphere equals (i k / 2 pi) * a at d = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .numerics import (DomainError, ParameterError, legendre_p_all,
                       spherical_bessel, spherical_jl)
from .potentials import PotentialModel


class NumericalError(RuntimeError):
    """Ill-conditioned or non-convergent numerical step."""


@dataclass(frozen=True)
class PhaseShiftTable:
    """delta_l(k) per channel at fixed momentum; lambda = k**2."""

    k: float
    l_max: int
    delta: np.ndarray  # radians, each in (-pi/2, pi/2]
    model: PotentialModel

    def __post_init__(self):
        if not np.all(np.isfinite(self.delta)):
            raise NumericalError("non-finite phase shift in table")


@dataclass(frozen=True)
class AmplitudeKernel:
    """Sampled scattering amplitude a(theta_i) at energy lambda."""

    lam: float
    theta: np.ndarray
    values: np.ndarray
    normalization: str = "textbook-f; S-Id kernel = (ik/2pi) a"


def _default_r_max(model: PotentialModel, k: float) -> float:
    return max(model.tail_radius(1e-10), 30.0 / k + model.effective_range)


# Longest chunk of rows per banded solve.  Chunks start at 2 rows and
# double after each solve that stays finite; one that overflows is halved
# and redone, down to a single row.
_CHUNK = 8192
# A channel whose solution would reach 2**_MAX_EXP (about 1e250) is scaled
# down by a power of two so that max |u| < 2**_MAX_EXP.
_MAX_EXP = 830


def _sweep(f: np.ndarray, u: np.ndarray) -> None:
    """Fill u[2:] from the seeds u[0], u[1] by the Numerov recursion
    f[i-1] u[i-1] - (12 - 10 f[i]) u[i] + f[i+1] u[i+1] = 0.

    Each chunk of rows is one lower-triangular banded solve (LAPACK dtbtrs,
    bandwidth 2) whose first two rows are identity rows carrying the last
    two values.  Before each chunk those two values are scaled below 1 in
    magnitude by a power of two, and the rows keep that scale until the
    sweep ends; then one ldexp per chunk brings the channel onto a common
    scale.  Power-of-two scaling is exact, so u does not depend on where
    chunks end.
    """
    n = len(u)
    # lower band storage ab[d, j] = A[j+d, j], held transposed: row j is
    # f[j] on the diagonal, -(12 - 10 f[j]) one row down, f[j] two rows down
    band = np.empty((n, 3))
    band[:, 0] = f
    band[:, 1] = 10.0 * f - 12.0
    band[:, 2] = f
    starts, scales = [], []  # u[starts[i]:starts[i+1]] * 2**scales[i] is the solution
    scale = 0
    peak = math.frexp(max(abs(u[0]), abs(u[1])))[1]  # max |solution| < 2**peak
    s, m = 2, 2
    while s < n:
        top = math.frexp(max(abs(u[s - 2]), abs(u[s - 1])))[1]
        u[s - 2:s] = np.ldexp(u[s - 2:s], -top)
        scale += top
        starts.append(s - 2)
        scales.append(scale)
        # rows s-2 and s-1 become identity rows; a later chunk either starts
        # past them or uses them as identity rows too
        band[s - 2, :2] = (1.0, 0.0)
        band[s - 1, 0] = 1.0
        while True:
            e = min(n, s + m)
            b = np.zeros(e - s + 2)
            b[:2] = u[s - 2:s]
            x, info = dtbtrs(band[s - 2:e].T, b, uplo="L", overwrite_b=1)
            if info != 0:
                raise NumericalError(f"Numerov band is singular (dtbtrs info={info})")
            size = float(np.max(np.abs(x)))
            if math.isfinite(size):
                break
            if m == 1:
                raise NumericalError(f"Numerov sweep overflows or is not finite at row {s}")
            m //= 2
        u[s:e] = x[2:]
        peak = max(peak, scale + math.frexp(size)[1])
        s, m = e, min(2 * m, _CHUNK)
    shift = max(0, peak - _MAX_EXP)
    for a, z, scale in zip(starts, starts[1:] + [n], scales):
        u[a:z] = np.ldexp(u[a:z], scale - shift)


def _numerov_channels(model: PotentialModel, ls: np.ndarray, k: float,
                      r_max: float, dr: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate every channel in ls from r = dr.

    Returns (r_grid, u) with u of shape (n_r, n_channels); regular solution
    normalization u ~ r^(l+1) at the origin, except that a channel whose
    solution would reach about 1e250 is scaled down by a power of two.
    """
    n = int(np.ceil(r_max / dr))
    r = dr * np.arange(1, n + 1)
    v = model.radial_values(r)
    if model.kind == "square_well":
        # average the jump when the edge lands on a node; keeps the scheme
        # second order instead of first
        on_edge = np.abs(r - model.width) < 0.5 * dr
        v = np.where(on_edge, 0.5 * model.v0, v)
    ll = ls * (ls + 1.0)
    rr = r * r
    vk = v - k * k
    u = np.empty((n, len(ls)), order="F")
    # series seed u = r^(l+1) (1 + (v(0)-k^2) r^2/(4l+6)); underflowed
    # channels start from a tiny representable value instead
    v0 = float(model.radial_values(0.0)) if model.kind != "yukawa" else float(
        model.radial_values(dr))
    corr0 = 1.0 + (v0 - k * k) * r[0] ** 2 / (4.0 * ls + 6.0)
    corr1 = 1.0 + (v0 - k * k) * r[1] ** 2 / (4.0 * ls + 6.0)
    with np.errstate(under="ignore"):
        u[0] = np.where(ls * np.log(r[0]) > -250, r[0] ** (ls + 1.0) * corr0, 1e-250)
        u[1] = np.where(ls * np.log(r[1]) > -250, r[1] ** (ls + 1.0) * corr1, 2e-250)
    for j in range(len(ls)):
        # f = 1 - dr^2/12 (l(l+1)/r^2 + v(r) - k^2)
        _sweep(1.0 - (dr * dr / 12.0) * (ll[j] / rr + vk), u[:, j])
    return r, u


def _match_phase(u: np.ndarray, r: np.ndarray, ls: np.ndarray,
                 k: float) -> np.ndarray:
    """Phase shifts of all channels (columns of u, orders ls) from
    two-point matching near the end of the grid.

    The radii are a quarter wavelength apart (k dr ~ pi/2) to avoid
    simultaneous zeros of the matched combinations.
    """
    i2 = len(r) - 2
    sep = max(1, int(round((np.pi / 2.0) / (k * (r[1] - r[0])))))
    i1 = i2 - sep
    if i1 < 1:
        raise ParameterError("grid too short for quarter-wavelength matching")
    # a channel whose solution vanishes at i2 matches one node earlier
    i2 = np.where(u[i2] == 0.0, i2 - 1, i2)
    r1, r2 = r[i1], r[i2]
    u1, u2 = u[i1], u[i2, np.arange(u.shape[1])]
    j1, y1 = spherical_bessel(ls, k * r1)
    j2, y2 = spherical_bessel(ls, k * r2)
    big_k = (r2 * u1) / (r1 * u2)
    delta = np.arctan2(big_k * j2 - j1, big_k * y2 - y1)
    # arctan2 lands in (-pi, pi]; reduce mod pi into (-pi/2, pi/2]
    delta = np.where(delta <= -np.pi / 2, delta + np.pi, delta)
    return np.where(delta > np.pi / 2, delta - np.pi, delta)


def _require_short_range(model: PotentialModel):
    # checked before any grid is sized: tail_radius puts a rho <= 1 tail
    # out at up to 1e6, a Numerov grid of up to 1e9 steps
    if model.kind == "power_tail" and model.rho <= 1.0:
        raise DomainError(
            f"partial-wave phase shifts do not exist for a long-range "
            f"power tail (rho={model.rho} <= 1)")


def _validate_radial_inputs(model: PotentialModel, k: float, r_max: float):
    if k <= 0:
        raise ParameterError(f"momentum must be positive, got k={k}")
    if abs(float(model.radial_values(r_max))) > 1e-6:
        raise ParameterError(
            f"r_max={r_max} too small: |v(r_max)| = "
            f"{abs(float(model.radial_values(r_max))):.2e} > 1e-6"
        )


def radial_phase_shift(model: PotentialModel, l: int, k: float,
                       r_max: float | None = None, dr: float = 1e-3) -> float:
    """delta_l at momentum k, reduced to (-pi/2, pi/2]."""
    _require_short_range(model)
    if r_max is None:
        r_max = _default_r_max(model, k)
    _validate_radial_inputs(model, k, r_max)
    if model.kind == "zero":
        return 0.0
    ls = np.array([l])
    r, u = _numerov_channels(model, ls, k, r_max, dr)
    return float(_match_phase(u, r, ls, k)[0])


def phase_shift_table(model: PotentialModel, k: float, l_max: int,
                      r_max: float | None = None, dr: float = 1e-3) -> PhaseShiftTable:
    """All channels 0..l_max on one shared Numerov grid."""
    _require_short_range(model)
    if r_max is None:
        r_max = _default_r_max(model, k)
    _validate_radial_inputs(model, k, r_max)
    if model.kind == "zero":
        return PhaseShiftTable(k=k, l_max=l_max, delta=np.zeros(l_max + 1), model=model)
    ls = np.arange(l_max + 1)
    r, u = _numerov_channels(model, ls, k, r_max, dr)
    return PhaseShiftTable(k=k, l_max=l_max, delta=_match_phase(u, r, ls, k),
                           model=model)


def smatrix_eigenvalues(table: PhaseShiftTable) -> tuple[np.ndarray, np.ndarray]:
    """Unit-modulus eigenvalues exp(2 i delta_l) with multiplicities 2l+1."""
    values = np.exp(2j * table.delta)
    mult = 2 * np.arange(table.l_max + 1) + 1
    return values, mult


def _amplitude_values(table: PhaseShiftTable, thetas) -> np.ndarray:
    """a(theta) = (2ik)^-1 sum_l (2l+1)(exp(2 i delta_l) - 1) P_l(cos theta),
    elementwise over thetas."""
    if table.delta.size == 0:
        raise ParameterError("empty phase shift table")
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((0.0 <= thetas) & (thetas <= np.pi)):
        raise ParameterError(f"theta must lie in [0, pi], got {thetas}")
    pl = legendre_p_all(table.l_max, np.cos(thetas))
    ls = np.arange(table.l_max + 1)
    s_minus_1 = np.exp(2j * table.delta) - 1.0
    return np.sum((2 * ls + 1) * s_minus_1 * pl, axis=-1) / (2j * table.k)


def amplitude(table: PhaseShiftTable, theta: float,
              allow_forward: bool = False) -> complex:
    """Truncated partial-wave amplitude at scattering angle theta."""
    if theta == 0.0 and not allow_forward:
        raise ParameterError("theta = 0 only valid for truncated sums; "
                             "pass allow_forward=True")
    return complex(_amplitude_values(table, theta))


def amplitude_kernel(table: PhaseShiftTable, thetas) -> AmplitudeKernel:
    thetas = np.asarray(thetas, dtype=float)
    vals = _amplitude_values(table, thetas)
    if np.any(~np.isfinite(vals)):
        raise NumericalError("non-finite amplitude sample")
    return AmplitudeKernel(lam=table.k**2, theta=thetas, values=vals)


def _riccati_hankel(l: int, x) -> tuple[np.ndarray, np.ndarray]:
    """(H_minus, H_plus): exact free solutions behaving like
    exp(-i(x - l pi/2)) and exp(+i(x - l pi/2)) at infinity, elementwise in x."""
    j, y = spherical_bessel(l, x)
    s = x * j           # -> sin(x - l pi/2)
    c = -x * y          # -> cos(x - l pi/2)
    return c - 1j * s, c + 1j * s


def radial_in_out_decomposition(model: PotentialModel, l: int, k: float,
                                r_samples) -> tuple[complex, complex]:
    """Fit the channel solution to b_- e^{-i(kr - l pi/2)} + b_+ e^{+i(kr - l pi/2)}.

    The basis uses exact free spherical waves (Riccati-Hankel combinations
    with those asymptotics), so the contract b_+/b_- = exp(2 i delta_l)
    holds at any sample radius outside the potential.  Free normalization:
    sin(kr - l pi/2) decomposes with b_- = b_+ = 1.
    """
    _require_short_range(model)
    r_samples = np.asarray(r_samples, dtype=float)
    if np.any(np.abs(model.radial_values(r_samples)) > 1e-8):
        raise ParameterError("sample radii must lie where the tail is < 1e-8")
    r_max = float(np.max(r_samples)) + 1.0
    dr = 1e-3
    x = k * r_samples
    hm, hp = _riccati_hankel(l, x)
    if model.kind == "zero":
        # exact free regular solution kr j_l(kr) (asymptote sin(kr - l pi/2))
        u_at = x * spherical_jl(l, x)
    else:
        r, u = _numerov_channels(model, np.array([l], dtype=float), k, r_max, dr)
        u_at = np.interp(r_samples, r, u[:, 0])
    basis = np.column_stack([0.5j * hm,       # incoming
                             -0.5j * hp])     # outgoing
    cond = np.linalg.cond(basis)
    if cond > 1e8:
        raise NumericalError(f"in/out fit ill-conditioned (cond={cond:.2e})")
    coef, *_ = np.linalg.lstsq(basis, u_at.astype(complex), rcond=None)
    return complex(coef[0]), complex(coef[1])
