"""Exact radial reference solver in d = 3.

Per-channel Numerov integration of u'' = (l(l+1)/r^2 + v - k^2) u, phase
shifts by asymptotic matching against free spherical waves, S-matrix
eigenvalues exp(2 i delta_l) and the partial-wave scattering amplitude.

Amplitude normalization: a(theta) is the textbook f(theta); the kernel of
S(lambda) - Id on the sphere equals (i k / 2 pi) * a at d = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .numerics import NumericalError, ParameterError, legendre_p_all, spherical_bessel
from .potentials import PotentialModel


@dataclass(frozen=True)
class PhaseShiftTable:
    """delta_l(k) per channel at fixed momentum; lambda = k**2."""

    k: float
    l_max: int
    delta: np.ndarray  # radians, each in (-pi/2, pi/2]

    def __post_init__(self):
        if not np.all(np.isfinite(self.delta)):
            raise NumericalError("non-finite phase shift in table")


def _default_r_max(model: PotentialModel, k: float) -> float:
    """End of the Numerov grid: half a wavelength past where |v| drops below
    1e-17, so that both match rows lie where v has died out and the match
    with j_l and y_l is exact, but never past max(tail_radius(1e-10),
    30/k + effective_range), which power tails keep."""
    return min(model.tail_radius(1e-17) + np.pi / k,
               max(model.tail_radius(1e-10), 30.0 / k + model.effective_range))


# Largest Numerov sweep, in float64 values: rows x (channels + 8), an upper
# bound (but for 3 values at one channel) on what a sweep holds: nine per-row
# arrays (r, (dr^2/12)/r^2, (dr^2/12)(v - k^2), a, f, the work vector w and
# the 3-column band; v is dropped once used) and u on the three rows per
# channel that the match reads.
# 2**27 values is 1 GiB; tier-1, the acceptance suite and the benchmark
# reach at most 4.4e6.  tail_radius puts a power tail with rho <= 2 at
# 1.1e8 rows or more, 1e9 at its r = 1e6 cap (rho <= 5/3).
MAX_SWEEP_FLOATS = 2**27

# A channel whose w would reach 2**_MAX_EXP (about 1e250) is scaled down by
# a power of two so that max |w| < 2**_MAX_EXP.
_MAX_EXP = 830


# Rows per banded solve: a sweep's first chunk, and the cap its chunks
# double back to after a halving.
_CHUNK = 8192


def _sweep(a: np.ndarray, f: np.ndarray, band: np.ndarray, w: np.ndarray,
           seeds: np.ndarray, rows: np.ndarray, u: np.ndarray) -> None:
    """Set u to the solution on rows of the Numerov recursion
    f[i-1] u[i-1] - (12 - 10 f[i]) u[i] + f[i+1] u[i+1] = 0, f = 1 - a,
    from seeds = (u[0], u[1]), run as Johnson's renormalized Numerov (B. R.
    Johnson, J. Chem. Phys. 67 (1977) 4086): in w = f u the same scheme is
    the monic recurrence w[i+1] - d[i] w[i] + w[i-1] = 0 with
    d = 2 + 12 a / f.  d is formed from a, but the sum with 2 rounds to
    ulp(2) = 4.4e-16, a relative 4e-10 of 12 a / f at k dr = 1e-3.

    w is filled in place by unit lower-triangular banded solves (LAPACK
    dtbtrs, diag="U", so no row divides) on band, the transposed lower band
    storage ab[d, j] = A[j+d, j] whose column 0 is never read: chunks start
    at _CHUNK rows, halve on a non-finite row and double back, and each
    starts from its two carried values scaled below 1 by a power of two,
    which is exact, so u does not depend on where chunks end.  u = w / f is
    formed only on rows, each in its chunk's scale shifted by the channel's
    common power of two that keeps max |w| < 2**_MAX_EXP.  The seed rows
    divide by 1 instead of f, so f[0] = 0 is harmless (its d is never
    read); f = 0 on a later row, or a single row that is not finite, raises
    NumericalError.

    band's columns 0 and 2 hold the unit coefficients; column 1, a, f and w
    are overwritten.
    """
    if not f[1:].all():
        row = 1 + int(np.argmin(f[1:] != 0.0))
        raise NumericalError(f"Numerov coefficient f = 1 - a is 0 on row {row}")
    # band[i, 1] = -d[i] = -2 - 12 a[i] / f[i]; row 0 is an identity row
    np.divide(a[1:], f[1:], out=a[1:])
    np.multiply(a[1:], -12.0, out=a[1:])
    np.subtract(a[1:], 2.0, out=band[1:, 1])
    np.multiply(seeds, f[:2], out=w[:2])  # the seeds of w
    n = len(w)
    # w[i] * 2**exps on the requested rows is the solution, whose magnitude
    # stays below 2**peak; a row before any chunk keeps exponent 0
    exps = np.zeros(len(rows), dtype=int)
    scale = 0
    peak = first = math.frexp(max(abs(w[0]), abs(w[1])))[1]
    s, m = 2, _CHUNK
    while s < n:
        top = math.frexp(max(abs(w[s - 2]), abs(w[s - 1])))[1]
        np.ldexp(w[s - 2:s], -top, out=w[s - 2:s])
        scale += top
        exps[rows >= s - 2] = scale
        # rows s-2 and s-1 become identity rows; a later chunk either starts
        # past them or uses them as identity rows too
        band[s - 2, 1] = 0.0
        while True:
            e = min(n, s + m)
            # the identity rows leave w[s-2:s] as they are, so a redone
            # chunk only needs its right-hand side zeroed again
            w[s:e] = 0.0
            y, _ = dtbtrs(band[s - 2:e].T, w[s - 2:e], uplo="L", diag="U",
                          overwrite_b=1)
            size = max(y.max(), -y.min())
            if math.isfinite(size):
                break
            if m == 1:
                raise NumericalError(f"recurrence overflows or is not finite at row {s}")
            m //= 2
        peak = max(peak, scale + math.frexp(size)[1])
        s, m = e, min(2 * m, _CHUNK)
    # the seed rows go back to the seeds, in the first chunk's scale
    w[:2] = np.ldexp(seeds, -first) if n > 2 else seeds
    f[:2] = 1.0
    # u stays finite: where |f| < 1, 0 < a < 2 and |u[i]| = |w[i+1] + w[i-1]|
    # / |2 + 10 a[i]| is at most the mean of two rows of the same finite
    # solve (at r_max, f is near 1)
    np.ldexp(w[rows] / f[rows], exps - max(0, peak - _MAX_EXP), out=u)


def _numerov_channels(model: PotentialModel, ls: np.ndarray, k: float,
                      r_max: float, dr: float,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate every channel in ls from r = dr by the renormalized
    Numerov sweep (_sweep), on the grid r = dr, 2 dr, .. up to r_max.

    a = (dr^2/12)(l(l+1)/r^2 + v - k^2) is formed per channel from
    (dr^2/12)/r^2 and (dr^2/12)(v - k^2), both computed once per grid; the
    band and the a, f and w vectors are allocated once per call.

    Returns (r, u) on rows, an array of the grid's row indices: u of
    shape (len(rows), n_channels); regular solution normalization
    u ~ r^(l+1) at the origin, except that a channel whose solution would
    reach about 1e250 is scaled down by a power of two.
    """
    n = int(np.ceil(r_max / dr))
    r = dr * np.arange(1, n + 1)
    v = model.radial_values(r)
    if model.kind == "square_well":
        # average the jump when the edge lands on a node; keeps the scheme
        # second order instead of first
        on_edge = np.abs(r - model.width) < 0.5 * dr
        v = np.where(on_edge, 0.5 * model.v0, v)
    c = dr * dr / 12.0
    p = c / (r * r)
    q = c * (v - k * k)
    del v
    ll = ls * (ls + 1.0)
    # series seed u = r^(l+1) (1 + (v(0)-k^2) r^2/(4l+6)); underflowed
    # channels start from a tiny representable value instead
    v0 = float(model.radial_values(0.0)) if model.kind != "yukawa" else float(
        model.radial_values(dr))
    corr0 = 1.0 + (v0 - k * k) * r[0] ** 2 / (4.0 * ls + 6.0)
    corr1 = 1.0 + (v0 - k * k) * r[1] ** 2 / (4.0 * ls + 6.0)
    seeds = np.empty((2, len(ls)), order="F")
    with np.errstate(under="ignore"):
        seeds[0] = np.where(ls * np.log(r[0]) > -250, r[0] ** (ls + 1.0) * corr0, 1e-250)
        seeds[1] = np.where(ls * np.log(r[1]) > -250, r[1] ** (ls + 1.0) * corr1, 2e-250)
    # lower band storage of the monic recurrence, transposed: row j holds
    # the unit diagonal (never read), -d[j] one row down, 1 two rows down
    band = np.empty((n, 3))
    band[:, 0] = 1.0
    band[:, 2] = 1.0
    a = np.empty(n)
    f = np.empty(n)
    w = np.empty(n)
    u = np.empty((len(rows), len(ls)), order="F")
    for j in range(len(ls)):
        np.multiply(p, ll[j], out=a)
        a += q
        np.subtract(1.0, a, out=f)
        _sweep(a, f, band, w, seeds[:, j], rows, u[:, j])
    return r[rows], u


def _match_rows(n: int, dr: float, k: float) -> np.ndarray:
    """The rows (i1, i2 - 1, i2) that the match reads on an n-row grid of
    step dr: i2 = n - 2 and i1 a quarter wavelength (k dr ~ pi/2) before
    it, to avoid simultaneous zeros of the matched combinations."""
    i2 = n - 2
    sep = max(1, int(round((np.pi / 2.0) / (k * dr))))
    i1 = i2 - sep
    if i1 < 1:
        raise ParameterError("grid too short for quarter-wavelength matching")
    return np.array([i1, i2 - 1, i2])


def _match_at(u: np.ndarray, r: np.ndarray, ls: np.ndarray,
              k: float) -> np.ndarray:
    """Phase shifts of all channels (columns of u, orders ls) from
    two-point matching, u and r on the rows of _match_rows."""
    # a channel whose solution vanishes at i2 matches one node earlier
    at_node = u[2] == 0.0
    r1, r2 = r[0], np.where(at_node, r[1], r[2])
    u1, u2 = u[0], np.where(at_node, u[1], u[2])
    j1, y1 = spherical_bessel(ls, k * r1)
    j2, y2 = spherical_bessel(ls, k * r2)
    big_k = (r2 * u1) / (r1 * u2)
    delta = np.arctan2(big_k * j2 - j1, big_k * y2 - y1)
    # arctan2 lands in (-pi, pi]; reduce mod pi into (-pi/2, pi/2]
    delta = np.where(delta <= -np.pi / 2, delta + np.pi, delta)
    return np.where(delta > np.pi / 2, delta - np.pi, delta)


def _phase_shifts(model: PotentialModel, ls: range, k: float,
                  r_max: float | None = None, dr: float = 1e-3) -> np.ndarray:
    """delta_l(k) of each channel in the range ls on one shared Numerov grid
    of step dr up to r_max, _default_r_max(model, k) if None; ParameterError
    unless k is positive and finite and ls a non-empty range of l >= 0,
    DomainError for rho <= 1, where no phase shift exists."""
    # checked before any grid is sized: tail_radius puts a rho <= 1 tail
    # out at up to 1e6, a Numerov grid of up to 1e9 steps
    model.require_decay(1.0, "a partial-wave phase shift")
    if not 0.0 < k < np.inf:
        raise ParameterError(f"momentum must be positive and finite, got k={k}")
    if not 0 <= ls.start < ls.stop:
        raise ParameterError(f"need at least one channel, all l >= 0, got l in {ls}")
    if r_max is None:
        r_max = _default_r_max(model, k)
    # before v or any array, as a quotient: the channel count may pass the
    # float range; a zero potential (kind zero or v0 = 0) takes no sweep,
    # only its zeros
    zero = model.v0 == 0.0
    n_rows = 1.0 if zero else float(np.ceil(r_max / dr))
    channels = ls.stop - ls.start
    if channels + 8 > MAX_SWEEP_FLOATS / n_rows:
        raise ParameterError(
            f"Numerov grid of {n_rows:.12g} rows x {channels} channels exceeds "
            f"MAX_SWEEP_FLOATS = {MAX_SWEEP_FLOATS} float64 values "
            f"(r_max={r_max:g}, dr={dr:g})")
    if zero:
        return np.zeros(len(ls))
    ls = np.arange(ls.start, ls.stop)
    rows = _match_rows(int(n_rows), dr, k)
    r, u = _numerov_channels(model, ls, k, r_max, dr, rows)
    return _match_at(u, r, ls, k)


def radial_phase_shift(model: PotentialModel, l: int, k: float) -> float:
    """delta_l at momentum k, reduced to (-pi/2, pi/2], from the Numerov
    sweep of step 1e-3 up to _default_r_max(model, k); ParameterError
    unless l is a non-negative integer (a numpy one included)."""
    if not isinstance(l, (int, np.integer)):
        raise ParameterError(f"l must be a non-negative integer, got l={l!r}")
    return float(_phase_shifts(model, range(l, l + 1), k)[0])


def phase_shift_table(model: PotentialModel, k: float, l_max: int) -> PhaseShiftTable:
    """All channels 0..l_max on one shared Numerov grid, that of
    radial_phase_shift; l_max as radial_phase_shift's l."""
    if not isinstance(l_max, (int, np.integer)):
        raise ParameterError(f"l must be a non-negative integer, got l_max={l_max!r}")
    return PhaseShiftTable(k=k, l_max=l_max, delta=_phase_shifts(
        model, range(l_max + 1), k))


def smatrix_eigenvalues(table: PhaseShiftTable) -> np.ndarray:
    """Unit-modulus eigenvalues exp(2 i delta_l), l = 0..l_max; the l-th has
    multiplicity 2l+1."""
    return np.exp(2j * table.delta)


def amplitude(table: PhaseShiftTable, theta) -> complex | np.ndarray:
    """a(theta) = (2ik)^-1 sum_l (2l+1)(exp(2 i delta_l) - 1) P_l(cos theta)
    for theta in [0, pi], the forward theta = 0 included: a complex number
    for a scalar theta, an array for an array of angles."""
    if table.delta.size == 0:
        raise ParameterError("empty phase shift table")
    thetas = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= thetas) & (thetas <= np.pi)):
        raise ParameterError(f"theta must lie in [0, pi], got {thetas}")
    pl = legendre_p_all(table.l_max, np.cos(thetas))
    ls = np.arange(table.l_max + 1)
    s_minus_1 = np.exp(2j * table.delta) - 1.0
    values = np.sum((2 * ls + 1) * s_minus_1 * pl, axis=-1) / (2j * table.k)
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite amplitude sample")
    return complex(values) if values.ndim == 0 else values
