"""Checks of the analytic machinery on discretized operators.

Hilbert-Schmidt norm identity for the weighted free resolvent, Kato
smoothness time integrals, Mourre commutator positivity on a spectral
window, and limiting-absorption stability of weighted resolvents.  The
Mourre and limiting-absorption checks work on the tridiagonal
second-order finite-difference H = -Delta_h + v (`_tridiag`) with
tridiagonal LAPACK routines; no dense n x n matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound until the tracer follows zgttrs and
# partialwave.dtbtrs, the one dtbtrs binding in the package.
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

from .numerics import NumericalError, ParameterError, ScatterlabError, composite_gauss
from .potentials import PotentialModel
from . import _cyl, born, propagator

# Most float64s (n x count) in a Mourre window's eigenvectors, and in their image.
MAX_WINDOW_FLOATS = 2**24


class WindowError(ScatterlabError, ValueError):
    """Spectral window contains no eigenvalues."""

    prefix = "window: "


class ResonanceProximityError(ScatterlabError, ValueError):
    """lambda sits on an isolated discrete eigenvalue of the finite model."""

    prefix = "resonance proximity: "


# ---------------------------------------------------------------------------
# discretized operator
# ---------------------------------------------------------------------------

def _tridiag(model: PotentialModel, n: int, extent: float):
    """Grid x and the diagonal and off-diagonal of H = -Delta_h + v on
    [-extent, extent], Dirichlet ends (second-order FD); require_bounded first."""
    model.require_bounded("the finite-difference H on the line")
    if n < 8:
        raise ParameterError("n too small")
    x = np.linspace(-extent, extent, n)
    dx = x[1] - x[0]
    diag = 2.0 / dx**2 + model.radial_values(np.abs(x))
    off = np.full(n - 1, -1.0 / dx**2)
    return x, diag, off


# ---------------------------------------------------------------------------
# Hilbert-Schmidt norm identity
# ---------------------------------------------------------------------------

def hs_norm_resolvent_weight(model: PotentialModel, c: float) -> float:
    """Squared HS norm of (H_0 + c)^{-1} |v|^{1/2} at d = 3:
    (2 pi)^{-3} ||v||_1 * int (|xi|^2 + c)^{-2} d^3 xi  =  ||v||_1 / (8 pi sqrt(c)).

    The closed form is the contract, not the computation.  Every kind is v0
    times a nonnegative profile, so ||v||_1 = |int v| = 4 pi |f1(0)|, the
    forward first Born amplitude (born.born_first_amplitude).
    The xi integral is a quadrature after the map |xi| = sqrt(c) u/(1 - u),
    4 pi c^{-1/2} int_0^1 u^2 (u^2 + (1 - u)^2)^{-2} du, in which c enters
    only as c^{-1/2}, so no positive finite c overflows it.  ParameterError
    for any other c.
    """
    if not 0.0 < c < np.inf:
        raise ParameterError(f"c must be positive and finite, got c={c}")
    model.require_decay(3.0, "the Hilbert-Schmidt weight ||v||_1")
    v_l1 = 4.0 * np.pi * abs(born.born_first_amplitude(model, 1.0, 0.0))
    u, w = composite_gauss(16, np.linspace(0.0, 1.0, 33))
    xi_int = 4.0 * np.pi * float(np.dot(w, c**-0.5 * u * u / (u * u + (1.0 - u) ** 2) ** 2))
    return (2.0 * np.pi) ** -3 * v_l1 * xi_int


# ---------------------------------------------------------------------------
# Kato smoothness time integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KatoReport:
    """The Kato integrals of one weight <x>^-r, in the order of rs."""

    T_values: np.ndarray
    integrals: np.ndarray       # I(T) / ||f||^2
    saturating: bool            # < 1% growth on the last doubling


def kato_smoothness_integrals(rs, f: propagator.WavePacket, T_values,
                              dt: float = 1.0) -> list[KatoReport]:
    """I(T) = int_0^T ||<x>^{-r} e^{-iH0 t} f||^2 dt on the free 1D grid,
    for each r in rs, from one free evolution: |e^{-iH0 t} f|^2 and its
    edge check are formed once per sample time and summed against each
    <x>^{-2r}.  The running time integral is _cyl.cumulative_trapezoid,
    scipy's cumulative_trapezoid(dx=dt, initial=0) operation for operation.

    Saturation verdict compares the last two T values, which are expected
    to be a doubling apart.
    """
    if len(rs) < 1:
        raise ParameterError("rs needs at least one entry")
    T_values = np.asarray(T_values, dtype=float)
    if len(T_values) < 2:
        raise ParameterError("T_values needs at least two entries")
    if np.any(np.diff(T_values) <= 0) or T_values[0] <= 0:
        raise ParameterError("T_values must be positive and increasing")
    if not np.isfinite(T_values[-1]):
        raise ParameterError("T_values must be finite")
    # np.arange's length, known before the samples are allocated
    propagator.check_work(np.ceil((T_values[-1] + 0.5 * dt) / dt), len(f.values))
    x = f.grid
    w2 = [(1.0 + x * x) ** -r for r in rs]      # <x>^{-2r}
    norm2 = np.sum(np.abs(f.values) ** 2) * f.dx
    if norm2 == 0.0:
        return [KatoReport(T_values, np.zeros(len(T_values)), True) for _ in rs]
    ts = np.arange(0.0, T_values[-1] + 0.5 * dt, dt)
    g = np.empty((len(w2), len(ts)))
    for i, ev in enumerate(propagator.free_evolve_series(f, ts)):
        propagator.check_edge(ev.edge_mass(), i)
        density = np.abs(ev.values) ** 2
        for j, w in enumerate(w2):
            g[j, i] = np.sum(w * density) * f.dx
    cums = np.empty_like(g)
    _cyl.cumulative_trapezoid(g, dt, cums)
    reports = []
    for cum in cums:
        integrals = np.interp(T_values, ts, cum) / norm2
        growth = (integrals[-1] - integrals[-2]) / max(integrals[-2], 1e-300)
        reports.append(KatoReport(T_values, integrals, bool(growth < 0.01)))
    return reports


# ---------------------------------------------------------------------------
# Mourre positivity
# ---------------------------------------------------------------------------

def mourre_check(model: PotentialModel, window: tuple[float, float],
                 n: int) -> float:
    """Minimal eigenvalue of E(I) i[H, A] E(I), H on n points of [-160, 160].

    E(I) projects onto the eigenvectors of the discrete H with eigenvalue
    in I = (lo, hi]: LAPACK's selection by value (stebz) is half-open, so
    an eigenvalue exactly at lo is left out.  The commutator uses the
    exact operator identity i[H, A] = 4 H_0 - 2 x v'(x), applied to the
    window vectors as a tridiagonal product (the raw matrix commutator
    vanishes on exact eigenvectors by the virial identity, so the symbolic
    form is the faithful discretization).  yukawa is refused by _tridiag,
    then the window is counted: WindowError when empty, ParameterError over
    MAX_WINDOW_FLOATS.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ParameterError("window must satisfy 0 < lo < hi")
    x, diag, off = _tridiag(model, n, 160.0)
    dx = x[1] - x[0]
    lam_max = 4.0 / dx**2
    if hi >= 0.25 * lam_max:
        raise ParameterError("window above the reliable spectral range")
    count = _eig_count(diag, off, lo, hi)
    if count == 0:
        raise WindowError(f"no eigenvalues in ({lo}, {hi}]")
    if n * count > MAX_WINDOW_FLOATS:
        raise ParameterError(f"{count} window eigenvectors x {n} points exceed "
                             f"MAX_WINDOW_FLOATS = {MAX_WINDOW_FLOATS}")
    _, vs = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi))
    h = 1e-6
    xv = np.abs(x)
    dv = (model.radial_values(xv + h) - model.radial_values(np.abs(xv - h))) / (2 * h)
    cv = (4.0 * (2.0 / dx**2) - 2.0 * xv * dv)[:, None] * vs
    cv[:-1] += (4.0 * off)[:, None] * vs[1:]
    cv[1:] += (4.0 * off)[:, None] * vs[:-1]
    m = vs.T @ cv
    m = 0.5 * (m + m.T)
    return float(eigh(m, eigvals_only=True)[0])


# ---------------------------------------------------------------------------
# limiting absorption probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LapReport:
    epsilons: np.ndarray
    norms: np.ndarray
    steps: np.ndarray       # (len(epsilons), 2) power steps: even, odd block
    residuals: np.ndarray   # (len(epsilons), 2) ||B*B v - s v|| / s, last step

    @property
    def last_change(self) -> float:
        return float(abs(self.norms[-1] - self.norms[-2])
                     / max(self.norms[-2], 1e-300))

    @property
    def stable(self) -> bool:
        """< 5% change between the last two epsilons."""
        return self.last_change < 0.05

    @property
    def converged(self) -> bool:
        """Every block stopped by the tolerance before the step cap (a block
        that takes all _POWER_STEPS steps counts as stopped by the cap)."""
        return bool(np.all(self.steps < _POWER_STEPS))

    @property
    def solves(self) -> int:
        """zgttrs solves made, two per power step."""
        return int(2 * self.steps.sum())


_POWER_STEPS = 60


def _eig_count(diag, off, lo: float, hi: float) -> int:
    """Number of eigenvalues in (lo, hi] of the symmetric tridiagonal
    (diag, off), from LAPACK stebz's Sturm counts at the two ends: with the
    tolerance at the window width every cluster is converged at once and
    nothing is bisected.  A window that rounds to a point holds none
    (stebz refuses lo == hi).
    """
    if not lo < hi:
        return 0
    return len(eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                select_range=(lo, hi), tol=hi - lo))


def _mirror_blocks(diag, off, w):
    """The even and odd blocks (diag, off, w) of a tridiagonal operator and a
    weight that are symmetric under the reflection i -> n-1-i.

    Each block acts on the right half of the grid in the orthonormal basis
    (e_i +- e_{n-1-i}) / sqrt(2).  For even n the node next to the mirror
    couples to its own image: diag[h] +- off[h-1] with h = n/2.  For odd n
    the even block keeps the centre node, coupled by sqrt(2) off, and the
    odd block drops it.  Only right-half values are read (linspace's
    mirrored nodes differ at the ulp level).
    """
    n = len(diag)
    h = n // 2
    if n % 2 == 0:
        d_even, d_odd = diag[h:].copy(), diag[h:].copy()
        d_even[0] += off[h - 1]
        d_odd[0] -= off[h - 1]
        return (d_even, off[h:], w[h:]), (d_odd, off[h:], w[h:])
    off_even = off[h:].copy()
    off_even[0] *= np.sqrt(2.0)
    return (diag[h:], off_even, w[h:]), (diag[h + 1:], off[h + 1:], w[h + 1:])


def _power_norm(diag, off, w, lam: float, eps: float,
                rng: np.random.Generator):
    """(||B||, steps, residual) for B = W (T - lam - i eps)^{-1} W on one
    tridiagonal block T, by power iteration on B*B from a random start
    drawn from rng: one zgttrf factorization, two zgttrs solves in place per
    step, stopped when s = ||B*B v|| changes by < 1e-10 relative or after
    _POWER_STEPS steps.  The residual ||B*B v - s v|| / s is that of the
    last step.
    """
    dl, d, du, du2, ipiv, info = zgttrf(off, diag - lam - 1j * eps, off)
    if info != 0:
        raise NumericalError(f"H - lam - i eps is singular at eps = {eps:g} "
                             f"(zgttrf info={info})")
    v = rng.standard_normal(len(diag)) + 1j * rng.standard_normal(len(diag))
    v /= np.linalg.norm(v)
    u = np.empty_like(v)
    s = 0.0
    for step in range(1, _POWER_STEPS + 1):
        np.multiply(w, v, out=u)
        zgttrs(dl, d, du, du2, ipiv, u, overwrite_b=1)
        np.multiply(w, u, out=u)
        # B is complex symmetric (T real symmetric, W real), so
        # B* y = conj(B conj(y)) from the same factors
        np.conjugate(u, out=u)
        np.multiply(w, u, out=u)
        zgttrs(dl, d, du, du2, ipiv, u, overwrite_b=1)
        np.multiply(w, u, out=u)
        np.conjugate(u, out=u)
        s_new = np.linalg.norm(u)
        if not 0.0 < s_new < np.inf:
            raise NumericalError(
                f"resolvent norm at eps = {eps:g} underflows or is not "
                f"finite ({s_new})")
        if abs(s_new - s) < 1e-10 * s_new or step == _POWER_STEPS:
            return (np.sqrt(s_new), step,
                    np.linalg.norm(u - s_new * v) / s_new)
        np.divide(u, s_new, out=v)
        s = s_new


def lap_probe(model: PotentialModel, lam: float, r: float, epsilons,
              n: int = 80_000, extent: float = 10_000.0,
              seed: int = 7) -> LapReport:
    """||<x>^{-r} (H - lam - i eps)^{-1} <x>^{-r}|| per eps (tridiagonal H).

    The potential is radial and the grid symmetric about 0, so H and the
    weight commute with the reflection x -> -x and the norm is the larger
    of the norms on the even and the odd block (_mirror_blocks), each on
    about n/2 rows.  Each block's norm is its largest singular value by
    power iteration (_power_norm: per eps one LU factorization of
    (block - lam - i eps), LAPACK zgttrf/zgttrs, at most _POWER_STEPS
    steps); the report holds the steps and last residual of both blocks
    and whether every block stopped by the tolerance (`converged`).

    Resonance check: the eigenvalues of H in the guard window
    (lam - 10 min(eps), lam + 10 min(eps)] are counted by LAPACK stebz
    (_eig_count) on the full operator.  Exactly one, an isolated
    eigenvalue, is an error (ResonanceProximityError); when several levels
    fall in the window the discrete spectrum is quasi-continuous there (it
    approximates the continuum) and the probe proceeds, as it does with
    none.  A guard below the float spacing at lam, where the window rounds
    to a point and holds nothing, raises ParameterError.

    A singular factorization, or a power-iteration norm that underflows to
    0 or is not finite (eps near the float64 limit), raises NumericalError.
    yukawa is refused by _tridiag (DomainError), before any LAPACK call.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if len(epsilons) < 2:
        raise ParameterError("epsilons needs at least two entries")
    if np.any(np.diff(epsilons) >= 0) or np.any(epsilons <= 0):
        raise ParameterError("epsilons must be positive and decreasing")
    if not (np.isfinite(lam) and np.isfinite(epsilons[0])):
        raise ParameterError("lam and epsilons must be finite")
    if r <= 0:
        raise ParameterError("r must be positive")
    # a Python float: near the float64 limit the window and its width
    # overflow to inf without a numpy warning
    guard = 10.0 * float(epsilons.min())
    if not lam - guard < lam + guard:
        raise ParameterError(
            f"resonance guard 10 min(eps) = {guard:.1e} is below the float "
            f"spacing at lam = {lam}; its window rounds to a point")
    x, diag, off = _tridiag(model, n, extent)
    if _eig_count(diag, off, lam - guard, lam + guard) == 1:
        raise ResonanceProximityError(
            f"lambda within {guard:.1e} of an isolated discrete eigenvalue")
    blocks = _mirror_blocks(diag, off, (1.0 + x * x) ** (-r / 2.0))
    rng = np.random.default_rng(seed)
    results = [_power_norm(*block, lam, eps, rng)
               for eps in epsilons for block in blocks]
    norms, steps, residuals = (np.reshape(col, (len(epsilons), 2))
                               for col in zip(*results))
    return LapReport(epsilons=epsilons, norms=norms.max(axis=1), steps=steps,
                     residuals=residuals)
