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
# numerics.dtbtrs, the one dtbtrs binding in the package.
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

from .numerics import (DomainError, ParameterError, banded_recurrence,
                       composite_gauss)
from .potentials import PotentialModel
from . import propagator


class WindowError(ValueError):
    """Spectral window contains no eigenvalues."""


class ResonanceProximityError(ValueError):
    """lambda sits on an isolated discrete eigenvalue of the finite model."""


# ---------------------------------------------------------------------------
# discretized operator
# ---------------------------------------------------------------------------

def _tridiag(model: PotentialModel, n: int, extent: float):
    """Grid x and the diagonal and off-diagonal of H = -Delta_h + v on
    [-extent, extent] with Dirichlet ends (second-order FD)."""
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

    Both factors are computed by quadrature; the closed form is the
    contract, not the computation.
    """
    if c <= 0:
        raise ParameterError("c must be positive")
    if model.kind == "power_tail" and model.rho <= 3.0:
        raise DomainError(
            "v is not integrable in d = 3 (rho <= 3): the trace-class "
            "weight is divergent")
    r_cut = max(model.tail_radius(1e-14), 1.0)
    rule = composite_gauss(16, np.linspace(0.0, r_cut, max(8, int(r_cut) + 1)))
    v_l1 = 4.0 * np.pi * float(np.dot(
        rule.weights, np.abs(model.radial_values(rule.nodes)) * rule.nodes**2))
    # xi integral: 4 pi int_0^inf q^2 (q^2+c)^-2 dq, mapped q = sqrt(c) u/(1-u)
    urule = composite_gauss(16, np.linspace(0.0, 1.0, 33))
    u = urule.nodes
    q = np.sqrt(c) * u / (1.0 - u)
    dq = np.sqrt(c) / (1.0 - u) ** 2
    xi_int = 4.0 * np.pi * float(np.dot(
        urule.weights, q * q * (q * q + c) ** -2.0 * dq))
    return (2.0 * np.pi) ** -3 * v_l1 * xi_int


# ---------------------------------------------------------------------------
# Kato smoothness time integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KatoReport:
    r: float
    T_values: np.ndarray
    integrals: np.ndarray       # I(T) / ||f||^2
    saturating: bool            # < 1% growth on the last doubling


def kato_smoothness_integral(r: float, f: propagator.WavePacket,
                             T_values, dt: float = 1.0) -> KatoReport:
    """I(T) = int_0^T ||<x>^{-r} e^{-iH0 t} f||^2 dt on the free 1D grid.

    Saturation verdict compares the last two T values, which are expected
    to be a doubling apart.
    """
    return kato_smoothness_integrals([r], f, T_values, dt)[0]


def kato_smoothness_integrals(rs, f: propagator.WavePacket, T_values,
                              dt: float = 1.0) -> list[KatoReport]:
    """kato_smoothness_integral for each r in rs, from one free evolution:
    |e^{-iH0 t} f|^2 and its edge check are formed once per sample time
    and summed against each <x>^{-2r}."""
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
    propagator.check_work(int(np.ceil((T_values[-1] + 0.5 * dt) / dt)),
                          len(f.values))
    x = f.grid
    w2 = [(1.0 + x * x) ** -r for r in rs]      # <x>^{-2r}
    norm2 = np.sum(np.abs(f.values) ** 2) * f.dx
    if norm2 == 0.0:
        return [KatoReport(r=r, T_values=T_values,
                           integrals=np.zeros(len(T_values)), saturating=True)
                for r in rs]
    ts = np.arange(0.0, T_values[-1] + 0.5 * dt, dt)
    g = np.empty((len(w2), len(ts)))
    for i, ev in enumerate(propagator.free_evolve_series(f, ts)):
        if ev.edge_mass() > propagator.EDGE_THRESHOLD:
            raise propagator.ReflectionError(f"edge mass breach at t={ev.t}")
        density = np.abs(ev.values) ** 2
        for j, w in enumerate(w2):
            g[j, i] = np.sum(w * density) * f.dx
    reports = []
    for r, gr in zip(rs, g):
        cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (gr[1:] + gr[:-1]))])
        integrals = np.interp(T_values, ts, cum) / norm2
        growth = (integrals[-1] - integrals[-2]) / max(integrals[-2], 1e-300)
        reports.append(KatoReport(r=r, T_values=T_values, integrals=integrals,
                                  saturating=bool(growth < 0.01)))
    return reports


# ---------------------------------------------------------------------------
# Mourre positivity
# ---------------------------------------------------------------------------

def mourre_check(model: PotentialModel, window: tuple[float, float],
                 n: int = 1024, extent: float = 160.0) -> float:
    """Minimal eigenvalue of E(I) i[H, A] E(I).

    E(I) projects onto the eigenvectors of the discrete H with eigenvalue
    in I = (lo, hi]: LAPACK's selection by value (stebz) is half-open, so
    an eigenvalue exactly at lo is left out.  The commutator uses the
    exact operator identity i[H, A] = 4 H_0 - 2 x v'(x), applied to the
    window vectors as a tridiagonal product (the raw matrix commutator
    vanishes on exact eigenvectors by the virial identity, so the symbolic
    form is the faithful discretization).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ParameterError("window must satisfy 0 < lo < hi")
    x, diag, off = _tridiag(model, n, extent)
    dx = x[1] - x[0]
    lam_max = 4.0 / dx**2
    if hi >= 0.25 * lam_max:
        raise ParameterError("window above the reliable spectral range")
    _, vs = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi))
    if vs.shape[1] == 0:
        raise WindowError(f"no eigenvalues in ({lo}, {hi}]")
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
    lam: float
    r: float
    epsilons: np.ndarray
    norms: np.ndarray
    stable: bool                # < 5% change between the last two epsilons

    @property
    def last_change(self) -> float:
        return float(abs(self.norms[-1] - self.norms[-2])
                     / max(self.norms[-2], 1e-300))


def _eig_count_below(diag, off, a: float) -> int:
    """Number of eigenvalues below a of the symmetric tridiagonal (diag, off).

    Sturm count: the sign changes of the leading principal minors of T - a,
    q_0 = 1, q_i = (d_i - a) q_{i-1} - off_{i-1}^2 q_{i-2}.  The minors are
    taken divided by c^i with c = max|off|, which keeps their signs and,
    for a constant off-diagonal, bounds their growth inside the spectrum.
    numerics.banded_recurrence solves the recurrence; its per-chunk scales
    are powers of two, so no sign moves and they are not applied.
    """
    n = len(diag)
    c = float(np.max(np.abs(off), initial=0.0)) or 1.0
    # q[j + 1] is the minor of order j; q[0] = 0 and q[1] = 1 seed the
    # recurrence.  Lower band storage, transposed: row j holds the diagonal
    # 1, the coefficient of q[j] in row j + 1 and that of q[j] in row j + 2.
    q = np.zeros(n + 2)
    q[1] = 1.0
    band = np.zeros((n + 2, 3))
    band[:, 0] = 1.0
    band[1:n + 1, 1] = (a - diag) / c
    band[1:n, 2] = (off / c) ** 2
    banded_recurrence(band, q)
    signs = np.sign(q[1:])
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def lap_probe(model: PotentialModel, lam: float, r: float, epsilons,
              n: int = 80_000, extent: float = 10_000.0,
              iters: int = 60, seed: int = 7) -> LapReport:
    """||<x>^{-r} (H - lam - i eps)^{-1} <x>^{-r}|| per eps (tridiagonal H,
    largest singular value by power iteration on one LU factorization of
    H - lam - i eps per eps, LAPACK zgttrf/zgttrs).

    Resonance check: an isolated eigenvalue within 10 * min(eps) of lam is
    an error; when several levels fall in that window the discrete
    spectrum is quasi-continuous there (it approximates the continuum) and
    the probe proceeds.
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
    x, diag, off = _tridiag(model, n, extent)
    guard = 10.0 * epsilons.min()
    dx = x[1] - x[0]
    spec_lo = float(diag.min() - 2.0 / dx**2)   # Gershgorin lower bound
    if lam > spec_lo - guard:  # below the spectrum there is nothing to hit
        k = (_eig_count_below(diag, off, lam + guard)
             - _eig_count_below(diag, off, lam - guard))
        if k == 1:
            raise ResonanceProximityError(
                f"lambda within {guard:.1e} of an isolated discrete eigenvalue")
    w = (1.0 + x * x) ** (-r / 2.0)
    rng = np.random.default_rng(seed)
    norms = []
    for eps in epsilons:
        dl, d, du, du2, ipiv, info = zgttrf(off, diag - lam - 1j * eps, off)
        if info != 0:
            raise np.linalg.LinAlgError("singular matrix")

        def apply_b(vec):
            return w * zgttrs(dl, d, du, du2, ipiv, w * vec)[0]

        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        s = 0.0
        for _ in range(iters):
            u = apply_b(v)
            # B = W A^{-1} W is complex symmetric (H real symmetric, W real),
            # so B* y = conj(B conj(y)) from the same factors
            u = apply_b(u.conj()).conj()
            s_new = np.linalg.norm(u)
            v = u / s_new
            if abs(s_new - s) < 1e-10 * s_new:
                s = s_new
                break
            s = s_new
        norms.append(np.sqrt(s))
    norms = np.asarray(norms)
    change = abs(norms[-1] - norms[-2]) / max(norms[-2], 1e-300)
    return LapReport(lam=lam, r=r, epsilons=epsilons, norms=norms,
                     stable=bool(change < 0.05))
