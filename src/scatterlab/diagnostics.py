"""Checks of the analytic machinery on discretized operators.

Hilbert-Schmidt norm identity for the weighted free resolvent, Kato
smoothness time integrals, Mourre commutator positivity on a spectral
window, and limiting-absorption stability of weighted resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_banded

from .numerics import DomainError, ParameterError, composite_gauss
from .potentials import PotentialModel
from . import propagator


class WindowError(ValueError):
    """Spectral window contains no eigenvalues."""


class ResonanceProximityError(ValueError):
    """lambda sits on an isolated discrete eigenvalue of the finite model."""


# ---------------------------------------------------------------------------
# discretized operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscretizedOperator:
    """Dense H = -Delta_h + v on a centered 1D grid (second-order FD)."""

    x: np.ndarray
    matrix: np.ndarray
    kinetic: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def discretize(model: PotentialModel, n: int, extent: float) -> DiscretizedOperator:
    """H on [-extent, extent] with Dirichlet ends."""
    if n < 8:
        raise ParameterError("n too small")
    x = np.linspace(-extent, extent, n)
    dx = x[1] - x[0]
    main = np.full(n, 2.0 / dx**2)
    off = np.full(n - 1, -1.0 / dx**2)
    kin = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    h = kin + np.diag(model.radial_values(np.abs(x)))
    return DiscretizedOperator(x=x, matrix=h, kinetic=kin)


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
    T_values = np.asarray(T_values, dtype=float)
    if np.any(np.diff(T_values) <= 0) or T_values[0] <= 0:
        raise ParameterError("T_values must be positive and increasing")
    x = f.grid
    w2 = (1.0 + x * x) ** -r        # <x>^{-2r}
    norm2 = np.sum(np.abs(f.values) ** 2) * f.dx
    if norm2 == 0.0:
        return KatoReport(r=r, T_values=T_values,
                          integrals=np.zeros(len(T_values)), saturating=True)
    ts = np.arange(0.0, T_values[-1] + 0.5 * dt, dt)
    g = np.empty(len(ts))
    for i, t in enumerate(ts):
        ev = propagator.free_evolve(f, t)
        if ev.edge_mass() > propagator.EDGE_THRESHOLD:
            raise propagator.ReflectionError(f"edge mass breach at t={t}")
        g[i] = np.sum(w2 * np.abs(ev.values) ** 2) * f.dx
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
    integrals = np.interp(T_values, ts, cum) / norm2
    growth = (integrals[-1] - integrals[-2]) / max(integrals[-2], 1e-300)
    return KatoReport(r=r, T_values=T_values, integrals=integrals,
                      saturating=bool(growth < 0.01))


# ---------------------------------------------------------------------------
# Mourre positivity
# ---------------------------------------------------------------------------

def mourre_check(model: PotentialModel, window: tuple[float, float],
                 n: int = 1024, extent: float = 160.0) -> float:
    """Minimal eigenvalue of E(I) i[H, A] E(I).

    E(I) projects onto eigenvectors of the discrete H inside the window;
    the commutator uses the exact operator identity
    i[H, A] = 4 H_0 - 2 x v'(x), realized as a matrix (the raw matrix
    commutator vanishes on exact eigenvectors by the virial identity, so
    the symbolic form is the faithful discretization).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ParameterError("window must satisfy 0 < lo < hi")
    op = discretize(model, n, extent)
    lam_max = 4.0 / op.dx**2
    if hi >= 0.25 * lam_max:
        raise ParameterError("window above the reliable spectral range")
    evals, evecs = eigh(op.matrix)
    sel = (evals >= lo) & (evals <= hi)
    if not np.any(sel):
        raise WindowError(f"no eigenvalues in [{lo}, {hi}]")
    vs = evecs[:, sel]
    h = 1e-6
    xv = np.abs(op.x)
    dv = (model.radial_values(xv + h) - model.radial_values(np.abs(xv - h))) / (2 * h)
    comm = 4.0 * op.kinetic - np.diag(2.0 * np.abs(op.x) * dv)
    m = vs.T @ comm @ vs
    m = 0.5 * (m + m.T)
    return float(np.min(np.linalg.eigvalsh(m)))


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


def _tridiag(model: PotentialModel, n: int, extent: float):
    x = np.linspace(-extent, extent, n)
    dx = x[1] - x[0]
    diag = 2.0 / dx**2 + model.radial_values(np.abs(x))
    off = np.full(n - 1, -1.0 / dx**2)
    return x, diag, off


def _eig_count_below(diag, off, a: float) -> int:
    """Sturm-sequence count of eigenvalues below a (tridiagonal)."""
    count = 0
    d = diag[0] - a
    if d < 0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(diag)):
        d = (diag[i] - a) - off[i - 1] ** 2 / (d if abs(d) > tiny else tiny)
        if d < 0:
            count += 1
    return count


def lap_probe(model: PotentialModel, lam: float, r: float, epsilons,
              n: int = 80_000, extent: float = 10_000.0,
              iters: int = 60, seed: int = 7) -> LapReport:
    """||<x>^{-r} (H - lam - i eps)^{-1} <x>^{-r}|| per eps (tridiagonal H,
    largest singular value by power iteration with banded solves).

    Resonance check: an isolated eigenvalue within 10 * min(eps) of lam is
    an error; when several levels fall in that window the discrete
    spectrum is quasi-continuous there (it approximates the continuum) and
    the probe proceeds.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(np.diff(epsilons) >= 0) or np.any(epsilons <= 0):
        raise ParameterError("epsilons must be positive and decreasing")
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
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = off
        ab[1] = diag - lam - 1j * eps
        ab[2, :-1] = off
        ab_c = ab.conj()

        def apply_b(vec, band):
            return w * solve_banded((1, 1), band, w * vec)

        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        s = 0.0
        for _ in range(iters):
            u = apply_b(v, ab)
            u = apply_b(u, ab_c)      # B* B v  (H real symmetric)
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
