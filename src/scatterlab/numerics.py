"""Shared numerical kernels: quadrature, special functions, and the unitary
discrete Fourier transform (numpy.fft, norm="ortho").

All routines are pure functions; units are hbar = 1, 2m = 1 so that the
Hamiltonian is -Laplacian + v and energy = k**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Invalid argument to a numerical routine."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the routine."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration over a finite interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes mapped to (a, b).

    Exact for polynomials of degree <= 2n - 1.
    """
    if n < 1:
        raise ParameterError(f"need at least one node, got n={n}")
    if not a < b:
        raise ParameterError(f"degenerate interval [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(nodes=mid + half * x, weights=half * w, interval=(a, b))


def composite_gauss(n_per_panel: int, edges) -> QuadratureRule:
    """Concatenation of Gauss-Legendre panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ParameterError("edges must be strictly increasing, at least two")
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        rule = gauss_legendre(n_per_panel, a, b)
        nodes.append(rule.nodes)
        weights.append(rule.weights)
    return QuadratureRule(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        interval=(float(edges[0]), float(edges[-1])),
    )


def _sph_j_upward(l: int, x: float) -> float:
    j0 = np.sin(x) / x
    if l == 0:
        return j0
    j1 = np.sin(x) / x**2 - np.cos(x) / x
    for m in range(1, l):
        j0, j1 = j1, (2 * m + 1) / x * j1 - j0
    return j1


def _sph_j_downward(l: int, x: float) -> float:
    # Start the recurrence well above l, run down, then normalize with j0.
    m_start = l + int(np.ceil(np.sqrt(40.0 * (l + 1)))) + 20
    jp1, j = 0.0, 1e-30
    target = 0.0
    for m in range(m_start, 0, -1):
        jm1 = (2 * m + 1) / x * j - jp1
        jp1, j = j, jm1
        if m - 1 == l:
            target = jm1
        # rescale to avoid overflow
        if abs(j) > 1e250:
            j *= 1e-250
            jp1 *= 1e-250
            target *= 1e-250
    true_j0 = np.sin(x) / x
    return target * true_j0 / j


def _sph_series_jl(l: int, x: float) -> float:
    # Taylor series about x = 0; only used for very small arguments.
    term = x**l / np.prod(np.arange(1, 2 * l + 2, 2, dtype=float))
    total = term
    k = 1
    x2 = x * x
    while True:
        term *= -0.5 * x2 / (k * (2 * (l + k) + 1))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            return total
        k += 1


def spherical_bessel(l: int, x: float) -> tuple[float, float]:
    """Spherical Bessel functions (j_l(x), y_l(x)).

    j_l uses downward recurrence for x < l (stability), upward otherwise;
    y_l always recurses upward (stable direction). x = 0 is allowed only
    via the j_l series limit; y_l diverges there.
    """
    if l < 0:
        raise ParameterError("l must be >= 0")
    if x == 0:
        raise DomainError("y_l is singular at x = 0")
    if x < 0:
        raise DomainError("x must be positive")
    if x < 1e-4 * (l + 1):
        jl = _sph_series_jl(l, x)
    elif x < l:
        jl = _sph_j_downward(l, x)
    else:
        jl = _sph_j_upward(l, x)
    y0 = -np.cos(x) / x
    if l == 0:
        return jl, y0
    y1 = -np.cos(x) / x**2 - np.sin(x) / x
    for m in range(1, l):
        y0, y1 = y1, (2 * m + 1) / x * y1 - y0
    return jl, y1


def spherical_jl(l: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    return spherical_bessel(l, x)[0]


def legendre_p(l: int, t: float) -> float:
    """Legendre polynomial P_l(t) by the three-term recurrence."""
    if abs(t) > 1.0 + 1e-14:
        raise DomainError(f"|t| must be <= 1, got {t}")
    t = min(1.0, max(-1.0, t))
    if l < 0:
        raise ParameterError("l must be >= 0")
    p0, p1 = 1.0, t
    if l == 0:
        return p0
    for m in range(1, l):
        p0, p1 = p1, ((2 * m + 1) * t * p1 - m * p0) / (m + 1)
    return p1


def legendre_p_all(l_max: int, t: float) -> np.ndarray:
    """P_0(t) .. P_lmax(t) in one recurrence sweep."""
    if abs(t) > 1.0 + 1e-14:
        raise DomainError(f"|t| must be <= 1, got {t}")
    t = min(1.0, max(-1.0, t))
    out = np.empty(l_max + 1)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = t
    for m in range(1, l_max):
        out[m + 1] = ((2 * m + 1) * t * out[m] - m * out[m - 1]) / (m + 1)
    return out


def dft(values, direction: str = "forward") -> np.ndarray:
    """Unitary discrete Fourier transform along the last axis (numpy.fft,
    norm="ortho"); the length must be a power of two.

    forward:  X_k = n^{-1/2} sum_j x_j exp(-2 pi i j k / n)
    inverse uses the opposite sign; inverse(forward(x)) == x.
    """
    if direction not in ("forward", "inverse"):
        raise ParameterError(f"unknown direction {direction!r}")
    x = np.asarray(values, dtype=complex)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ParameterError(f"length must be a power of two, got {n}")
    transform = np.fft.fft if direction == "forward" else np.fft.ifft
    return transform(x, axis=-1, norm="ortho")


def dft_freqs(n: int, dx: float) -> np.ndarray:
    """Angular wavenumbers matching dft() bin ordering on an n-point grid."""
    k = np.arange(n, dtype=float)
    k[n // 2:] -= n
    return 2.0 * np.pi * k / (n * dx)
