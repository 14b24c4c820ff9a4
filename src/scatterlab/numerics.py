"""Shared numerical kernels: quadrature, special functions, and the unitary
discrete Fourier transform (scipy.fft, norm="ortho").

All routines are pure functions; units are hbar = 1, 2m = 1 so that the
Hamiltonian is -Laplacian + v and energy = k**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import eval_legendre, spherical_jn, spherical_yn


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
    """Concatenation of Gauss-Legendre panels between consecutive edges.

    One reference rule mapped to every panel at once; each node and weight
    comes from the same float operations as gauss_legendre on its panel.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ParameterError("edges must be strictly increasing, at least two")
    if n_per_panel < 1:
        raise ParameterError(f"need at least one node, got n={n_per_panel}")
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(
        nodes=(mid[:, None] + half[:, None] * x).ravel(),
        weights=(half[:, None] * w).ravel(),
        interval=(float(edges[0]), float(edges[-1])),
    )


def _bessel_arg(l, x) -> np.ndarray:
    if np.any(np.asarray(l) < 0):
        raise ParameterError("l must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("x must be positive")
    return x


def spherical_bessel(l, x) -> tuple[np.ndarray, np.ndarray]:
    """Spherical Bessel functions (j_l(x), y_l(x)) from scipy.special,
    broadcast over l and x.  y_l is singular at x = 0."""
    x = _bessel_arg(l, x)
    if np.any(x == 0):
        raise DomainError("y_l is singular at x = 0")
    return spherical_jn(l, x), spherical_yn(l, x)


def spherical_jl(l, x) -> np.ndarray:
    """j_l(x) alone; finite at x = 0."""
    return spherical_jn(l, _bessel_arg(l, x))


def _legendre_arg(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise DomainError(f"|t| must be <= 1, got {t}")
    return np.clip(t, -1.0, 1.0)


def legendre_p(l: int, t):
    """Legendre polynomial P_l(t) (scipy.special), elementwise in t."""
    t = _legendre_arg(t)
    if l < 0:
        raise ParameterError("l must be >= 0")
    return eval_legendre(int(l), t)


def legendre_p_all(l_max: int, t) -> np.ndarray:
    """P_0(t) .. P_lmax(t) along a new last axis."""
    return eval_legendre(np.arange(l_max + 1), _legendre_arg(t)[..., None])


def dft(values, direction: str = "forward") -> np.ndarray:
    """Unitary discrete Fourier transform along the last axis (scipy.fft,
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
    transform = scipy.fft.fft if direction == "forward" else scipy.fft.ifft
    return transform(x, axis=-1, norm="ortho")


def dft_freqs(n: int, dx: float) -> np.ndarray:
    """Angular wavenumbers matching dft() bin ordering on an n-point grid."""
    k = np.arange(n, dtype=float)
    k[n // 2:] -= n
    return 2.0 * np.pi * k / (n * dx)
