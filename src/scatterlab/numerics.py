"""Shared numerical kernels: quadrature, special functions and the unitary
discrete Fourier transform.

The DFT calls pocketfft's ``c2c`` binding (``scipy.fft._pocketfft``), the
routine ``scipy.fft.fft``/``ifft`` dispatch to.  On a 1024-point transform
the uarray dispatch in front of it was about half of the call, and the
Chebyshev propagator makes two such calls per term, about 8000 in a
default ``moller`` run.  The results are bit-identical to ``scipy.fft`` with
``norm="ortho"``.

All routines are pure functions; units are hbar = 1, 2m = 1 so that the
Hamiltonian is -Laplacian + v and energy = k**2.
"""

from __future__ import annotations

import functools
import importlib

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c
from scipy.special import eval_legendre, spherical_jn, spherical_yn


class ScatterlabError(Exception):
    """Base of the errors a run can end in for an input the config schema
    admits; the CLI prints each as "config error: " + prefix + message and
    exits 2."""

    prefix = ""


class ParameterError(ScatterlabError, ValueError):
    """Invalid argument to a numerical routine."""


class DomainError(ScatterlabError, ValueError):
    """Argument outside the mathematical domain of the routine."""


class NumericalError(ScatterlabError, RuntimeError):
    """Ill-conditioned or non-convergent numerical step."""

    prefix = "numerical: "


def lazy_names(namespace: dict, **homes: str):
    """A module __getattr__ (PEP 562) that serves each name in homes from
    its module, imported on first access and then bound in namespace, the
    module's globals, so that later lookups find it there directly.  A
    module binds it by assignment, __getattr__ = lazy_names(globals(), ...),
    and imports nothing until a name is asked for."""
    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(homes[name]), name)
        return value

    return __getattr__


def composite_gauss(n_per_panel: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Flat (nodes, weights) of the n_per_panel-point Gauss-Legendre rules
    on the panels between consecutive edges (gauss_panels on every panel
    at once)."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ParameterError("edges must be strictly increasing, at least two")
    if n_per_panel < 1:
        raise ParameterError(f"need at least one node, got n={n_per_panel}")
    nodes, weights = gauss_panels(n_per_panel, edges[:-1], edges[1:])
    return nodes.ravel(), weights.ravel()


def gauss_panels(n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, shape (..., n), of the n-point Gauss-Legendre rule
    on every panel [lo, hi] (broadcast arrays; a zero-width panel gets zero
    weights)."""
    x, w = _legendre_rule(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] (numpy's leggauss), built
    once per n and returned as read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def spherical_bessel(l, x) -> tuple[np.ndarray, np.ndarray]:
    """Spherical Bessel functions (j_l(x), y_l(x)) from scipy.special,
    broadcast over l >= 0 and x > 0; y_l is singular at x = 0."""
    if np.any(np.asarray(l) < 0):
        raise ParameterError("l must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("x must be positive: y_l is singular at x = 0")
    return spherical_jn(l, x), spherical_yn(l, x)


def legendre_p_all(l_max: int, t) -> np.ndarray:
    """P_0(t) .. P_lmax(t) (scipy.special) along a new last axis; t is
    clamped to [-1, 1] after a DomainError check that allows rounding."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise DomainError(f"|t| must be <= 1, got {t}")
    return eval_legendre(np.arange(l_max + 1), np.clip(t, -1.0, 1.0)[..., None])


def dft(values, direction: str = "forward") -> np.ndarray:
    """Unitary discrete Fourier transform along the last axis; the length
    must be a power of two.

    forward:  X_k = n^{-1/2} sum_j x_j exp(-2 pi i j k / n)
    inverse uses the opposite sign; inverse(forward(x)) == x.

    Calls pocketfft's c2c binding directly (inorm=1 is the n^{-1/2}
    scaling, one thread), bit-identical to scipy.fft.fft/ifft with
    norm="ortho" but without scipy.fft's uarray dispatch, which was about
    half of a 1024-point call.  The input is cast to complex128 and never
    written; the result is a new array.
    """
    if direction not in ("forward", "inverse"):
        raise ParameterError(f"unknown direction {direction!r}")
    x = np.asarray(values, dtype=complex)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ParameterError(f"length must be a power of two, got {n}")
    return c2c(x, (x.ndim - 1,), direction == "forward", 1, None, 1)


def dft_freqs(n: int, dx: float) -> np.ndarray:
    """Angular wavenumbers matching dft() bin ordering on an n-point grid."""
    k = np.arange(n, dtype=float)
    k[n // 2:] -= n
    return 2.0 * np.pi * k / (n * dx)
