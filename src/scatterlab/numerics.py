"""Shared numerical kernels: quadrature, special functions, the unitary
discrete Fourier transform and the chunked monic three-term recurrence (LAPACK
dtbtrs).

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c
from scipy.linalg.lapack import dtbtrs
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
    nodes, weights = gauss_panels(n, a, b)
    return QuadratureRule(nodes=nodes, weights=weights, interval=(a, b))


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
    nodes, weights = gauss_panels(n_per_panel, edges[:-1], edges[1:])
    return QuadratureRule(nodes=nodes.ravel(), weights=weights.ravel(),
                          interval=(float(edges[0]), float(edges[-1])))


def gauss_panels(n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, shape (..., n), of the n-point Gauss-Legendre rule
    on every panel [lo, hi] (broadcast arrays; a zero-width panel gets zero
    weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


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


# Rows per banded solve.  Each call starts at this cap; a chunk that
# overflows is halved and redone, down to a single row, and the length
# doubles back towards the cap after each solve that stays finite.
_CHUNK = 8192


def banded_recurrence(band: np.ndarray, x: np.ndarray) -> tuple[list, list, int]:
    """Fill x[2:] from the seeds x[0], x[1] by the monic three-term
    recurrence x[i] + band[i-1, 1] x[i-1] + band[i-2, 2] x[i-2] = 0.

    band (len(x) rows) is the lower band storage ab[d, j] = A[j+d, j] of
    the recurrence matrix, held transposed, with a unit diagonal: column 0
    is never read.  Each chunk of rows is one unit lower-triangular banded
    solve (LAPACK dtbtrs, bandwidth 2, diag="U"), so no row divides; the
    first two rows are identity rows carrying the last two values, and
    band is overwritten there.  Chunks start at _CHUNK rows, are halved on
    overflow and double back after each finite solve.  Each is solved in
    place on its slice of x, which must therefore be a contiguous float64
    vector (ParameterError otherwise).

    Before each chunk the two carried values are scaled below 1 in
    magnitude by a power of two, and the rows keep that scale:
    x[starts[i]:starts[i+1]] * 2**scales[i] is the solution, and
    max |solution| < 2**peak.  Power-of-two scaling is exact, so the
    solution does not depend on where chunks end.

    Returns (starts, scales, peak).  A single row whose value is not
    finite raises NumericalError.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.ndim == 1 and x.flags.c_contiguous):
        raise ParameterError("x must be a contiguous float64 vector")
    n = len(x)
    starts, scales = [], []
    scale = 0
    peak = math.frexp(max(abs(x[0]), abs(x[1])))[1]
    s, m = 2, _CHUNK
    while s < n:
        top = math.frexp(max(abs(x[s - 2]), abs(x[s - 1])))[1]
        np.ldexp(x[s - 2:s], -top, out=x[s - 2:s])
        scale += top
        starts.append(s - 2)
        scales.append(scale)
        # rows s-2 and s-1 become identity rows; a later chunk either starts
        # past them or uses them as identity rows too
        band[s - 2, 1] = 0.0
        while True:
            e = min(n, s + m)
            # the identity rows leave x[s-2:s] as they are, so a redone
            # chunk only needs its right-hand side zeroed again
            x[s:e] = 0.0
            y, _ = dtbtrs(band[s - 2:e].T, x[s - 2:e], uplo="L", diag="U",
                          overwrite_b=1)
            size = max(y.max(), -y.min())
            if math.isfinite(size):
                break
            if m == 1:
                raise NumericalError(f"recurrence overflows or is not finite at row {s}")
            m //= 2
        peak = max(peak, scale + math.frexp(size)[1])
        s, m = e, min(2 * m, _CHUNK)
    return starts, scales, peak
