"""Potential catalog with decay classification and line integrals of v.

Decay convention: |v(x)| <= C <x>^{-rho} with <x> = (1 + |x|^2)^{1/2};
rho > 1 is short range, 0 < rho <= 1 long range.  Every kind but
power_tail decays faster than any power, so its rho is inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, gamma, hyp2f1

from .numerics import DomainError, gauss_panels

# The parameters each kind takes.  power_tail's length scale is the 1 of
# 1 + r^2, so its width is fixed at 1; zero takes nothing.
PARAMETERS = {"gaussian_well": ("v0", "width"), "yukawa": ("v0", "width"),
              "square_well": ("v0", "width"), "power_tail": ("v0", "rho"),
              "compact_bump": ("v0", "width"), "zero": ()}
KINDS = tuple(PARAMETERS)

# Pointwise regularization radius for the yukawa 1/r singularity; quadratures
# over the radial measure r^2 dr never see it (the integrand r*v is bounded).
YUKAWA_R_MIN = 1e-8


@dataclass(frozen=True)
class PotentialModel:
    """Radial scalar potential v(|x|) with decay metadata.

    kind:      one of KINDS; a parameter outside PARAMETERS[kind] is a ValueError
    v0:        overall strength (sign included; wells are negative), default 0
    width:     range parameter (gaussian/bump width, yukawa 1/mu, well radius),
               default 1; 1 for power_tail and zero
    rho:       decay exponent of v: power_tail's, default 2; inf for the rest
    """

    kind: str
    v0: float | None = None
    width: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        takes = PARAMETERS[self.kind]
        defaults = {"v0": 0.0, "width": 1.0,
                    "rho": 2.0 if self.kind == "power_tail" else np.inf}
        for name, default in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
            elif name not in takes:
                raise ValueError(f"{self.kind} takes no {name}; it takes "
                                 f"{', '.join(takes) or 'no parameter'}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")

    # -- radial profile -------------------------------------------------

    def radial_values(self, r):
        """v as a function of radius; vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "gaussian_well":
            return self.v0 * np.exp(-((r / self.width) ** 2))
        if self.kind == "yukawa":
            mu = 1.0 / self.width
            rr = np.maximum(r, YUKAWA_R_MIN)
            return self.v0 * np.exp(-mu * rr) / rr
        if self.kind == "square_well":
            return np.where(r < self.width, self.v0, 0.0)
        if self.kind == "power_tail":
            return self.v0 * (1.0 + r * r) ** (-self.rho / 2.0)
        if self.kind == "compact_bump":
            # C^inf bump supported on r < width
            u = np.atleast_1d(r / self.width)
            out = np.zeros_like(u)
            inside = u < 1.0
            out[inside] = self.v0 * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
            return out.reshape(np.shape(r))
        raise AssertionError(self.kind)

    @property
    def effective_range(self) -> float:
        """Radius beyond which the potential is numerically negligible (or
        the scale of the tail for power-law decay)."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("square_well", "compact_bump"):
            return self.width
        if self.kind == "gaussian_well":
            return self.width * 6.0
        if self.kind == "yukawa":
            return self.width * 40.0
        return 10.0  # power_tail: no compact range; scale only

    def tail_radius(self, tol: float) -> float:
        """Radius where |v| first drops below tol (grid search; inf-like
        values capped at 1e6 for power tails)."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("square_well", "compact_bump"):
            return self.width
        r = max(self.width, 1.0)
        while r < 1e6:
            if abs(float(self.radial_values(r))) < tol:
                return r
            r *= 1.25
        return 1e6


# -- integrals of v along straight lines -------------------------------------
# A line at distance s from the origin is parametrized by w, the signed
# distance from its point of closest approach: |x| = sqrt(s^2 + w^2).


def _power_scale(rho: float) -> float:
    """K_rho = sqrt(pi) Gamma((rho+1)/2) / Gamma(rho/2): (rho - 1) times
    int_0^inf (1 + t^2)^(-rho/2) dt for rho > 1, and K_1 = 1."""
    return np.sqrt(np.pi) * gamma(0.5 * (rho + 1.0)) / gamma(0.5 * rho)


def _power_primitive(rho: float, u) -> np.ndarray:
    """G(u) = int_0^u (1 + t^2)^(-rho/2) dt = u 2F1(1/2, rho/2; 3/2; -u^2)
    (asinh u at rho = 1, where scipy's 2F1 loses digits at large u), with
    G(+-inf) = +-K_rho / (rho - 1) for rho > 1 and +-inf otherwise.

    For rho in [0.999, 1.001], where 2F1 is up to 1e-9 off, t = sinh x:
    G(u) = sign(u) int_0^asinh|u| cosh(x)^(1 - rho) dx, by 32 Gauss nodes on
    x <= 18 with ln cosh x = x - ln 2 + log1p(e^-2x), and in closed form
    beyond, where cosh x = e^x / 2 to double precision.

    Elsewhere, past |u| = 1e154, where u^2 overflows, the asymptote
    G(u) = sign(u) (K_rho / (rho - 1) + |u|^(1 - rho) / (1 - rho)), whose
    next term is a factor |u|^-2 smaller."""
    u = np.asarray(u, dtype=float)
    if rho == 1.0:
        return np.arcsinh(u)
    uf = np.where(np.isfinite(u), u, 0.0)
    k = _power_scale(rho) / (rho - 1.0)
    end = k if rho > 1.0 else np.inf
    if 0.999 <= rho <= 1.001:
        x_end, e = np.arcsinh(np.abs(uf)), 1.0 - rho
        x, w = gauss_panels(32, 0.0, np.minimum(x_end, 18.0))
        head = np.sum(w * np.exp(e * (x - np.log(2.0) + np.log1p(np.exp(-2.0 * x)))),
                      axis=-1)
        far = np.maximum(x_end - 18.0, 0.0)
        g = np.sign(uf) * (head + np.exp(e * (18.0 - np.log(2.0))) * far * exprel(e * far))
    else:
        far = np.abs(uf) > 1e154
        un, ua = np.where(far, 0.0, uf), np.where(far, np.abs(uf), 1.0)
        g = np.where(far, np.sign(uf) * (k + ua ** (1.0 - rho) / (1.0 - rho)),
                     un * hyp2f1(0.5, 0.5 * rho, 1.5, -un * un))
    return np.where(np.isfinite(u), g, np.copysign(end, u))


def _power_segment(rho: float, lo, hi) -> np.ndarray:
    """G(hi) - G(lo), the integral of (1 + t^2)^(-rho/2) over [lo, hi].

    Where both ends lie on one side past |t| = 100, the difference of G
    would cancel G's constant and lose digits, so the integral is taken
    from the tail directly: between u = min and v = max of |lo|, |hi|,
    (1 + t^2)^(-rho/2) = sum_k binom(-rho/2, k) t^(-rho - 2k), each term
    integrated in closed form as u^(1 - rho) u^(-2k) expm1(e L) / e, with
    e = 1 - rho - 2k and L = ln(v / u) (L itself where e = 0), so that only
    the whole sum, never a term, leaves the normal range.  The terms k <= 6
    are taken: the first one left out, |binom(-rho/2, 7)| u^-14 relative,
    stays below 4.2e-19 for every rho up to 153.7, past which the tail
    from 100 is no normal double.
    """
    out = _power_primitive(rho, hi) - _power_primitive(rho, lo)
    u, v = np.minimum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(lo), np.abs(hi))
    far = (u >= 100.0) & np.isfinite(u) & (np.sign(lo) == np.sign(hi))
    if not np.any(far):
        return out
    u, v = u[far], v[far]
    ln = np.log1p((v - u) / u)
    tail, coeff = 0.0, 1.0
    for k in range(7):
        e = 1.0 - rho - 2 * k
        term = ln if e == 0.0 else np.expm1(e * ln) / e
        tail = tail + coeff * u ** (-2.0 * k) * term
        coeff *= -(0.5 * rho + k) / (k + 1)
    out = np.array(out)
    out[far] = np.sign(hi - lo)[far] * u ** (1.0 - rho) * tail
    return out


def line_integral(model: PotentialModel, s, a, b=np.inf, f=None) -> np.ndarray:
    """int_a^b f(s, w) dw along the lines at distances s from the origin,
    vectorized over s, a and b (broadcast); f defaults to v(sqrt(s^2 + w^2)).

    For v itself, power_tail is in closed form, v0 c^(1-rho) (G(b/c) - G(a/c))
    with c = sqrt(1 + s^2), taken by _power_segment; an infinite end
    diverges to +-inf for rho <= 1.
    Otherwise: running sums of 8-node Gauss panels between the crossings of
    radial levels (64 panels over [0, width], then ratio 1.25) along each
    distinct line, plus a partial panel to each end.  The levels end where
    |v| < 1e-16 |v0| (at 1e6 for power tails), so an f other than v must
    decay fast enough there.  yukawa raises DomainError when the segment
    comes within width/64 of the origin, into the 1/r core.
    """
    s, a, b = np.broadcast_arrays(np.abs(np.asarray(s, dtype=float)),
                                  np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if model.v0 == 0.0:
        return np.zeros(s.shape)
    if model.kind == "power_tail" and f is None:
        c = np.sqrt(1.0 + s * s)
        return model.v0 * c ** (1.0 - model.rho) * _power_segment(model.rho, a / c, b / c)
    if model.kind == "yukawa" and np.any(np.hypot(s, np.clip(0.0, a, b)) < model.width / 64):
        raise DomainError("the line passes through the yukawa 1/r core, where int v diverges")
    if f is None:
        def f(s, w):
            return model.radial_values(np.hypot(s, w))
    far = model.width if model.kind in ("square_well", "compact_bump") else (
        model.tail_radius(1e-16 * abs(model.v0)))
    n_geo = int(np.ceil(np.log(max(far / model.width, 1.0)) / np.log(1.25)))
    levels = np.concatenate([np.linspace(0.0, model.width, 65),
                             model.width * 1.25 ** np.arange(1, n_geo + 1)])
    su, row = np.unique(s.ravel(), return_inverse=True)
    row = row.reshape(s.shape)
    edges = np.sqrt(np.maximum(levels**2 - su[:, None] ** 2, 0.0))   # w >= 0 crossings
    nodes, weights = gauss_panels(8, edges[:, :-1], edges[:, 1:])
    panels = np.sum(weights * f(su[:, None, None], nodes), axis=-1)
    running = np.concatenate([np.zeros((len(su), 1)), np.cumsum(panels, axis=1)], axis=1)

    def half(w):  # sign(w) int_0^|w|; j: the last edge at or below |w|
        aw = np.minimum(np.abs(w), edges[row, -1])
        j = np.searchsorted(levels, np.hypot(s, aw), side="right") - 1
        nodes, weights = gauss_panels(8, edges[row, j], aw)
        return np.sign(w) * (running[row, j] + np.sum(weights * f(s[..., None], nodes), axis=-1))
    return half(b) - half(a)


def ray_difference(model: PotentialModel, s, a) -> np.ndarray:
    """int_a^inf v(sqrt(s^2 + w^2)) dw - int_0^inf v(w) dw, the eikonal
    difference ray integral; it converges for rho > 1/2.

    power_tail in closed form with the divergent parts cancelled, with
    L = ln c: -v0 (K_rho L exprel((1 - rho) L) + c^(1-rho) G(a/c)), which is
    -v0 (L + asinh(a/c)) at rho = 1.  Other kinds by line_integral
    (DomainError on yukawa: the reference ray runs through the core).
    """
    if model.kind != "power_tail":
        return line_integral(model, s, a) - line_integral(model, 0.0, 0.0)
    if model.rho <= 0.5:
        raise DomainError("difference ray integral diverges for rho <= 1/2")
    log_c = 0.5 * np.log1p(np.square(s))
    g = _power_primitive(model.rho, np.asarray(a, dtype=float) / np.exp(log_c))
    x = (1.0 - model.rho) * log_c
    return -model.v0 * (_power_scale(model.rho) * log_c * exprel(x) + np.exp(x) * g)


def model_from_config(spec: dict) -> PotentialModel:
    """Build a model from a config mapping: kind and the parameters its
    kind takes (PARAMETERS), each as a float."""
    kind = spec["kind"]
    return PotentialModel(kind, **{key: float(value) for key, value in spec.items()
                                   if key != "kind"})
