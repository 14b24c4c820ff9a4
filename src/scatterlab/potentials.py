"""Potential catalog with decay classification and numerical decay verification.

Decay convention: |v(x)| <= C <x>^{-rho} with <x> = (1 + |x|^2)^{1/2};
rho > 1 is short range, 0 < rho <= 1 long range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, gamma, hyp2f1

from .numerics import DomainError, gauss_panels

KINDS = ("gaussian_well", "yukawa", "square_well", "power_tail", "compact_bump", "zero")

# Pointwise regularization radius for the yukawa 1/r singularity; quadratures
# over the radial measure r^2 dr never see it (the integrand r*v is bounded).
YUKAWA_R_MIN = 1e-8


@dataclass(frozen=True)
class PotentialModel:
    """Radial scalar potential v(|x|) with decay metadata.

    kind:      one of KINDS
    v0:        overall strength (sign included; wells are negative)
    width:     range parameter (gaussian/bump width, yukawa 1/mu, well radius)
    rho:       claimed decay exponent
    """

    kind: str
    v0: float = 0.0
    width: float = 1.0
    rho: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
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

    def __call__(self, x):
        return evaluate(self, x)

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

    def tail_radius(self, tol: float = 1e-10) -> float:
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
    G(+-inf) = +-K_rho / (rho - 1) for rho > 1 and +-inf otherwise."""
    u = np.asarray(u, dtype=float)
    if rho == 1.0:
        return np.arcsinh(u)
    uf = np.where(np.isfinite(u), u, 0.0)
    end = _power_scale(rho) / (rho - 1.0) if rho > 1.0 else np.inf
    return np.where(np.isfinite(u), uf * hyp2f1(0.5, 0.5 * rho, 1.5, -uf * uf),
                    np.copysign(end, u))


def line_integral(model: PotentialModel, s, a, b=np.inf, f=None) -> np.ndarray:
    """int_a^b f(s, w) dw along the lines at distances s from the origin,
    vectorized over s, a and b (broadcast); f defaults to v(sqrt(s^2 + w^2)).

    For v itself, power_tail is in closed form, v0 c^(1-rho) (G(b/c) - G(a/c))
    with c = sqrt(1 + s^2); an infinite end diverges to +-inf for rho <= 1.
    Otherwise: running sums of 8-node Gauss panels between the crossings of
    radial levels (64 panels over [0, width], then ratio 1.25) along each
    distinct line, plus a partial panel to each end.  The levels end where
    |v| < 1e-16 |v0| (at 1e6 for power tails), so an f other than v must
    decay fast enough there.  yukawa raises DomainError when the segment
    comes within width/64 of the origin, into the 1/r core.
    """
    s, a, b = np.broadcast_arrays(np.abs(np.asarray(s, dtype=float)),
                                  np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if model.kind == "zero" or model.v0 == 0.0:
        return np.zeros(s.shape)
    if model.kind == "power_tail" and f is None:
        c = np.sqrt(1.0 + s * s)
        return model.v0 * c ** (1.0 - model.rho) * (
            _power_primitive(model.rho, b / c) - _power_primitive(model.rho, a / c))
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


def evaluate(model: PotentialModel, x) -> float:
    """v(x) for a point (or array of points, last axis = coordinates)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        r = np.abs(x)
    else:
        r = np.sqrt(np.sum(x * x, axis=-1))
    out = model.radial_values(r)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DecayReport:
    """sup |d^a v| * <x>^(rho+|a|) per derivative order, with pass flags."""

    model: PotentialModel
    orders: tuple[int, ...]
    sup_constants: tuple[float, ...]
    growth_ratios: tuple[float, ...]
    passed: tuple[bool, ...]

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def verify_decay(model: PotentialModel, derivative_orders: int, sample_radii) -> DecayReport:
    """Check |d^a v| <= C <x>^{-rho-|a|} empirically along a radial ray.

    Derivatives are radial central differences. A derivative order passes
    when the weighted samples show no growth trend beyond 5% between the
    first and second half of the (increasing) radii.
    """
    radii = np.asarray(sample_radii, dtype=float)
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("sample radii must be positive and increasing")
    if derivative_orders > 2:
        raise ValueError("at most second derivatives are sampled")
    orders, sups, ratios, flags = [], [], [], []
    h = 1e-3
    for order in range(derivative_orders + 1):
        if order == 0:
            deriv = np.abs(model.radial_values(radii))
        elif order == 1:
            deriv = np.abs(model.radial_values(radii + h) - model.radial_values(radii - h)) / (2 * h)
        else:
            deriv = np.abs(
                model.radial_values(radii + h)
                - 2 * model.radial_values(radii)
                + model.radial_values(radii - h)
            ) / h**2
        weighted = deriv * (1.0 + radii * radii) ** ((model.rho + order) / 2.0)
        half = len(radii) // 2
        lead = max(np.max(weighted[:half]), 1e-300)
        tail = np.max(weighted[half:])
        ratio = tail / lead
        orders.append(order)
        sups.append(float(np.max(weighted)))
        ratios.append(float(ratio))
        flags.append(bool(ratio <= 1.05))
    return DecayReport(
        model=model,
        orders=tuple(orders),
        sup_constants=tuple(sups),
        growth_ratios=tuple(ratios),
        passed=tuple(flags),
    )


def model_from_config(spec: dict) -> PotentialModel:
    """Build a model from a config mapping (kind + parameters)."""
    kind = spec["kind"]
    kwargs = {}
    for key in ("v0", "width", "rho"):
        if key in spec:
            kwargs[key] = float(spec[key])
    return PotentialModel(kind=kind, **kwargs)
