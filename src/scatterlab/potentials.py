"""Potential catalog with decay classification and numerical decay verification.

Decay convention: |v(x)| <= C <x>^{-rho} with <x> = (1 + |x|^2)^{1/2};
rho > 1 is short range, 0 < rho <= 1 long range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
