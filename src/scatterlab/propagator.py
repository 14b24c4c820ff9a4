"""Time-dependent diagnostics: split-step evolution, free asymptotics,
Moller-limit probes, modified free evolution, and the time-domain S-matrix.

Every packet lives on one origin-centred periodic grid x = (i - n/2) dx.
The l = 0 channel (half-line, Dirichlet at r = 0) is an odd packet on that
grid: v(|x|) is even there and the kinetic factor is even in k, so the
evolution keeps the packet odd and both Dirichlet nodes (x = 0 and the
self-mirrored x = -n dx / 2) stay zero.  The kinetic factor is exact in
Fourier space; Strang splitting e^{-iV dt/2} e^{-iH0 dt} e^{-iV dt/2} is
second-order in dt and unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound until the tracer drops it.
from scipy.integrate import quad  # noqa: F401

from .numerics import DomainError, ParameterError, dft, dft_freqs
from .potentials import PotentialModel, line_integral

EDGE_FRACTION = 0.10
EDGE_THRESHOLD = 1e-6
# Largest work (time steps or samples, times grid points) a run may ask for;
# checked before anything is allocated.
MAX_POINT_STEPS = 2**31


class ReflectionError(RuntimeError):
    """Edge-mass monitor tripped: the run is contaminated by reflection."""


@dataclass(frozen=True)
class WavePacket:
    """Complex wave function samples on the origin-centred grid at time t."""

    values: np.ndarray
    dx: float
    t: float = 0.0

    def __post_init__(self):
        n = len(self.values)
        if n & (n - 1) or n < 8:
            raise ParameterError("grid size must be a power of two >= 8")

    @property
    def grid(self) -> np.ndarray:
        n = len(self.values)
        return (np.arange(n) - n // 2) * self.dx

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))

    def edge_mass(self) -> float:
        """Squared-norm fraction in the outer EDGE_FRACTION of the grid."""
        n = len(self.values)
        m = max(1, int(round(EDGE_FRACTION * n / 2)))
        p = np.abs(self.values) ** 2
        edge = p[:m].sum() + p[-m:].sum()
        total = p.sum()
        return float(edge / total) if total > 0 else 0.0


@dataclass(frozen=True)
class EvolutionConfig:
    """Split-step parameters with the dt * lambda_max < 0.5 accuracy guard."""

    model: PotentialModel
    dt: float

    def validate(self, packet: WavePacket) -> None:
        lam_max = (np.pi / packet.dx) ** 2
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.dt * lam_max >= 0.5:
            raise ParameterError(
                f"dt * lambda_max = {self.dt * lam_max:.3f} >= 0.5; "
                "refine dt or coarsen the grid")


def check_work(n_steps: int, n_points: int) -> None:
    """ParameterError when n_steps * n_points exceeds MAX_POINT_STEPS."""
    if n_steps * n_points > MAX_POINT_STEPS:
        raise ParameterError(
            f"{n_steps} time steps x {n_points} points exceed "
            f"MAX_POINT_STEPS = {MAX_POINT_STEPS}; shorten the run")


def gaussian_packet(n: int, dx: float, center: float, k0: float,
                    sigma: float) -> WavePacket:
    """L2-normalized Gaussian exp(-(x-x0)^2/(4 sigma^2) + i k0 x)."""
    pk = WavePacket(values=np.zeros(n, complex), dx=dx)
    x = pk.grid
    vals = ((2 * np.pi * sigma**2) ** -0.25
            * np.exp(-((x - center) ** 2) / (4 * sigma**2) + 1j * k0 * x))
    return replace(pk, values=vals.astype(complex))


def gaussian_spectral_profile(center: float, k0: float, sigma: float):
    """Exact Fourier transform (unitary convention) of gaussian_packet."""
    def fhat(k):
        k = np.asarray(k, dtype=float)
        return ((2 * sigma**2 / np.pi) ** 0.25
                * np.exp(-sigma**2 * (k - k0) ** 2 - 1j * (k - k0) * center))
    return fhat


# ---------------------------------------------------------------------------
# kinetic step (exact in Fourier space)
# ---------------------------------------------------------------------------

def _kinetic_phase(packet: WavePacket, t: float) -> np.ndarray:
    k = dft_freqs(len(packet.values), packet.dx)
    return np.exp(-1j * k * k * t)


def _apply_kinetic(values: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """e^{-iH0 t} through one forward and one inverse transform; `phase` is
    _kinetic_phase's multiplier."""
    spectrum = dft(values)
    spectrum *= phase
    return dft(spectrum, "inverse")


def free_evolve(packet: WavePacket, t_target: float) -> WavePacket:
    """Exact e^{-i H0 (t_target - t)} on the grid (single Fourier multiply)."""
    return next(free_evolve_series(packet, [t_target]))


def free_evolve_series(packet: WavePacket, times):
    """free_evolve(packet, t) for each t in turn, lazily, from one forward
    transform of the packet."""
    spectrum = dft(packet.values)
    for t in times:
        out = dft(spectrum * _kinetic_phase(packet, t - packet.t), "inverse")
        yield replace(packet, values=out, t=t)


def split_step_evolve(packet: WavePacket, config: EvolutionConfig,
                      t_target: float) -> WavePacket:
    """Strang-split e^{-iH (t_target - t)}; raises ReflectionError when the
    edge-mass monitor trips (result would be contaminated)."""
    config.validate(packet)
    span = t_target - packet.t
    if span == 0.0:
        return packet
    n_steps = max(1, int(np.ceil(abs(span) / config.dt)))
    check_work(n_steps, len(packet.values))
    dt = span / n_steps
    v = config.model.radial_values(np.abs(packet.grid))
    half = np.exp(-0.5j * v * dt)
    full = half * half
    kin = _kinetic_phase(packet, dt)
    vals = packet.values * half
    check_every = max(1, n_steps // 64)
    for i in range(n_steps):
        vals = _apply_kinetic(vals, kin)
        last = i == n_steps - 1
        vals *= half if last else full
        if (i + 1) % check_every == 0 or last:
            out = replace(packet, values=vals, t=t_target)
            if out.edge_mass() > EDGE_THRESHOLD:
                raise ReflectionError(
                    f"edge mass {out.edge_mass():.2e} exceeds "
                    f"{EDGE_THRESHOLD:.1e} at step {i + 1}")
    return out


# ---------------------------------------------------------------------------
# explicit large-time formulas
# ---------------------------------------------------------------------------

def free_asymptotics(fhat, t: float, n: int = 2**13,
                     dx: float = 0.65) -> WavePacket:
    """Explicit free-evolution asymptote
    (e^{-itH0} f)(x) ~ e^{i|x|^2/4t} (2it)^{-1/2} fhat(x/2t) (d = 1)."""
    if t == 0:
        raise ParameterError("t must be nonzero")
    pk = WavePacket(values=np.zeros(n, complex), dx=dx)
    x = pk.grid
    amp = (2 * abs(t)) ** -0.5 * np.exp(-1j * np.sign(t) * np.pi / 4)
    vals = np.exp(1j * x * x / (4 * t)) * amp * np.asarray(fhat(x / (2 * t)),
                                                          dtype=complex)
    return replace(pk, values=vals, t=t)


def _xi_potential_term(model: PotentialModel, x: np.ndarray, t: float) -> np.ndarray:
    """t * int_0^1 v(s x) ds = t * (1/|x|) int_0^|x| v(r) dr (t * v(0) at x = 0),
    from potentials.line_integral along the line through the origin."""
    if model.kind == "power_tail" and model.rho <= 0.5:
        raise ParameterError("Xi formula requires rho > 1/2")
    if model.kind == "yukawa":
        raise DomainError("Xi term diverges for yukawa: int_0 v dr is "
                          "infinite for a 1/r core")
    ax = np.abs(np.asarray(x, dtype=float))
    mean = line_integral(model, 0.0, 0.0, ax) / np.where(ax > 0, ax, 1.0)
    return t * np.where(ax > 0, mean, model.radial_values(0.0))


def modified_free_evolution(model: PotentialModel, fhat, t: float,
                            n: int = 2**13, dx: float = 0.65) -> WavePacket:
    """Modified free evolution (U0(t) f)(x) = e^{i Xi(x,t)} (2it)^{-1/2}
    fhat(x/2t) with Xi = |x|^2/4t - t int_0^1 v(sx) ds (valid for rho > 1/2)."""
    if t == 0:
        raise ParameterError("t must be nonzero")
    base = free_asymptotics(fhat, t, n, dx)
    xi_v = _xi_potential_term(model, base.grid, t)
    return replace(base, values=base.values * np.exp(-1j * xi_v))


# ---------------------------------------------------------------------------
# Moller-limit probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyReport:
    """Increments ||g(T_{j+1}) - g(T_j)|| of a wave-operator probe."""

    times: np.ndarray
    increments: np.ndarray
    verdict: str                # "converging" | "plateau" | "inconclusive"
    modified: bool

    @property
    def decay_factor(self) -> float:
        return float(self.increments[0] / max(self.increments[-1], 1e-300))


def _verdict(increments: np.ndarray) -> str:
    first, last = increments[0], increments[-1]
    if first < 1e-12:
        return "converging"
    if first / max(last, 1e-300) >= 10.0:
        return "converging"
    if first / max(last, 1e-300) < 2.0:
        return "plateau"
    return "inconclusive"


def _probe(model: PotentialModel, times, dt: float, packet_at) -> CauchyReport:
    """Shared Cauchy-increment driver.

    Since e^{iHT} is unitary, ||g(T') - g(T)|| for g(T) = e^{iHT} u(T)
    equals ||e^{iH(T'-T)} u(T') - u(T)||, so each increment only needs an
    interacting evolution over the gap T' - T applied to the explicit
    packet u(T').
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3 or np.any(np.diff(times) <= 0):
        raise ParameterError("need at least three increasing times")
    config = EvolutionConfig(model=model, dt=dt)
    incs = []
    u0 = packet_at(times[0])
    for t0, t1 in zip(times[:-1], times[1:]):
        u1 = packet_at(t1)
        back = split_step_evolve(u1, config, t1 - (t1 - t0))
        # back now holds e^{-iH (t0 - t1)} u(t1) = e^{iH (t1-t0)} u(t1)
        incs.append(float(np.sqrt(np.sum(np.abs(back.values - u0.values) ** 2)
                                  * u0.dx)))
        u0 = u1
    incs = np.asarray(incs)
    return CauchyReport(times=times, increments=incs,
                        verdict=_verdict(incs), modified=False)


def moller_probe(model: PotentialModel, f0: WavePacket, times,
                 dt: float = 0.02) -> CauchyReport:
    """Cauchy increments of g(T) = e^{iHT} e^{-iH0 T} f0."""
    def packet_at(t):
        return free_evolve(f0, t)
    return _probe(model, times, dt, packet_at)


def modified_moller_probe(model: PotentialModel, f0: WavePacket, times,
                          dt: float = 0.02) -> CauchyReport:
    """Cauchy increments of g(T) = e^{iHT} U0(T) f (modified dynamics).

    The probe realizes U0(t) as e^{-i t int_0^1 v(sx) ds} e^{-iH0 t}: the
    exact free evolution dressed with the Xi potential phase.  This agrees
    with the explicit (2it)^{-1/2} form of modified_free_evolution to the
    same order in 1/t but is exactly the identity probe at v = 0, so the
    increments isolate the long-range potential effect rather than the
    O(1/t) dispersal error of the stationary-phase formula.
    """
    xi_1 = _xi_potential_term(model, f0.grid, 1.0)   # Xi's v term is linear in t

    def packet_at(t):
        base = free_evolve(f0, t)
        return replace(base, values=base.values * np.exp(-1j * (t * xi_1)))
    rep = _probe(model, times, dt, packet_at)
    return replace(rep, modified=True)


# ---------------------------------------------------------------------------
# time-domain S-matrix (l = 0 channel)
# ---------------------------------------------------------------------------

def scattering_phase_from_time_domain(model: PotentialModel, k: float,
                                      packet_width: float = 20.0,
                                      n: int = 2**9, dx: float = 0.8,
                                      r0: float | None = None,
                                      dt: float = 0.03) -> complex:
    """e^{2 i delta_0(k)} from an incoming l = 0 packet.

    The half-line r in (0, n dx] with Dirichlet nodes at both ends is the
    odd packet f(x) - f(-x) on the 2n-point grid.  An incoming packet
    reflects off the origin; after it has fully re-emerged, the
    sine-transform amplitude at momentum k relative to the same packet
    evolved freely is e^{2 i delta_0}.
    """
    if k <= 0:
        raise ParameterError("k must be positive")
    if 1.0 / (2 * packet_width * k) > 0.20:
        raise ParameterError("packet band too wide (relative bandwidth > 20%)")
    if r0 is None:
        r0 = n * dx * 0.45
    sigma = packet_width
    pk = gaussian_packet(2 * n, dx, center=r0, k0=-k, sigma=sigma)
    pk = replace(pk, values=pk.values - pk.values[-np.arange(2 * n)])
    t_out = r0 / k  # round trip at group velocity 2k
    u_0 = free_evolve(pk, t_out)
    if model.kind == "zero":
        u_v = u_0
    else:
        u_v = split_step_evolve(pk, EvolutionConfig(model=model, dt=dt), t_out)
    # sine-transform coefficients over r = x > 0 pick out the outgoing
    # e^{ikr} component
    sin_k = np.sin(k * pk.grid[n + 1:])
    a_v = np.sum(sin_k * u_v.values[n + 1:]) * dx
    a_0 = np.sum(sin_k * u_0.values[n + 1:]) * dx
    if abs(a_0) < 1e-8:
        raise ParameterError("free reference amplitude vanishes at this k")
    return complex(a_v / a_0)
