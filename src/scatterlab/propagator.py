"""Time-dependent diagnostics: Chebyshev and free evolution, free
asymptotics, Moller-limit probes (plain and Dollard-modified), and the
time-domain S-matrix.

Every packet lives on one origin-centred periodic grid x = (i - n/2) dx.
The l = 0 channel (half-line, Dirichlet at r = 0) is an odd packet on that
grid: v(|x|) is even there and the kinetic factor is even in k, so the
evolution keeps the packet odd and both Dirichlet nodes (x = 0 and the
self-mirrored x = -n dx / 2) stay zero.  Free evolution is exact in Fourier
space; the Chebyshev expansion of e^{-iHt} is exact to roundoff, and every
interacting evolution uses it.  It evolves an exactly odd packet on the
half line, the n/2 - 1 values between the Dirichlet nodes, through type-I
sine transforms, which are the DFT's odd modes.  One expansion covers many
of its edge-mass checks, which are read from the expansion's own terms
rather than by restarting it at each one.  Every coefficient, the final
state's and the checks', comes from one Jacobi-Anger transform.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import pairwise

import numpy as np

from .numerics import (NumericalError, ParameterError, ScatterlabError, dft, dft_freqs,
                       dst, lazy_names)
from .potentials import PotentialModel, line_integral

# Not called here; the benchmark tracer (perfbench/tracing.py) wraps this
# name, so it stays bound, and scipy.integrate is imported only when it is
# first read, until the tracer drops it.
__getattr__ = lazy_names(globals(), quad="scipy.integrate")

EDGE_FRACTION = 0.10
EDGE_THRESHOLD = 1e-6
# Largest work (Chebyshev terms or time samples, times grid points) a run may
# ask for; checked before anything is allocated.
MAX_POINT_STEPS = 2**31
# b tau is at most MAX_SPAN_PHASE per expansion, so its coefficient array
# (_terms) stays small whatever the potential's range.
MAX_SPAN_PHASE = 2.0**12
# Terms gathered at most before their edge samples are folded into the
# checks inside an expansion.  The table of check coefficients (checks times
# transform points) holds at most _CHECK_TABLE complex entries (4 MB), and at
# most _TABLE_SHARE of the expansion's terms times grid points, so that
# building it costs a few percent of the terms it is read from: on 64 points
# the refused first gap of a `moller` run (100 checks) takes 0.34 ms in
# expansions of 4 checks, and 5 ms in one of 100, whose 99 table rows each
# cost a 1024-point transform.
_BLOCK = 32
_CHECK_TABLE = 2**18
_TABLE_SHARE = 1 / 8


class ReflectionError(ScatterlabError, RuntimeError):
    """Edge-mass monitor tripped: the run is contaminated by reflection."""

    prefix = "reflection: "


def _grid(n: int, dx: float) -> np.ndarray:
    """The origin-centred grid x = (i - n/2) dx, i = 0 .. n - 1."""
    return (np.arange(n) - n // 2) * dx


def _edge_width(n: int) -> int:
    """Samples in each of the two edge strips of an n-point grid."""
    return max(1, int(round(EDGE_FRACTION * n / 2)))


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
        # chebyshev_evolve's kinetic bound (pi/dx)**2 is finite exactly when
        # pi/dx < 2**512
        if not (self.dx > 0 and np.pi / self.dx < 2.0 ** 512):
            raise ParameterError(
                f"grid step dx={self.dx!r} must be positive with (pi/dx)**2 "
                f"finite (dx above about 2.34e-154)")

    @property
    def grid(self) -> np.ndarray:
        return _grid(len(self.values), self.dx)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))

    def edge_mass(self) -> float:
        """Squared-norm fraction in the outer EDGE_FRACTION of the grid."""
        return edge_fraction(np.abs(self.values) ** 2)


def edge_fraction(density: np.ndarray) -> float:
    """The fraction of density's sum in its outer EDGE_FRACTION (0 for a
    zero sum): WavePacket.edge_mass of a packet with density |values|^2."""
    m = _edge_width(len(density))
    edge = density[:m].sum() + density[-m:].sum()
    total = density.sum()
    return float(edge / total) if total > 0 else 0.0


def check_work(n_steps: float, n_points: int, unit: str = "time steps") -> None:
    """ParameterError when n_steps (a float, inf too) * n_points exceeds
    MAX_POINT_STEPS; `unit` names the steps in the message."""
    if n_steps * n_points > MAX_POINT_STEPS:
        raise ParameterError(
            f"{n_steps:.12g} {unit} x {n_points} points exceed "
            f"MAX_POINT_STEPS = {MAX_POINT_STEPS}; shorten the run")


def gaussian_packet(n: int, dx: float, center: float, k0: float,
                    sigma: float) -> WavePacket:
    """L2-normalized Gaussian exp(-(x-x0)^2/(4 sigma^2) + i k0 x).
    ParameterError, before any sample, unless 2 pi sigma^2 is a positive
    finite float (sigma from about 1.6e-162 to 5.3e153), and then unless
    sigma >= dx.  The continuum factor (2 pi sigma^2)^(-1/4) normalizes the
    samples only on a grid that resolves the packet: by Poisson summation
    their squared norm misses 1 by at most 2 exp(-2 pi^2 sigma^2 / dx^2),
    5.4e-9 at sigma = dx."""
    # sigma**2 raises past |sigma| = 2**512; 2 pi sigma**2 is inf from 2**511
    var = 2 * np.pi * sigma**2 if abs(sigma) < 2.0**511 else np.inf
    if not 0.0 < var < np.inf:
        raise ParameterError(
            f"packet width sigma={sigma!r} out of range: 2 pi sigma**2 = {var!r} "
            f"is not a positive finite float")
    if sigma < dx:
        raise ParameterError(
            f"packet width sigma={sigma!r} below the grid step dx={dx!r}: the "
            f"grid does not resolve the packet")
    x = _grid(n, dx)
    # on a narrow packet the exponent overflows to -inf, where exp gives
    # the 0 it tends to
    with np.errstate(over="ignore"):
        vals = (var ** -0.25
                * np.exp(-((x - center) ** 2) / (4 * sigma**2) + 1j * k0 * x))
    return WavePacket(values=vals.astype(complex), dx=dx)


def gaussian_spectral_profile(center: float, k0: float, sigma: float):
    """Exact Fourier transform (unitary convention) of gaussian_packet."""
    def fhat(k):
        k = np.asarray(k, dtype=float)
        return ((2 * sigma**2 / np.pi) ** 0.25
                * np.exp(-sigma**2 * (k - k0) ** 2 - 1j * (k - k0) * center))
    return fhat


def free_evolve(packet: WavePacket, t_target: float) -> WavePacket:
    """Exact e^{-i H0 (t_target - t)} on the grid (single Fourier multiply)."""
    return next(free_evolve_series(packet, [t_target]))


def free_evolve_series(packet: WavePacket, times):
    """free_evolve(packet, t) for each t in turn, lazily, from one forward
    transform of the packet."""
    spectrum = dft(packet.values)
    k = dft_freqs(len(packet.values), packet.dx)
    # the exponent -i k^2, formed once for every t
    exponent = -1j * k * k
    for t in times:
        out = dft(spectrum * np.exp(exponent * (t - packet.t)), "inverse")
        yield replace(packet, values=out, t=t)


def check_edge(mass: float, span: int) -> None:
    """ReflectionError when the edge mass at the end of span `span` trips
    the monitor."""
    if mass > EDGE_THRESHOLD:
        raise ReflectionError(
            f"edge mass {mass:.2e} exceeds {EDGE_THRESHOLD:.1e} at span {span}")


def _edge_spans(packet: WavePacket, t_target: float, longest: float = np.inf) -> float:
    """The number of equal spans from packet.t to t_target, none longer than
    `longest` nor than m dx^2 / (2 pi), the time the fastest grid mode (group
    velocity 2 pi / dx) takes to cross an edge strip of m samples, so no mass
    crosses the strip between two checks at span ends.  A float, so that a run
    of 1e300 is counted, and refused by check_work, before any allocation."""
    n, dx = len(packet.values), packet.dx
    tau = min(_edge_width(n) * dx * dx / (2 * np.pi), longest)
    return max(1.0, float(np.ceil(abs(t_target - packet.t) / tau)))


def _terms(z: float) -> float:
    """Chebyshev terms for a phase b tau = z: every k with |J_k(z)| >= 1e-17
    and at most 3 past the last of them, for z up to MAX_SPAN_PHASE."""
    return z + 11.0 * z ** (1 / 3) + 5.0


def _table_points(z: float) -> int:
    """Transform length for the coefficients of an expansion of phase z: a
    power of two at least twice its terms, so that no coefficient the
    expansion uses is aliased by one above 1e-17."""
    return 1 << (2 * int(_terms(z)) - 1).bit_length()


def _expansion(a: float, b: float, tau: float, size: int):
    """One expansion of e^{-iH t} over t = size * tau: the coefficients
    (2 - delta_k0) (-i)^k J_k(b t_j) e^{-ia t_j}, k < _terms(b |t|), at
    t_j = j tau, j = 1 .. size; the last row is the final state's, the
    others are the table of the interior checks, with the terms each check
    reads, _terms(b |t_j|).

    By Jacobi-Anger, e^{-i (a + b cos theta) t_j} = e^{-ia t_j} sum_k
    (-i)^k J_k(b t_j) e^{ik theta} for either sign of t_j, so each row is
    one transform of it, sampled on a power-of-two ring of angles (row j is
    the first to the j-th power): no Bessel function is evaluated.  Rows
    are transformed one at a time, so no temporary outgrows a row.  Their
    values carry 1e-16 to 1e-14 of roundoff, so the series lengths come
    from _terms alone, not from a trim by magnitude.
    """
    q = b * abs(tau)
    terms = int(_terms(size * q))
    points = _table_points(size * q)
    ring = np.exp(-1j * tau * (a + b * np.cos(2 * np.pi / points * np.arange(points))))
    rows = np.empty((size, terms), dtype=complex)
    row = ring
    for j in range(size):
        rows[j] = dft(row)[:terms]
        row = row * ring
    rows *= points ** -0.5
    rows[:, 1:] *= 2.0
    return rows[-1], rows[:-1], [int(_terms(j * q)) for j in range(1, size)]


class _EdgeChecks:
    """The edge masses at one expansion's interior checks, read from its
    terms: each term's samples at the edge indices are gathered into a
    block of at most _BLOCK rows, which is folded into every open check's
    edge samples by one matrix product when it is full or when it completes
    the terms of the next check.  That check is then decided, so a failing
    run stops after the terms its failing check reads; its mass, the sum of
    its samples' |.|^2 times their weights (the times the edge strips read
    each node), is over the initial packet's squared norm, which the
    evolution conserves to roundoff.  Once every check is decided, no more
    samples are gathered."""

    def __init__(self, table, counts, edge, weights, total: float, first: int):
        self.table, self.counts, self.edge, self.weights = table, counts, edge, weights
        self.total, self.first = total, first
        self.samples = np.zeros((len(table), len(edge)), dtype=complex)
        self.block = []
        self.done = self.decided = 0

    def add(self, term: np.ndarray) -> None:
        if self.decided == len(self.counts):
            return
        self.block.append(term[self.edge])
        if (len(self.block) == _BLOCK
                or self.done + len(self.block) == self.counts[self.decided]):
            self.fold()

    def fold(self) -> None:
        """Fold the block in, then decide the checks whose terms are in."""
        j, k, rows = self.decided, self.done, len(self.block)
        self.samples[j:] += self.table[j:, k:k + rows] @ np.array(self.block)
        self.block.clear()
        self.done += rows
        while j < len(self.counts) and self.counts[j] <= self.done:
            edge = float(np.sum(self.weights * np.abs(self.samples[j]) ** 2))
            check_edge(edge / self.total if self.total > 0 else 0.0,
                       self.first + j + 1)
            j += 1
        self.decided = j


def chebyshev_evolve(packet: WavePacket, model: PotentialModel,
                     t_target: float) -> WavePacket:
    """e^{-iH (t_target - t)} to roundoff by its Chebyshev expansion
    (H. Tal-Ezer and R. Kosloff, J. Chem. Phys. 81 (1984) 3967):

        e^{-iH tau} = e^{-ia tau} sum_k (2 - delta_k0) (-i)^k J_k(b tau) T_k(G),

    G = (H - a) / b, over [a - b, a + b] = [min v, (pi/dx)^2 + max v], which
    holds the spectrum of the grid's H = k^2 + v.  Each term applies H
    once, through one forward and one inverse transform; the coefficients
    come from _expansion's transform, for a backward run too.

    An exactly odd packet (values[i] == -values[-i] for every i, so 0 at
    both Dirichlet nodes) is evolved on the half line: its n/2 - 1 values
    at x = (j + 1) dx, with numerics.dst for the transforms and the
    multiplier at the sine modes k = pi m / (n/2 dx), m = 1 .. n/2 - 1, the
    odd modes of the grid's.  The coefficients, spans, checks and work cap
    are those of the whole grid; each check reads the half-line nodes the
    edge strips mirror onto once each, weighted by how many strips hold
    them, and the state at an expansion's end is the odd packet rebuilt on
    the grid, its Dirichlet nodes exactly 0.  Any other packet, one off odd
    by an ulp too, is evolved on the whole grid.

    The edge-mass monitor is checked at the ends of equal spans
    (_edge_spans); ReflectionError at the first span whose edge mass exceeds
    EDGE_THRESHOLD.  One expansion covers as many consecutive spans as keep
    its b tau within MAX_SPAN_PHASE and its table of check coefficients
    within _CHECK_TABLE entries and _TABLE_SHARE of its term samples.  The
    checks inside it are read from its own terms (_EdgeChecks), each as soon
    as the _terms of its own phase are in, so a failing run stops early;
    the one at its end is the state's edge_mass.  A run of one span
    is one expansion with an empty table.
    The work, the estimated terms of every expansion times the points, is
    checked against MAX_POINT_STEPS before any coefficient is computed.
    Where v is zero on every node the series sums to e^{-ik^2 t}, which
    free_evolve_series runs instead to each span end of _edge_spans(packet,
    t_target), with the same checks and work cap (spans times points).
    model.require_bounded refuses yukawa first.  A b that is not a positive
    finite float ((pi/dx)^2 + max v overflowing, or v far above (pi/dx)^2
    and nearly constant) is a NumericalError before any coefficient.
    """
    model.require_bounded("the Chebyshev evolution on the line")
    span = float(t_target - packet.t)
    if span == 0.0:
        return packet
    n, dx = len(packet.values), packet.dx
    v = model.radial_values(np.abs(packet.grid))
    if not np.any(v):
        n_spans = _edge_spans(packet, t_target)
        check_work(n_spans, n, "edge-check spans")
        times = np.linspace(packet.t, t_target, int(n_spans) + 1)[1:]
        for i, out in enumerate(free_evolve_series(packet, times), 1):
            check_edge(out.edge_mass(), i)
        return out
    lo, hi = float(np.min(v)), (np.pi / dx) ** 2 + float(np.max(v))
    a, b = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if not 0.0 < b < np.inf:
        raise NumericalError(
            f"spectral interval [{lo!r}, {hi!r}] has half-width {b!r}, not a "
            f"positive finite float, at (pi/dx)**2 = {(np.pi / dx) ** 2:.6g}")
    m = _edge_width(n)
    n_spans = _edge_spans(packet, t_target, MAX_SPAN_PHASE / b)
    tau = span / n_spans
    q = b * abs(tau)
    per = 1
    if n_spans > 1:
        # spans per expansion: the most that keep b tau within MAX_SPAN_PHASE
        # and the check table within its two caps
        top = max(1, int(min(n_spans, MAX_SPAN_PHASE // q)))
        per = bisect_right(range(1, top + 1), 1.0, key=lambda size: (
            (size - 1) * _table_points(size * q)
            / min(_CHECK_TABLE, _TABLE_SHARE * n * _terms(size * q))))
    whole, rest = divmod(n_spans, per)
    check_work(whole * _terms(per * q) + (_terms(rest * q) if rest else 0.0), n,
               f"Chebyshev terms (spectral interval [{lo:.6g}, {hi:.6g}])")
    n_spans = int(n_spans)
    # 2G = 2 (k^2 + v - a) / b; every term after the first needs 2G
    kin = dft_freqs(n, dx) ** 2 * (2.0 / b)
    pot = (v - a) * (2.0 / b)
    edge, weights = np.r_[:m, n - m:n], np.ones(2 * m)
    vals = packet.values
    odd = np.array_equal(vals, -vals[-np.arange(n)])
    if odd:
        # the l = 0 channel: the n/2 - 1 values at x = (j + 1) dx between the
        # Dirichlet nodes, the sine modes m = 1 .. n/2 - 1 of the same k, and
        # the right edge strip's m nodes, j = n/2 - m - 1 .. n/2 - 2, onto
        # which the left strip but its Dirichlet node mirrors: each read
        # once, with weight 2 where both strips hold it.  dst and the real
        # multipliers act on a complex vector's (real, imaginary) columns
        half = n // 2
        vals = vals[half + 1:]
        edge, weights = np.arange(half - m - 1, half - 1), np.r_[1.0, np.full(m - 1, 2.0)]
        kin, pot = (np.column_stack((f, f)) for f in (kin[1:half], pot[half + 1:]))

        def columns(z):
            return z.view(float).reshape(-1, 2)
    else:
        # held complex: numpy multiplies complex by complex several times
        # faster than by real
        kin, pot = kin.astype(complex), pot.astype(complex)

        def columns(z):
            return z
    forward = dst if odd else dft
    inverse = dst if odd else partial(dft, direction="inverse")
    # the kinetic step transforms into spectrum and back in place
    spectrum, work = np.empty(len(vals), dtype=complex), np.empty(len(vals), dtype=complex)
    spec, part = columns(spectrum), columns(work)

    def twice_g(phi):
        x = columns(phi)
        forward(x, out=spec)
        np.multiply(spec, kin, out=spec)
        inverse(spec, out=spec)
        np.multiply(pot, x, out=part)
        return np.add(spectrum, work)

    total = float(np.sum(np.abs(packet.values) ** 2))
    expansions = {}
    done = 0
    while done < n_spans:
        size = min(per, n_spans - done)
        if size not in expansions:
            expansions[size] = _expansion(a, b, tau, size)
        coef, table, counts = expansions[size]
        checks = _EdgeChecks(table, counts, edge, weights, total, done)
        # T_0 = 1, T_1 = G, T_{k+1} = 2G T_k - T_{k-1}
        prev, cur = vals, 0.5 * twice_g(vals)
        acc = coef[0] * prev + coef[1] * cur
        checks.add(prev)
        checks.add(cur)
        for c in coef[2:]:
            nxt = twice_g(cur)
            nxt -= prev
            np.multiply(nxt, c, out=work)
            acc += work
            prev, cur = cur, nxt
            checks.add(cur)
        vals = acc
        done += size
        out = replace(packet, values=np.r_[0.0, -vals[::-1], 0.0, vals] if odd else vals,
                      t=packet.t + done * tau)
        check_edge(out.edge_mass(), done)
    return replace(out, t=t_target)


# ---------------------------------------------------------------------------
# explicit large-time formulas
# ---------------------------------------------------------------------------

def free_asymptotics(fhat, t: float, n: int, dx: float) -> WavePacket:
    """Explicit free-evolution asymptote
    (e^{-itH0} f)(x) ~ e^{i|x|^2/4t} (2it)^{-1/2} fhat(x/2t) (d = 1)."""
    if t == 0:
        raise ParameterError("t must be nonzero")
    x = _grid(n, dx)
    amp = (2 * abs(t)) ** -0.5 * np.exp(-1j * np.sign(t) * np.pi / 4)
    vals = np.exp(1j * x * x / (4 * t)) * amp * np.asarray(fhat(x / (2 * t)),
                                                          dtype=complex)
    return WavePacket(values=vals, dx=dx, t=t)


def _xi_potential_term(model: PotentialModel, x: np.ndarray, t: float) -> np.ndarray:
    """t * int_0^1 v(s x) ds = t * (1/|x|) int_0^|x| v(r) dr (t * v(0) at x = 0),
    from potentials.line_integral, which refuses this line through yukawa's core."""
    model.require_decay(0.5, "the Xi term of the modified free dynamics")
    ax = np.abs(np.asarray(x, dtype=float))
    mean = line_integral(model, 0.0, 0.0, ax) / np.where(ax > 0, ax, 1.0)
    return t * np.where(ax > 0, mean, model.radial_values(0.0))


# ---------------------------------------------------------------------------
# Moller-limit probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyReport:
    """Increments ||g(T_{j+1}) - g(T_j)|| of a wave-operator probe."""

    times: np.ndarray
    increments: np.ndarray

    @property
    def decay_factor(self) -> float:
        return float(self.increments[0] / max(self.increments[-1], 1e-300))

    @property
    def verdict(self) -> str:
        """converging (first increment below 1e-12, or a decay factor of at
        least 10), plateau (decay factor below 2) or inconclusive."""
        if self.increments[0] < 1e-12 or self.decay_factor >= 10.0:
            return "converging"
        return "plateau" if self.decay_factor < 2.0 else "inconclusive"


def _probe(model: PotentialModel, times, packets) -> CauchyReport:
    """Cauchy increments from packets, which yields u(T_j) for each time.

    Since e^{iHT} is unitary, ||g(T') - g(T)|| for g(T) = e^{iHT} u(T)
    equals ||e^{iH(T'-T)} u(T') - u(T)||, so each increment only needs an
    interacting evolution over the gap T' - T applied to the packet u(T'),
    by chebyshev_evolve.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3 or np.any(np.diff(times) <= 0):
        raise ParameterError("need at least three increasing times")
    incs = []
    for u0, u1 in pairwise(packets):
        back = chebyshev_evolve(u1, model, u0.t)
        # back now holds e^{-iH (t0 - t1)} u(t1) = e^{iH (t1-t0)} u(t1)
        incs.append(replace(back, values=back.values - u0.values).norm())
    return CauchyReport(times=times, increments=np.asarray(incs))


def moller_probe(model: PotentialModel, f0: WavePacket, times) -> CauchyReport:
    """Cauchy increments of g(T) = e^{iHT} e^{-iH0 T} f0."""
    return _probe(model, times, free_evolve_series(f0, times))


def modified_moller_probe(model: PotentialModel, f0: WavePacket,
                          times) -> CauchyReport:
    """Cauchy increments of g(T) = e^{iHT} U0(T) f0 for Dollard's modified
    free dynamics U0(t) = exp(-i H0 t - i int_0^t v(2sP) ds) (rho > 1/2).

    U0 is diagonal in momentum: u(T) is f0's spectrum times
    e^{-i (p^2 T + X(T, p))}, X(T, p) = int_0^T v(2sp) ds, the Xi term at
    x = 2pT, and one forward transform of f0 serves every T.
    """
    p = dft_freqs(len(f0.values), f0.dx)
    spectrum = dft(f0.values)
    packets = (replace(f0, t=t, values=dft(spectrum * np.exp(
        -1j * (p * p * t + _xi_potential_term(model, 2 * p * t, t))), "inverse"))
        for t in np.asarray(times, dtype=float))
    return _probe(model, times, packets)


# ---------------------------------------------------------------------------
# time-domain S-matrix (l = 0 channel)
# ---------------------------------------------------------------------------

def scattering_phase_from_time_domain(model: PotentialModel, k: float) -> complex:
    """e^{2 i delta_0(k)} from an incoming l = 0 packet of width sigma = 20.

    The half-line r in (0, n dx], n = 2^9 and dx = 0.8, with Dirichlet nodes
    at both ends is the odd packet f(x) - f(-x) on the 2n-point grid.  An
    incoming packet reflects off the origin; after it has fully re-emerged,
    the sine-transform amplitude at momentum k relative to the same packet
    evolved freely is e^{2 i delta_0}.  The packet starts at r0 = 0.45 n dx.
    Its relative bandwidth 1 / (2 sigma k) passes 20% below k = 0.125,
    which is refused.
    """
    n, dx, sigma = 2**9, 0.8, 20.0
    if not 0.0 < k < np.inf:
        raise ParameterError(f"momentum must be positive and finite, got k={k}")
    if 1.0 / (2 * sigma * k) > 0.20:
        raise ParameterError(
            f"packet band too wide at k={k:g} (relative bandwidth > 20%, k < 0.125)")
    r0 = n * dx * 0.45
    pk = gaussian_packet(2 * n, dx, center=r0, k0=-k, sigma=sigma)
    pk = replace(pk, values=pk.values - pk.values[-np.arange(2 * n)])
    t_out = r0 / k  # round trip at group velocity 2k
    u_0 = free_evolve(pk, t_out)
    u_v = chebyshev_evolve(pk, model, t_out)
    # sine-transform coefficients over r = x > 0 pick out the outgoing
    # e^{ikr} component
    sin_k = np.sin(k * pk.grid[n + 1:])
    a_v = np.sum(sin_k * u_v.values[n + 1:]) * dx
    a_0 = np.sum(sin_k * u_0.values[n + 1:]) * dx
    if abs(a_0) < 1e-8:
        raise ParameterError("free reference amplitude vanishes at this k")
    return complex(a_v / a_0)
