import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dtbtrs

from scatterlab import born, cli, numerics, partialwave
from scatterlab.numerics import DomainError, NumericalError, ParameterError
from scatterlab.partialwave import _CHUNK
from scatterlab.potentials import PotentialModel

GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)


def square_well_delta0(v0: float, R: float, k: float) -> float:
    """Closed s-wave matching formula for the spherical step potential."""
    k1sq = k * k - v0
    if abs(k1sq) < 1e-12:
        slope = k * R
    elif k1sq > 0:
        k1 = np.sqrt(k1sq)
        slope = (k / k1) * np.tan(k1 * R)
    else:
        kap = np.sqrt(-k1sq)
        slope = (k / kap) * np.tanh(kap * R)
    delta = np.arctan(slope) - k * R
    return (delta + np.pi / 2) % np.pi - np.pi / 2


def numerov_step_loop(model, ls, k, r_max, dr, dtype=np.float64):
    """The renormalized Numerov recursion w[i+1] = d[i] w[i] - w[i-1] in
    w = f u, with a = (dr^2/12)(l(l+1)/r^2 + v - k^2), f = 1 - a and
    d = 2 + 12 a / f, one step at a time: the reference for the banded
    sweep, with the same grid, seeds and square-well edge averaging, u = w/f
    past the two seed rows and a 1e-250 rescale of any channel whose w
    passes 1e250.  a, f, d, w and u are formed in dtype from the same double
    grid, potential values and seeds."""
    n = int(np.ceil(r_max / dr))
    r = dr * np.arange(1, n + 1)
    v = model.radial_values(r)
    if model.kind == "square_well":
        # average the jump when the edge lands on a node; keeps the scheme
        # second order instead of first
        on_edge = np.abs(r - model.width) < 0.5 * dr
        v = np.where(on_edge, 0.5 * model.v0, v)
    ll = (ls * (ls + 1.0)).astype(dtype)
    rr = r.astype(dtype) ** 2
    vk = v.astype(dtype) - dtype(k) ** 2
    # a[i, j] = (dr^2/12)(l_j(l_j+1)/r_i^2 + v(r_i) - k^2)
    a = dtype(dr) ** 2 / 12 * (ll[None, :] / rr[:, None] + vk[:, None])
    f = 1 - a
    # d on row 0 is never used, and f may be 0 there
    d = 2 + 12 * a[1:] / f[1:]
    u = np.empty((n, len(ls)), dtype)
    # series seed u = r^(l+1) (1 + (v(0)-k^2) r^2/(4l+6)); underflowed
    # channels start from a tiny representable value instead
    v0 = float(model.radial_values(0.0)) if model.kind != "yukawa" else float(
        model.radial_values(dr))
    corr0 = 1.0 + (v0 - k * k) * r[0] ** 2 / (4.0 * ls + 6.0)
    corr1 = 1.0 + (v0 - k * k) * r[1] ** 2 / (4.0 * ls + 6.0)
    with np.errstate(under="ignore"):
        u[0] = np.where(ls * np.log(r[0]) > -250, r[0] ** (ls + 1.0) * corr0, 1e-250)
        u[1] = np.where(ls * np.log(r[1]) > -250, r[1] ** (ls + 1.0) * corr1, 2e-250)
    w = np.empty_like(u)
    w[:2] = f[:2] * u[:2]
    for i in range(1, n - 1):
        w[i + 1] = d[i - 1] * w[i] - w[i - 1]
        big = np.abs(w[i + 1]) > 1e250
        if np.any(big):
            w[: i + 2, big] *= 1e-250
            u[:2, big] *= 1e-250
    u[2:] = w[2:] / f[2:]
    return r, u


def every_row(model, ls, k, r_max, dr=1e-3):
    """(r, u) of partialwave._numerov_channels on every row of its grid."""
    rows = np.arange(int(np.ceil(r_max / dr)))
    return partialwave._numerov_channels(model, ls, k, r_max, dr, rows)


def match_phase(u, r, ls, k):
    """The package's match on a solution given on every row of the grid r:
    _match_at on the rows of _match_rows."""
    rows = partialwave._match_rows(len(r), r[1] - r[0], k)
    return partialwave._match_at(u[rows], r[rows], ls, k)


class TestPhaseShift:
    @pytest.mark.parametrize("v0,k", [(1.0, 1.0), (-1.0, 1.0), (0.5, 2.0),
                                      (-2.0, 0.7), (4.0, 1.5)])
    def test_square_well_oracle(self, v0, k):
        model = PotentialModel(kind="square_well", v0=v0, width=1.0)
        delta = partialwave.radial_phase_shift(model, 0, k)
        assert delta == pytest.approx(square_well_delta0(v0, 1.0, k),
                                      abs=1e-6)

    def test_zero_potential_zero_shift(self):
        model = PotentialModel(kind="zero")
        table = partialwave.phase_shift_table(model, 1.3, 8)
        assert np.all(table.delta == 0.0)

    @pytest.mark.parametrize("kind", ["gaussian_well", "yukawa", "square_well",
                                      "power_tail", "compact_bump", "zero"])
    def test_zero_strength_is_zero(self, monkeypatch, kind):
        # every kind is v0 times a profile: at v0 = 0 no sweep runs (the
        # sweep read delta_0 = -2.5e-11 on the Gaussian), as for the Born
        # routines
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept a zero potential")

        monkeypatch.setattr(partialwave, "_numerov_channels", no_sweep)
        # v0 = 0 is every kind's default strength, and zero's only one
        table = partialwave.phase_shift_table(PotentialModel(kind=kind), 1.0, 3)
        assert np.all(table.delta == 0.0)
        assert partialwave.amplitude(table, 0.7) == 0.0

    def test_weak_coupling_matches_born(self):
        model = PotentialModel(kind="gaussian_well", v0=-0.01, width=1.0)
        for l in (0, 1, 2):
            exact = partialwave.radial_phase_shift(model, l, 1.5)
            first = born.born_first_phase_shift(model, 1.5, l)
            assert exact == pytest.approx(first, rel=2e-2, abs=1e-8)

    def test_range_convention(self):
        delta = partialwave.radial_phase_shift(GAUSS, 0, 0.8)
        assert -np.pi / 2 < delta <= np.pi / 2

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            partialwave.radial_phase_shift(GAUSS, 0, -1.0)
        with pytest.raises(ParameterError):
            partialwave.radial_phase_shift(GAUSS, -1, 1.0)

    @pytest.mark.parametrize("k,l_max", [(np.nan, 3), (np.inf, 3), (1.0, -1)])
    def test_non_finite_momentum_or_no_channel_refused(self, monkeypatch, k, l_max):
        # k = nan ended in a bare ValueError from int(), k = inf in a
        # NumericalError after a sweep, and l_max = -1 in an empty table
        def no_grid(*args, **kwargs):
            raise AssertionError("sized a grid for refused input")

        monkeypatch.setattr(partialwave, "_default_r_max", no_grid)
        monkeypatch.setattr(partialwave, "_numerov_channels", no_grid)
        with pytest.raises(ParameterError, match="positive and finite|at least one channel"):
            partialwave.phase_shift_table(GAUSS, k, l_max)
        if l_max >= 0:
            with pytest.raises(ParameterError, match="positive and finite"):
                partialwave.radial_phase_shift(GAUSS, l_max, k)

    @given(st.floats(0.5, 3.0), st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_shift_in_principal_branch(self, k, l):
        delta = partialwave.radial_phase_shift(GAUSS, l, k)
        assert -np.pi / 2 < delta <= np.pi / 2

    @pytest.mark.parametrize("kind,rho", [("power_tail", 1.0),
                                          ("power_tail", 0.9)])
    def test_long_range_tail_rejected(self, kind, rho):
        tail = PotentialModel(kind=kind, v0=1.0, rho=rho)
        with pytest.raises(DomainError):
            partialwave.radial_phase_shift(tail, 0, 1.0)
        with pytest.raises(DomainError):
            partialwave.phase_shift_table(tail, 1.0, 4)

    def test_sweep_footprint_capped(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("Numerov grid built over the cap")

        monkeypatch.setattr(partialwave, "_numerov_channels", no_grid)
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=1.5)
        with pytest.raises(ParameterError, match="1000000000 rows x 1 channels"):
            partialwave.radial_phase_shift(tail, 0, 1.0)
        # the fewest channels that take a 6000-row grid past the cap
        rows = int(np.ceil(6.0 / 1e-3))
        channels = partialwave.MAX_SWEEP_FLOATS // rows - 8 + 1
        assert rows * (channels + 7) <= partialwave.MAX_SWEEP_FLOATS
        with pytest.raises(ParameterError, match=f"{rows} rows x {channels} channels"):
            partialwave._phase_shifts(GAUSS, range(channels), 2.0, r_max=6.0)


class TestNumerovSweep:
    @pytest.mark.parametrize("model,k,l_max", [
        (GAUSS, 2.0, 25),
        # the edge r = 1 lies on a node of the 1e-3 grid
        (PotentialModel(kind="square_well", v0=1.0, width=1.0), 1.0, 6),
        (PotentialModel(kind="yukawa", v0=0.1, width=1.0), 2.0, 10),
        # the step loop's 1e250 rescale fires on channels l = 162..200
        (GAUSS, 2.0, 200),
    ])
    def test_matches_step_loop(self, model, k, l_max):
        ls = np.arange(l_max + 1)
        r, u = numerov_step_loop(model, ls, k,
                                 partialwave._default_r_max(model, k), 1e-3)
        expected = match_phase(u, r, ls, k)
        table = partialwave.phase_shift_table(model, k, l_max)
        assert np.max(np.abs(table.delta - expected)) < 1e-10

    def test_chunk_length_does_not_change_u(self, monkeypatch):
        # l = 250 outgrows 2**830 and is scaled down, which takes its first
        # rows to subnormal numbers or zero; l = 0, 3 and 60 keep u ~ r^(l+1)
        ls = np.array([0, 3, 60, 250])
        runs = []
        for chunk in (3, 64, 1000, _CHUNK):
            monkeypatch.setattr(partialwave, "_CHUNK", chunk)
            runs.append(every_row(GAUSS, ls, 2.0, 8.0)[1])
        assert 2.0 ** 829 <= np.max(np.abs(runs[0][:, 3])) < 2.0 ** 830
        for u in runs[1:]:
            assert np.array_equal(u, runs[0])

    def test_large_l_splits_chunk(self, monkeypatch):
        finite = []
        solve = partialwave.dtbtrs

        def spy(*args, **kwargs):
            x, info = solve(*args, **kwargs)
            finite.append(bool(np.all(np.isfinite(x))))
            return x, info

        monkeypatch.setattr(partialwave, "dtbtrs", spy)
        # u ~ r^1201 grows by 2^1201 over the first 2-row chunk
        [delta] = partialwave._phase_shifts(GAUSS, range(1200, 1201), 60.0, r_max=30.0)
        assert not all(finite)
        assert np.isfinite(delta)
        assert abs(np.exp(2j * delta)) == pytest.approx(1.0, abs=1e-15)
        ls = np.array([1200])
        r, u = numerov_step_loop(GAUSS, ls, 60.0, 30.0, 1e-3)
        assert delta == pytest.approx(
            match_phase(u, r, ls, 60.0)[0], abs=1e-10)


    def test_seed_row_with_zero_f(self):
        # a = (dr^2/12)(12/r^2 + v - k^2) rounds to exactly 1 on row 0 at
        # l = 3 where v = k^2: f[0] = 0, whose d is never used, and u[0]
        # stays the seed r^4
        model = PotentialModel(kind="square_well", v0=1.0, width=1.0)
        dr = 1e-3
        c = dr * dr / 12.0
        assert 12.0 * (c / (dr * dr)) + c * (model.v0 - 1.0) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, u = every_row(model, np.arange(7), 1.0,
                             partialwave._default_r_max(model, 1.0), dr)
        assert np.all(np.isfinite(u))
        assert u[0, 3] == r[0] ** 4.0

    def test_zero_f_past_the_seeds_raises(self):
        # (2l+1)^2 - 48 m^2 = 1 gives l(l+1)/12 = m^2, so where v = k^2,
        # a = (dr^2/12) l(l+1)/r^2 is 1 on row m - 1; at l = 48, m = 14 and
        # dr = 2^-10 it rounds to exactly 1, inside the well
        model = PotentialModel(kind="square_well", v0=1.0, width=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="is 0 on row 13"):
                partialwave._phase_shifts(model, range(48, 49), 1.0, dr=2.0 ** -10)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float64")
    @pytest.mark.parametrize("model,k", [
        (PotentialModel(kind="square_well", v0=1.0, width=1.0), 1.0),
        (GAUSS, 1.0),
        (PotentialModel(kind="yukawa", v0=0.1, width=1.0), 2.0),
    ], ids=["square-well", "gaussian", "yukawa"])
    def test_rounding_matches_long_double(self, model, k):
        # the same scheme in long double arithmetic; forming d as 12 - 10 f
        # put delta_l about 5e-9 from it
        ls = np.arange(3)
        r, u = numerov_step_loop(model, ls, k, partialwave._default_r_max(model, k),
                                 1e-3, np.longdouble)
        expected = match_phase(u.astype(float), r, ls, k)
        table = partialwave.phase_shift_table(model, k, 2)
        assert np.max(np.abs(table.delta - expected)) < 1e-9


def ramp_sweep(a, f, band, w, seeds, rows, u) -> None:
    """partialwave._sweep as it was before chunks started at the cap, kept
    as the reference for the chunk schedule: every sweep ramps up from a
    2-row chunk, solves each chunk of the monic band on a fresh right-hand
    side, and maps the rows back to their chunks' scales afterwards."""
    np.divide(a[1:], f[1:], out=a[1:])
    np.multiply(a[1:], -12.0, out=a[1:])
    np.subtract(a[1:], 2.0, out=band[1:, 1])
    w[:2] = seeds * f[:2]
    n = len(w)
    starts, scales = [], []
    scale = 0
    peak = math.frexp(max(abs(w[0]), abs(w[1])))[1]
    s, m = 2, 2
    while s < n:
        top = math.frexp(max(abs(w[s - 2]), abs(w[s - 1])))[1]
        w[s - 2:s] = np.ldexp(w[s - 2:s], -top)
        scale += top
        starts.append(s - 2)
        scales.append(scale)
        band[s - 2, 1] = 0.0
        while True:
            e = min(n, s + m)
            b = np.zeros(e - s + 2)
            b[:2] = w[s - 2:s]
            y, _ = dtbtrs(band[s - 2:e].T, b, uplo="L", diag="U", overwrite_b=1)
            size = float(np.max(np.abs(y)))
            if math.isfinite(size):
                break
            if m == 1:
                raise NumericalError(f"recurrence overflows or is not finite at row {s}")
            m //= 2
        w[s:e] = y[2:]
        peak = max(peak, scale + math.frexp(size)[1])
        s, m = e, min(2 * m, _CHUNK)
    w[:2] = np.ldexp(seeds, -scales[0]) if scales else seeds
    f[:2] = 1.0
    exps = np.array([0, *scales])[np.searchsorted(starts, rows, side="right")]
    np.ldexp(w[rows] / f[rows], exps - max(0, peak - partialwave._MAX_EXP), out=u)


# the grids of born.exact_kernel behind the highenergy CLI defaults:
# gaussian_well at lambda = 25, 50, 100, 200, channels up to k R_eff + 12
HIGHENERGY_GRIDS = [
    (np.arange(int(np.ceil(np.sqrt(lam) * GAUSS.effective_range)) + 13), np.sqrt(lam))
    for lam in (25.0, 50.0, 100.0, 200.0)]


class TestChunkSchedule:
    """Chunks that start at the cap and are solved in place give the same
    rescaled Numerov solutions, bit for bit, as the 2-row ramp on a fresh
    right-hand side."""

    @pytest.mark.parametrize("model,ls,k,r_max", [
        *[(GAUSS, ls, k, None) for ls, k in HIGHENERGY_GRIDS],
        # l = 250 is scaled down into subnormal rows
        (GAUSS, np.array([0, 3, 60, 250]), 2.0, None),
        # the first chunk overflows and is halved
        (GAUSS, np.array([1200]), 60.0, 30.0),
        (PotentialModel(kind="yukawa", v0=0.1, width=1.0), np.arange(11), 2.0, None),
        (PotentialModel(kind="square_well", v0=1.0, width=1.0), np.arange(7), 1.0, None),
    ], ids=["he25", "he50", "he100", "he200", "gauss-k2", "l1200", "yukawa",
            "square-well"])
    def test_numerov_matches_ramp(self, monkeypatch, model, ls, k, r_max):
        r_max = partialwave._default_r_max(model, k) if r_max is None else r_max
        new = every_row(model, ls, k, r_max)[1]
        monkeypatch.setattr(partialwave, "_sweep", ramp_sweep)
        old = every_row(model, ls, k, r_max)[1]
        assert np.array_equal(new, old)

    def test_highenergy_solve_count(self, monkeypatch):
        finite = []
        solve = partialwave.dtbtrs

        def spy(*args, **kwargs):
            x, info = solve(*args, **kwargs)
            finite.append(bool(np.all(np.isfinite(x))))
            return x, info

        monkeypatch.setattr(partialwave, "dtbtrs", spy)
        bound = 0
        for ls, k in HIGHENERGY_GRIDS:
            n = int(np.ceil(partialwave._default_r_max(GAUSS, k) / 1e-3))
            bound += len(ls) * -(-(n - 2) // _CHUNK)
            born.exact_kernel(GAUSS, k * k, np.pi / 2)
        assert all(finite)
        assert len(finite) <= bound == 270


def long_r_max(model, k):
    """The grid end before the sweeps stopped where v has died out; it
    still caps _default_r_max, and power tails keep it."""
    return max(model.tail_radius(1e-10), 30.0 / k + model.effective_range)


def dop853_delta0(model, k, r_end):
    """delta_0 from a direct DOP853 solve of u'' = (v - k^2) u from u(0) = 0,
    u'(0) = 1, matched to sin(k r + delta_0) at r_end, where v has died
    out; reduced to [-pi/2, pi/2)."""
    sol = solve_ivp(
        lambda r, y: [y[1], (float(model.radial_values(r)) - k * k) * y[0]],
        (0.0, r_end), [0.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-15)
    u, du = sol.y[:, -1]
    delta = np.arctan2(k * u, du) - k * r_end
    return (delta + np.pi / 2) % np.pi - np.pi / 2


GRID_END_MODELS = {
    "gaussian": GAUSS,
    "yukawa": PotentialModel(kind="yukawa", v0=-1.0, width=1.0),
    "square-well": PotentialModel(kind="square_well", v0=1.0, width=1.0),
    "compact-bump": PotentialModel(kind="compact_bump", v0=2.0, width=1.5),
}
GRID_END_KS = [0.5, 1.0, 2.0, 5.0, 14.14]
TAIL3 = PotentialModel(kind="power_tail", v0=1.0, rho=3.0)


class TestGridEnd:
    """_default_r_max ends half a wavelength past where |v| < 1e-17, never
    past the long rule."""

    @pytest.mark.parametrize("k", GRID_END_KS)
    @pytest.mark.parametrize("model", [*GRID_END_MODELS.values(), TAIL3],
                             ids=[*GRID_END_MODELS, "power-tail"])
    def test_never_past_the_long_rule(self, model, k):
        assert partialwave._default_r_max(model, k) <= long_r_max(model, k)

    @pytest.mark.parametrize("k", GRID_END_KS)
    @pytest.mark.parametrize("name", GRID_END_MODELS)
    def test_match_rows_where_v_has_died_out(self, name, k):
        model, dr = GRID_END_MODELS[name], 1e-3
        n = int(np.ceil(partialwave._default_r_max(model, k) / dr))
        rows = partialwave._match_rows(n, dr, k)
        assert np.all(np.abs(model.radial_values(dr * (rows + 1.0))) < 1e-17)

    @pytest.mark.parametrize("k", GRID_END_KS)
    def test_power_tail_keeps_the_long_rule(self, k):
        assert partialwave._default_r_max(TAIL3, k) == long_r_max(TAIL3, k)

    def test_power_tail_phaseshift_runs(self, tmp_path):
        # its grid ends at tail_radius(1e-10) = 265: 2.6e5 rows
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "experiment": "phaseshift",
            "potential": {"kind": "power_tail", "v0": 1e-3, "rho": 3.0},
            "params": {"k_values": [1.0], "l_max": 2}}))
        assert cli.run(str(path), out_dir=str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("k", [10.0, 14.142135623730951])
    def test_no_farther_from_dop853(self, k):
        # the dr^4 error of the default dr is 1.9e-9 at k = 10 and 9.6e-9
        # at k = 14.14 on the long grid; the shorter one adds no error
        oracle = dop853_delta0(GAUSS, k, 8.0)
        short = partialwave.radial_phase_shift(GAUSS, 0, k)
        [long] = partialwave._phase_shifts(GAUSS, range(1), k, long_r_max(GAUSS, k))
        assert abs(short - oracle) <= abs(long - oracle) < 1e-8

    def test_square_well_within_closed_form(self):
        # criterion 1's setting; its bound is 1e-6
        model = PotentialModel(kind="square_well", v0=1.0, width=1.0)
        oracle = square_well_delta0(1.0, 1.0, 1.0)
        short = partialwave.radial_phase_shift(model, 0, 1.0)
        [long] = partialwave._phase_shifts(model, range(1), 1.0, long_r_max(model, 1.0))
        assert abs(short - oracle) <= abs(long - oracle) < 1e-6

    def test_high_l_rounding_floor(self):
        # criterion 2's setting: |S_l - 1| of l >= 16 is below 1e-12, which
        # the rounding of the long grid's sweep passed (up to 1.9e-11)
        table = partialwave.phase_shift_table(GAUSS, 2.0, 25)
        eigs = partialwave.smatrix_eigenvalues(table)
        assert np.max(np.abs(eigs[16:] - 1.0)) < 1e-12


class TestRequestedRows:
    """u formed on the requested rows only is the all-rows u there, and the
    phase shifts read from the match rows alone are those of the all-rows
    solution, bit for bit."""

    CASES = [
        *[(GAUSS, ls, k, None) for ls, k in HIGHENERGY_GRIDS],
        # the first chunk overflows and is halved
        (GAUSS, np.array([1200]), 60.0, 30.0),
        # f = 0 on seed row 0 at l = 3
        (PotentialModel(kind="square_well", v0=1.0, width=1.0), np.arange(7), 1.0, None),
    ]
    IDS = ["he25", "he50", "he100", "he200", "l1200", "seed-row-f0"]

    @pytest.mark.parametrize("model,ls,k,r_max", CASES, ids=IDS)
    def test_rows_match_all_rows(self, model, ls, k, r_max):
        dr = 1e-3
        r_max = partialwave._default_r_max(model, k) if r_max is None else r_max
        r, u = every_row(model, ls, k, r_max, dr)
        rows = np.concatenate([[0, 1, 2, len(r) // 2],
                               partialwave._match_rows(len(r), dr, k)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_rows, u_rows = partialwave._numerov_channels(model, ls, k, r_max, dr, rows)
        assert np.array_equal(r_rows, r[rows])
        assert np.array_equal(u_rows, u[rows])

    @pytest.mark.parametrize("model,ls,k,r_max", CASES, ids=IDS)
    def test_phase_shifts_match_all_rows(self, model, ls, k, r_max):
        dr = 1e-3
        r_max = partialwave._default_r_max(model, k) if r_max is None else r_max
        r, u = every_row(model, ls, k, r_max, dr)
        delta = partialwave._phase_shifts(model, range(ls[0], ls[-1] + 1), k, r_max, dr)
        assert np.array_equal(delta, match_phase(u, r, ls, k))


class TestSMatrix:
    def test_unitarity(self):
        table = partialwave.phase_shift_table(GAUSS, 2.0, 20)
        eigs = partialwave.smatrix_eigenvalues(table)
        assert eigs.shape == (21,)
        assert np.allclose(np.abs(eigs), 1.0, atol=1e-14)

    def test_table_matches_single_channel(self):
        table = partialwave.phase_shift_table(GAUSS, 2.0, 25)
        for l in range(26):
            assert table.delta[l] == pytest.approx(
                partialwave.radial_phase_shift(GAUSS, l, 2.0), abs=1e-14)

    def test_accumulation_at_one(self):
        table = partialwave.phase_shift_table(GAUSS, 2.0, 25)
        eigs = partialwave.smatrix_eigenvalues(table)
        assert np.max(np.abs(eigs[20:] - 1.0)) < 1e-3

    def test_in_out_ratio_is_smatrix_eigenvalue(self):
        # outside v the Numerov solution is a s(kr) + b c(kr) with the free
        # Riccati waves s = x j_l -> sin(x - l pi/2), c = -x y_l -> cos(..),
        # so b_- e^{-i(..)} + b_+ e^{+i(..)} with b_+ / b_- = (a + ib) / (a - ib)
        k, l = 1.3, 1
        delta = partialwave.radial_phase_shift(GAUSS, l, k)
        r, u = every_row(GAUSS, np.array([l]), k, 13.0)
        r_samples = np.linspace(9.0, 12.0, 24)
        x = k * r_samples
        j, y = numerics.spherical_bessel(l, x)
        (a, b), *_ = np.linalg.lstsq(np.column_stack([x * j, -x * y]),
                                     np.interp(r_samples, r, u[:, 0]), rcond=None)
        ratio = (a + 1j * b) / (a - 1j * b)
        assert ratio == pytest.approx(np.exp(2j * delta), abs=1e-5)


def trace_sum(v0, k, dr):
    """sum_l (2l + 1) delta_l(k) on the width-1 Gaussian v0 exp(-r^2), over
    l <= 7k + 40, on a Numerov grid of step dr."""
    model = PotentialModel(kind="gaussian_well", v0=v0, width=1.0)
    delta = partialwave._phase_shifts(model, range(int(7 * k + 40) + 1), k, dr=dr)
    return float(np.sum((2 * np.arange(len(delta)) + 1) * delta))


def trace_asymptote(v0, k):
    """The sum's high-energy expansion through k^-3 (the trace formula's
    heat invariants): -(k / 4 pi) int v + int v^2 / (16 pi k)
    - a_3 / (16 pi k^3), a_3 = -int v^3 / 6 - int |grad v|^2 / 12, with the
    Gaussian's integrals in closed form; the rest is O(k^-5)."""
    int_v = v0 * np.pi ** 1.5
    int_v2 = v0**2 * (np.pi / 2) ** 1.5
    int_v3 = v0**3 * (np.pi / 3) ** 1.5
    int_grad2 = 3 * v0**2 * (np.pi / 2) ** 1.5
    a3 = -int_v3 / 6 - int_grad2 / 12
    return (-k / (4 * np.pi) * int_v + int_v2 / (16 * np.pi * k)
            - a3 / (16 * np.pi * k**3))


class TestTraceSumRule:
    """Sum_l (2l + 1) delta_l(k) against its high-energy expansion: an
    oracle for the Numerov reference over all channels at once."""

    @pytest.mark.parametrize("v0", [-1.0, 0.5])
    def test_gap_is_the_k5_remainder(self, v0):
        # measured at dr = 2.5e-4: 9.45e-7 and 3.63e-8 at k = 5 and 10 for
        # v0 = -1, 8.66e-7 and 3.26e-8 for v0 = 0.5.  A gap falling more
        # than 16-fold as k doubles is past the k^-3 term, which would fall
        # 8-fold, so each term of the expansion is in
        gaps = [abs(trace_sum(v0, k, 2.5e-4) - trace_asymptote(v0, k))
                for k in (5.0, 10.0)]
        assert gaps[0] <= 2e-6 and gaps[1] <= 1e-7
        assert gaps[0] / gaps[1] > 16.0

    def test_gap_falls_at_fourth_order_in_dr(self):
        # at k = 40 the k^-5 remainder is below 1e-9, so the gap is the
        # Numerov grid's own error: 9.908e-3 at dr = 1e-3, 6.193e-4 at 5e-4
        exact = trace_asymptote(-1.0, 40.0)
        gaps = [abs(trace_sum(-1.0, 40.0, dr) - exact) for dr in (1e-3, 5e-4)]
        assert gaps[0] / gaps[1] == pytest.approx(16.0, abs=2.0)


class TestAmplitude:
    def test_optical_theorem(self):
        # Im a(0) = (k / 4 pi) sigma_tot for a unitary truncated sum
        k = 1.5
        table = partialwave.phase_shift_table(GAUSS, k, 25)
        a0 = partialwave.amplitude(table, 0.0)
        sigma = (4 * np.pi / k**2) * np.sum(
            (2 * np.arange(26) + 1) * np.sin(table.delta) ** 2)
        assert a0.imag == pytest.approx(k * sigma / (4 * np.pi), rel=1e-10)

    def test_kernel_matches_pointwise(self):
        table = partialwave.phase_shift_table(GAUSS, 1.0, 15)
        thetas = np.linspace(0.2, np.pi, 7)
        values = partialwave.amplitude(table, thetas)
        for th, val in zip(thetas, values):
            assert val == pytest.approx(partialwave.amplitude(table, float(th)),
                                        rel=1e-12)

    def test_scalar_and_array_agree_exactly(self):
        table = partialwave.phase_shift_table(GAUSS, 1.3, 20)
        thetas = np.concatenate([[0.0], np.linspace(0.05, np.pi, 40)])
        values = partialwave.amplitude(table, thetas)
        assert values.shape == thetas.shape
        scalar = [partialwave.amplitude(table, float(th)) for th in thetas]
        assert all(type(a) is complex for a in scalar)
        assert np.array_equal(values, np.array(scalar))

    @pytest.mark.parametrize("thetas", [[0.5, 4.0], [-0.1], [1.0, np.nan]])
    def test_kernel_rejects_angle_outside_range(self, thetas):
        table = partialwave.phase_shift_table(GAUSS, 1.0, 10)
        with pytest.raises(ParameterError):
            partialwave.amplitude(table, thetas)

    def test_kernel_rejects_empty_table(self):
        table = partialwave.PhaseShiftTable(k=1.0, l_max=-1, delta=np.zeros(0))
        with pytest.raises(ParameterError):
            partialwave.amplitude(table, [1.0])
