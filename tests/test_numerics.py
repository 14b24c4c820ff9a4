import math
import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from scatterlab import numerics, partialwave
from scatterlab.numerics import (
    DomainError,
    NumericalError,
    ParameterError,
    composite_gauss,
    dft,
    dft_freqs,
    dst,
    gauss_panels,
    legendre_p_all,
    spherical_bessel,
)


class TestQuadrature:
    def test_gauss_legendre_polynomial_exact(self):
        x, w = composite_gauss(8, [0.0, 2.0])
        # degree <= 15 is exact for 8 nodes
        assert np.dot(w, x**15) == pytest.approx(2.0**16 / 16, rel=1e-13)

    def test_composite_gauss_smooth(self):
        x, w = composite_gauss(8, np.linspace(0.0, np.pi, 9))
        assert np.dot(w, np.sin(x)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 12, 16])
    def test_composite_gauss_is_panel_rules(self, n):
        rng = np.random.default_rng(n)
        for n_panels in (1, 2, 7, 40):
            edges = np.cumsum(rng.uniform(0.01, 3.0, n_panels + 1)) - 5.0
            nodes, weights = composite_gauss(n, edges)
            panels = [gauss_panels(n, a, b) for a, b in zip(edges[:-1], edges[1:])]
            assert np.array_equal(nodes, np.concatenate([x for x, _ in panels]))
            assert np.array_equal(weights, np.concatenate([w for _, w in panels]))

    def test_composite_gauss_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            composite_gauss(0, [0.0, 1.0])
        with pytest.raises(ParameterError):
            composite_gauss(4, [0.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            composite_gauss(4, [0.0])

    def test_rule_built_once_per_n(self, monkeypatch):
        # leggauss runs once per n over repeated calls; the panels are the
        # uncached rule mapped onto them, bit for bit, and the shared rule
        # cannot be written through
        leggauss = np.polynomial.legendre.leggauss
        calls = []

        def spy(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
        numerics._legendre_rule.cache_clear()
        for n in (3, 16, 8, 3, 16, 8):
            x, w = leggauss(n)
            nodes, weights = gauss_panels(n, [0.0, -2.0], [1.0, 5.0])
            assert np.array_equal(nodes, np.array([0.5 + 0.5 * x, 1.5 + 3.5 * x]))
            assert np.array_equal(weights, np.array([0.5 * w, 3.5 * w]))
            nodes, weights = composite_gauss(n, [-2.0, 5.0])
            assert np.array_equal(nodes, 1.5 + 3.5 * x)
            assert np.array_equal(weights, 3.5 * w)
        assert sorted(calls) == [3, 8, 16]
        x, w = numerics._legendre_rule(16)
        assert not (x.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0

    def test_weights_positive(self):
        _, w = composite_gauss(12, [-1.0, 1.0])
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


class TestSphericalBessel:
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.3, 40.0])
    def test_l0_closed_form(self, x):
        j, y = spherical_bessel(0, x)
        assert j == pytest.approx(np.sin(x) / x, rel=1e-12)
        assert y == pytest.approx(-np.cos(x) / x, rel=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 25])
    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 12.0, 60.0])
    def test_against_scipy(self, l, x):
        j, y = spherical_bessel(l, x)
        assert j == pytest.approx(spherical_jn(l, x), rel=1e-10, abs=1e-280)
        assert y == pytest.approx(spherical_yn(l, x), rel=1e-10)

    @pytest.mark.parametrize("l", [0, 1, 3, 8])
    def test_wronskian(self, l):
        # j_l(x) y_l'(x) - j_l'(x) y_l(x) = 1/x^2
        x, h = 2.7, 1e-6
        jp = (spherical_bessel(l, x + h)[0] - spherical_bessel(l, x - h)[0]) / (2 * h)
        yp = (spherical_bessel(l, x + h)[1] - spherical_bessel(l, x - h)[1]) / (2 * h)
        j, y = spherical_bessel(l, x)
        assert j * yp - jp * y == pytest.approx(1.0 / x**2, rel=1e-8)

    def test_small_x_series(self):
        # j_l(x) ~ x^l / (2l+1)!! for x -> 0
        l, x = 6, 1e-3
        dfact = np.prod(np.arange(1, 2 * l + 2, 2, dtype=float))
        assert spherical_bessel(l, x)[0] == pytest.approx(x**l / dfact, rel=1e-5)


class TestLegendre:
    @pytest.mark.parametrize("l", [0, 1, 2, 7, 20])
    @pytest.mark.parametrize("t", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_against_scipy(self, l, t):
        assert legendre_p_all(l, t)[l] == pytest.approx(eval_legendre(l, t),
                                                        rel=1e-12, abs=1e-14)

    def test_all_consistent(self):
        t = np.array([-1.0, -0.6, 0.37, 1.0])
        vals = legendre_p_all(10, t)
        assert vals.shape == (4, 11)
        for l in range(11):
            assert vals[:, l] == pytest.approx(eval_legendre(l, t), rel=1e-13)

    def test_orthogonality(self):
        x, w = composite_gauss(64, [-1.0, 1.0])
        p = legendre_p_all(9, x)
        for m, n in [(0, 1), (2, 5), (3, 3), (7, 9)]:
            val = float(np.dot(w, p[:, m] * p[:, n]))
            expect = 2.0 / (2 * n + 1) if m == n else 0.0
            assert val == pytest.approx(expect, abs=1e-13)

    @given(st.integers(0, 40), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_on_interval(self, l, t):
        assert np.all(np.abs(legendre_p_all(l, t)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("t", [1.0 + 1e-9, -1.5, [0.0, 2.0]])
    def test_outside_interval_rejected(self, t):
        with pytest.raises(DomainError):
            legendre_p_all(3, t)


class TestDst:
    @pytest.mark.parametrize("n", [1, 3, 7, 511])
    def test_matches_the_sine_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        j = np.arange(1, n + 1)
        sines = np.sqrt(2 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
        assert np.allclose(dst(x, np.empty_like(x)), sines @ x, rtol=0.0,
                           atol=1e-13 * np.sqrt(n))

    def test_own_inverse_and_unitary(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((255, 2))
        once = dst(x, np.empty_like(x))
        assert np.linalg.norm(once) == pytest.approx(np.linalg.norm(x), rel=1e-14)
        assert np.allclose(dst(once, np.empty_like(x)), x, rtol=0.0, atol=1e-14)

    def test_bit_identical_to_scipy_dst_type_1_ortho(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1023, 2))
        expect = scipy.fft.dst(x, type=1, norm="ortho", axis=0)
        assert np.array_equal(dst(x, np.empty_like(x)), expect)

    def test_in_place_and_into_out(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((63, 2))
        expect = dst(x, np.empty_like(x))
        out = np.full_like(x, np.nan)
        assert dst(x, out) is out and np.array_equal(out, expect)
        assert dst(x, x) is x and np.array_equal(x, expect)

    def test_odd_modes_of_the_dft(self):
        # the interior of an odd packet of 2N points (0 at j = 0 and N):
        # its dft at bin k is -i times the columns' transform at k - 1
        rng = np.random.default_rng(10)
        big = 256
        z = rng.standard_normal(big - 1) + 1j * rng.standard_normal(big - 1)
        packet = np.r_[0.0, z, 0.0, -z[::-1]]
        columns = z.view(float).reshape(-1, 2)
        sines = dst(columns, np.empty_like(columns)).view(complex).ravel()
        assert np.allclose(dft(packet)[1:big], -1j * sines, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [0, 2, 8, 512])
    def test_length_not_one_below_a_power_of_two_rejected(self, n):
        with pytest.raises(ParameterError, match="one below a power of two"):
            dst(np.zeros((n, 2)), np.zeros((n, 2)))


class TestDft:
    def test_matches_numpy_unitary(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(dft(v), np.fft.fft(v) / np.sqrt(64), atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.allclose(dft(dft(v), "inverse"), v, atol=1e-12)

    def test_batched_last_axis(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 32)) + 0j
        out = dft(v)
        for i in range(3):
            assert np.allclose(out[i], dft(v[i]), atol=1e-13)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            dft(np.zeros(12, complex))

    def test_length_one_returns_copy(self):
        v = np.array([2.5 - 1.0j])
        out = dft(v)
        assert not np.shares_memory(out, v)
        assert np.array_equal(out, v)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ParameterError):
            dft(np.zeros(8, complex), "backward")

    def test_input_not_mutated(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        before = v.copy()
        dft(v)
        dft(v, "inverse")
        assert np.array_equal(v, before)

    def test_into_out_and_in_place(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        for direction in ("forward", "inverse"):
            expect = dft(v, direction)
            out = np.full_like(v, np.nan)
            assert dft(v, direction, out) is out and np.array_equal(out, expect)
            w = v.copy()
            assert dft(w, direction, w) is w and np.array_equal(w, expect)

    def test_real_input_gives_complex128(self):
        assert dft(np.arange(16.0)).dtype == np.complex128

    def test_batched_matches_numpy(self):
        rng = np.random.default_rng(4)
        n = 8192
        v = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        assert np.allclose(dft(v), np.fft.fft(v, axis=-1) / np.sqrt(n),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2**p for p in range(3, 15)])
    def test_matches_numpy_ortho_every_size(self, n):
        rng = np.random.default_rng(n + 1)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for direction, ref in (("forward", np.fft.fft), ("inverse", np.fft.ifft)):
            expect = ref(v, norm="ortho")
            err = np.max(np.abs(dft(v, direction) - expect))
            assert err <= 1e-12 * np.max(np.abs(expect))

    @staticmethod
    def _scipy_ortho(x, direction):
        """The public scipy.fft route on the complex128 cast dft makes."""
        transform = scipy.fft.fft if direction == "forward" else scipy.fft.ifft
        return transform(np.asarray(x, dtype=complex), axis=-1, norm="ortho")

    def _assert_bit_identical(self, x):
        for direction in ("forward", "inverse"):
            out = dft(x, direction)
            assert out.dtype == np.complex128
            assert np.array_equal(out, self._scipy_ortho(x, direction))

    @pytest.mark.parametrize("n", [2**p for p in range(15)])
    def test_bit_identical_to_scipy_fft_every_size(self, n):
        rng = np.random.default_rng(100 + n)
        self._assert_bit_identical(rng.standard_normal(n)
                                   + 1j * rng.standard_normal(n))

    def test_bit_identical_to_scipy_fft_batched_and_views(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 4096)) + 1j * rng.standard_normal((3, 4096))
        self._assert_bit_identical(v)
        self._assert_bit_identical(v[:, ::2])
        self._assert_bit_identical(v[::-1, ::-1])

    def test_bit_identical_to_scipy_fft_real_and_complex64(self):
        rng = np.random.default_rng(6)
        self._assert_bit_identical(rng.standard_normal(1024))
        self._assert_bit_identical((rng.standard_normal(1024)
                                    + 1j * rng.standard_normal(1024)
                                    ).astype(np.complex64))

    def test_freqs(self):
        n, dx = 16, 0.3
        assert np.allclose(dft_freqs(n, dx),
                           2 * np.pi * np.fft.fftfreq(n, dx), atol=1e-14)

    @given(st.integers(2, 7))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, p):
        n = 2**p
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(dft(v)) == pytest.approx(np.linalg.norm(v),
                                                       rel=1e-12)


def sweep(a, seeds, band=None, w=None):
    """partialwave._sweep of the Numerov coefficients a (f = 1 - a) from
    seeds, u on every row; band and w default to fresh arrays with the unit
    columns that _numerov_channels fills."""
    n = len(a)
    if band is None:
        band = np.ones((n, 3))
    w = np.empty(n) if w is None else w
    u = np.empty(n)
    partialwave._sweep(np.array(a, dtype=float), 1.0 - np.asarray(a, dtype=float),
                       band, w, np.asarray(seeds, dtype=float), np.arange(n), u)
    return u


def sweep_loop(a, seeds):
    """The same Numerov recurrence one row at a time, unscaled:
    w[i+1] = d[i] w[i] - w[i-1], d = 2 + 12 a / f formed as _sweep forms
    it, and u = w / f past the seed rows."""
    f = 1.0 - a
    d = -((a / f) * -12.0 - 2.0)
    w = [seeds[0] * f[0], seeds[1] * f[1]]
    for i in range(2, len(a)):
        w.append(d[i - 1] * w[i - 1] - w[i - 2])
    u = np.array(w) / f
    u[:2] = seeds
    return u


def random_numerov(rng, n, scale):
    """Numerov coefficients a in [scale, 3 scale], so that d > 2 on every
    row: from increasing positive seeds an increasing solution, free of
    cancellation, that grows by about 1e100 over 3000 rows at
    scale = 2.5e-4 and by about 1e266 at 1.75e-3."""
    return rng.uniform(scale, 3.0 * scale, n)


class TestBandedRecurrence:
    """The chunked monic recurrence that partialwave._sweep solves in place
    with LAPACK dtbtrs: chunks of at most _CHUNK rows, each started from its
    two carried values scaled below 1 by a power of two."""

    @pytest.mark.parametrize("chunk", [3, 64, partialwave._CHUNK])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_step_loop(self, monkeypatch, chunk, seed):
        # the result does not depend on the chunk length; the band's
        # diagonal column is NaN, which a solve that read it would carry
        # into every row
        monkeypatch.setattr(partialwave, "_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        n = 3000
        a = random_numerov(rng, n, 2.5e-4)
        seeds = np.cumsum(rng.uniform(0.5, 1.5, 2))
        band = np.ones((n, 3))
        band[:, 0] = np.nan
        u = sweep(a, seeds, band)
        expected = sweep_loop(a, seeds)
        assert np.max(u) > 1e50
        assert np.allclose(u, expected, rtol=1e-11, atol=0.0)

    def test_negative_solution_peak(self):
        # the chunk size is the largest magnitude of either sign: a negative
        # solution that passes 2**830 is shifted down by the power of two
        # that its own largest magnitude calls for
        rng = np.random.default_rng(3)
        n = 3000
        a = random_numerov(rng, n, 1.75e-3)
        seeds = -np.cumsum(rng.uniform(0.5, 1.5, 2))
        u = sweep(a, seeds)
        expected = sweep_loop(a, seeds)
        w = expected * (1.0 - a)
        peak = math.frexp(np.max(np.abs(w[2:])))[1]
        assert peak > partialwave._MAX_EXP and np.all(np.isfinite(w))
        expected[2:] = np.ldexp(expected[2:], partialwave._MAX_EXP - peak)
        assert np.max(u[2:]) < 0.0
        assert 2.0 ** 829 <= np.max(np.abs(u[2:] * (1.0 - a[2:])))
        assert np.allclose(u[2:], expected[2:], rtol=1e-11, atol=0.0)

    def test_solves_in_place(self, monkeypatch):
        # u[i] = i + 1 (a = 0, so d = 2); every solve's right-hand side is
        # a view into w, and chunks start at the cap
        sizes = []
        w = np.empty(100)
        solve = partialwave.dtbtrs

        def spy(ab, b, **kwargs):
            assert np.shares_memory(b, w) and kwargs.get("overwrite_b") == 1
            sizes.append(len(b))
            return solve(ab, b, **kwargs)

        monkeypatch.setattr(partialwave, "dtbtrs", spy)
        monkeypatch.setattr(partialwave, "_CHUNK", 16)
        u = sweep(np.zeros(100), (1.0, 2.0), w=w)
        assert sizes == [18] * 6 + [4]
        assert np.array_equal(u, np.arange(1.0, 101.0))

    def test_row_overflow_raises(self):
        # u[i] = i + 1 up to row 10, which is not finite however short the
        # chunk: a = inf on row 9 makes its d NaN
        a = np.zeros(40)
        a[9] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="row 10"):
                sweep(a, (1.0, 2.0))
