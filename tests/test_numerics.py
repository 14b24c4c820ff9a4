import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from scatterlab import numerics
from scatterlab.numerics import (
    DomainError,
    NumericalError,
    ParameterError,
    banded_recurrence,
    composite_gauss,
    dft,
    dft_freqs,
    gauss_legendre,
    legendre_p_all,
    spherical_bessel,
    spherical_jl,
)


class TestQuadrature:
    def test_gauss_legendre_polynomial_exact(self):
        rule = gauss_legendre(8, 0.0, 2.0)
        # degree <= 15 is exact for 8 nodes
        assert rule.integrate(lambda x: x**15) == pytest.approx(2.0**16 / 16, rel=1e-13)

    def test_composite_gauss_smooth(self):
        rule = composite_gauss(8, np.linspace(0.0, np.pi, 9))
        assert rule.integrate(np.sin) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 12, 16])
    def test_composite_gauss_is_panel_rules(self, n):
        rng = np.random.default_rng(n)
        for n_panels in (1, 2, 7, 40):
            edges = np.cumsum(rng.uniform(0.01, 3.0, n_panels + 1)) - 5.0
            rule = composite_gauss(n, edges)
            panels = [gauss_legendre(n, a, b) for a, b in zip(edges[:-1], edges[1:])]
            assert np.array_equal(rule.nodes, np.concatenate([p.nodes for p in panels]))
            assert np.array_equal(rule.weights, np.concatenate([p.weights for p in panels]))
            assert rule.interval == (edges[0], edges[-1])

    def test_composite_gauss_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            composite_gauss(0, [0.0, 1.0])
        with pytest.raises(ParameterError):
            composite_gauss(4, [0.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            composite_gauss(4, [0.0])

    def test_weights_positive(self):
        rule = gauss_legendre(12, -1.0, 1.0)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-14)


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
        assert spherical_jl(l, x) == pytest.approx(x**l / dfact, rel=1e-5)


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
        rule = gauss_legendre(64, -1.0, 1.0)
        p = legendre_p_all(9, rule.nodes)
        for m, n in [(0, 1), (2, 5), (3, 3), (7, 9)]:
            val = float(np.dot(rule.weights, p[:, m] * p[:, n]))
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


def recurrence_loop(band, x0, x1):
    """The monic recurrence x[i] + band[i-1, 1] x[i-1] + band[i-2, 2] x[i-2]
    = 0 one row at a time, unscaled."""
    x = [x0, x1]
    for i in range(2, len(band)):
        x.append(-(band[i - 2, 2] * x[i - 2] + band[i - 1, 1] * x[i - 1]))
    return np.array(x)


def random_band(rng, n):
    """A monic recurrence x[i] = g (w x[i-1] + (1 - w) x[i-2]) with random
    weights w and gains g: a positive solution that grows by about 1e100
    over 3000 rows, free of cancellation.  The diagonal column is NaN,
    which a solve that reads it would carry into every row."""
    w = rng.uniform(0.2, 0.8, n)
    g = rng.uniform(0.95, 1.25, n)
    band = np.empty((n, 3))
    band[:, 0] = np.nan
    band[:-1, 1] = -(w * g)[1:]
    band[:-2, 2] = -((1.0 - w) * g)[2:]
    band[-1, 1:] = band[-2, 2] = 0.0
    return band


class TestBandedRecurrence:
    @pytest.mark.parametrize("chunk", [3, 64, numerics._CHUNK])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_step_loop(self, monkeypatch, chunk, seed):
        monkeypatch.setattr(numerics, "_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        n = 3000
        band = random_band(rng, n)
        x = np.zeros(n)
        x[:2] = rng.uniform(0.5, 3.0, 2)
        expected = recurrence_loop(band, x[0], x[1])
        starts, scales, peak = banded_recurrence(band.copy(), x)
        assert starts[0] == 0 and np.all(np.diff(starts + [n]) > 0)
        assert np.max(np.diff(starts), initial=0) <= chunk
        for a, z, scale in zip(starts, starts[1:] + [n], scales):
            x[a:z] = np.ldexp(x[a:z], scale)
        assert np.max(np.abs(x)) > 1e50
        assert np.allclose(x, expected, rtol=1e-11, atol=0.0)
        assert 2.0 ** (peak - 1) <= np.max(np.abs(x)) < 2.0 ** peak

    def test_negative_solution_peak(self):
        # the chunk size is the largest magnitude of either sign
        rng = np.random.default_rng(3)
        n = 3000
        band = random_band(rng, n)
        x = np.zeros(n)
        x[:2] = -rng.uniform(0.5, 3.0, 2)
        expected = recurrence_loop(band, x[0], x[1])
        starts, scales, peak = banded_recurrence(band.copy(), x)
        for a, z, scale in zip(starts, starts[1:] + [n], scales):
            x[a:z] = np.ldexp(x[a:z], scale)
        assert np.max(x) < -1.0 and np.min(x) < -1e50
        assert np.allclose(x, expected, rtol=1e-11, atol=0.0)
        assert 2.0 ** (peak - 1) <= np.max(np.abs(x)) < 2.0 ** peak

    @pytest.mark.parametrize("make", [
        lambda: np.zeros(80)[::2],
        lambda: np.zeros((40, 2))[:, 0],
        lambda: np.zeros(40, dtype=np.float32),
        lambda: np.zeros((40, 1)),
        lambda: [0.0] * 40,
    ], ids=["strided", "c-order-column", "float32", "2d", "list"])
    def test_x_must_be_contiguous_float64_vector(self, make):
        band = np.ones((40, 3))
        band[:, 1] = -2.0
        x = make()
        with pytest.raises(ParameterError, match="contiguous float64 vector"):
            banded_recurrence(band, x)

    def test_solves_in_place(self, monkeypatch):
        # x[i] = i + 1; every solve's right-hand side is a view into x
        views = []
        solve = numerics.dtbtrs

        def spy(ab, b, **kwargs):
            views.append(np.shares_memory(b, x) and kwargs.get("overwrite_b") == 1)
            return solve(ab, b, **kwargs)

        monkeypatch.setattr(numerics, "dtbtrs", spy)
        monkeypatch.setattr(numerics, "_CHUNK", 16)
        band = np.ones((100, 3))
        band[:, 1] = -2.0
        x = np.zeros(100)
        x[:2] = (1.0, 2.0)
        starts, scales, _ = banded_recurrence(band, x)
        assert views and all(views)
        assert starts == list(range(0, 98, 16))
        for a, z, scale in zip(starts, starts[1:] + [100], scales):
            x[a:z] = np.ldexp(x[a:z], scale)
        assert np.array_equal(x, np.arange(1.0, 101.0))

    def test_row_overflow_raises(self):
        # x[i] = i + 1 up to row 10, whose huge coefficients take it past
        # the float range however short the chunk: the carried x[8], x[9]
        # are scaled to 9/16 and 10/16, and their sum times the largest
        # float overflows
        band = np.ones((40, 3))
        band[:, 1] = -2.0
        band[9, 1] = band[8, 2] = -np.finfo(float).max
        x = np.zeros(40)
        x[:2] = (1.0, 2.0)
        with pytest.raises(NumericalError, match="row 10"):
            banded_recurrence(band, x)
