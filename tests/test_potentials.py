import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scatterlab import cli
from scatterlab.numerics import DomainError
from scatterlab.potentials import (
    KINDS,
    PARAMETERS,
    PotentialModel,
    _power_primitive,
    line_integral,
    model_from_config,
    ray_difference,
)


def _own(kind, **values):
    """The values among those given that kind takes, per PARAMETERS."""
    return {name: values[name] for name in PARAMETERS[kind] if name in values}


OUTSIDE = [(kind, name) for kind in KINDS for name in ("v0", "width", "rho")
           if name not in PARAMETERS[kind]]
INSIDE = [(kind, name) for kind in KINDS for name in PARAMETERS[kind]]


class TestModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PotentialModel(kind="coulomb")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PotentialModel(kind="gaussian_well", width=0.0)
        with pytest.raises(ValueError):
            PotentialModel(kind="power_tail", rho=-1.0)

    @pytest.mark.parametrize("kind,name", OUTSIDE)
    def test_parameter_outside_its_kind_refused(self, tmp_path, capsys, kind, name):
        # power_tail's width is the fixed 1 of 1 + r^2 and zero has no
        # strength; a value the profile never read still moved results
        with pytest.raises(ValueError, match=f"{kind} takes no {name}"):
            PotentialModel(kind=kind, **{name: 0.5})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "born",
                                    "potential": {"kind": kind, name: 0.5}}))
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 2
        assert "config error: at potential:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,name", INSIDE)
    def test_every_parameter_moves_the_profile(self, kind, name):
        # no parameter a kind takes is inert
        r = np.linspace(0.0, 3.0, 61)
        base = _own(kind, v0=-0.5, width=1.0, rho=2.0)
        moved = dict(base, **{name: 1.3 * base[name]})
        assert not np.array_equal(PotentialModel(kind, **base).radial_values(r),
                                  PotentialModel(kind, **moved).radial_values(r))

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "power_tail"])
    def test_non_power_kinds_decay_faster_than_any_power(self, kind):
        # rho = inf; <x>^-8 stands in for every power: |v| <x>^8 falls
        # through the far range to below 1e-9 |v0|
        m = PotentialModel(kind, **_own(kind, v0=-0.5, width=1.0))
        assert m.rho == np.inf
        r = np.linspace(20.0, 60.0, 41)
        weighted = np.abs(m.radial_values(r)) * (1.0 + r * r) ** 4
        assert np.all(np.diff(weighted) <= 0.0)
        assert weighted[-1] <= 1e-9 * 0.5

    def test_zero_everywhere(self):
        m = PotentialModel(kind="zero")
        assert np.all(m.radial_values(np.linspace(0, 50, 17)) == 0.0)

    def test_gaussian_profile(self):
        m = PotentialModel(kind="gaussian_well", v0=-1.0, width=2.0)
        assert m.radial_values(2.0) == pytest.approx(-np.exp(-1.0), rel=1e-14)

    def test_square_well_support(self):
        m = PotentialModel(kind="square_well", v0=1.0, width=1.5)
        assert m.radial_values(1.49) == 1.0
        assert m.radial_values(1.51) == 0.0

    def test_power_tail_decay_value(self):
        m = PotentialModel(kind="power_tail", v0=3.0, rho=2.0)
        assert m.radial_values(1.0) == pytest.approx(1.5, rel=1e-14)

    def test_compact_bump_support(self):
        m = PotentialModel(kind="compact_bump", v0=1.0, width=1.0)
        assert m.radial_values(0.0) == pytest.approx(1.0, rel=1e-14)
        assert m.radial_values(1.0) == 0.0
        assert m.radial_values(2.0) == 0.0

    def test_tail_radius(self):
        m = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        r = m.tail_radius(1e-10)
        assert abs(m.radial_values(r)) < 1e-10
        assert abs(m.radial_values(r / 1.3)) > 1e-10


class TestDecay:
    @pytest.mark.parametrize("kind,rho", [("gaussian_well", 2.0),
                                          ("yukawa", 2.0),
                                          ("power_tail", 2.0),
                                          ("power_tail", 1.0)])
    def test_claimed_decay_verified(self, kind, rho):
        # |d^a v| <x>^(rho + a), a = 0, 1, 2 (central differences), shows no
        # growth beyond 5% from the first to the second half of the radii.
        # rho is power_tail's own exponent, at which |v| <x>^rho is |v0|
        # itself, and a finite one below the inf of the other kinds
        m = PotentialModel(kind=kind, **_own(kind, v0=-0.5, width=1.0, rho=rho))
        assert m.rho == (rho if kind == "power_tail" else np.inf)
        r, h = np.linspace(1.0, 30.0, 40), 1e-3
        v = m.radial_values
        derivs = [np.abs(v(r)), np.abs(v(r + h) - v(r - h)) / (2 * h),
                  np.abs(v(r + h) - 2 * v(r) + v(r - h)) / h**2]
        for a, d in enumerate(derivs):
            weighted = d * (1.0 + r * r) ** ((rho + a) / 2.0)
            assert np.max(weighted[20:]) <= 1.05 * max(np.max(weighted[:20]), 1e-300)
        if kind == "power_tail":
            np.testing.assert_allclose(derivs[0] * (1.0 + r * r) ** (rho / 2.0), 0.5,
                                       rtol=1e-14)


class TestConfig:
    def test_roundtrip(self):
        m = model_from_config({"kind": "yukawa", "v0": 0.3, "width": 2.0})
        assert m.kind == "yukawa" and m.v0 == 0.3 and m.width == 2.0

    def test_missing_kind(self):
        with pytest.raises(KeyError):
            model_from_config({"v0": 1.0})

    def test_radial_key_refused(self, tmp_path):
        # every kind is radial, and nothing read the key
        config = {"experiment": "born",
                  "potential": {"kind": "zero", "radial": True}}
        with pytest.raises(cli.ConfigError, match="radial"):
            cli.validate_config(config)
        with pytest.raises(TypeError, match="radial"):
            model_from_config(config["potential"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 2
        assert not out.exists()

    @given(st.sampled_from([k for k in KINDS if k != "zero"]),
           st.floats(-2.0, 2.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_profile_bounded_by_v0(self, kind, v0, width, rho):
        m = PotentialModel(kind=kind, **_own(kind, v0=v0, width=width, rho=rho))
        r = np.linspace(0.5 * m.width, 10.0 * m.width, 50)
        vals = np.abs(m.radial_values(r))
        bound = abs(v0) * max(1.0, 1.0 / (0.5 * m.width))  # yukawa 1/r factor
        assert np.all(vals <= bound + 1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_profile_has_the_sign_of_v0(self, kind):
        # every kind is v0 times a nonnegative profile, so ||v||_1 = |int v|,
        # which diagnostics.hs_norm_resolvent_weight reads from born
        # (zero is 0 times any profile)
        r = np.linspace(0.0, 50.0, 5001)
        for v0 in (-1.3, 0.4):
            for scale in (0.3, 1.0, 4.0):
                m = PotentialModel(kind=kind, **_own(kind, v0=v0, width=scale, rho=scale))
                assert np.all(m.radial_values(r) * m.v0 >= 0.0)


def _quad_line(model, s, a, b, shift=None):
    """int_a^b v(sqrt(s^2 + w^2)) dw (minus int_0^inf v(w) dw at the same
    distance from a when shift) by adaptive quadrature, split at 0."""
    def f(w):
        val = float(model.radial_values(np.hypot(s, w)))
        if shift is not None:
            val -= float(model.radial_values(w - shift))
        return val
    cuts = [a] + [c for c in (0.0,) if a < c < b] + [b]
    return sum(quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


class TestLineIntegral:
    """potentials.line_integral and ray_difference against adaptive
    quadrature and closed forms."""

    def test_power_tail_difference_against_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            rho = rng.uniform(0.6, 3.0)
            s, a = rng.uniform(0.0, 20.0), rng.uniform(-20.0, 20.0)
            model = PotentialModel(kind="power_tail", v0=rng.choice([-0.7, 1.3]), rho=rho)
            # int_a^inf (v(s, w) - v(0, w - a)) dw, the difference at equal t
            ref = _quad_line(model, s, a, np.inf, shift=a)
            assert ray_difference(model, s, a) == pytest.approx(ref, abs=1e-9), (rho, s, a)

    def test_power_tail_continuous_across_rho_one(self):
        s = np.array([0.0, 0.5, 3.0, 40.0])
        a = np.array([0.0, -2.0, 7.0, 60.0])
        at_one = ray_difference(PotentialModel(kind="power_tail", v0=0.5, rho=1.0), s, a)
        for rho in (1.0 - 1e-7, 1.0 + 1e-7):
            near = ray_difference(PotentialModel(kind="power_tail", v0=0.5, rho=rho), s, a)
            np.testing.assert_allclose(near, at_one, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("rho", [1 + 1e-3, 1 - 1e-3, 1 - 1e-4, 1 + 1e-5,
                                     1 - 1e-6, 1 + 1e-7])
    def test_primitive_near_rho_one_against_mpmath(self, rho):
        # scipy's 2F1 is up to 3.6e-13 (rho = 0.999) to 1.7e-9 (rho = 1 + 1e-7)
        # off on these points, where u^2 does not overflow
        mpmath = pytest.importorskip("mpmath")
        u = np.concatenate([np.geomspace(0.1, 1e6, 25), [3e7, 1e12, 1e300]])
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)
            ref = np.array([float(mpmath.mpf(x) * mpmath.hyp2f1(
                0.5, r / 2, 1.5, -mpmath.mpf(x) ** 2)) for x in u])
        np.testing.assert_allclose(_power_primitive(rho, np.concatenate([u, -u])),
                                   np.concatenate([ref, -ref]), rtol=5e-16, atol=0.0)

    @pytest.mark.parametrize("rho", [0.75, 1.5, 3.0])
    def test_primitive_past_u_squared_overflow_against_mpmath(self, rho):
        # u^2 overflows above about 1.3e154; the asymptote takes over there
        mpmath = pytest.importorskip("mpmath")
        u = np.array([1e155, 1e200, 1e300])
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)
            ref = np.array([float(mpmath.mpf(x) * mpmath.hyp2f1(
                0.5, r / 2, 1.5, -mpmath.mpf(x) ** 2)) for x in u])
        np.testing.assert_allclose(_power_primitive(rho, np.concatenate([u, -u])),
                                   np.concatenate([ref, -ref]), rtol=2e-16, atol=0.0)

    def test_finite_end_past_u_squared_overflow_against_mpmath(self):
        # read 0.0 with an overflow warning while G formed u^2 at every u
        mpmath = pytest.importorskip("mpmath")
        model = PotentialModel(kind="power_tail", v0=1.0, rho=1.5)
        s = np.array([0.0, 2.0, 1.0])
        a = np.array([0.0, -3.0, -1e300])
        b = np.array([1e200, 1e300, 1e250])
        with mpmath.workdps(40):
            def G(x):
                x = mpmath.mpf(x)
                return x * mpmath.hyp2f1(0.5, 0.75, 1.5, -x**2)
            ref = []
            for si, ai, bi in zip(s, a, b):
                c = mpmath.sqrt(1 + mpmath.mpf(si) ** 2)
                ref.append(float(c ** -0.5 * (G(bi / c) - G(ai / c))))
        np.testing.assert_allclose(line_integral(model, s, a, b), ref,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("a,b", [(1e4, 2e4), (1e8, 2e8), (1e160, 1e300)])
    def test_far_segment_against_mpmath(self, a, b):
        # G(b) - G(a) cancelled G's constant there: 5.6e-15 and 5.8e-12
        # off, and 0.0 for the 2e-80 of the last segment
        mpmath = pytest.importorskip("mpmath")
        model = PotentialModel(kind="power_tail", v0=1.0, rho=1.5)
        with mpmath.workdps(400):
            def G(x):
                x = mpmath.mpf(x)
                return x * mpmath.hyp2f1(0.5, 0.75, 1.5, -x**2)
            ref = float(G(b) - G(a))
        for lo, hi, sign in ((a, b, 1.0), (-b, -a, 1.0), (b, a, -1.0)):
            got = float(line_integral(model, 0.0, lo, hi))
            assert got == pytest.approx(sign * ref, rel=2e-16, abs=0.0)

    @pytest.mark.parametrize("rho,a,b", [
        (3.0, 5000.0, np.inf), (3.0, 9000.0, 2e4), (3.0, 200.0, np.inf),
        (1.5, 5000.0, np.inf), (40.0, 100.0, 200.0), (153.0, 100.0, np.inf)])
    def test_segment_past_100_against_mpmath(self, rho, a, b):
        # G(b) - G(a) below the tail series' old start |t| = 1e4: 1.7e-9,
        # 3.7e-9, 8.1e-12 and 2.1e-14 off, -2.2e-16 for the 2.6e-80 at
        # rho = 40 and -1.4e-16 for the 6.5e-307 at rho = 153, whose series
        # terms past k = 0 lie below the normal range
        mpmath = pytest.importorskip("mpmath")
        model = PotentialModel(kind="power_tail", v0=1.0, rho=rho)
        with mpmath.workdps(100):
            r = mpmath.mpf(rho)

            def tail(x):  # int_x^inf (1 + t^2)^(-rho/2) dt
                if x == np.inf:
                    return 0
                x = mpmath.mpf(x)
                return x ** (1 - r) / (r - 1) * mpmath.hyp2f1(
                    r / 2, (r - 1) / 2, (r + 1) / 2, -1 / x**2)
            ref = float(tail(a) - tail(b))
        for lo, hi, sign in ((a, b, 1.0), (-b, -a, 1.0), (b, a, -1.0)):
            got = float(line_integral(model, 0.0, lo, hi))
            assert got == pytest.approx(sign * ref, rel=2e-16, abs=0.0)

    def test_ray_difference_near_rho_one_against_quadrature(self):
        # 4.6e-10 off while G came from 2F1
        model = PotentialModel(kind="power_tail", v0=1.0, rho=0.999999)
        ref = _quad_line(model, 0.5, -100.0, np.inf, shift=-100.0)
        assert ray_difference(model, 0.5, -100.0) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("rho", [0.9, 1.0])
    def test_divergent_tail_is_infinite(self, rho):
        # the finite part stands in only inside the difference integral
        model = PotentialModel(kind="power_tail", v0=0.5, rho=rho)
        assert line_integral(model, 0.0, 5000.0) == np.inf
        assert line_integral(model, 2.0, -np.inf, 3.0) == np.inf
        assert np.isfinite(line_integral(model, 2.0, -3.0, 3.0))

    def test_power_tail_segment_against_quadrature(self):
        model = PotentialModel(kind="power_tail", v0=0.5, rho=1.5)
        for s, a, b in [(0.0, 0.0, 10.0), (2.0, -3.0, 1.0), (1.0, 5000.0, np.inf)]:
            assert line_integral(model, s, a, b) == pytest.approx(
                _quad_line(model, s, a, b), rel=1e-11)

    def test_square_well_chord(self):
        model = PotentialModel(kind="square_well", v0=-0.7, width=1.3)
        s = np.array([0.0, 0.2, 0.9, 1.29, 1.31, 0.5])
        a = np.array([-5.0, 0.1, -0.3, -1.0, -1.0, 0.4])
        b = np.array([np.inf, 0.8, np.inf, 1.0, 1.0, 0.45])
        h = np.sqrt(np.maximum(1.3**2 - s * s, 0.0))
        chord = np.maximum(np.minimum(b, h) - np.maximum(a, -h), 0.0)
        np.testing.assert_allclose(line_integral(model, s, a, b), -0.7 * chord,
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind,width", [("gaussian_well", 0.7),
                                            ("compact_bump", 1.3),
                                            ("yukawa", 0.4)])
    def test_smooth_kinds_against_quadrature(self, kind, width):
        model = PotentialModel(kind=kind, v0=-0.8, width=width)
        for s, a, b in [(0.3, -5.0, np.inf), (0.9, 0.2, 0.5), (1.2, -3.0, 3.0),
                        (0.05, 2.0, np.inf), (3.0, -np.inf, np.inf)]:
            assert line_integral(model, s, a, b) == pytest.approx(
                _quad_line(model, s, a, min(b, 80.0)), rel=1e-10, abs=1e-15)

    def test_broadcast_shape(self):
        model = PotentialModel(kind="gaussian_well", v0=-1.0)
        got = line_integral(model, np.array([0.0, 0.5, 1.0])[:, None], np.array([-1.0, 2.0]))
        assert got.shape == (3, 2)
        assert got[1, 0] == pytest.approx(float(line_integral(model, 0.5, -1.0)), rel=1e-15)

    def test_yukawa_core_refused(self):
        model = PotentialModel(kind="yukawa", v0=0.5, width=0.3)
        with pytest.raises(DomainError):
            line_integral(model, 0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            ray_difference(model, 2.0, 10.0)    # the reference ray int_0^inf v
        assert np.isfinite(line_integral(model, 0.0, 1.0))
