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
    PotentialModel,
    evaluate,
    line_integral,
    model_from_config,
    ray_difference,
    verify_decay,
)


class TestModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PotentialModel(kind="coulomb")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PotentialModel(kind="gaussian_well", width=0.0)
        with pytest.raises(ValueError):
            PotentialModel(kind="power_tail", rho=-1.0)

    def test_zero_kind_needs_positive_width(self):
        # the Xi term's panel edges scale with width for every kind
        with pytest.raises(ValueError):
            PotentialModel(kind="zero", width=0.0)

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

    def test_evaluate_3d_point(self):
        m = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        assert evaluate(m, [1.0, 2.0, 2.0]) == pytest.approx(-np.exp(-9.0),
                                                             rel=1e-12)

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
        m = PotentialModel(kind=kind, v0=-0.5, width=1.0, rho=rho)
        rep = verify_decay(m, 2, np.linspace(1.0, 30.0, 40))
        assert rep.all_passed

    def test_overclaimed_decay_fails(self):
        # forge a profile decaying like rho = 1 but claiming rho = 3: the
        # weighted samples grow ~ r^2 and the check must flag it
        class SlowTail(PotentialModel):
            def radial_values(self, r):
                r = np.asarray(r, dtype=float)
                return (1.0 + r * r) ** -0.5

        m = SlowTail(kind="power_tail", v0=1.0, rho=3.0)
        rep = verify_decay(m, 0, np.linspace(1.0, 200.0, 60))
        assert not rep.all_passed

    def test_sup_constants_finite(self):
        m = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        rep = verify_decay(m, 2, np.linspace(0.5, 20.0, 40))
        assert all(np.isfinite(c) and c >= 0 for c in rep.sup_constants)

    def test_bad_radii_rejected(self):
        m = PotentialModel(kind="zero")
        with pytest.raises(ValueError):
            verify_decay(m, 0, [2.0, 1.0])


class TestConfig:
    def test_roundtrip(self):
        m = model_from_config({"kind": "yukawa", "v0": 0.3, "width": 2.0})
        assert m.kind == "yukawa" and m.v0 == 0.3 and m.width == 2.0

    def test_missing_kind(self):
        with pytest.raises(KeyError):
            model_from_config({"v0": 1.0})

    def test_radial_schema_accepts_only_true(self, tmp_path):
        # every kind is radial: the key stays valid for `true` only
        config = {"experiment": "born",
                  "potential": {"kind": "zero", "radial": True}}
        cli.validate_config(config)
        assert model_from_config(config["potential"]) == PotentialModel("zero")
        config["potential"]["radial"] = False
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 2
        assert not (out / "result.json").exists()

    @given(st.sampled_from([k for k in KINDS if k != "zero"]),
           st.floats(-2.0, 2.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_profile_bounded_by_v0(self, kind, v0, width):
        m = PotentialModel(kind=kind, v0=v0, width=width)
        r = np.linspace(0.5 * width, 10.0 * width, 50)
        vals = np.abs(m.radial_values(r))
        bound = abs(v0) * max(1.0, 1.0 / (0.5 * width))  # yukawa 1/r factor
        assert np.all(vals <= bound + 1e-12)


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
