import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.potentials import (
    KINDS,
    PotentialModel,
    evaluate,
    model_from_config,
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

    def test_radial_flag_passed_through(self):
        assert not model_from_config({"kind": "zero", "radial": False}).radial
        assert model_from_config({"kind": "zero"}).radial

    @given(st.sampled_from([k for k in KINDS if k != "zero"]),
           st.floats(-2.0, 2.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_profile_bounded_by_v0(self, kind, v0, width):
        m = PotentialModel(kind=kind, v0=v0, width=width)
        r = np.linspace(0.5 * width, 10.0 * width, 50)
        vals = np.abs(m.radial_values(r))
        bound = abs(v0) * max(1.0, 1.0 / (0.5 * width))  # yukawa 1/r factor
        assert np.all(vals <= bound + 1e-12)
