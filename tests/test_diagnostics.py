import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from scatterlab import diagnostics, propagator
from scatterlab.numerics import DomainError, ParameterError
from scatterlab.potentials import PotentialModel

ZERO = PotentialModel(kind="zero")
GAUSS = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)


class TestDiscretization:
    def test_operator_hermitian(self):
        op = diagnostics.discretize(GAUSS, 128, 20.0)
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12

    def test_kinetic_positive_semidefinite(self):
        op = diagnostics.discretize(ZERO, 128, 20.0)
        assert np.min(np.linalg.eigvalsh(op.kinetic)) > -1e-12


class TestHsNorm:
    def test_gaussian_closed_form(self):
        val = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        assert val == pytest.approx(np.sqrt(np.pi) / 8, rel=1e-10)

    def test_c_scaling_exact(self):
        v1 = diagnostics.hs_norm_resolvent_weight(GAUSS, 1.0)
        v16 = diagnostics.hs_norm_resolvent_weight(GAUSS, 16.0)
        assert v16 / v1 == pytest.approx(0.25, abs=1e-12)

    def test_non_integrable_rejected(self):
        tail = PotentialModel(kind="power_tail", v0=1.0, rho=2.0)
        with pytest.raises(DomainError):
            diagnostics.hs_norm_resolvent_weight(tail, 1.0)

    def test_bad_c_rejected(self):
        with pytest.raises(ParameterError):
            diagnostics.hs_norm_resolvent_weight(GAUSS, 0.0)


class TestKato:
    def _packet(self):
        return propagator.gaussian_packet(n=2**12, dx=0.65, center=0.0,
                                          k0=2.0, sigma=1.0)

    def test_threshold_flip(self):
        Ts = [10.0, 20.0, 40.0, 80.0]
        r1 = diagnostics.kato_smoothness_integral(1.0, self._packet(), Ts,
                                                  dt=0.5)
        r025 = diagnostics.kato_smoothness_integral(0.25, self._packet(), Ts,
                                                    dt=0.5)
        assert r1.saturating
        assert not r025.saturating

    def test_integrals_monotone(self):
        rep = diagnostics.kato_smoothness_integral(
            1.0, self._packet(), [5.0, 10.0, 20.0], dt=0.5)
        assert np.all(np.diff(rep.integrals) > 0)

    def test_zero_packet(self):
        f = self._packet()
        from dataclasses import replace
        zero = replace(f, values=np.zeros_like(f.values))
        rep = diagnostics.kato_smoothness_integral(1.0, zero, [5.0, 10.0])
        assert np.all(rep.integrals == 0.0) and rep.saturating

    def test_bad_times(self):
        with pytest.raises(ParameterError):
            diagnostics.kato_smoothness_integral(1.0, self._packet(),
                                                 [10.0, 5.0])


class TestMourre:
    def test_free_window_oracle(self):
        val = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024)
        assert val == pytest.approx(4.0, abs=0.1)

    def test_free_second_window(self):
        val = diagnostics.mourre_check(ZERO, (2.0, 3.0), n=1024)
        assert val == pytest.approx(8.0, abs=0.2)

    def test_refinement_trend(self):
        v1 = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=1024)
        v2 = diagnostics.mourre_check(ZERO, (1.0, 2.0), n=2048)
        assert abs(v1 - 4.0) / 4.0 < 0.05
        assert abs(v2 - 4.0) / 4.0 < 0.05

    def test_weak_well_stays_positive(self):
        weak = PotentialModel(kind="gaussian_well", v0=-0.1, width=1.0)
        assert diagnostics.mourre_check(weak, (1.0, 2.0), n=1024) >= 3.0

    def test_empty_window(self):
        with pytest.raises(diagnostics.WindowError):
            diagnostics.mourre_check(ZERO, (1e-6, 2e-6), n=256)

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            diagnostics.mourre_check(ZERO, (2.0, 1.0), n=256)


class TestLap:
    EPS = [1e-1, 3e-2, 1e-2, 3e-3]

    def test_free_stable_at_r1(self):
        rep = diagnostics.lap_probe(ZERO, 1.0, 1.0, self.EPS)
        assert rep.stable
        assert np.all(np.diff(rep.norms) >= -1e-10)

    def test_threshold_violation_at_small_r(self):
        rep = diagnostics.lap_probe(ZERO, 1.0, 0.25, self.EPS)
        assert not rep.stable
        assert rep.last_change > 0.20

    def test_below_spectrum_trivially_stable(self):
        rep = diagnostics.lap_probe(ZERO, -1.0, 1.0, self.EPS)
        assert rep.stable
        assert np.all(rep.norms <= 1.0 + 1e-6)  # <= 1/dist(-1, spec)

    def test_resonance_proximity_detected(self):
        # deep well: isolated bound state below the continuum
        deep = PotentialModel(kind="gaussian_well", v0=-5.0, width=1.0)
        n, extent = 4000, 400.0
        x = np.linspace(-extent, extent, n)
        dx = x[1] - x[0]
        diag = 2.0 / dx**2 + deep.radial_values(np.abs(x))
        off = np.full(n - 1, -1.0 / dx**2)
        e0 = eigh_tridiagonal(diag, off, select="i",
                              select_range=(0, 0))[0][0]
        assert e0 < -0.5
        with pytest.raises(diagnostics.ResonanceProximityError):
            diagnostics.lap_probe(deep, float(e0), 1.0, self.EPS,
                                  n=n, extent=extent)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, 1.0, [1e-2, 1e-1])
        with pytest.raises(ParameterError):
            diagnostics.lap_probe(ZERO, 1.0, -1.0, self.EPS)
