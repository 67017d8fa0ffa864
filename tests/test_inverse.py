"""Recovering the amplitude and entropy from measurable quantities."""

import numpy as np
import pytest

from counterpairs.entanglement import schmidt
from counterpairs.errors import FitDiverged, NegativeDiscriminant, NoPhysicalRoot
from counterpairs.inverse import MeasurementSet, estimate, fit_hom_B
from counterpairs.spectral import spectrum
from counterpairs.temporal import hom_curve, hom_params
from counterpairs.tpsa import normalize


def _measure(tpsa):
    """Forward-model the three measurable quantities of a scenario."""
    return MeasurementSet(
        sigma_omega_s=spectrum(tpsa, "s").sigma_omega,
        sigma_omega_i=spectrum(tpsa, "i").sigma_omega,
        b=hom_params(tpsa).b,
        omega_s0=tpsa.omega_s0,
        omega_i0=tpsa.omega_i0,
    )


class TestEstimate:
    def test_symmetric_closed_form(self):
        sigma, b = 1.2e13, 2.0e25
        ms = MeasurementSet(sigma_omega_s=sigma, sigma_omega_i=sigma, b=b)
        result = estimate(ms)
        assert result.method == "symmetric-closed-form"
        expected = sigma**2 / (8.0 * b * (sigma**2 - b))
        assert result.roots[0].f2s_r == pytest.approx(expected, rel=1e-12, abs=0)
        assert result.roots[0].f2i_r == pytest.approx(expected, rel=1e-12, abs=0)

    def test_symmetric_pole_region(self):
        with pytest.raises(NoPhysicalRoot):
            estimate(MeasurementSet(sigma_omega_s=1e13, sigma_omega_i=1e13,
                                    b=1.5e26))

    def test_negative_discriminant(self):
        # sigma_wi = 2 sigma_ws with b tuned to zero the linear coefficient
        with pytest.raises(NegativeDiscriminant):
            estimate(MeasurementSet(sigma_omega_s=1e13, sigma_omega_i=2e13,
                                    b=2.5e26))

    def test_round_trip_over_random_scenarios(self, random_cases):
        for case in random_cases(15, seed=61, chirp=False, include_g=False):
            t = case.tpsa
            result = estimate(_measure(t))
            best = min(result.roots,
                       key=lambda r: abs(r.f2s_r - t.f2s.real))
            assert best.f2s_r == pytest.approx(t.f2s.real, rel=1e-9, abs=0)
            assert best.f2i_r == pytest.approx(t.f2i.real, rel=1e-9, abs=0)
            assert best.f2si_r == pytest.approx(t.f2si.real, rel=1e-9, abs=0)
            se_truth = schmidt(normalize(t)).entropy_bits
            assert best.entropy_bits == pytest.approx(se_truth, abs=1e-8)

    def test_all_physical_roots_reported(self, random_cases):
        saw_two = False
        for case in random_cases(15, seed=61, chirp=False, include_g=False):
            result = estimate(_measure(case.tpsa))
            assert result.roots == tuple(
                sorted(result.roots, key=lambda r: r.entropy_bits))
            saw_two = saw_two or len(result.roots) == 2
        assert saw_two  # ambiguity disclosure must actually exercise

    def test_invalid_measurements_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet(sigma_omega_s=-1.0, sigma_omega_i=1e13, b=1e25)


class TestFitHom:
    def _samples(self, tpsa, n, rng=None, noise=0.0):
        dip = hom_params(tpsa)
        taus = np.linspace(-2.5 * dip.delta_tau_l, 2.5 * dip.delta_tau_l, n)
        rates = hom_curve(tpsa, taus)
        if noise:
            rates = rates + rng.normal(0.0, noise, size=n)
        return list(zip(taus.tolist(), np.asarray(rates).tolist()))

    def test_noiseless_recovery(self, make_case):
        t = make_case(dtilde_theta=1.1e-16).tpsa
        dip = hom_params(t)
        fit = fit_hom_B(self._samples(t, 41))
        assert fit.a == pytest.approx(dip.a, rel=1e-8, abs=0)
        assert fit.b == pytest.approx(dip.b, rel=1e-8, abs=0)
        assert fit.residual_rms < 1e-10

    def test_noiseless_recovery_with_beat(self, make_case):
        t = make_case(lambda_s=1.058e-6).tpsa
        dip = hom_params(t)
        fit = fit_hom_B(self._samples(t, 81), beat=dip.beat)
        assert fit.a == pytest.approx(dip.a, rel=1e-8, abs=0)
        assert fit.b == pytest.approx(dip.b, rel=1e-8, abs=0)

    def test_noisy_recovery_within_three_percent(self, make_case):
        t = make_case().tpsa
        dip = hom_params(t)
        rng = np.random.default_rng(2024)
        fit = fit_hom_B(self._samples(t, 41, rng=rng, noise=0.01))
        assert fit.b == pytest.approx(dip.b, rel=0.03, abs=0)

    def test_flat_samples_diverge(self):
        taus = np.linspace(-1e-13, 1e-13, 21)
        with pytest.raises(FitDiverged):
            fit_hom_B([(float(t), 1.0) for t in taus])

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError, match="at least 7"):
            fit_hom_B([(0.0, 0.5)] * 5)

    def test_fit_feeds_estimate_round_trip(self, make_case):
        t = make_case(include_g=False).tpsa
        fit = fit_hom_B(self._samples(t, 61))
        ms = MeasurementSet(sigma_omega_s=spectrum(t, "s").sigma_omega,
                            sigma_omega_i=spectrum(t, "i").sigma_omega,
                            b=fit.b)
        result = estimate(ms)
        truth = schmidt(normalize(t)).entropy_bits
        best = min(result.roots, key=lambda r: abs(r.entropy_bits - truth))
        assert best.entropy_bits == pytest.approx(truth, abs=1e-6)
