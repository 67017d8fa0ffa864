"""Recovering the amplitude and entropy from measurable quantities."""

import math

import numpy as np
import pytest

from counterpairs.entanglement import schmidt
from counterpairs.errors import FitDiverged, NegativeDiscriminant, NoPhysicalRoot
from counterpairs.inverse import HomFit, MeasurementSet, estimate, fit_hom_B
from counterpairs.spectral import spectrum
from counterpairs.temporal import hom_curve, hom_params
from counterpairs.tpsa import normalize


def _measure(tpsa):
    """Forward-model the three measurable quantities of a scenario."""
    return MeasurementSet(
        sigma_omega_s=spectrum(tpsa, "s").sigma_omega,
        sigma_omega_i=spectrum(tpsa, "i").sigma_omega,
        b=hom_params(tpsa).b,
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


def reference_fit(samples, beat=0.0):
    """fit_hom_B as a plain loop that evaluates the model twice per trial b.

    The reference the fit must equal bit for bit: the same scan, the same
    golden-section steps and the same summation order.
    """
    taus = [float(t) for t, _ in samples]
    depths = [1.0 - float(r) for _, r in samples]

    def amp_and_sse(b):
        gg = dd = 0.0
        for t, d in zip(taus, depths):
            g = math.exp(-b * t * t) * math.cos(beat * t)
            gg += g * g
            dd += g * d
        a = dd / gg if gg > 0.0 else 0.0
        sse = 0.0
        for t, d in zip(taus, depths):
            g = math.exp(-b * t * t) * math.cos(beat * t)
            sse += (d - a * g) ** 2
        return a, sse

    scale = max(abs(t) for t in taus)
    lo, hi = math.log10(1e-6 / scale**2), math.log10(1e6 / scale**2)
    grid = [lo + (hi - lo) * k / 240 for k in range(241)]
    sses = [amp_and_sse(10.0**e)[1] for e in grid]
    k_best = min(range(len(grid)), key=lambda k: (sses[k], k))
    left, right = grid[max(k_best - 1, 0)], grid[min(k_best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = right - invphi * (right - left), left + invphi * (right - left)
    f1, f2 = amp_and_sse(10.0**x1)[1], amp_and_sse(10.0**x2)[1]
    for _ in range(120):
        if f1 < f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = amp_and_sse(10.0**x1)[1]
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = amp_and_sse(10.0**x2)[1]
    b = 10.0 ** (0.5 * (left + right))
    a, sse = amp_and_sse(b)
    return HomFit(a=a, b=b, beat=beat, residual_rms=math.sqrt(sse / len(taus)))


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

    @pytest.mark.parametrize("n,lambda_s,noise", [(41, 1.064e-6, 0.0), (81, 1.058e-6, 0.0),
                                                  (41, 1.064e-6, 0.01), (201, 1.06e-6, 0.0)])
    def test_fit_equals_the_loop_reference_bit_for_bit(self, make_case, n, lambda_s, noise):
        t = make_case(lambda_s=lambda_s).tpsa
        samples = self._samples(t, n, rng=np.random.default_rng(7), noise=noise)
        beat = hom_params(t).beat
        assert fit_hom_B(samples, beat=beat) == reference_fit(samples, beat=beat)

    def test_each_trial_evaluates_the_model_once(self, make_case, monkeypatch):
        t = make_case(lambda_s=1.058e-6).tpsa
        samples, beat = self._samples(t, 201), hom_params(t).beat
        counts = {"cos": 0, "exp": 0}
        for name in counts:
            def counted(x, name=name, original=getattr(math, name)):
                counts[name] += 1
                return original(x)

            monkeypatch.setattr(math, name, counted)
        fit_hom_B(samples, beat=beat)
        assert counts["cos"] == 201
        # one exp per sample for each distinct trial b: at most the 241 scan
        # points, the 122 golden-section points and the final b
        assert counts["exp"] % 201 == 0 and counts["exp"] <= 364 * 201
