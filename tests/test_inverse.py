"""Recovering the amplitude and entropy from measurable quantities."""

import math
import re

import numpy as np
import pytest

from counterpairs.entanglement import schmidt
from counterpairs.errors import FitDiverged, NegativeDiscriminant, NoPhysicalRoot, OutOfRange
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

    @pytest.mark.parametrize("ms", [
        MeasurementSet(sigma_omega_s=1e300, sigma_omega_i=1e300, b=1e25),     # width^2 overflows
        MeasurementSet(sigma_omega_s=1e-300, sigma_omega_i=2e-300, b=1e25),   # 0/0 width ratio
        MeasurementSet(sigma_omega_s=1e13, sigma_omega_i=1e13, b=9e-300),     # f2si^2 overflows
    ])
    def test_leaving_double_range_raises_out_of_range(self, ms):
        with pytest.raises(OutOfRange, match="the measured widths and b leave double range"):
            estimate(ms)


def reference_fit(samples, beat=0.0):
    """fit_hom_B as plain loops: a 241-point scan, then gradient bisection.

    The scan of the squared error is ten times finer than the fit's, so
    agreement also shows that the coarse scan brackets the same minimum.
    The model is evaluated afresh for every sum, and the bisection runs on
    the sign of the variable-projection gradient dS/dx, that of
    D (sum tau^2 d g * G - D sum tau^2 g^2) with D = sum d g, G = sum g^2.
    Where fit_hom_B must raise FitDiverged, this returns the message instead.
    """
    taus = [float(t) for t, _ in samples]
    depths = [1.0 - float(r) for _, r in samples]

    def fit_at(x):
        b = 10.0**x
        dg = gg = t2dg = t2gg = 0.0
        for t, d in zip(taus, depths):
            g = math.exp(-b * t * t) * math.cos(beat * t)
            dg += d * g
            gg += g * g
            t2dg += t * t * d * g
            t2gg += t * t * g * g
        a = dg / gg if gg > 0.0 else 0.0
        sse = 0.0
        for t, d in zip(taus, depths):
            sse += (d - a * math.exp(-b * t * t) * math.cos(beat * t)) ** 2
        return a, sse, dg * (t2dg * gg - dg * t2gg)

    scale = max(abs(t) for t in taus)
    lo, hi = math.log10(1e-6 / scale**2), math.log10(1e6 / scale**2)
    grid = [lo + (hi - lo) * k / 240 for k in range(241)]
    sses = [fit_at(x)[1] for x in grid]
    k_best = min(range(len(grid)), key=lambda k: (sses[k], k))
    left, right = grid[max(k_best - 1, 0)], grid[min(k_best + 1, len(grid) - 1)]
    x = 0.5 * (left + right)
    while left < x < right:
        if fit_at(x)[2] > 0.0:
            right = x
        else:
            left = x
        x = 0.5 * (left + right)
    a, sse, _ = fit_at(x)
    if a <= 1e-10:
        return f"fitted dip contrast a = {a:.3g} is not identifiable"
    if not (lo + 1e-3 < x < hi - 1e-3):
        return f"envelope rate b = {10.0**x:.3g} pinned to the search boundary"
    return HomFit(a=a, b=10.0**x, beat=beat, residual_rms=math.sqrt(sse / len(taus)))


def assert_fit_agrees_with_reference(samples, beat):
    ref = reference_fit(samples, beat=beat)
    if isinstance(ref, str):
        with pytest.raises(FitDiverged, match=f"^{re.escape(ref)}$"):
            fit_hom_B(samples, beat=beat)
        return
    fit = fit_hom_B(samples, beat=beat)
    assert fit.a == pytest.approx(ref.a, rel=1e-11, abs=0)
    assert fit.b == pytest.approx(ref.b, rel=1e-11, abs=0)
    assert fit.beat == ref.beat


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
        with pytest.raises(FitDiverged, match="^samples are flat at R_n = 1; a = 0 and b "
                                              "is unidentifiable$"):
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
    def test_fit_agrees_with_the_loop_reference(self, make_case, n, lambda_s, noise):
        t = make_case(lambda_s=lambda_s).tpsa
        samples = self._samples(t, n, rng=np.random.default_rng(7), noise=noise)
        assert_fit_agrees_with_reference(samples, hom_params(t).beat)

    def test_fit_agrees_with_the_loop_reference_on_random_dips(self, random_cases):
        rng = np.random.default_rng(23)
        kinds = set()
        cases = random_cases(52, seed=311, chirp=False, include_g=False)
        for k, case in enumerate(cases):
            noise = 0.01 if k % 2 else 0.0
            samples = self._samples(case.tpsa, 41 if k % 4 < 2 else 81, rng=rng, noise=noise)
            beat = hom_params(case.tpsa).beat
            assert_fit_agrees_with_reference(samples, beat)
            kinds.add((beat != 0.0, noise))
        assert len(kinds) == 4      # degenerate and split, noise-free and noisy

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
        # one exp per sample for each distinct trial b: the 25 scan points,
        # about 48 bisection steps and the final b
        assert counts["exp"] % 201 == 0 and counts["exp"] <= 80 * 201

    @pytest.mark.parametrize("rate", [-0.2, 2.2])
    def test_rate_outside_the_normalized_range_rejected(self, rate):
        samples = [(k * 1e-15, 0.5) for k in range(-3, 4)] + [(4e-15, rate)]
        with pytest.raises(ValueError, match=re.escape(
                f"sample R_n = {rate} is not a normalized coincidence rate")):
            fit_hom_B(samples)

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_delays_leaving_double_range_raise_out_of_range(self, scale):
        # tau_scale^2 overflows, or underflows to zero and divides the search window
        samples = [(scale * u, 1.0 - 0.9 * math.exp(-9.0 * u * u))
                   for u in np.linspace(-1.0, 1.0, 21)]
        with pytest.raises(OutOfRange, match="the coincidence samples leave double range"):
            fit_hom_B(samples)

    def test_samples_at_one_delay_rejected(self):
        with pytest.raises(ValueError, match="^samples must span a range of delays$"):
            fit_hom_B([(0.0, 0.5)] * 7)

    def test_inverted_dip_is_not_identifiable(self):
        samples = [(k * 1e-15, 1.0 + 0.5 * math.exp(-(k / 3) ** 2)) for k in range(-10, 11)]
        with pytest.raises(FitDiverged,
                           match=r"^fitted dip contrast a = -0\.5 is not identifiable$"):
            fit_hom_B(samples)

    def test_dip_narrower_than_the_sample_spacing_is_pinned(self):
        # only the zero-delay sample dips: the error falls all the way to the
        # top of the 12-decade window (1e6 / max tau^2)
        samples = [(k * 1e-15, 0.0 if k == 0 else 1.0) for k in range(-100, 101)]
        with pytest.raises(FitDiverged, match=r"^envelope rate b = 1e\+32 pinned to "
                                              r"the search boundary$"):
            fit_hom_B(samples)

    @pytest.mark.parametrize("n,b_top", [(7, "1.11e+35"), (41, "2.5e+33")])
    def test_dip_narrower_than_the_spacing_of_few_samples_is_pinned(self, n, b_top):
        # as above on a shorter delay range; with 7 samples every b above
        # about 1e33 fits exactly, so nothing bounds b either
        samples = [(k * 1e-15, 0.0 if k == 0 else 1.0) for k in range(-(n // 2), n // 2 + 1)]
        with pytest.raises(FitDiverged, match=rf"^envelope rate b = {re.escape(b_top)} "
                                              r"pinned to the search boundary$"):
            fit_hom_B(samples)
