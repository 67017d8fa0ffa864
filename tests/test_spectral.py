"""Pair rate and intensity spectra against limits, symmetry, and oracles."""

import math

import pytest

from counterpairs import oracle
from counterpairs.constants import HBAR
from counterpairs.errors import NonNormalizable
from counterpairs.spectral import (
    pair_rate,
    spectrum,
    wavelength_width,
    width_ratio,
)
from counterpairs.tpsa import assemble_tpsa

from conftest import mp_material_point


def _d_sign_definite(case):
    """D_fr of a G-free amplitude as its sign-definite term expansion, s^4."""
    t, p = case.tpsa, case.pump
    inv_s = 0.0 if case.filt.sigma_s is None else 1.0 / case.filt.sigma_s**2
    inv_i = 0.0 if case.filt.sigma_i is None else 1.0 / case.filt.sigma_i**2
    tau2 = p.tau_p**2 / (1.0 + p.a_p**2)
    z2 = p.z_p**2
    return (4.0 * inv_s * inv_i + tau2 * (inv_s + inv_i) + tau2 * z2 * t.v_si**2 / 4.0
            + z2 * t.v_pi**2 * inv_s + z2 * t.v_ps**2 * inv_i)


class TestPairRate:
    def test_unfiltered_closed_form_and_pump_independence(self, make_case):
        # without filters N = |C|^2 exp(-2 f0) 2 pi/(sqrt(1+ap^2) v_si),
        # independent of both tau_p and z_p
        base = make_case(include_g=False)
        t = base.tpsa
        expected = (t.c_phi_sq * math.exp(-2.0 * t.f0) * 2.0 * math.pi
                    / (math.sqrt(1.0 + base.pump.a_p**2) * t.v_si))
        assert pair_rate(t).pairs_per_s == pytest.approx(expected, rel=1e-12, abs=0)
        for kwargs in (dict(tau_p=3e-13), dict(z_p=4e-5),
                       dict(tau_p=7e-13, z_p=2e-5)):
            other = make_case(include_g=False, **kwargs).tpsa
            assert pair_rate(other).pairs_per_s == pytest.approx(expected, rel=1e-12, abs=0)

    def test_general_equals_simplified_without_corrections(self, random_cases):
        # without corrections the rate's determinant D_fr equals its
        # sign-definite expansion, so N = |C|^2 e^(-2 f0) pi Z_p tau_p
        # / ((1 + ap^2) sqrt(D))
        for case in random_cases(12, seed=7, chirp=True, include_g=False):
            t, p = case.tpsa, case.pump
            simplified = (t.c_phi_sq * math.exp(-2.0 * t.f0) * math.pi * p.z_p * p.tau_p
                          / ((1.0 + p.a_p**2) * math.sqrt(_d_sign_definite(case))))
            assert pair_rate(t).pairs_per_s == pytest.approx(simplified, rel=1e-10, abs=0)

    def test_reference_rate_and_per_pulse(self, make_case):
        case = make_case()
        rate = pair_rate(case.tpsa)
        # frozen value; the amplitude built on an mpmath material reproduces it
        reference = 16414.486707644206
        assert rate.pairs_per_s == pytest.approx(reference, rel=1e-9, abs=0)
        oracle_mp = mp_material_point(case.wg, case.omega_s0, case.omega_i0)
        assert pair_rate(assemble_tpsa(oracle_mp, case.pump, case.filt)).pairs_per_s \
            == pytest.approx(reference, rel=1e-12, abs=0)
        assert rate.per_pulse == pytest.approx(rate.pairs_per_s / 8e7, rel=1e-12, abs=0)
        # headline targets: within a factor 3 (dispersion-model dependent)
        assert 1e4 <= rate.pairs_per_s <= 9e4
        assert 3.8e-4 / 3 <= rate.per_pulse <= 3.8e-4 * 3

    def test_quadrature_oracle(self, make_case):
        t = make_case(sigma_s=2e13, sigma_i=5e13, a_p=0.6, dtilde_theta=5e-17).tpsa
        assert pair_rate(t).pairs_per_s == pytest.approx(
            oracle.quad_norm(t), rel=1e-6, abs=0)

    def test_invalid_form_rejected(self, make_case):
        t = make_case().tpsa
        object.__setattr__(t, "f2si", complex(1.0))  # bypass the guarded ctor
        with pytest.raises(NonNormalizable):
            pair_rate(t)


class TestSpectrum:
    def test_unfiltered_simplified_width(self, make_case):
        # sigma_ws = sqrt(2)/v_si * sqrt(1/Zp^2 + (1+ap^2) V_pi^2/tau^2)
        case = make_case(a_p=0.9, include_g=False)
        t, p = case.tpsa, case.pump
        expected = (math.sqrt(2.0) / t.v_si
                    * math.sqrt(1.0 / p.z_p**2
                                + (1.0 + p.a_p**2) * t.v_pi**2 / p.tau_p**2))
        assert spectrum(t, "s").sigma_omega == pytest.approx(expected, rel=1e-12, abs=0)

    def test_cw_limit(self, make_case):
        case = make_case(tau_p=5e-10, include_g=False)
        t = case.tpsa
        cw = math.sqrt(2.0) / (t.v_si * case.pump.z_p)
        assert spectrum(t, "s").sigma_omega == pytest.approx(cw, rel=1e-6, abs=0)
        assert spectrum(t, "i").sigma_omega == pytest.approx(cw, rel=1e-6, abs=0)

    def test_moment_convention_against_oracle(self, random_cases):
        # second central moment of the |Phi|^2 marginal equals sigma/sqrt(2)
        for case in random_cases(8, seed=11, chirp=True):
            params = spectrum(case.tpsa, "s")
            marg = oracle.numeric_marginal(case.tpsa, "s")
            assert marg.sigma_e1 == pytest.approx(params.sigma_omega, rel=1e-4, abs=0)
            params_i = spectrum(case.tpsa, "i")
            marg_i = oracle.numeric_marginal(case.tpsa, "i")
            assert marg_i.sigma_e1 == pytest.approx(params_i.sigma_omega, rel=1e-4, abs=0)

    def test_peak_amplitude_against_oracle(self, random_cases, make_case):
        # a Gaussian of norm N and 1/e half-width sigma peaks at N/(sqrt(pi) sigma);
        # the last case is a short-pulse, wide-beam corner
        cases = random_cases(6, seed=13, chirp=True)
        for case in cases + [make_case(tau_p=3.7e-15, z_p=2.7e-4, a_p=-2.7)]:
            rate = pair_rate(case.tpsa).pairs_per_s
            for field, omega0 in (("s", case.omega_s0), ("i", case.omega_i0)):
                marg = oracle.numeric_marginal(case.tpsa, field)
                peak = HBAR * omega0 * marg.norm / (math.sqrt(math.pi) * marg.sigma_e1)
                params = spectrum(case.tpsa, field)
                assert params.amplitude == pytest.approx(peak, rel=1e-6, abs=0)
                # the spectrum integrates to the hbar*omega-weighted pair rate
                assert params.amplitude * math.sqrt(math.pi) * params.sigma_omega \
                    == pytest.approx(HBAR * omega0 * rate, rel=1e-14, abs=0)

    def test_center_shift_matches_oracle(self, make_case):
        t = make_case().tpsa  # corrections on -> nonzero linear coefficients
        params = spectrum(t, "s")
        marg = oracle.numeric_marginal(t, "s")
        assert params.delta_omega0 != 0.0
        assert marg.shift == pytest.approx(params.delta_omega0,
                                           abs=1e-6 * params.sigma_omega)

    def test_filters_only_shrink(self, make_case):
        base = spectrum(make_case().tpsa, "s").sigma_omega
        for sigma in (1e14, 3e13, 1e13):
            filtered = spectrum(make_case(sigma_s=sigma, sigma_i=sigma).tpsa, "s")
            assert filtered.sigma_omega < base
            base = filtered.sigma_omega

    def test_monotone_in_pump_knobs(self, make_case):
        taus = (3e-14, 1e-13, 3e-13, 1e-12)
        widths = [spectrum(make_case(tau_p=tp).tpsa, "s").sigma_omega for tp in taus]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        zps = (2e-6, 1e-5, 5e-5, 2e-4)
        widths = [spectrum(make_case(z_p=zp).tpsa, "s").sigma_omega for zp in zps]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestWidthRatio:
    def test_symmetric_case_is_unity(self, make_case):
        ratio = width_ratio(make_case().tpsa)
        assert ratio.f == pytest.approx(1.0, rel=1e-12, abs=0)
        assert ratio.sigma_ratio_si == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_ratio_identities(self, random_cases):
        # F = f2s^r/f2i^r equals the squared idler/signal width ratio
        for case in random_cases(10, seed=23):
            r = width_ratio(case.tpsa)
            s_s = spectrum(case.tpsa, "s").sigma_omega
            s_i = spectrum(case.tpsa, "i").sigma_omega
            assert r.f == pytest.approx(s_i**2 / s_s**2, rel=1e-12, abs=0)
            assert r.sigma_ratio_si == pytest.approx(s_s / s_i, rel=1e-12, abs=0)

    def test_angular_dispersion_reaches_large_ratios(self, make_case):
        # V_ps ~ 0 at the matched angular dispersion: signal spectrum broadens
        from counterpairs.dispersion import pump_wavevector

        case = make_case(z_p=1e-4)
        v_s = 1.0 / (-case.tpsa.v_ps)
        dtilde = 1.0 / (pump_wavevector(case.wg.model,
                                        case.omega_s0 + case.omega_i0) * v_s)
        tuned = make_case(z_p=1e-4, dtilde_theta=dtilde)
        r = width_ratio(tuned.tpsa)
        assert r.sigma_ratio_si > 5.0


class TestAsymptotics:
    # unfiltered limits: sigma_cw = sqrt(2)/(v_si Z_p) for cw pumping and
    # sigma_inf = sqrt(2) |V_pi| sqrt(1+ap^2)/(v_si tau_p) for wide beams
    def test_wide_beam_limit(self, make_case):
        case = make_case(z_p=1e-13 * 1.4e8 * 1e3, include_g=False)  # ~1000 v_s tau_p
        t, p = case.tpsa, case.pump
        scale = math.sqrt(2.0) * math.sqrt(1.0 + p.a_p**2) / (t.v_si * p.tau_p)
        sigma_s_inf = scale * abs(t.v_pi)
        sigma_i_inf = scale * abs(t.v_ps)
        assert spectrum(t, "s").sigma_omega == pytest.approx(sigma_s_inf, rel=1e-3, abs=0)
        assert spectrum(t, "i").sigma_omega == pytest.approx(sigma_i_inf, rel=1e-3, abs=0)

    def test_cw_limit_consistency(self, make_case):
        case = make_case(tau_p=1e-9, include_g=False)
        t = case.tpsa
        sigma_cw = math.sqrt(2.0) / (t.v_si * case.pump.z_p)
        assert spectrum(t, "s").sigma_omega == pytest.approx(sigma_cw, rel=1e-6, abs=0)


class TestConverters:
    def test_wavelength_width_round_trip(self):
        omega0 = 1.77e15
        sigma = 1.2e13
        lam_width = wavelength_width(omega0, sigma)
        back = lam_width * omega0**2 / (2.0 * math.pi * 299792458.0)
        assert back == pytest.approx(sigma, rel=1e-12, abs=0)
