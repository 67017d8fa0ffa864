"""Time-domain amplitude, fluxes, time-bandwidth relations, and the HOM dip."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from counterpairs import config, oracle, spectral, temporal, tpsa
from counterpairs.constants import HBAR
from counterpairs.dispersion import group_velocity
from counterpairs.errors import OutOfRange, SingularTransform
from counterpairs.temporal import (
    HomDip,
    _solve_dip_width,
    evaluate_time,
    flux,
    hom_curve,
    hom_params,
    time_bandwidth,
    time_domain,
)
from conftest import omega_of
from reference_oracles import dft_time_amplitude

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FIG2 = config.resolve_scenario(config.parse_config(
    Path(__file__).resolve().parents[1] / "configs" / "fig2.cfg"))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def _simpson(values, h, axis):
    w = np.ones(values.shape[axis])
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(values, w, axes=([axis], [0])) * h / 3.0


class TestTimeDomain:
    def test_chirp_free_duality(self, random_cases):
        # chirp-free: T = t2i/t2s equals the spectral asymmetry F, i.e. the
        # spectrally narrow field is the temporally long one and the
        # time-bandwidth products of the two fields coincide
        for case in random_cases(8, seed=3):
            td = time_domain(case.tpsa)
            f_ratio = case.tpsa.f2s.real / case.tpsa.f2i.real
            assert td.t2i / td.t2s == pytest.approx(f_ratio, rel=1e-10, abs=0)

    def test_no_linear_terms_without_corrections(self, make_case):
        td = time_domain(make_case(include_g=False, a_p=0.8).tpsa)
        assert td.t1s == 0.0 and td.t1i == 0.0
        assert flux(make_case(include_g=False).tpsa, "s").delta_tau0 == 0.0

    def test_dft_oracle_pointwise(self, make_case):
        # direct Riemann-sum transform of the spectral amplitude, 9 probes
        for kwargs in (dict(), dict(lambda_s=1.04e-6, a_p=0.5)):
            t = make_case(**kwargs).tpsa
            td = time_domain(t)
            probe_s = np.array([-1.5e-13, 0.0, 8e-14, 2e-13, -6e-14,
                                1e-13, 5e-14, -2e-13, 1.8e-13])
            probe_i = np.array([1e-13, 0.0, -5e-14, 1e-13, 1.2e-13,
                                -9e-14, 3e-14, 2e-13, -1.1e-13])
            numeric = dft_time_amplitude(t, probe_s, probe_i)
            analytic = evaluate_time(td, probe_s, probe_i)
            assert np.max(np.abs((numeric - analytic) / analytic)) < 1e-6

    def test_dft_oracle_random_sets(self, random_cases):
        probe_s = np.array([0.0, 6e-14, -1.2e-13])
        probe_i = np.array([0.0, -9e-14, 7e-14])
        for case in random_cases(10, seed=13, chirp=True):
            td = time_domain(case.tpsa)
            numeric = dft_time_amplitude(case.tpsa, probe_s, probe_i,
                                         n_points=1024, span=9.0)
            analytic = evaluate_time(td, probe_s, probe_i)
            peak = abs(evaluate_time(td, 0.0, 0.0))
            assert np.max(np.abs(numeric - analytic)) < 1e-6 * peak

    def test_singular_transform_guard(self, make_case):
        t = make_case().tpsa
        bad = object.__new__(type(t))
        for k, v in t.__dict__.items():
            object.__setattr__(bad, k, v)
        object.__setattr__(bad, "f2si", complex(
            2.0 * math.sqrt(t.f2s.real * t.f2i.real)))
        with pytest.raises(SingularTransform):
            time_domain(bad)


class TestFlux:
    def test_width_floor_is_pump_duration(self, random_cases):
        for case in random_cases(10, seed=5, chirp=False):
            sigma = flux(case.tpsa, "s").sigma_tau
            assert sigma >= case.pump.tau_p / math.sqrt(2.0) * (1.0 - 1e-12)

    def test_narrow_beam_limit(self, make_case):
        case = make_case(z_p=1e-8, include_g=False)
        assert flux(case.tpsa, "s").sigma_tau == pytest.approx(
            case.pump.tau_p / math.sqrt(2.0), rel=1e-4, abs=0)

    def test_simplified_width_formula(self, make_case):
        # sigma_tau_s = sqrt(tau^2/2 + 2/sigma_s^2 + Zp^2 V_ps^2/2), ap = 0
        sigma_s, sigma_i = 2e13, 6e13
        case = make_case(sigma_s=sigma_s, sigma_i=sigma_i, include_g=False)
        t, p = case.tpsa, case.pump
        expected = math.sqrt(p.tau_p**2 / 2.0 + 2.0 / sigma_s**2
                             + p.z_p**2 * t.v_ps**2 / 2.0)
        assert flux(t, "s").sigma_tau == pytest.approx(expected, rel=1e-12, abs=0.0)
        expected_i = math.sqrt(p.tau_p**2 / 2.0 + 2.0 / sigma_i**2
                               + p.z_p**2 * t.v_pi**2 / 2.0)
        assert flux(t, "i").sigma_tau == pytest.approx(expected_i, rel=1e-12, abs=0.0)

    def test_monotone_grid_and_femtosecond_scale(self, make_case):
        taus = (3e-14, 1e-13, 3e-13)
        zps = (3e-6, 1e-5, 5e-5)
        widths = [[flux(make_case(tau_p=tp, z_p=zp).tpsa, "s").sigma_tau
                   for zp in zps] for tp in taus]
        for row in widths:
            assert all(a < b for a, b in zip(row, row[1:]))
        for col in zip(*widths):
            assert all(a < b for a, b in zip(col, col[1:]))
        assert 1e-14 < widths[0][0] < widths[-1][-1] < 1e-12

    def test_width_against_time_marginal_oracle(self, random_cases):
        for case in random_cases(6, seed=17, chirp=True):
            td = time_domain(case.tpsa)
            for field in ("s", "i"):
                closed = flux(case.tpsa, field).sigma_tau
                numeric = oracle.numeric_time_marginal(td, field).sigma_e1
                assert numeric == pytest.approx(closed, rel=1e-4, abs=0)

    def test_peak_amplitude_against_time_marginal_oracle(self, random_cases, make_case):
        # a Gaussian of norm N and 1/e half-width sigma peaks at N/(sqrt(pi) sigma);
        # the last case is a short-pulse, wide-beam corner
        cases = random_cases(6, seed=19, chirp=True)
        for case in cases + [make_case(tau_p=3.7e-15, z_p=2.7e-4, a_p=-2.7)]:
            td = time_domain(case.tpsa)
            rate = spectral.pair_rate(case.tpsa).pairs_per_s
            for field, omega0 in (("s", case.omega_s0), ("i", case.omega_i0)):
                marg = oracle.numeric_time_marginal(td, field)
                peak = HBAR * omega0 * marg.norm / (math.sqrt(math.pi) * marg.sigma_e1)
                params = flux(case.tpsa, field)
                assert params.amplitude == pytest.approx(peak, rel=1e-6, abs=0)
                # the flux integrates to the same hbar*omega-weighted pair rate
                assert params.amplitude * math.sqrt(math.pi) * params.sigma_tau \
                    == pytest.approx(HBAR * omega0 * rate, rel=1e-14, abs=0)


class TestTimeBandwidth:
    def test_ratio_unity_chirp_free(self, random_cases):
        for case in random_cases(8, seed=29):
            assert time_bandwidth(case.tpsa).ratio == pytest.approx(1.0, rel=1e-10, abs=0)

    def test_symmetric_minimum_product(self, make_case):
        v_s = group_velocity(make_case().wg, omega_of(1.064e-6), "guided")
        tau_p = 1e-13
        t = make_case(tau_p=tau_p, z_p=v_s * tau_p, include_g=False).tpsa
        tb = time_bandwidth(t)
        assert tb.product_s == pytest.approx(1.0, rel=1e-10, abs=0)
        assert tb.product_i == pytest.approx(1.0, rel=1e-10, abs=0)

    def test_product_formula_and_cw_growth(self, make_case):
        v_s = group_velocity(make_case().wg, omega_of(1.064e-6), "guided")
        products = []
        for tau_p in (1e-13, 4e-13, 1.6e-12):
            case = make_case(tau_p=tau_p, include_g=False)
            z_p = case.pump.z_p
            expected = 0.5 * (v_s * tau_p / z_p + z_p / (v_s * tau_p))
            tb = time_bandwidth(case.tpsa)
            assert tb.product_s == pytest.approx(expected, rel=1e-6, abs=0)
            assert tb.product_s >= 1.0
            products.append(tb.product_s)
        assert products[0] < products[1] < products[2]

    @staticmethod
    def _counted(monkeypatch, homes) -> dict:
        """Count the calls of each (module, name), through every package module
        that binds it."""
        counts = {}
        for home, name in homes:
            original, counts[name] = getattr(home, name), 0

            def counted(*args, name=name, original=original, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("counterpairs")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_scenario_forms_each_field_marginal_once(self, monkeypatch):
        # one norm per section that reads it (rate, spectra, flux), and one
        # time-domain form for both fluxes; the public per-field functions,
        # which form their own, are not called
        counts = self._counted(monkeypatch, ((spectral, "spectrum"), (temporal, "flux"),
                                             (temporal, "time_domain"), (tpsa, "l2_norm")))
        cfg = Path(__file__).resolve().parents[1] / "configs" / "fig2.cfg"
        config.compute_scenario(config.resolve_scenario(config.parse_config(cfg)))
        assert counts == {"spectrum": 0, "flux": 0, "time_domain": 1, "l2_norm": 3}

    def test_forms_one_time_domain_and_one_norm(self, monkeypatch, make_case):
        t = make_case(a_p=0.8).tpsa
        want = time_bandwidth(t)
        counts = self._counted(monkeypatch, ((temporal, "time_domain"), (tpsa, "l2_norm")))
        assert time_bandwidth(t) == want
        assert counts == {"time_domain": 1, "l2_norm": 1}


class TestHom:
    def test_symmetric_full_visibility(self, make_case):
        dip = hom_params(make_case().tpsa)
        assert dip.a == pytest.approx(1.0, abs=1e-12)
        assert dip.visibility == pytest.approx(1.0, abs=1e-12)
        assert dip.beat == 0.0

    # fig2 is degenerate at normal incidence: f2s == f2i and f1s == f1i
    # exactly, so the exchange overlap is the norm itself. Drawn over the fig2
    # map's pump settings and a wider Z_p, chirped, filtered or not, with and
    # without G. The examples are 0.52 fs cells where D_fr is 1e-9 to 1e-12
    # of 4 f2s^r f2i^r: two exponents rounded apart would differ there by
    # up to 1e-5. The last two have no filter and direct exponents x_d of about
    # 830 and 20,000: exp of either alone overflows, exp(x_x - x_d) is 1.
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(tau_p=_log_uniform(1e-14, 2e-12), z_p=_log_uniform(1e-7, 1e-1),
           a_p=st.floats(-3.0, 3.0), sigma=st.none() | _log_uniform(1e12, 1e15),
           include_g=st.booleans())
    @example(tau_p=5.2e-16, z_p=10**-2.5, a_p=0.0, sigma=None, include_g=True)
    @example(tau_p=5.2e-16, z_p=10**-1.75, a_p=0.0, sigma=None, include_g=True)
    @example(tau_p=5.2e-16, z_p=0.1, a_p=0.0, sigma=None, include_g=True)
    @example(tau_p=4.553031110651367e-16, z_p=6.105984254515654e-3, a_p=2.471155416298339,
             sigma=None, include_g=True)
    @example(tau_p=3.013944726982899e-16, z_p=1.2176344522478952e-6, a_p=1.5700906780484123,
             sigma=None, include_g=True)
    def test_exchange_symmetric_amplitude_has_unit_contrast(self, tau_p, z_p, a_p, sigma,
                                                            include_g):
        sc = replace(FIG2, include_g=include_g)
        for key, value in (("pump.tau_p", tau_p), ("pump.Z_p", z_p), ("pump.a_p", a_p),
                           ("filters.sigma_both", sigma)):
            if value is not None:
                sc = config.apply_sweep_value(sc, key, value)
        t = config.build_scenario_tpsa(sc)
        assert t.f2s == t.f2i and t.f1s == t.f1i
        dip = hom_params(t)
        assert (dip.a, dip.visibility) == (1.0, 1.0)

    def test_cw_limit_restores_contrast(self, make_case):
        # asymmetric angular dispersion lowers a; lengthening the pulse heals it
        contrasts = [hom_params(make_case(tau_p=tp, dtilde_theta=1.2e-16).tpsa).a
                     for tp in (1e-13, 1e-12, 1e-11)]
        assert contrasts[0] < contrasts[1] < contrasts[2]
        assert contrasts[2] > 0.999

    def test_unfiltered_contrast_formula(self, make_case):
        case = make_case(dtilde_theta=1.2e-16, include_g=False)
        t, p = case.tpsa, case.pump
        vsum = t.v_ps + t.v_pi
        expected = (1.0 + p.z_p**2 * (1.0 + p.a_p**2) * vsum**2
                    / (4.0 * p.tau_p**2)) ** -0.5
        assert hom_params(t).a == pytest.approx(expected, rel=1e-12, abs=0)

    def test_b_depends_only_on_beam_width_and_filters(self, make_case):
        ref = hom_params(make_case(include_g=False).tpsa).b
        for kwargs in (dict(tau_p=5e-13), dict(dtilde_theta=1e-16),
                       dict(a_p=0.9)):
            b = hom_params(make_case(include_g=False, **kwargs).tpsa).b
            assert b == pytest.approx(ref, rel=1e-12, abs=0)
        expected = 1.0 / (make_case().pump.z_p**2 * make_case().tpsa.v_si**2 / 2.0)
        assert ref == pytest.approx(expected, rel=1e-12, abs=0)
        sigma_s, sigma_i = 2e13, 3e13
        filtered = hom_params(make_case(sigma_s=sigma_s, sigma_i=sigma_i,
                                        include_g=False).tpsa)
        case = make_case(sigma_s=sigma_s, sigma_i=sigma_i)
        expected_f = 1.0 / (2.0 / sigma_s**2 + 2.0 / sigma_i**2
                            + case.pump.z_p**2 * case.tpsa.v_si**2 / 2.0)
        assert filtered.b == pytest.approx(expected_f, rel=1e-12, abs=0)

    def test_b_from_coefficient_combination(self, random_cases):
        for case in random_cases(8, seed=31, include_g=False):
            t = case.tpsa
            direct = 1.0 / (2.0 * (t.f2s.real + t.f2i.real - t.f2si.real))
            assert hom_params(t).b == pytest.approx(direct, rel=1e-10, abs=0)

    def test_curve_asymptotics_and_floor(self, make_case):
        t = make_case(dtilde_theta=9e-17).tpsa
        dip = hom_params(t)
        assert hom_curve(t, 0.0) == pytest.approx(1.0 - dip.a, rel=1e-12, abs=0)
        assert hom_curve(t, 1e-9) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert 1.0 - dip.a >= 0.0
        # split centrals: cos(beat tau_l) has no value this far out, so no R_n does
        cfg = GOLDEN / "scenario" / "fig2_split_dtilde.cfg"
        split = config.build_scenario_tpsa(config.resolve_scenario(config.parse_config(cfg)))
        with pytest.raises(OutOfRange) as info:
            hom_curve(split, 2.059138588039198e295)
        assert str(info.value) == "R_n at tau_l = 2.059138588039198e+295 s is nan, not finite"

    def test_floor_nonnegative_over_random_sets(self, random_cases):
        for case in random_cases(12, seed=41, chirp=True):
            dip = hom_params(case.tpsa)
            assert 0.0 <= 1.0 - dip.a < 1.0
            if case.omega_s0 == case.omega_i0:
                assert hom_curve(case.tpsa, 0.0) == pytest.approx(
                    1.0 - dip.a, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kwargs", [
        dict(dtilde_theta=1.2e-16),           # asymmetric contrast, a < 1
        dict(dtilde_theta=8e-17, a_p=0.7),    # chirped pump
    ])
    def test_overlap_quadrature_oracle(self, make_case, kwargs):
        # direct double integral of the exchange overlap of the time-domain
        # amplitude, 21 delays across the dip (degenerate pairs)
        case = make_case(**kwargs)
        t = case.tpsa
        td = time_domain(t)
        dip = hom_params(t)
        span = 6.0 * max(flux(t, "s").sigma_tau, flux(t, "i").sigma_tau)
        axis = np.linspace(-span, span, 801)
        h = axis[1] - axis[0]
        ta = axis[:, None]
        tb = axis[None, :]
        norm = _simpson(_simpson(np.abs(evaluate_time(td, ta, tb)) ** 2, h, 1), h, 0)
        for tau_l in np.linspace(-2.5 * dip.delta_tau_l, 2.5 * dip.delta_tau_l, 21):
            overlap = (evaluate_time(td, ta, tb - tau_l)
                       * np.conj(evaluate_time(td, tb, ta - tau_l)))
            rho = _simpson(_simpson(overlap.real, h, 1), h, 0) / norm
            assert 1.0 - rho == pytest.approx(hom_curve(t, float(tau_l)), abs=1e-5)


class TestDipWidth:
    def test_degenerate_closed_form(self, make_case):
        dip = hom_params(make_case().tpsa)
        assert dip.delta_tau_l == pytest.approx(
            2.0 * math.sqrt(math.log(2.0) / dip.b), rel=1e-12, abs=0)

    def test_bisection_agrees_with_closed_form(self, make_case):
        # force the bracketing path with a tiny artificial beat
        dip = hom_params(make_case().tpsa)
        tiny_beat = 1e-4 * math.sqrt(dip.b)
        numeric = _solve_dip_width(dip.b, tiny_beat)
        closed = 2.0 * math.sqrt(math.log(2.0) / dip.b)
        assert numeric == pytest.approx(closed, rel=1e-8, abs=0)

    def test_beat_oscillation_narrows_the_dip(self, make_case):
        t = make_case(lambda_s=1.055e-6).tpsa
        dip = hom_params(t)
        assert dip.beat != 0.0
        assert dip.delta_tau_l < 2.0 * math.sqrt(math.log(2.0) / dip.b)
        # the solution satisfies the defining half-depth condition
        assert hom_curve(t, dip.delta_tau_l / 2.0) == pytest.approx(
            1.0 - dip.a / 2.0, abs=1e-8 * dip.a)

    def test_pulse_duration_independence(self, make_case):
        widths = [hom_params(make_case(tau_p=tp, include_g=False).tpsa).delta_tau_l
                  for tp in (4e-14, 1e-13, 6e-13, 2e-12)]
        for w in widths[1:]:
            assert w == pytest.approx(widths[0], rel=1e-10, abs=0)

    def test_monotone_in_beam_width(self, make_case):
        widths = [hom_params(make_case(z_p=zp).tpsa).delta_tau_l
                  for zp in (2e-6, 1e-5, 5e-5, 2e-4)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_invariants_guarded(self):
        with pytest.raises(OutOfRange):
            HomDip(a=1.5, b=1e25, visibility=1.0, beat=0.0, delta_tau_l=1e-13)
        with pytest.raises(OutOfRange):
            HomDip(a=0.5, b=-1.0, visibility=1.0 / 3.0, beat=0.0, delta_tau_l=1e-13)
