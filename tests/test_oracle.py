"""The verifiers themselves: quadrature, special functions, exact amplitude."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import counterpairs as cp
from counterpairs import config, oracle
from counterpairs.errors import ExponentOverflow, GridTooCoarse, QuadratureNotConverged
from counterpairs.oracle import (
    dft_time_amplitude,
    erf_rational,
    exact_phi1p,
    hermite_poly,
    numeric_marginal,
    numeric_schmidt,
    quad1d,
    quad2d,
    quad_norm,
)
from counterpairs.spectral import pair_rate, spectrum
from counterpairs.temporal import evaluate_time, flux, time_domain
from counterpairs.tpsa import evaluate, normalize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestQuadrature:
    def test_known_gaussian_integral(self):
        # independent anchor: a hand-checkable 2-D Gaussian with cross term
        a, b, c = 2.0, 3.0, 1.5

        def f(x, y):
            return np.exp(-(a * x**2 + b * y**2 + c * x * y))

        val, err = quad2d(f, (-10, 10), (-10, 10), abs_tol=1e-12)
        exact = 2.0 * math.pi / math.sqrt(4 * a * b - c**2)
        assert val == pytest.approx(exact, rel=1e-12, abs=0)
        assert err < 1e-12

    def test_1d_anchor(self):
        val, _ = quad1d(lambda x: np.exp(-x * x), (-12, 12), abs_tol=1e-13)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-13, abs=0)

    def test_budget_exhaustion(self):
        def nasty(x, y):
            return np.cos(40.0 * x) * np.cos(40.0 * y) + 1e-4 / (1e-8 + x**2 + y**2)

        with pytest.raises(QuadratureNotConverged):
            quad2d(nasty, (-50, 50), (-50, 50), abs_tol=1e-16, max_cells=64)

    def test_refinement_stability(self, make_case):
        # tightening the tolerance by 100x moves the answer by < 10x of it
        t = make_case(sigma_s=3e13, sigma_i=4e13).tpsa
        loose = quad_norm(t, abs_tol=1e-6 * pair_rate(t).pairs_per_s)
        tight = quad_norm(t, abs_tol=1e-8 * pair_rate(t).pairs_per_s)
        assert abs(loose - tight) < 10 * 1e-6 * pair_rate(t).pairs_per_s


class TestQuadNorm:
    def test_matches_general_rate(self, random_cases):
        for case in random_cases(6, seed=71, chirp=True):
            n = pair_rate(case.tpsa).pairs_per_s
            assert quad_norm(case.tpsa) == pytest.approx(n, rel=1e-6, abs=0)

    def test_normalized_amplitude_integrates_to_one(self, make_case):
        t = normalize(make_case(a_p=0.4).tpsa)
        assert quad_norm(t) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_scaling_in_amplitude_constant(self, make_case):
        t = make_case().tpsa
        doubled = replace(t, c_phi_sq=4.0 * t.c_phi_sq)  # |C| doubled
        assert quad_norm(doubled) == pytest.approx(4.0 * quad_norm(t), rel=1e-9, abs=0)


class TestNumericMarginal:
    def test_symmetric_fields_identical(self, make_case):
        t = make_case().tpsa
        m_s = numeric_marginal(t, "s")
        m_i = numeric_marginal(t, "i")
        assert m_s.norm == pytest.approx(m_i.norm, rel=1e-10, abs=0)
        assert m_s.sigma_e1 == pytest.approx(m_i.sigma_e1, rel=1e-10, abs=0)

    def test_center_shift_resolution(self, make_case):
        t = make_case().tpsa  # corrections on: nonzero linear coefficients
        params = spectrum(t, "s")
        marg = numeric_marginal(t, "s")
        assert abs(marg.shift - params.delta_omega0) < 1e-6 * params.sigma_omega

    def test_norm_equals_rate(self, make_case):
        t = make_case(sigma_s=2.5e13, sigma_i=7e13).tpsa
        assert numeric_marginal(t, "s").norm == pytest.approx(
            pair_rate(t).pairs_per_s, rel=1e-8, abs=0)


class TestRealDensity:
    """The marginal oracles integrate scale * exp(-2q), with q the real
    quadratic form read from the coefficients; it must be |amplitude|^2."""

    @staticmethod
    def _sheared_grid(form, field, n=65, span=8.0):
        # the oracle's own frame: +-span marginal widths of the field, and
        # +-span conditional widths of the partner at each of its points
        cx, sx, k, m, w = oracle._shear(form, field)
        t = np.linspace(-span, span, n)
        x = (cx + sx * t)[:, None]
        p = k * x + m + w * t[None, :]
        return (x, p) if field == "s" else (p, x)

    @staticmethod
    def _cases(random_cases):
        cases = random_cases(12, seed=41, chirp=True)
        ts = [c.tpsa for c in cases]
        assert any(t.a_p != 0.0 for t in ts)
        assert any(c.filt.sigma_s is not None for c in cases)
        assert any(t.omega_s0 != t.omega_i0 for t in ts)
        return ts

    def test_spectral_density_is_abs_evaluate_squared(self, random_cases):
        for t in self._cases(random_cases):
            form = oracle._spectral_form(t)
            for field in ("s", "i"):
                xs, xi = self._sheared_grid(form, field)
                ws, wi = t.omega_s0 + xs, t.omega_i0 + xi
                want = np.abs(evaluate(t, ws, wi)) ** 2
                got = oracle._density(form, ws - t.omega_s0, wi - t.omega_i0)
                assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    def test_time_density_is_abs_evaluate_time_squared(self, random_cases):
        # Along a ridge the terms of Re q cancel, and evaluate_time's complex
        # arithmetic rounds them differently from the expanded form (against
        # 50 digits, evaluate_time is off by up to 3.4e-14 of the peak and
        # the expansion by 6.7e-14), so the error is bounded relative to the
        # peak, which also bounds its share of the integral.
        for t in self._cases(random_cases):
            td = time_domain(t)
            form = oracle._time_form(td)
            for field in ("s", "i"):
                xs, xi = self._sheared_grid(form, field)
                want = np.abs(evaluate_time(td, xs, xi)) ** 2
                got = oracle._density(form, xs, xi)
                assert np.max(np.abs(got - want)) <= 2e-13 * np.max(want)

    def test_exponent_guard(self):
        form = (1.0, (0.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0, -701.0))
        with pytest.raises(ExponentOverflow):
            oracle._density(form, np.zeros(3), np.zeros(3))


def _fig2_map_cell(i, j):
    raw = config.parse_config(CONFIG_DIR / "fig2_sweep.cfg")
    spec = config.parse_sweep(raw)
    point = config.apply_sweep_value(config.resolve_scenario(raw), spec.axis1.param,
                                     spec.axis1.values[i])
    point = config.apply_sweep_value(point, spec.axis2.param, spec.axis2.values[j])
    return config.build_scenario_tpsa(point)


class TestRidgeCells:
    """Corners of the fig2 map (tau_p near 10 fs with wide beams, near 2 ps
    with narrow ones), where the amplitude is a thin diagonal ridge. A grid
    aligned with the field axes fails its halving test on these cells, and
    puts quad_norm 0.24-0.42 % off on (23, 0) and (0, 23)."""

    @pytest.mark.parametrize("cell", [(0, 18), (0, 23), (5, 23), (16, 0), (23, 0), (23, 7)])
    def test_marginal_widths_converge(self, cell):
        t = _fig2_map_cell(*cell)
        td = time_domain(t)
        for field in ("s", "i"):
            m = numeric_marginal(t, field, n_points=1537)
            assert m.sigma_e1 == pytest.approx(spectrum(t, field).sigma_omega, rel=1e-4, abs=0)
            m = oracle.numeric_time_marginal(td, field, n_points=1537)
            assert m.sigma_e1 == pytest.approx(flux(t, field).sigma_tau, rel=1e-4, abs=0)

    @pytest.mark.parametrize("cell", [(0, 23), (23, 0)])
    def test_quad_norm_matches_rate(self, cell):
        t = _fig2_map_cell(*cell)
        assert quad_norm(t) == pytest.approx(pair_rate(t).pairs_per_s, rel=1e-6, abs=0)


class TestNumericSchmidt:
    def test_separable_amplitude_is_rank_one(self, make_case):
        from counterpairs.dispersion import group_velocity
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        t = normalize(make_case(tau_p=1e-13, z_p=v_s * 1e-13,
                                include_g=False).tpsa)
        svals = numeric_schmidt(t, n_points=256)
        assert svals[0] >= 0.9999

    def test_geometric_progression_ratios(self, make_case):
        t = normalize(make_case(tau_p=4e-13, z_p=5e-6).tpsa)
        svals = numeric_schmidt(t, n_points=512)
        ratios = svals[1:7] / svals[:6]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-3

    def test_matches_analytic_base(self, make_case):
        t = normalize(make_case(tau_p=4e-13, z_p=5e-6).tpsa)
        sch = cp.schmidt(t)
        svals = numeric_schmidt(t, n_points=512)
        assert svals[1] / svals[0] == pytest.approx(
            math.sqrt(sch.vartheta), abs=1e-3)

    def test_grid_guards(self, make_case):
        t = normalize(make_case().tpsa)
        with pytest.raises(ValueError):
            numeric_schmidt(t, n_points=128)
        with pytest.raises(GridTooCoarse):
            numeric_schmidt(t, n_points=256, span=1.5)


class TestExactAmplitude:
    def test_central_value_matches_gaussian_form(self, make_case):
        # constants reconcile exactly once the per-pulse amplitude is scaled
        # by sqrt(f_rep)
        case = make_case()
        t = case.tpsa
        exact = exact_phi1p(case.wg, case.pump, case.omega_s0, case.omega_i0)
        gauss = evaluate(t, case.omega_s0, case.omega_i0)
        assert math.sqrt(case.pump.f_rep) * abs(exact) == pytest.approx(
            abs(gauss), rel=1e-12, abs=0)

    def test_phase_matching_argument_vanishes_at_centrals(self, make_case):
        from counterpairs.dispersion import beta, pump_wavevector
        case = make_case(lambda_s=1.03e-6)
        k_p = pump_wavevector(case.wg.model, case.omega_s0 + case.omega_i0)
        mismatch = (k_p * math.sin(case.pump.theta_p0)
                    - beta(case.wg, case.omega_s0)
                    + beta(case.wg, case.omega_i0))
        assert abs(mismatch) < 1e-12 * k_p

    def test_gaussian_approximation_within_two_widths(self, make_case):
        # shape-normalized deviation of the quadratic-form amplitude from the
        # no-Taylor one; regression value frozen at 1.13% for the reference
        # scenario, bound 5%
        case = make_case()
        t = case.tpsa
        sig = spectrum(t, "s").sigma_omega
        g0 = abs(evaluate(t, case.omega_s0, case.omega_i0))
        e0 = abs(exact_phi1p(case.wg, case.pump, case.omega_s0, case.omega_i0))
        deviations = []
        for a in np.linspace(-2, 2, 21):
            for b in np.linspace(-2, 2, 21):
                ws = case.omega_s0 + a * sig
                wi = case.omega_i0 + b * sig
                gauss = abs(evaluate(t, ws, wi)) / g0
                exact = abs(exact_phi1p(case.wg, case.pump, ws, wi)) / e0
                deviations.append(abs(gauss / exact - 1.0))
        worst = max(deviations)
        assert worst < 0.05
        assert worst == pytest.approx(0.01133, abs=0.0005)  # regression

    def test_deviation_grows_with_detuning(self, make_case):
        case = make_case()
        t = case.tpsa
        sig = spectrum(t, "s").sigma_omega
        g0 = abs(evaluate(t, case.omega_s0, case.omega_i0))
        e0 = abs(exact_phi1p(case.wg, case.pump, case.omega_s0, case.omega_i0))

        def dev(scale):
            ws = case.omega_s0 + scale * sig
            gauss = abs(evaluate(t, ws, case.omega_i0)) / g0
            exact = abs(exact_phi1p(case.wg, case.pump, ws, case.omega_i0)) / e0
            return abs(gauss / exact - 1.0)

        assert dev(0.5) < dev(1.0) < dev(2.0)


class TestSpecialFunctions:
    def test_erf_against_stdlib(self):
        xs = np.concatenate([np.linspace(-6, 6, 1201), [-26.5, 26.5, 0.0]])
        worst = max(abs(erf_rational(float(x)) - math.erf(float(x))) for x in xs)
        assert worst < 1e-15

    def test_erf_against_series(self):
        # independent Maclaurin check at small arguments
        for x in (0.05, 0.2, 0.4):
            series = 0.0
            for k in range(30):
                series += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
            series *= 2.0 / math.sqrt(math.pi)
            assert erf_rational(x) == pytest.approx(series, abs=1e-15)

    def test_hermite_low_orders(self):
        x = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(hermite_poly(0, x), np.ones_like(x))
        assert np.allclose(hermite_poly(1, x), 2 * x)
        assert np.allclose(hermite_poly(2, x), 4 * x**2 - 2)
        assert np.allclose(hermite_poly(3, x), 8 * x**3 - 12 * x)
        assert np.allclose(hermite_poly(4, x), 16 * x**4 - 48 * x**2 + 12)
        assert np.allclose(hermite_poly(5, x), 32 * x**5 - 160 * x**3 + 120 * x)


class TestDft:
    def test_convergence_under_grid_refinement(self, make_case):
        t = make_case().tpsa
        probes = (np.array([5e-14]), np.array([-3e-14]))
        coarse = dft_time_amplitude(t, *probes, n_points=512)
        fine = dft_time_amplitude(t, *probes, n_points=1024)
        assert abs(coarse[0] - fine[0]) / abs(fine[0]) < 1e-9
