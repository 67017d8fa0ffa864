"""The verifiers themselves: quadrature, special functions, exact amplitude."""

import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import counterpairs as cp
from counterpairs import config, oracle
from counterpairs.errors import ExponentOverflow, GridTooCoarse, QuadratureNotConverged
from counterpairs.oracle import numeric_marginal, numeric_schmidt, quad_norm
from counterpairs.spectral import pair_rate, spectrum
from counterpairs.temporal import evaluate_time, flux, time_domain
from counterpairs.tpsa import _EXP_GUARD, evaluate, normalize
from reference_oracles import (density, dft_time_amplitude, erf_rational, exact_phi1p,
                               exponent, gk_rate, quad1d, quad2d)

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

    @pytest.mark.parametrize("integrate", [
        lambda f: quad2d(f, (-50, 50), (-50, 50), abs_tol=1e-16, max_cells=64),
        lambda f: quad1d(f, (-50, 50), abs_tol=1e-16, max_cells=64),
    ], ids=["quad2d", "quad1d"])
    def test_budget_exhaustion(self, integrate):
        def nasty(x, y=0.0):
            return np.cos(40.0 * x) * np.cos(40.0 * y) + 1e-4 / (1e-8 + x**2 + y**2)

        with pytest.raises(QuadratureNotConverged):
            integrate(nasty)

    def test_refinement_stability(self, make_case):
        # tightening the tolerance by 100x moves the answer by < 10x of it
        t = make_case(sigma_s=3e13, sigma_i=4e13).tpsa
        loose = gk_rate(t, abs_tol=1e-6 * pair_rate(t).pairs_per_s)
        tight = gk_rate(t, abs_tol=1e-8 * pair_rate(t).pairs_per_s)
        assert abs(loose - tight) < 10 * 1e-6 * pair_rate(t).pairs_per_s


class TestQuadNorm:
    # the package's Simpson rate and the tests' Gauss-Kronrod one
    @pytest.mark.parametrize("integrate", [quad_norm, gk_rate], ids=["simpson", "gauss-kronrod"])
    def test_matches_general_rate(self, random_cases, integrate):
        for case in random_cases(6, seed=71, chirp=True):
            n = pair_rate(case.tpsa).pairs_per_s
            assert integrate(case.tpsa) == pytest.approx(n, rel=1e-6, abs=0)

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

    # 1535 is odd, but its halved grid of 768 points is not
    @pytest.mark.parametrize("n_points", [1535, 1536])
    def test_point_count_must_be_4k_plus_1(self, make_case, n_points):
        t = make_case().tpsa
        td = time_domain(t)
        with pytest.raises(ValueError, match=r"n_points must be 4k \+ 1"):
            numeric_marginal(t, "s", n_points=n_points)
        with pytest.raises(ValueError, match=r"n_points must be 4k \+ 1"):
            oracle.numeric_time_marginal(td, "s", n_points=n_points)


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
        assert any(c.pump.a_p != 0.0 for c in cases)
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
                got = density(form, ws - t.omega_s0, wi - t.omega_i0)
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
                got = density(form, xs, xi)
                assert np.max(np.abs(got - want)) <= 2e-13 * np.max(want)

    def test_exponent_guard(self):
        form = (1.0, (0.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0, -701.0))
        with pytest.raises(ExponentOverflow):
            density(form, np.zeros(3), np.zeros(3))


def _fig2_map_cell(i, j):
    raw = config.parse_config(CONFIG_DIR / "fig2_sweep.cfg")
    spec = config.parse_sweep(raw)
    point = config.apply_sweep_value(config.resolve_scenario(raw), spec.axis1.param,
                                     spec.axis1.values[i])
    point = config.apply_sweep_value(point, spec.axis2.param, spec.axis2.values[j])
    return config.build_scenario_tpsa(point)


@pytest.fixture(scope="module")
def fig2():
    return config.build_scenario_tpsa(
        config.resolve_scenario(config.parse_config(CONFIG_DIR / "fig2.cfg")))


class TestRidgeCells:
    """Corners of the fig2 map (tau_p near 10 fs with wide beams, near 2 ps
    with narrow ones), where the amplitude is a thin diagonal ridge. A grid
    aligned with the field axes fails its halving test on these cells, and
    put the adaptive Gauss-Kronrod rate 0.24-0.42 % off on (23, 0) and
    (0, 23)."""

    CELLS = [(0, 18), (0, 23), (5, 23), (16, 0), (23, 0), (23, 7)]

    @pytest.mark.parametrize("cell", CELLS)
    def test_marginal_widths_converge(self, cell):
        t = _fig2_map_cell(*cell)
        td = time_domain(t)
        for field in ("s", "i"):
            m = numeric_marginal(t, field, n_points=1537)
            assert m.sigma_e1 == pytest.approx(spectrum(t, field).sigma_omega, rel=1e-4, abs=0)
            m = oracle.numeric_time_marginal(td, field, n_points=1537)
            assert m.sigma_e1 == pytest.approx(flux(t, field).sigma_tau, rel=1e-4, abs=0)

    @pytest.mark.parametrize("cell", CELLS)
    def test_quad_norm_matches_rate(self, cell):
        t = _fig2_map_cell(*cell)
        assert quad_norm(t) == pytest.approx(pair_rate(t).pairs_per_s, rel=1e-6, abs=0)
        # the rate grid is converged far below the gate, not just under it
        assert numeric_marginal(t, "s", n_points=oracle._RATE_POINTS).conv_error <= 1e-12


def _whole_grid_marginal(form, field, n_points, span=8.0):
    """The marginal without row blocking, kept as a reference: the
    whole sheared grid of -2q at once, from the same per-row expansion in
    three passes (an outer product, a row added, a column subtracted),
    reduced along its rows."""

    def simpson_rows(values, h):
        w = np.ones(values.shape[1])
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return np.tensordot(values, w, axes=([1], [0])) * (h / 3.0)

    t = np.linspace(-span, span, n_points)
    x, w, alpha, beta, gamma = oracle._row_expansion(form, field, t)
    q2 = np.multiply.outer(-2.0 * beta, t) + (-2.0 * gamma * t**2) - 2.0 * alpha[:, None]
    worst = float(q2.max())
    if worst > _EXP_GUARD:
        raise ExponentOverflow(f"-2q = {worst:.3g} exceeds {_EXP_GUARD}")
    dens = form[0] * np.exp(q2)
    h_p, h_x = w * (t[1] - t[0]), x[1] - x[0]
    marginal = simpson_rows(dens, h_p)
    norm, mean, var = oracle._moments(x, marginal, h_x)
    coarse = simpson_rows(dens[::2, ::2], 2.0 * h_p)
    c_norm, _, c_var = oracle._moments(x[::2], coarse, 2.0 * h_x)
    conv = max(abs(c_norm / norm - 1.0), abs(c_var / var - 1.0))
    if conv > 1e-6:
        raise QuadratureNotConverged(f"marginal moments changed by {conv:.3g} under grid halving")
    own0 = form[1][0 if field == "s" else 1]
    return oracle.MarginalResult(field=field, axis=own0 + x, values=marginal, norm=norm,
                                 mean=own0 + mean, sigma_e1=math.sqrt(2.0 * var),
                                 shift=mean, conv_error=conv)


class TestBlockedMarginal:
    """_marginal forms and reduces the sheared grid a block of rows at a time;
    it must give what the whole grid gives."""

    @pytest.fixture(scope="class")
    def forms(self, random_cases):
        built = random_cases(12, seed=43, chirp=True)
        assert any(c.pump.a_p != 0.0 for c in built)
        cases = [c.tpsa for c in built]
        cases += [_fig2_map_cell(*cell) for cell in TestRidgeCells.CELLS]
        return [form for t in cases
                for form in (oracle._spectral_form(t), oracle._time_form(time_domain(t)))]

    # after its full blocks, a last one of 1 row (1537 points) or 17 rows (257, 1001)
    @pytest.mark.parametrize("n_points", [1537, 257, 1001])
    def test_matches_the_whole_grid(self, forms, n_points):
        for form in forms:
            for field in ("s", "i"):
                want = _whole_grid_marginal(form, field, n_points)
                got = oracle._marginal(form, field, n_points)
                assert np.array_equal(got.axis, want.axis)
                assert got.norm == pytest.approx(want.norm, rel=1e-14, abs=0)
                assert got.sigma_e1 == pytest.approx(want.sigma_e1, rel=1e-14, abs=0)
                # a time marginal's mean is zero up to roundoff: its scale is the width
                scale = 1e-14 * want.sigma_e1
                assert got.mean == pytest.approx(want.mean, rel=1e-14, abs=scale)
                assert got.shift == pytest.approx(want.shift, rel=1e-14, abs=scale)
                assert np.max(np.abs(got.values / want.values - 1.0)) <= 1e-14
                assert abs(got.conv_error - want.conv_error) <= 1e-12

    @pytest.mark.parametrize("c,x_first,message", [
        # only the last row, so only the last block, passes the guard on -2q
        (-351.0, -32000.0, "-2q = 702 exceeds"),
        # every row does, the first block already; the worst is the last row
        (-2000.0, -10.0, "-2q = 4e+03 exceeds"),
    ], ids=["last-block", "every-block"])
    def test_guard_checks_each_block_before_its_exp(self, monkeypatch, c, x_first, message):
        # q = x^2 + p^2 + c, deepest at x = 0, which the frame puts on the last row
        form = (1.0, (0.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0, c))
        n, span = 1001, 8.0
        sx = -x_first / (2.0 * span)
        monkeypatch.setattr(oracle, "_shear",
                            lambda form, field: (x_first + span * sx, sx, 0.0, 0.0, math.sqrt(0.5)))
        with np.errstate(over="raise"):
            with pytest.raises(ExponentOverflow) as got:
                oracle._marginal(form, "s", n)
            with pytest.raises(ExponentOverflow) as want:
                _whole_grid_marginal(form, "s", n, span)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)

    # fig2's amplitude with f0 replaced: |Phi|^2 = exp(-2q) over- or underflows
    # at -q = 400 (-2q = 800) and at -q = -400, where exp(-q) alone does not
    @pytest.mark.parametrize("f0,message", [
        (-400.0, "-2q = 800 exceeds"),
        (400.0, "the sampled mass 0.0 leaves double range"),
    ], ids=["overflow", "underflow"])
    def test_marginals_raise_where_the_density_leaves_double_range(self, fig2, f0, message):
        t = replace(fig2, f0=f0)
        with np.errstate(over="raise"):     # the guard stops the exp that would overflow
            for oracle_call in (quad_norm, numeric_marginal):
                with pytest.raises(ExponentOverflow, match=message):
                    oracle_call(t)

    def test_the_rate_holds_just_inside_the_guard(self, fig2):
        # -2q = 600 at the peak: exp is finite and the norm is 5.75e267
        t = replace(fig2, f0=-300.0)
        assert quad_norm(t) == pytest.approx(pair_rate(t).pairs_per_s, rel=1e-6, abs=0)
        assert pair_rate(t).pairs_per_s == pytest.approx(5.7507137990732e267, rel=1e-12)

    def test_peak_memory_of_one_marginal(self, make_case):
        # the whole 1537^2 grid took 56.8 MB; a block of rows stays far below 4 MB
        t = make_case(a_p=0.5, sigma_s=3e13, sigma_i=4e13).tpsa
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            numeric_marginal(t, "s", n_points=1537)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_peak_memory_of_the_sampled_amplitude(self, make_case):
        # the 512^2 complex grid is 4.19 MB; evaluate holds at most it and
        # one full-size term (out of place it took three grids, 12.6 MB)
        t = normalize(make_case(a_p=0.5, sigma_s=3e13, sigma_i=4e13).tpsa)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            oracle.sample_grid(t, 512, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 512 * 512 * 16


class TestRowExpansion:
    """A marginal reads q on each row of its sheared grid as
    alpha + beta t + gamma t^2 about the partner's conditional centre p0; it
    evaluates q's full form only on 1-D arrays, never per grid point."""

    @staticmethod
    def _worst_errors(form, field, x, p0, w, t, approximations):
        """The worst |q - q50| of each approximation (one value per node x[a],
        p0[a] + w t[b]), q50 being q at that exact node to 50 digits."""
        worst = [mpmath.mpf(0)] * len(approximations)
        with mpmath.workdps(50):
            a_s, a_i, a_si, b_s, b_i, c = (mpmath.mpf(v) for v in form[2])
            for a, b in np.ndindex(len(x), len(t)):
                own = mpmath.mpf(x[a])
                node = mpmath.mpf(p0[a]) + mpmath.mpf(w) * mpmath.mpf(t[b])
                xs, xi = (own, node) if field == "s" else (node, own)
                q50 = a_s * xs**2 + a_i * xi**2 + a_si * xs * xi + b_s * xs + b_i * xi + c
                worst = [max(e, abs(mpmath.mpf(float(q[a, b])) - q50))
                         for e, q in zip(worst, approximations)]
        return worst

    def test_as_accurate_as_the_expanded_form_at_50_digits(self, random_cases):
        # A grid node (x, p0 + w t) is exact in the floats x, p0, w and t; the
        # expanded form first rounds p to a float, the expansion does not.
        # On the ridge cells the expanded form is off by up to 4e-10, where
        # its terms cancel; the expansion stays within 2e-14.
        ts = [c.tpsa for c in random_cases(12, seed=41, chirp=True)]
        ts += [_fig2_map_cell(*cell) for cell in TestRidgeCells.CELLS]
        n, rng = 1537, np.random.default_rng(7)
        t = np.linspace(-8.0, 8.0, n)
        for tp in ts:
            for form in (oracle._spectral_form(tp), oracle._time_form(time_domain(tp))):
                for field in ("s", "i"):
                    _, _, k, m, w = oracle._shear(form, field)
                    x, _, r, c = oracle._row_factors(form, field, t)
                    i, j = rng.choice(n, 8, replace=False), rng.choice(n, 16, replace=False)
                    # the marginal's own arithmetic for -2q, its product of
                    # row and column factors, halved (exactly)
                    expansion = -0.5 * np.matmul(r[i], c[:, j])
                    p0 = k * x[i] + m
                    p = p0[:, None] + w * t[j]
                    expanded = (exponent(form, x[i, None], p) if field == "s"
                                else exponent(form, p, x[i, None]))
                    new, old = self._worst_errors(form, field, x[i], p0, w, t[j],
                                                  (expansion, expanded))
                    assert new <= 1.25 * old

    def test_full_form_only_on_rows(self, monkeypatch, make_case):
        form = oracle._spectral_form(make_case(a_p=0.5, sigma_s=3e13, sigma_i=4e13).tpsa)
        n, sizes = 1537, []
        dot2 = oracle._dot2

        def spy_dot2(terms):
            sizes.append(max(np.size(f) for factors in terms for f in factors))
            return dot2(terms)

        monkeypatch.setattr(oracle, "_dot2", spy_dot2)
        oracle._marginal(form, "s", n)
        assert sizes and max(sizes) <= n


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

    # |Phi| = exp(-q) passes evaluate's guard; its square, the sampled mass, does not
    @pytest.mark.parametrize("f0,mass", [(-400.0, "inf"), (400.0, "0.0")],
                             ids=["overflow", "underflow"])
    @pytest.mark.filterwarnings("error")        # the typed error alone, no numpy warning
    def test_raises_where_the_density_leaves_double_range(self, fig2, f0, mass):
        with pytest.raises(ExponentOverflow, match=f"the sampled mass {mass} leaves"):
            numeric_schmidt(replace(fig2, f0=f0), n_points=256)

    # (tau_p, z_p, a_p) with vartheta 0.85-0.92, where the spectrum decays slowest
    HIGH_VARTHETA = [(5.68e-13, 3e-6, 0.8), (7.21e-13, 3e-6, 0.8), (9.14e-13, 3e-6, -1.2),
                     (1.87e-12, 1e-5, -1.2), (2.37e-12, 1e-5, 0.8), (1e-14, 3e-5, -1.2)]

    @pytest.fixture(scope="class")
    def high_vartheta(self, make_case):
        cases = [normalize(make_case(tau_p=tau, z_p=z_p, a_p=a_p).tpsa)
                 for tau, z_p, a_p in self.HIGH_VARTHETA]
        assert all(0.85 <= cp.schmidt(t).vartheta <= 0.92 for t in cases)
        return cases

    def test_matches_the_full_svd(self, random_cases, high_vartheta):
        # criterion 2's first 12 cases
        cases = [t for t in (normalize(c.tpsa) for c in random_cases(70, seed=204, chirp=True))
                 if cp.schmidt(t).vartheta <= 0.9][:12]
        for t in cases + high_vartheta:
            got = numeric_schmidt(t)
            assert len(got) == 8
            assert np.max(np.abs(got - _full_svd_schmidt(t)[:8])) <= 1e-12

    def test_is_deterministic(self, high_vartheta):
        t = high_vartheta[2]
        assert np.array_equal(numeric_schmidt(t), numeric_schmidt(t))

    def test_step_cap_raises(self, monkeypatch, high_vartheta):
        monkeypatch.setattr(oracle, "_SCHMIDT_MAX_STEPS", 1)
        with pytest.raises(QuadratureNotConverged):
            numeric_schmidt(high_vartheta[-1])

    def test_flush_keeps_every_product_normal(self):
        small = math.sqrt(np.finfo(float).tiny)
        x = np.array([5e-324, -1e-310, 1e-200, -0.99 * small, small, -small, 1e-100, -1.0, 0.0])
        assert np.array_equal(oracle._flush(x), [0.0] * 4 + [small, -small, 1e-100, -1.0, 0.0])
        products = np.abs(np.multiply.outer(x, x))
        assert np.all((products == 0.0) | (products >= np.finfo(float).tiny))

    def test_leaves_complex_exp_fast(self, high_vartheta):
        # On OpenBLAS a complex matrix product can leave every later complex
        # exp 15-40x slower until another BLAS call; numeric_schmidt must not.
        x = np.linspace(-1.0, 1.0, 65536) * (1.0 + 1.0j)

        def exp_s():
            times = []
            for _ in range(7):
                start = time.perf_counter()
                np.exp(x)
                times.append(time.perf_counter() - start)
            return float(np.median(times))

        np.ones((64, 64)) @ np.ones((64, 64))       # start from the clean state
        before = exp_s()
        numeric_schmidt(high_vartheta[0])
        assert exp_s() < 5.0 * before


def _full_svd_schmidt(tpsa, n_points=512, span=5.0):
    """The Schmidt oracle as it was before subspace iteration, kept as a
    reference: every singular value of the sampled amplitude by a full SVD,
    scaled so their squares sum to one."""
    svals = np.linalg.svd(oracle.sample_grid(tpsa, n_points, span)[2], compute_uv=False)
    return svals / math.sqrt(float((svals**2).sum()))


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


class TestDft:
    def test_convergence_under_grid_refinement(self, make_case):
        t = make_case().tpsa
        probes = (np.array([5e-14]), np.array([-3e-14]))
        coarse = dft_time_amplitude(t, *probes, n_points=512)
        fine = dft_time_amplitude(t, *probes, n_points=1024)
        assert abs(coarse[0] - fine[0]) / abs(fine[0]) < 1e-9
