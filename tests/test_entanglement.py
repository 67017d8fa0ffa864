"""Schmidt decomposition, entropy, separability design, and sensitivities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from counterpairs import oracle
from counterpairs.dispersion import group_velocity, pump_wavevector
from counterpairs.entanglement import (
    entropy,
    principal_axes,
    reduced_kernel,
    schmidt,
    schmidt_mode,
    separability_roots,
)
from counterpairs.errors import NonNormalizable, OutOfRange
from counterpairs.oracle import quad1d
from counterpairs.tpsa import build_tpsa, normalize
from conftest import p_from_f, p_from_kernel


class TestReducedKernel:
    def test_requires_normalized_input(self, make_case):
        with pytest.raises(NonNormalizable):
            reduced_kernel(make_case().tpsa)

    def test_separable_input_has_no_coupling(self, make_case):
        # on the design curve Z_p = v_s tau_p the cross coefficient vanishes
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        t = normalize(make_case(tau_p=1e-13, z_p=v_s * 1e-13,
                                include_g=False).tpsa)
        assert abs(t.f2si) < 1e-6 * abs(t.f2s)
        k = reduced_kernel(t)
        assert k.e2c <= 1e-12 * abs(k.e2)
        assert k.e2 == pytest.approx(t.f2s, rel=1e-9, abs=0)

    def test_real_coefficients_propagate(self, make_case):
        k = reduced_kernel(normalize(make_case().tpsa))
        assert k.e2.imag == 0.0

    def test_trace_normalization_by_quadrature(self, make_case):
        t = normalize(make_case(sigma_s=3e13, sigma_i=5e13).tpsa)
        k = reduced_kernel(t)
        gap = k.e2.real - k.e2c
        width = 1.0 / math.sqrt(gap)

        def diagonal(w):
            return k.c_psi_sq * np.exp(-2.0 * gap * w**2
                                       - 2.0 * k.e1.real * w)
        val, _ = quad1d(diagonal, (-12 * width, 12 * width), abs_tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestSchmidtSpectrum:
    def test_separable_state(self, make_case):
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        t = normalize(make_case(tau_p=1e-13, z_p=v_s * 1e-13,
                                include_g=False).tpsa)
        sch = schmidt(t)
        assert sch.vartheta == 0.0
        assert sch.entropy_bits == 0.0
        assert sch.n_min == 1 and sch.n_min_index == 0
        assert sch.lambda_sq(0) == 1.0 and sch.lambda_sq(3) == 0.0

    def test_half_vartheta_book_values(self):
        # theta = 1/2: entropy exactly 2 bits; cumulative sums
        # 0.5, 0.75, 0.875, 0.9375, 0.96875 cross 0.95 at raw index 4,
        # i.e. five modes
        assert entropy(0.5) == pytest.approx(2.0, abs=1e-12)
        from counterpairs.entanglement import _mode_count
        cums = [1.0 - 0.5 ** (k + 1) for k in range(5)]
        assert cums == pytest.approx([0.5, 0.75, 0.875, 0.9375, 0.96875])
        assert _mode_count(0.5, 0.95) == 5  # count convention (index 4)

    def test_entropy_series_vs_closed_form(self):
        for theta in np.arange(0.1, 0.95, 0.1):
            series = 0.0
            for n in range(10000):
                lam_sq = (1.0 - theta) * theta**n
                if lam_sq < 1e-300:  # series fully converged, avoid log(0)
                    break
                series -= lam_sq * math.log2(lam_sq)
            assert series == pytest.approx(entropy(float(theta)), abs=1e-10)

    def test_entropy_domain(self):
        assert entropy(0.0) == 0.0
        with pytest.raises(OutOfRange):
            entropy(1.0)
        with pytest.raises(OutOfRange):
            entropy(-0.1)

    def test_entropy_monotone_and_divergent(self):
        def se_of_p(p):
            theta = 1.0 / (1.0 + p + math.sqrt(p * p + 2.0 * p))
            return entropy(theta)
        ps = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        ses = [se_of_p(p) for p in ps]
        assert all(a > b for a, b in zip(ses, ses[1:]))
        assert se_of_p(1e-4) > 7.5       # 7.58 bits computed
        assert se_of_p(1e-6) > 10.0      # divergence toward p -> 0

    def test_svd_oracle(self, random_cases):
        # analytic geometric spectrum vs singular values of the sampled
        # amplitude; includes chirped pumps, which probe the Re(e2) choice
        compared = 0
        for case in random_cases(10, seed=101, chirp=True):
            t = normalize(case.tpsa)
            sch = schmidt(t)
            if sch.vartheta > 0.92:      # grid would need more than 512 points
                continue
            svals = oracle.numeric_schmidt(t, n_points=512)
            analytic = np.array([math.sqrt(sch.lambda_sq(n)) for n in range(6)])
            assert np.max(np.abs(svals[:6] - analytic)) < 1e-3
            compared += 1
        assert compared >= 7

    def test_chirp_increases_entanglement(self, make_case):
        plain = schmidt(normalize(make_case().tpsa))
        chirped = schmidt(normalize(make_case(a_p=1.2).tpsa))
        assert chirped.entropy_bits > plain.entropy_bits

    def test_asymmetry_diagnostics_agree(self, random_cases):
        for case in random_cases(10, seed=37):
            t = normalize(case.tpsa)
            p_kernel = p_from_kernel(reduced_kernel(t))
            p_direct = p_from_f(t)
            if math.isinf(p_kernel):
                assert math.isinf(p_direct)
            else:
                assert p_kernel == pytest.approx(p_direct, rel=1e-10, abs=0)
                assert p_kernel == pytest.approx(schmidt(t).p, rel=1e-10, abs=0)

    def test_filters_only_disentangle(self, make_case):
        sigmas = (None, 8e13, 4e13, 2e13, 1e13)
        entropies = []
        for s in sigmas:
            t = normalize(make_case(tau_p=1e-13, z_p=5e-6,
                                    sigma_s=s, sigma_i=s).tpsa)
            entropies.append(schmidt(t).entropy_bits)
        assert all(a >= b for a, b in zip(entropies, entropies[1:]))


class TestSchmidtModes:
    def test_ground_mode_gaussian(self):
        x = np.linspace(-4, 4, 401)
        phi0 = schmidt_mode(0.4, 0, x)
        assert np.all(phi0 > 0)
        assert phi0.argmax() == 200

    @pytest.mark.parametrize("n", range(7))
    def test_zero_counts(self, n):
        # even point count keeps the grid off x = 0, where odd modes vanish
        x = np.linspace(-8, 8, 4000)
        vals = schmidt_mode(0.35, n, x)
        signs = np.sign(vals)
        crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert crossings == n

    def test_orthonormality_by_quadrature(self):
        theta = 0.55
        scale = math.sqrt((1.0 - theta**2) / theta)
        lim = 14.0 / scale
        for m in range(5):
            for n in range(m, 5):
                val, _ = quad1d(lambda x: schmidt_mode(theta, m, x)
                                * schmidt_mode(theta, n, x),
                                (-lim, lim), abs_tol=1e-12)
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)

    def test_domain_guards(self):
        with pytest.raises(OutOfRange):
            schmidt_mode(0.0, 0, 0.0)
        with pytest.raises(OutOfRange):
            schmidt_mode(0.5, -1, 0.0)


class TestPrincipalAxes:
    def test_no_cross_term_means_axis_aligned(self, make_case):
        # symmetric separable point: the isotropic form reports psi = 0
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        t = make_case(tau_p=1e-13, z_p=v_s * 1e-13, include_g=False).tpsa
        assert principal_axes(t).psi_si == pytest.approx(0.0, abs=1e-12)
        # asymmetric filters split the diagonals; tuning the cross term away
        # with the angular-dispersion root drives psi -> 0 continuously
        case = make_case(z_p=3e-5, sigma_s=2e13, sigma_i=6e13, include_g=False)
        root = separability_roots(case.mp, case.pump, include_g=False).roots[0]
        angles = []
        for frac in (0.9, 0.99, 0.999, 1.0):
            t = make_case(z_p=3e-5, sigma_s=2e13, sigma_i=6e13,
                          dtilde_theta=frac * root, include_g=False).tpsa
            angles.append(abs(principal_axes(t).psi_si))
        assert angles[0] > angles[1] > angles[2] > angles[3]
        assert angles[3] < 1e-10

    def test_equal_diagonals_give_quarter_pi(self, make_case):
        t = make_case().tpsa  # symmetric: f2s = f2i, f2si > 0
        axes = principal_axes(t)
        assert abs(axes.psi_si) == pytest.approx(math.pi / 4.0, rel=1e-12, abs=0)
        assert axes.mu1 > axes.mu2

    def test_rotation_diagonalizes(self, random_cases):
        for case in random_cases(10, seed=53):
            t = case.tpsa
            a, b, c = t.f2s.real, t.f2i.real, t.f2si.real
            psi = principal_axes(t).psi_si
            co, si = math.cos(psi), math.sin(psi)
            off = 2.0 * (b - a) * si * co + c * (co**2 - si**2)
            assert abs(off) < 1e-10 * max(abs(a), abs(b))
            # eigenvalues preserved
            axes = principal_axes(t)
            diag1 = a * co**2 + b * si**2 + c * si * co
            diag2 = a * si**2 + b * co**2 - c * si * co
            assert sorted([diag1, diag2]) == pytest.approx(
                sorted([axes.mu1, axes.mu2]), rel=1e-10, abs=0)


class TestSeparabilityRoots:
    def test_design_point_double_root(self, make_case):
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        case = make_case(tau_p=1e-13, z_p=v_s * 1e-13, include_g=False)
        roots = separability_roots(case.mp, case.pump, include_g=False)
        assert len(roots.roots) == 1
        assert roots.roots[0] == pytest.approx(0.0, abs=1e-25)

    def test_symmetric_analytic_roots(self, make_case):
        # Z_p = 2 v_s tau_p: roots +- sqrt(3)/(2 v_s k_p0)
        tau_p = 1e-13
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        case = make_case(tau_p=tau_p, z_p=2.0 * v_s * tau_p, include_g=False)
        kp0 = pump_wavevector(case.wg.model, case.omega_s0 + case.omega_i0)
        expected = math.sqrt(3.0) / (2.0 * v_s * kp0)
        roots = separability_roots(case.mp, case.pump, include_g=False)
        assert sorted(roots.roots) == pytest.approx([-expected, expected], rel=1e-9, abs=0)

    @pytest.mark.parametrize("include_g", [False, True])
    def test_roots_cancel_the_cross_coefficient(self, make_case, include_g):
        case = make_case(z_p=3e-5, include_g=include_g)
        roots = separability_roots(case.mp, case.pump, include_g=include_g)
        assert len(roots.roots) == 2
        scale = abs(case.tpsa.f2s)
        for root in roots.roots:
            pump = replace(case.pump, dtilde_theta=root)
            t = build_tpsa(case.wg, pump, case.filt, case.omega_s0,
                           case.omega_i0, include_g=include_g)
            assert abs(t.f2si) < 1e-12 * scale

    def test_narrow_beam_has_no_roots(self, make_case):
        tau_p = 1e-13
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        case = make_case(tau_p=tau_p, z_p=0.5 * v_s * tau_p, include_g=False)
        roots = separability_roots(case.mp, case.pump, include_g=False)
        assert roots.roots == ()
        assert roots.min_feasible_z_p == pytest.approx(v_s * tau_p, rel=1e-12, abs=0)

    @pytest.mark.parametrize("include_g", [False, True])
    def test_min_feasible_width_is_the_threshold(self, random_cases, include_g):
        # random pumps narrowed to half their G-free threshold 2 tau_p / V_si;
        # roots appear exactly at the reported width, to 1e-9 either side
        for case in random_cases(50, seed=77, include_g=include_g):
            v_si = 1.0 / case.mp.v_s + 1.0 / case.mp.v_i
            pump = replace(case.pump, z_p=case.pump.tau_p / v_si)
            z_star = separability_roots(case.mp, pump,
                                        include_g=include_g).min_feasible_z_p
            assert z_star is not None
            below = replace(pump, z_p=z_star * (1.0 - 1e-9))
            above = replace(pump, z_p=z_star * (1.0 + 1e-9))
            assert separability_roots(case.mp, below, include_g=include_g).roots == ()
            assert len(separability_roots(case.mp, above, include_g=include_g).roots) == 2

    def test_on_curve_state_is_exactly_separable(self, make_case):
        v_s = group_velocity(make_case().wg, make_case().omega_s0, "guided")
        t = normalize(make_case(tau_p=2e-13, z_p=v_s * 2e-13,
                                include_g=False).tpsa)
        sch = schmidt(t)
        assert sch.vartheta == 0.0 and sch.entropy_bits == 0.0


class TestDerivatives:
    def test_signs(self, make_case):
        # chirp-free, D_f = D_fr; central differences of it in tau_p^2, Z_p^2
        # and the filter widths: longer pulses and wider beams separate the
        # pair (D_f grows), wider filters entangle it (D_f shrinks)
        base = dict(sigma_s=3e13, sigma_i=5e13, tau_p=1e-13, z_p=1e-5)
        d_fr = make_case(**base).tpsa.d_fr
        for knob, sign in (("tau_p", 1.0), ("z_p", 1.0),
                           ("sigma_s", -1.0), ("sigma_i", -1.0)):
            up = make_case(**{**base, knob: base[knob] * (1.0 + 1e-3)}).tpsa.d_fr
            down = make_case(**{**base, knob: base[knob] * (1.0 - 1e-3)}).tpsa.d_fr
            assert sign * (up - down) > 1e-6 * d_fr, knob
