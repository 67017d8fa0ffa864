"""Assembly and transforms of the Gaussian two-photon amplitude."""

import math
from dataclasses import replace

import numpy as np
import pytest

import counterpairs as cp
from counterpairs import oracle
from counterpairs.constants import C_LIGHT
from counterpairs.dispersion import group_velocity, index_derivative
from counterpairs.errors import (
    ExponentOverflow,
    NonNormalizable,
    PhaseMatchViolated,
    TotalInternalReflection,
)
from counterpairs.tpsa import (
    _EXP_GUARD,
    build_tpsa,
    external_dispersion,
    internal_dispersion,
    l2_norm,
)
from reference_oracles import sample_grid


class TestCoefficientAssembly:
    def test_degenerate_symmetric_cross_term(self, make_case):
        # theta = 0, no angular dispersion, no filters, corrections off:
        # f2si = tau^2/2 + V_ps V_pi Z^2/2 with V_ps = -1/v_s, V_pi = +1/v_i
        case = make_case(include_g=False)
        v_s = group_velocity(case.wg, case.omega_s0, "guided")
        v_i = group_velocity(case.wg, case.omega_i0, "guided")
        t = case.tpsa
        assert t.v_ps == pytest.approx(-1.0 / v_s, rel=1e-12, abs=0)
        assert t.v_pi == pytest.approx(1.0 / v_i, rel=1e-12, abs=0)
        expected = (case.pump.tau_p**2 / 2.0
                    + t.v_ps * t.v_pi * case.pump.z_p**2 / 2.0)
        assert t.f2si.real == pytest.approx(expected, rel=1e-12, abs=0)
        assert t.f2si.imag == 0.0

    def test_chirp_free_coefficients_are_real(self, make_case):
        t = make_case(a_p=0.0).tpsa
        assert t.f2s.imag == t.f2i.imag == t.f2si.imag == 0.0

    def test_chirp_imaginary_parts(self, make_case):
        a_p = 0.8
        case = make_case(a_p=a_p)
        t = case.tpsa
        expected = -case.pump.tau_p**2 * a_p / (4.0 * (1.0 + a_p**2))
        assert t.f2s.imag == pytest.approx(expected, rel=1e-12, abs=0)
        assert t.f2i.imag == pytest.approx(expected, rel=1e-12, abs=0)
        assert t.f2si.imag == pytest.approx(2.0 * expected, rel=1e-12, abs=0)

    def test_reference_scenario_fixture(self, make_case):
        # frozen from the build with closed-form material derivatives of the
        # 0.532 um -> 2 x 1.064 um scenario (tau_p = 100 fs, Z_p = Y_p = Ly =
        # 10 um, i.e. configs/fig2.cfg), corrections on; test_material checks
        # the same amplitude built on an mpmath material to 1e-12, and
        # test_oracle checks it against the no-Taylor amplitude
        t = make_case().tpsa
        assert t.f2s.real == pytest.approx(3.909071425159718e-27, rel=1e-9, abs=0)
        assert t.f2si.real == pytest.approx(2.1818310611972954e-27, rel=1e-9, abs=0)
        assert t.f1s.real == pytest.approx(1.1324442393221781e-15, rel=1e-8, abs=0)
        assert t.f0 == pytest.approx(3.4168121278756742, rel=1e-9, abs=0)
        assert t.c_phi_sq == pytest.approx(0.0364139915428416, rel=1e-9, abs=0)
        assert t.g_s == pytest.approx(-1.4529734917798547e-32, rel=1e-9, abs=0)
        assert t.g_si == pytest.approx(2.9709865673361048e-33, rel=1e-9, abs=0)

    def test_corrections_are_small_here(self, make_case):
        t = make_case().tpsa
        assert abs(t.g_s) < 1e-4 * abs(t.f2s)
        assert abs(t.g_si) < 1e-4 * abs(t.f2si)

    def test_filter_terms_enter_diagonals_only(self, make_case):
        sigma = 2e13
        plain = make_case(include_g=False).tpsa
        filtered = make_case(sigma_s=sigma, sigma_i=sigma, include_g=False).tpsa
        assert (filtered.f2s - plain.f2s).real == pytest.approx(1.0 / sigma**2, rel=1e-12, abs=0)
        assert (filtered.f2i - plain.f2i).real == pytest.approx(1.0 / sigma**2, rel=1e-12, abs=0)
        assert filtered.f2si == plain.f2si

    def test_phase_match_precondition(self, make_case):
        case = make_case()
        bad_pump = replace(case.pump, theta_p0=0.05)
        with pytest.raises(PhaseMatchViolated):
            build_tpsa(case.wg, bad_pump, case.filt, case.omega_s0, case.omega_i0)

    def test_energy_conservation_precondition(self, make_case):
        case = make_case()
        bad_pump = replace(case.pump, lambda_p0=0.530e-6)
        with pytest.raises(PhaseMatchViolated):
            build_tpsa(case.wg, bad_pump, case.filt, case.omega_s0, case.omega_i0)

    def test_quadratic_form_invariant(self, make_case):
        t = make_case().tpsa
        with pytest.raises(NonNormalizable):
            replace(t, f2si=complex(10.0 * math.sqrt(4.0 * t.f2s.real * t.f2i.real)))

    def test_label_swap_symmetry(self, make_case):
        # relabeling signal <-> idler flips the z axis: theta and the angular
        # dispersion change sign, f2s <-> f2i, V_ps <-> -V_pi, D_fr invariant
        dt = 8e-17
        fwd = make_case(lambda_s=1.03e-6, dtilde_theta=dt,
                        sigma_s=3e13, sigma_i=5e13)
        swapped = make_case(
            lambda_s=2.0 * math.pi * 299792458.0 / fwd.omega_i0,
            dtilde_theta=-dt, sigma_s=5e13, sigma_i=3e13)
        assert swapped.pump.theta_p0 == pytest.approx(-fwd.pump.theta_p0, rel=1e-12, abs=0)
        assert swapped.tpsa.f2s == pytest.approx(fwd.tpsa.f2i, rel=1e-10, abs=0)
        assert swapped.tpsa.f2i == pytest.approx(fwd.tpsa.f2s, rel=1e-10, abs=0)
        assert swapped.tpsa.f2si == pytest.approx(fwd.tpsa.f2si, rel=1e-10, abs=0)
        assert swapped.tpsa.v_ps == pytest.approx(-fwd.tpsa.v_pi, rel=1e-10, abs=0)
        assert swapped.tpsa.v_pi == pytest.approx(-fwd.tpsa.v_ps, rel=1e-10, abs=0)
        assert swapped.tpsa.f1s == pytest.approx(fwd.tpsa.f1i, rel=1e-8, abs=0)
        assert swapped.tpsa.d_fr == pytest.approx(fwd.tpsa.d_fr, rel=1e-10, abs=0)


class TestVCoefficients:
    def test_zero_angle_reduction(self, make_case):
        case = make_case()
        vc = cp.v_coefficients(case.mp, case.pump)
        v_s = group_velocity(case.wg, case.omega_s0, "guided")
        v_i = group_velocity(case.wg, case.omega_i0, "guided")
        assert vc.v_ps == pytest.approx(-1.0 / v_s, rel=1e-12, abs=0)
        assert vc.v_pi == pytest.approx(1.0 / v_i, rel=1e-12, abs=0)

    def test_v_si_pump_independent(self, make_case):
        case = make_case()
        base = cp.v_coefficients(case.mp, case.pump)
        for pump in (replace(case.pump, tau_p=3e-13),
                     replace(case.pump, z_p=5e-5),
                     replace(case.pump, dtilde_theta=1e-16)):
            vc = cp.v_coefficients(case.mp, pump)
            assert vc.v_si == base.v_si
            if pump.dtilde_theta:
                assert vc.v_ps != base.v_ps

    def test_separability_root_makes_products_cancel(self, make_case):
        # at the angular-dispersion root, V_ps V_pi = -tau^2/Z^2 so the cross
        # coefficient vanishes; at Z_p = v_s tau_p the root is zero and
        # V_ps = -V_pi exactly
        case = make_case(z_p=3e-5, include_g=False)
        roots = cp.separability_roots(case.mp, case.pump, include_g=False)
        assert len(roots.roots) == 2
        for root in roots.roots:
            pump = replace(case.pump, dtilde_theta=root)
            vc = cp.v_coefficients(case.mp, pump)
            assert vc.v_ps * vc.v_pi == pytest.approx(
                -case.pump.tau_p**2 / case.pump.z_p**2, rel=1e-9, abs=0)
        v_s = group_velocity(case.wg, case.omega_s0, "guided")
        sym = make_case(z_p=v_s * 1e-13, include_g=False)
        vc = cp.v_coefficients(sym.mp, sym.pump)
        assert vc.v_ps == pytest.approx(-vc.v_pi, rel=1e-9, abs=0)


class TestNormConstant:
    def test_linear_in_power(self, make_case):
        case = make_case()
        c1 = cp.pair_norm_constant(case.mp, case.pump)
        c2 = cp.pair_norm_constant(case.mp, replace(case.pump, p_p=2.5))
        assert c2 == pytest.approx(2.5 * c1, rel=1e-13, abs=0)

    def test_wide_aperture_scaling(self, make_case):
        # erf(Ly/2Yp) -> Ly/(sqrt(pi) Yp), so |C|^2 ~ 1/(pi Yp) for wide pumps
        case = make_case()
        wide = [cp.pair_norm_constant(case.mp, replace(case.pump, y_p=y))
                for y in (1e-2, 2e-2)]
        assert wide[0] / wide[1] == pytest.approx(2.0, rel=1e-4, abs=0)
        ly = case.wg.ly
        limit = cp.pair_norm_constant(case.mp, replace(case.pump, y_p=1e-2))
        exact_small_arg = limit * (1e-2 / case.pump.y_p) \
            * (math.erf(ly / (2 * case.pump.y_p))
               / (ly / (math.sqrt(math.pi) * case.pump.y_p))) ** 2
        ref = cp.pair_norm_constant(case.mp, case.pump)
        assert exact_small_arg == pytest.approx(ref, rel=1e-6, abs=0)


class TestEvaluate:
    def test_central_value(self, make_case):
        t = make_case(include_g=False).tpsa
        val = cp.evaluate(t, t.omega_s0, t.omega_i0)
        assert abs(val) == pytest.approx(
            math.sqrt(t.c_phi_sq) * t.prefactor * math.exp(-t.f0), rel=1e-12, abs=0)

    def test_detuning_ratio_identity(self, make_case):
        t = make_case(a_p=0.5).tpsa
        delta = 5e12
        ratio = (cp.evaluate(t, t.omega_s0 + delta, t.omega_i0)
                 / cp.evaluate(t, t.omega_s0, t.omega_i0))
        expected = np.exp(-t.f2s * delta**2 - t.f1s * delta)
        assert ratio == pytest.approx(expected, rel=1e-12, abs=0)

    def test_peak_at_centrals_when_no_linear_terms(self, make_case):
        t = make_case(include_g=False, dtilde_theta=5e-17).tpsa
        assert t.f1s == 0.0
        sig = math.sqrt(2.0 * t.f2i.real / t.d_fr)
        grid = np.linspace(-4 * sig, 4 * sig, 41)
        vals = np.abs(cp.evaluate(t, t.omega_s0 + grid[:, None],
                                  t.omega_i0 + grid[None, :]))
        k = np.unravel_index(np.argmax(vals), vals.shape)
        assert k == (20, 20)

    def test_exponent_guard(self, make_case):
        t = replace(make_case().tpsa, f1s=complex(-3.5e-12))
        peak = t.omega_s0 + 3.5e-12 / (2.0 * t.f2s.real)
        with pytest.raises(ExponentOverflow):
            cp.evaluate(t, peak, t.omega_i0)


def _evaluate_out_of_place(tpsa, omega_s, omega_i):
    """evaluate as one out-of-place expression, kept as the reference for
    the in-place accumulation."""
    ds = np.asarray(omega_s, dtype=float) - tpsa.omega_s0
    di = np.asarray(omega_i, dtype=float) - tpsa.omega_i0
    phi = np.asarray(tpsa.f2s * ds**2 + tpsa.f2i * di**2 + tpsa.f2si * ds * di
                     + tpsa.f1s * ds + tpsa.f1i * di + tpsa.f0)
    worst = float(np.max(-phi.real))
    if worst > _EXP_GUARD:
        raise ExponentOverflow(
            f"-Re(phi) = {worst:.3g} exceeds {_EXP_GUARD}; "
            "amplitude coefficients are not credible"
        )
    out = math.sqrt(tpsa.c_phi_sq) * tpsa.prefactor * np.exp(-phi)
    return out if out.ndim else complex(out)


def _bits(z):
    return np.asarray(z).tobytes()


class TestEvaluateInPlace:
    """evaluate sums phi's terms in place, in the order the out-of-place
    expression adds them, and negates, exponentiates and scales in place."""

    @pytest.fixture
    def tpsa(self, make_case):
        return cp.normalize(make_case(a_p=0.5, sigma_s=3e13, sigma_i=4e13).tpsa)

    def test_a_broadcast_grid_bit_for_bit(self, tpsa):
        # +-40 marginal widths: exp underflows through the subnormals to zero
        ws, wi, _ = sample_grid(tpsa, 512, 40.0)
        saved = ws.tobytes(), wi.tobytes()
        want = _evaluate_out_of_place(tpsa, ws[:, None], wi[None, :])
        got = cp.evaluate(tpsa, ws[:, None], wi[None, :])
        assert (ws.tobytes(), wi.tobytes()) == saved
        assert got.shape == want.shape == (512, 512) and got.dtype == want.dtype
        assert np.any(got == 0.0) and np.any((got.real != 0.0) & (abs(got.real) < 2.3e-308))
        assert _bits(got) == _bits(want)

    def test_equal_shape_arrays_bit_for_bit(self, tpsa):
        ws, wi, _ = sample_grid(tpsa, 512, 5.0)
        saved = ws.tobytes(), wi.tobytes()
        got = cp.evaluate(tpsa, ws, wi[::-1])
        assert (ws.tobytes(), wi.tobytes()) == saved
        assert got.shape == (512,)
        assert _bits(got) == _bits(_evaluate_out_of_place(tpsa, ws, wi[::-1]))
        # On an array under numpy's 256 KiB temporary-elision threshold the
        # out-of-place expression multiplies the scale in from the left; where
        # the exp underflows, that can flip the sign of a zero, never a value.
        ws, wi, _ = sample_grid(tpsa, 512, 40.0)
        assert np.array_equal(cp.evaluate(tpsa, ws, wi[::-1]),
                              _evaluate_out_of_place(tpsa, ws, wi[::-1]))

    def test_scalars_bit_for_bit(self, tpsa):
        ws, wi, _ = sample_grid(tpsa, 9, 40.0)
        for w_s in ws:
            for w_i in wi:
                got = cp.evaluate(tpsa, w_s, w_i)
                assert type(got) is complex
                assert _bits(got) == _bits(_evaluate_out_of_place(tpsa, w_s, w_i))

    def test_overflow_message_unchanged(self, make_case):
        t = replace(make_case().tpsa, f1s=complex(-3.5e-12))
        peak = t.omega_s0 + 3.5e-12 / (2.0 * t.f2s.real)
        for ws in (peak, np.array([t.omega_s0, peak])):
            with pytest.raises(ExponentOverflow) as got:
                cp.evaluate(t, ws, t.omega_i0)
            with pytest.raises(ExponentOverflow) as want:
                _evaluate_out_of_place(t, ws, t.omega_i0)
            assert str(got.value) == str(want.value)


def _rotated(case):
    """Sum/difference-detuning form dO = (ds+di)/2, dw = (ds-di)/2 of a G-free amplitude.

    exp(-a_sum dO^2 + cross dO dw - a_diff dw^2) with a_sum = f2s + f2i + f2si,
    a_diff = f2s + f2i - f2si and cross = 2 (f2i - f2s).
    """
    t = case.tpsa
    return (t.f2s + t.f2i + t.f2si, 2.0 * (t.f2i - t.f2s), t.f2s + t.f2i - t.f2si)


def _inv_sq(sigma):
    return 0.0 if sigma is None else 1.0 / sigma**2


def _close(expected):
    # abs=0: the coefficients (~1e-27 s^2) lie far below approx's default
    # absolute tolerance of 1e-12, which would pass anything
    return pytest.approx(expected, rel=1e-12, abs=0.0)


class TestRotate:
    # a_sum carries the pulse duration, a_diff only the beam width and filters
    def test_symmetric_unfiltered_diagonal(self, make_case):
        case = make_case(a_p=0.7, include_g=False)
        t, p = case.tpsa, case.pump
        a_sum, cross, a_diff = _rotated(case)
        assert cross == 0.0
        chirp = 1.0 / (1.0 + 1j * p.a_p)
        assert a_sum == _close(p.tau_p**2 * chirp + p.z_p**2 * (t.v_ps + t.v_pi) ** 2 / 4.0)
        assert a_diff == _close(p.z_p**2 * t.v_si**2 / 4.0)

    def test_equal_filters_cancel_asymmetry(self, make_case):
        case = make_case(sigma_s=2e13, sigma_i=2e13, dtilde_theta=6e-17, include_g=False)
        t = case.tpsa
        # remaining cross term is purely the mismatch piece
        assert _rotated(case)[1] == _close(case.pump.z_p**2 * (t.v_ps + t.v_pi) * t.v_si / 2.0)

    def test_symmetric_mismatch_leaves_filter_asymmetry(self, make_case):
        # v_ps + v_pi = 0 in the symmetric geometry, so only the filter
        # imbalance -2 (1/sigma_s^2 - 1/sigma_i^2) survives in the cross term
        case = make_case(sigma_s=2e13, sigma_i=6e13, include_g=False)
        assert _rotated(case)[1] == _close(
            -2.0 * (_inv_sq(case.filt.sigma_s) - _inv_sq(case.filt.sigma_i)))

    def test_round_trip_recovers_correction_free_coefficients(self, make_case):
        kwargs = dict(lambda_s=1.05e-6, a_p=0.4, dtilde_theta=7e-17,
                      sigma_s=2.5e13, sigma_i=6e13)
        bare = make_case(include_g=False, **kwargs)
        t, p = bare.tpsa, bare.pump
        chirp = 1.0 / (1.0 + 1j * p.a_p)
        inv_plus = _inv_sq(bare.filt.sigma_s) + _inv_sq(bare.filt.sigma_i)
        inv_minus = _inv_sq(bare.filt.sigma_s) - _inv_sq(bare.filt.sigma_i)
        vsum = t.v_ps + t.v_pi
        a_sum, cross, a_diff = _rotated(bare)
        assert a_sum == _close(p.tau_p**2 * chirp + p.z_p**2 * vsum**2 / 4.0 + inv_plus)
        assert cross == _close(p.z_p**2 * vsum * t.v_si / 2.0 - 2.0 * inv_minus)
        assert a_diff == _close(p.z_p**2 * t.v_si**2 / 4.0 + inv_plus)
        # the corrections are additive: dropping them leaves the bare form
        full = make_case(**kwargs).tpsa
        assert full.f2s - full.g_s == _close(t.f2s)
        assert full.f2i - full.g_i == _close(t.f2i)
        assert full.f2si - full.g_si == _close(t.f2si)


class TestNormalize:
    def test_unit_norm_by_quadrature(self, make_case):
        t = cp.normalize(make_case(sigma_s=3e13, sigma_i=4e13).tpsa)
        assert oracle.quad_norm(t) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent_and_shape_preserving(self, make_case):
        t = make_case().tpsa
        once = cp.normalize(t)
        twice = cp.normalize(once)
        assert twice.c_phi_sq == pytest.approx(once.c_phi_sq, rel=1e-12, abs=0)
        assert once.f2s == t.f2s and once.f2si == t.f2si and once.f1s == t.f1s
        assert l2_norm(once) == pytest.approx(1.0, rel=1e-12, abs=0)


class TestExternalAngularDispersion:
    @staticmethod
    def _index(model, omega_p0):
        return cp.refractive_index(model, omega_p0), index_derivative(model, omega_p0)

    def test_zero_angle(self, linbo3, make_case):
        # at normal incidence only the index scales the angular dispersion
        case = make_case()
        omega_p0 = case.omega_s0 + case.omega_i0
        n, dn_dw = self._index(linbo3, omega_p0)
        d_out = external_dispersion(n, dn_dw, omega_p0, 0.0, 1e-16)
        assert d_out == pytest.approx(n * 1e-16 * omega_p0**2 / (2.0 * math.pi * C_LIGHT),
                                      rel=1e-12, abs=0)
        assert external_dispersion(n, dn_dw, omega_p0, 0.0, 0.0) == 0.0
        assert internal_dispersion(n, dn_dw, omega_p0, 0.0, 0.0) == 0.0

    def test_round_trip(self, linbo3, make_case):
        case = make_case()
        omega_p0 = case.omega_s0 + case.omega_i0
        n, dn_dw = self._index(linbo3, omega_p0)
        theta, dtilde = 0.02, 1.3e-16
        d_out = external_dispersion(n, dn_dw, omega_p0, theta, dtilde)
        back = internal_dispersion(n, dn_dw, omega_p0, theta, d_out)
        assert back == pytest.approx(dtilde, rel=1e-12, abs=0)

    def test_total_internal_reflection(self, linbo3, make_case):
        # no external angle: nothing to echo outward, and nothing to refract in
        case = make_case()
        omega_p0 = case.omega_s0 + case.omega_i0
        n, dn_dw = self._index(linbo3, omega_p0)
        assert external_dispersion(n, dn_dw, omega_p0, 0.5, 0.0) is None
        with pytest.raises(TotalInternalReflection, match="has no external angle"):
            internal_dispersion(n, dn_dw, omega_p0, 0.5, 1.0)
