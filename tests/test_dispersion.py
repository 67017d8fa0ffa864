"""Dispersion, guided propagation, phase matching, and the overlap expansion."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import counterpairs as cp
from counterpairs import dispersion
from counterpairs.cli import main
from counterpairs.constants import C_LIGHT
from counterpairs.dispersion import (
    DispersionModel,
    GTaylor,
    _index_derivatives,
    beta,
    constant_model,
    g_taylor,
    gamma,
    group_velocity,
    index_derivative,
    momentum_mismatch,
    pump_wavevector,
    refractive_index,
    solve_phase_matching,
)
from counterpairs.errors import (
    DegenerateExpansion,
    ModeCutoff,
    NoPhaseMatch,
    OutOfValidityWindow,
)
from conftest import (
    ALPHA,
    LAMBDA_PAIR,
    LAMBDA_PUMP,
    mp_g_taylor,
    mp_index_derivative,
    mp_inverse_group_velocity,
    omega_of,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestRefractiveIndex:
    def test_linbo3_regression(self, linbo3):
        # frozen from the shipped Sellmeier fit; matches published extraordinary values
        assert refractive_index(linbo3, omega_of(1.064e-6)) == pytest.approx(
            2.1555364752263153, rel=1e-12, abs=0)
        assert refractive_index(linbo3, omega_of(0.532e-6)) == pytest.approx(
            2.233567663820966, rel=1e-12, abs=0)
        assert abs(refractive_index(linbo3, omega_of(1.064e-6)) - 2.15) < 0.05

    def test_constant_model_identity(self):
        m = constant_model(2.0)
        for lam in (0.5e-6, 1.0e-6, 2.0e-6):
            assert refractive_index(m, omega_of(lam)) == 2.0

    def test_window_violation(self, linbo3):
        lo, hi = linbo3.omega_window
        with pytest.raises(OutOfValidityWindow):
            refractive_index(linbo3, lo * 0.5)
        with pytest.raises(OutOfValidityWindow):
            refractive_index(linbo3, hi * 1.5)


def _model_file(tmp_path, coefficients, window=(4.0e-7, 3.5e-6), kind="sellmeier"):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema": "dispersion-model/1", "material": "test", "kind": kind,
        "coefficients": coefficients, "wavelength_window_m": list(window)}))
    return path


class TestLoadModel:
    def test_shipped_model_loads_with_one_index_evaluation(self, monkeypatch):
        # the shipped file is checked once, at import: a fresh copy of the module
        # evaluates the index once while it is imported and never on a load_model call
        spec = importlib.util.spec_from_file_location("counterpairs._dispersion_copy",
                                                      dispersion.__file__)
        copy = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, copy)   # its dataclasses look it up
        calls = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "refractive_index"
                    and frame.f_code.co_filename == dispersion.__file__):
                calls.append(frame.f_locals["omega"])

        sys.setprofile(profile)
        try:
            spec.loader.exec_module(copy)
            at_import = list(calls)
            model = copy.load_model("linbo3_e")
            copy.load_model("linbo3_e")
        finally:
            sys.setprofile(None)
        # the long-wavelength end, where the index is smallest
        assert at_import == [model.omega_window[0]]
        assert calls == at_import

    def test_a_built_in_name_gives_one_model(self):
        assert cp.load_model("linbo3_e") is cp.load_model("linbo3_e")
        assert cp.load_model(Path("linbo3_e")) is cp.load_model("linbo3_e")

    def test_a_user_file_is_read_on_every_call(self, tmp_path):
        path = _model_file(tmp_path, [2.0], kind="constant")
        assert cp.load_model(path).coefficients == (2.0,)
        _model_file(tmp_path, [2.5], kind="constant")
        assert cp.load_model(path).coefficients == (2.5,)

    @pytest.mark.parametrize("source", ["./linbo3_e", "../data/linbo3_e", "linbo3_e.json",
                                        "linbo3_e/", "LINBO3_E", "", "data/linbo3_e"])
    def test_a_built_in_name_is_a_name_not_a_path(self, source):
        # only the shipped name itself is built in; a path to it must end in .json
        with pytest.raises(FileNotFoundError, match="no built-in model of that name"):
            cp.load_model(source)

    def test_a_path_needs_its_json_suffix(self, tmp_path):
        path = _model_file(tmp_path, [2.0], kind="constant")
        with pytest.raises(FileNotFoundError, match="no built-in model of that name"):
            cp.load_model(str(path.with_suffix("")))

    def test_pole_inside_the_window_is_rejected(self, tmp_path):
        # a weak pole at L = 1 um: the index is finite and > 1 at the 65 evenly
        # spaced window frequencies a sampled check looks at, infinite at the pole
        coefficients = [[2.9804, 0.02047], [1e-9, 1.0]]
        lo, hi = omega_of(3.5e-6), omega_of(4.0e-7)
        sampled = DispersionModel(material="test", kind="sellmeier",
                                  coefficients=tuple(map(tuple, coefficients)),
                                  omega_window=(lo, hi))
        assert all(1.0 < refractive_index(sampled, lo + (hi - lo) * k / 64.0) < math.inf
                   for k in range(65))
        with pytest.raises(ValueError, match=r"pole at C = 1\.0 um\^2 inside"):
            cp.load_model(_model_file(tmp_path, coefficients))

    @pytest.mark.parametrize("pair", [[-0.5, 0.0666], [0.5, -0.0666]],
                             ids=["negative-B", "negative-C"])
    def test_other_coefficient_signs_are_rejected(self, tmp_path, pair):
        with pytest.raises(ValueError, match="needs B > 0 and C >= 0"):
            cp.load_model(_model_file(tmp_path, [[2.9804, 0.02047], pair]))

    def test_index_not_above_one_is_rejected(self, tmp_path):
        # the window check still evaluates the index where it is smallest
        with pytest.raises(ValueError, match="finite and > 1"):
            cp.load_model(_model_file(tmp_path, [[1e-3, 10.0]], window=(1e-7, 1e-6)))

    def test_the_index_alone_evaluates_where_its_derivatives_overflow(self, tmp_path):
        # a pole far beyond the window, C = 1e200 um^2: the power (x - C)^2 of its
        # derivative terms overflows, its index term does not. The loader and the
        # index evaluate; the derivatives raise, as they always have
        model = cp.load_model(_model_file(tmp_path, [[2.9804, 0.02047], [1e-3, 1e200]]))
        omega = omega_of(1.064e-6)
        assert 2.0 < refractive_index(model, omega) < 2.1
        with pytest.raises(OverflowError):
            dispersion.index_derivative(model, omega)

    def test_constant_model_loads(self, tmp_path):
        model = cp.load_model(_model_file(tmp_path, [2.0], kind="constant"))
        assert model.kind == "constant" and model.coefficients == (2.0,)
        assert refractive_index(model, omega_of(1.064e-6)) == 2.0

    def test_unknown_kind_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="model 'test': unknown dispersion model kind 'cauchy'"):
            cp.load_model(_model_file(tmp_path, [2.0], kind="cauchy"))

    @pytest.mark.parametrize("kind,coefficients", [
        ("constant", [[2.0]]), ("constant", []), ("constant", [2.0, 3.0]), ("constant", ["2"]),
        ("sellmeier", [2.9804, 0.02047]), ("sellmeier", [[2.9804]]), ("sellmeier", [[1, 2, 3]]),
        ("constant", [float("inf")]), ("sellmeier", [[float("nan"), 0.02047]]),
    ])
    def test_malformed_coefficients_are_rejected(self, tmp_path, kind, coefficients):
        with pytest.raises(ValueError, match=f"model 'test': {kind} coefficients must be"):
            cp.load_model(_model_file(tmp_path, coefficients, kind=kind))

    @pytest.mark.parametrize("kind,coefficients,code", [
        ("constant", [2.0], 0), ("constant", [[2.0]], 1), ("cauchy", [2.0], 1),
    ], ids=["constant", "nested-constant", "unknown-kind"])
    def test_model_file_through_a_config(self, capsys, tmp_path, kind, coefficients, code):
        # a loadable file runs; a bad one is a user error naming the field, never exit 2
        model = _model_file(tmp_path, coefficients, kind=kind)
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text().replace(
            "waveguide.model = linbo3_e", f"waveguide.model = {model}"))
        assert main(["phase-match", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: waveguide.model: model 'test': ")
            assert err.endswith("[field: waveguide.model]\n")

    @pytest.mark.parametrize("drop,named", [
        ("material", "lacks the key 'material'"), ("kind", "lacks the key 'kind'"),
        ("coefficients", "lacks the key 'coefficients'"),
        ("wavelength_window_m", "lacks the key 'wavelength_window_m'"),
        (None, "is not a JSON object"),
    ], ids=["material", "kind", "coefficients", "wavelength_window_m", "not-an-object"])
    def test_a_model_file_missing_a_key_names_it(self, capsys, tmp_path, drop, named):
        # a user error naming the file's gap and the config field, never exit 2
        model = _model_file(tmp_path, [2.0], kind="constant")
        raw = json.loads(model.read_text())
        model.write_text(json.dumps([raw] if drop is None
                                    else {k: v for k, v in raw.items() if k != drop}))
        with pytest.raises(ValueError, match=named):
            cp.load_model(model)
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text().replace(
            "waveguide.model = linbo3_e", f"waveguide.model = {model}"))
        assert main(["phase-match", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: waveguide.model: dispersion data "
                                           f"{str(model)!r} {named} [field: waveguide.model]\n")


    @pytest.mark.parametrize("window", [
        5e-7, ["a", "b"], [[1], [2]], [4e-7], [4e-7, 3.5e-6, 1e-5], [True, 3.5e-6],
        [4e-7, float("inf")], [float("nan"), 3.5e-6], [3.5e-6, 4e-7], [0.0, 3.5e-6],
    ], ids=["scalar", "strings", "nested", "one", "three", "bool", "inf", "nan",
            "reversed", "zero"])
    def test_a_malformed_window_names_the_file_and_key(self, capsys, tmp_path, window):
        # a user error (exit 1), never an internal one (exit 2)
        model = _model_file(tmp_path, [2.0], kind="constant")
        raw = json.loads(model.read_text())
        model.write_text(json.dumps({**raw, "wavelength_window_m": window}))
        named = (f"dispersion data {str(model)!r}: 'wavelength_window_m' must be [lo, hi] "
                 f"in meters with 0 < lo < hi, got {window!r}")
        with pytest.raises(ValueError) as got:
            cp.load_model(model)
        assert str(got.value) == named
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text().replace(
            "waveguide.model = linbo3_e", f"waveguide.model = {model}"))
        assert main(["phase-match", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: waveguide.model: {named} [field: waveguide.model]\n"


class TestBeta:
    def test_free_propagation_limit(self, linbo3):
        wg = cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=1e-12, model=linbo3)
        w = omega_of(LAMBDA_PAIR)
        n = refractive_index(linbo3, w)
        assert beta(wg, w) == pytest.approx(n * w / C_LIGHT, rel=1e-15, abs=0)

    def test_confinement_correction_fixture(self, waveguide, linbo3):
        # sqrt(1 - alpha c/(n w)) at the reference geometry: a sizable, not
        # perturbative, correction (0.83 at 1.064 um, 0.92 at 0.532 um)
        w = omega_of(LAMBDA_PAIR)
        free = refractive_index(linbo3, w) * w / C_LIGHT
        assert beta(waveguide, w) / free == pytest.approx(0.8281041288978329, rel=1e-12, abs=0)
        w5 = omega_of(LAMBDA_PUMP)
        free5 = refractive_index(linbo3, w5) * w5 / C_LIGHT
        assert beta(waveguide, w5) / free5 == pytest.approx(0.9210686071436672, rel=1e-12, abs=0)

    def test_cutoff(self, linbo3):
        wg = cp.WaveguideSpec(alpha=1e9, ly=1e-5, d=1e-12, model=linbo3)
        with pytest.raises(ModeCutoff):
            beta(wg, omega_of(LAMBDA_PAIR))

    def test_monotone_in_omega(self, waveguide):
        omegas = np.linspace(omega_of(2.0e-6), omega_of(0.45e-6), 200)
        betas = [beta(waveguide, float(w)) for w in omegas]
        assert np.all(np.diff(betas) > 0)


class TestGroupVelocity:
    def test_dispersionless_limit(self):
        # closed forms: 1/v = (n + w dn/dw)/c with dn/dw = 0 exactly
        wg = cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=1e-12, model=constant_model(2.0))
        w = omega_of(LAMBDA_PAIR)
        assert group_velocity(wg, w, "guided") == pytest.approx(C_LIGHT / 2, rel=1e-15, abs=0)
        assert group_velocity(wg, w, "pump_bulk") == pytest.approx(C_LIGHT / 2, rel=1e-15, abs=0)

    def test_guided_approaches_bulk_as_alpha_vanishes(self, linbo3):
        w = omega_of(LAMBDA_PAIR)
        gaps = []
        for alpha in (4e6, 4e4, 4e2):
            wg = cp.WaveguideSpec(alpha=alpha, ly=1e-5, d=1e-12, model=linbo3)
            gaps.append(abs(group_velocity(wg, w, "guided")
                            / group_velocity(wg, w, "pump_bulk") - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_against_half_step_stencil(self, waveguide):
        # independent 5-point stencil at half step
        w = omega_of(LAMBDA_PAIR)
        h = 0.5e-6 * w
        d1 = (-beta(waveguide, w + 2 * h) + 8 * beta(waveguide, w + h)
              - 8 * beta(waveguide, w - h) + beta(waveguide, w - 2 * h)) / (12 * h)
        assert 1.0 / group_velocity(waveguide, w, "guided") == pytest.approx(d1, rel=1e-8, abs=0)

    def test_step_halving_consistency(self, waveguide):
        # steps large enough that truncation, not roundoff, sets the error
        w = omega_of(LAMBDA_PAIR)
        inv_v = 1.0 / group_velocity(waveguide, w, "guided")
        errs = []
        for h in (1e-3 * w, 0.5e-3 * w):
            d1 = (beta(waveguide, w + h) - beta(waveguide, w - h)) / (2 * h)
            errs.append(abs(d1 - inv_v))
        assert errs[1] < 0.3 * errs[0]  # ~quadratic shrink

    def test_positive_and_below_c(self, waveguide):
        for lam in (0.5e-6, 0.7e-6, 1.064e-6, 1.6e-6):
            v = group_velocity(waveguide, omega_of(lam), "guided")
            assert 0 < v < C_LIGHT


class TestGamma:
    def test_zero_alpha(self, linbo3):
        wg = cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=1e-12, model=linbo3)
        assert gamma(wg, omega_of(LAMBDA_PAIR)) == 0.0

    def test_sqrt_scaling_in_alpha(self, linbo3):
        w = omega_of(LAMBDA_PAIR)
        g1 = gamma(cp.WaveguideSpec(alpha=ALPHA, ly=1e-5, d=1e-12, model=linbo3), w)
        g2 = gamma(cp.WaveguideSpec(alpha=2 * ALPHA, ly=1e-5, d=1e-12, model=linbo3), w)
        assert g2 == pytest.approx(math.sqrt(2.0) * g1, rel=1e-15, abs=0)

    def test_reference_fixture(self, waveguide):
        assert gamma(waveguide, omega_of(LAMBDA_PAIR)) == pytest.approx(
            7135539.325589644, rel=1e-12, abs=0)


def _residual(wg, theta_p0, omega_s0, omega_i0):
    """Momentum mismatch at theta_p0, formed as the phase-match subcommand forms it."""
    k_p0 = pump_wavevector(wg.model, omega_s0 + omega_i0)
    return momentum_mismatch(k_p0, theta_p0, beta(wg, omega_s0), beta(wg, omega_i0))


def _bisect_angle(wg, omega_s0, omega_i0):
    lo, hi = -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9
    f_lo = _residual(wg, lo, omega_s0, omega_i0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _residual(wg, mid, omega_s0, omega_i0) * f_lo > 0:
            lo = mid
            f_lo = _residual(wg, lo, omega_s0, omega_i0)
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhaseMatching:
    def test_degenerate_angle_is_zero(self, waveguide):
        w = omega_of(LAMBDA_PAIR)
        assert solve_phase_matching(waveguide, w, w) == 0.0

    def test_nondegenerate_sign_and_bisection_oracle(self, waveguide):
        w_s = omega_of(1.040e-6)
        w_i = omega_of(LAMBDA_PUMP) - w_s
        theta = solve_phase_matching(waveguide, w_s, w_i)
        mismatch = beta(waveguide, w_s) - beta(waveguide, w_i)
        assert math.copysign(1.0, theta) == math.copysign(1.0, mismatch)
        assert theta == pytest.approx(_bisect_angle(waveguide, w_s, w_i), abs=1e-10)

    def test_no_phase_match(self):
        # anomalous-dispersion toy: a resonance just above the signal
        # wavelength boosts n_s enough that beta_s - beta_i exceeds k_p0
        toy = cp.DispersionModel(
            material="anomalous toy", kind="sellmeier",
            coefficients=((0.18, 1.095**2), (0.5, 0.0)),
            omega_window=(omega_of(1.15e-6), omega_of(0.45e-6)),
        )
        wg = cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=1e-12, model=toy)
        w_s = omega_of(1.1e-6)
        w_i = omega_of(0.5e-6) - w_s
        kp0 = pump_wavevector(toy, w_s + w_i)
        assert beta(wg, w_s) - beta(wg, w_i) > kp0  # construction sanity
        with pytest.raises(NoPhaseMatch):
            solve_phase_matching(wg, w_s, w_i)

    def test_residual_over_random_splittings(self, waveguide):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lam_s = float(rng.uniform(0.95e-6, 1.2e-6))
            w_s = omega_of(lam_s)
            w_i = omega_of(LAMBDA_PUMP) - w_s
            theta = solve_phase_matching(waveguide, w_s, w_i)
            res = _residual(waveguide, theta, w_s, w_i)
            assert abs(res) < 1e-12 * pump_wavevector(waveguide.model, w_s + w_i)


class TestGTaylor:
    def test_constant_index_closed_form(self):
        # gamma^2 linear in omega makes 1/(gs^2+gi^2) an exact rational function
        wg = cp.WaveguideSpec(alpha=ALPHA, ly=1e-5, d=1e-12, model=constant_model(2.0))
        w_s = omega_of(LAMBDA_PAIR)
        w_i = omega_of(1.1e-6)
        slope = 2.0 * ALPHA / C_LIGHT
        a = slope * (w_s + w_i)
        gt = g_taylor(wg, w_s, w_i)
        assert gt.g0 == pytest.approx(1.0 / a, rel=1e-12, abs=0)
        assert gt.g1s == pytest.approx(-slope / a**2, rel=1e-12, abs=0)
        assert gt.g1i == pytest.approx(-slope / a**2, rel=1e-12, abs=0)
        assert gt.g2s == pytest.approx(slope**2 / a**3, rel=1e-12, abs=0)
        assert gt.g2i == pytest.approx(slope**2 / a**3, rel=1e-12, abs=0)
        assert gt.g2si == pytest.approx(2.0 * slope**2 / a**3, rel=1e-12, abs=0)

    def test_degenerate_symmetry(self, waveguide):
        w = omega_of(LAMBDA_PAIR)
        gt = g_taylor(waveguide, w, w)
        assert gt.g1s == pytest.approx(gt.g1i, rel=1e-10, abs=0)
        assert gt.g2s == pytest.approx(gt.g2i, rel=1e-8, abs=0)

    def test_alpha_floor(self, linbo3):
        wg = cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=1e-12, model=linbo3)
        w = omega_of(LAMBDA_PAIR)
        with pytest.raises(DegenerateExpansion):
            g_taylor(wg, w, w)

    def test_quadratic_model_residual(self, waveguide):
        # the expansion must track the exact function to 1e-5 at +-0.5% detuning
        w_s = omega_of(LAMBDA_PAIR)
        w_i = omega_of(1.09e-6)
        gt = g_taylor(waveguide, w_s, w_i)

        def exact(ds, di):
            return 1.0 / (gamma(waveguide, w_s + ds) ** 2
                          + gamma(waveguide, w_i + di) ** 2)

        for ds in (-0.005 * w_s, 0.005 * w_s):
            for di in (-0.005 * w_i, 0.005 * w_i):
                model = (gt.g0 + gt.g1s * ds + gt.g1i * di
                         + gt.g2s * ds**2 + gt.g2i * di**2 + gt.g2si * ds * di)
                assert model == pytest.approx(exact(ds, di), rel=1e-5, abs=0)

    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            GTaylor(g0=-1.0, g1s=0, g1i=0, g2s=0, g2i=0, g2si=0)


ORACLE_WAVELENGTHS = (0.45e-6, LAMBDA_PUMP, 0.8e-6, LAMBDA_PAIR, 1.55e-6, 3.0e-6)


class TestMpmathOracle:
    """Closed-form derivatives against mpmath at 40 digits, to 1e-12 relative."""

    @pytest.mark.parametrize("lam", ORACLE_WAVELENGTHS)
    def test_index_derivatives(self, linbo3, lam):
        w = omega_of(lam)
        n, dn, d2n = _index_derivatives(linbo3, w)
        assert n == refractive_index(linbo3, w)
        assert dn == index_derivative(linbo3, w)
        assert dn == pytest.approx(mp_index_derivative(linbo3, w, 1), rel=1e-12, abs=0)
        assert d2n == pytest.approx(mp_index_derivative(linbo3, w, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("which", ["guided", "pump_bulk"])
    @pytest.mark.parametrize("lam", ORACLE_WAVELENGTHS)
    def test_inverse_group_velocity(self, waveguide, lam, which):
        w = omega_of(lam)
        assert 1.0 / group_velocity(waveguide, w, which) == pytest.approx(
            mp_inverse_group_velocity(waveguide, w, which), rel=1e-12, abs=0)

    @pytest.mark.parametrize("lam_i", [1.09e-6, 0.9e-6])
    def test_g_taylor_coefficients(self, waveguide, lam_i):
        w_s, w_i = omega_of(LAMBDA_PAIR), omega_of(lam_i)
        got = g_taylor(waveguide, w_s, w_i)
        want = mp_g_taylor(waveguide, w_s, w_i)
        for name in ("g0", "g1s", "g1i", "g2s", "g2i", "g2si"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12, abs=0), name
