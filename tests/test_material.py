"""The material point: one evaluation per (waveguide, centrals), reused everywhere.

Call counts are taken by wrapping every module attribute bound to the
counted function, so calls through names imported across modules are
seen as well.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

import counterpairs as cp
from counterpairs import config, dispersion, entanglement, tpsa
from counterpairs.cli import main
from counterpairs.dispersion import (
    beta,
    g_taylor,
    group_velocity,
    index_derivative,
    material_point,
    pump_wavevector,
    refractive_index,
)

from conftest import (
    LAMBDA_PAIR,
    LAMBDA_PUMP,
    assert_tree_close,
    mp_material_point,
    omega_of,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
MODULES = (cp, dispersion, tpsa, entanglement, config, cp.spectral, cp.cli)


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(name) -> dict whose "calls" grows with each dispersion.<name> call."""

    def install(name):
        original = getattr(dispersion, name)
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return original(*args, **kwargs)

        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return counter

    return install


def test_point_holds_the_material_functions_values(waveguide):
    w_s, w_i = omega_of(1.05e-6), omega_of(LAMBDA_PUMP) - omega_of(1.05e-6)
    w_p = w_s + w_i
    mp = material_point(waveguide, w_s, w_i)
    model = waveguide.model
    assert (mp.wg, mp.omega_s0, mp.omega_i0, mp.omega_p0) == (waveguide, w_s, w_i, w_p)
    assert (mp.n_s, mp.n_i, mp.n_p) == (refractive_index(model, w_s),
                                        refractive_index(model, w_i),
                                        refractive_index(model, w_p))
    assert (mp.beta_s, mp.beta_i) == (beta(waveguide, w_s), beta(waveguide, w_i))
    assert mp.k_p0 == pump_wavevector(model, w_p)
    assert (mp.v_s, mp.v_i, mp.v_p) == (group_velocity(waveguide, w_s, "guided"),
                                        group_velocity(waveguide, w_i, "guided"),
                                        group_velocity(waveguide, w_p, "pump_bulk"))
    assert mp.dn_dw_p == index_derivative(model, w_p)
    assert mp.gt == g_taylor(waveguide, w_s, w_i)


def test_point_at_the_window_edge_evaluates(waveguide):
    # derivatives are closed forms at the frequency itself, so a pump at the
    # short-wavelength edge of the validity window needs nothing beyond it
    lo, hi = waveguide.model.omega_window
    mp = material_point(waveguide, 0.5 * hi, 0.5 * hi)
    assert mp.omega_p0 == hi
    assert mp.n_p == refractive_index(waveguide.model, hi)
    assert mp.dn_dw_p > 0.0 and mp.v_p > 0.0
    with pytest.raises(cp.errors.OutOfValidityWindow):
        material_point(waveguide, 0.5 * hi, 0.5 * hi * (1.0 + 1e-12))


@pytest.mark.parametrize("include_g", [True, False])
def test_bundle_matches_an_mpmath_material(monkeypatch, include_g):
    # every field of the point from mpmath at 40 digits; every number of the
    # fig2 scenario document must agree to 1e-12 relative, with no absolute floor
    sc = config.resolve_scenario(config.parse_config(CONFIG_DIR / "fig2.cfg"),
                                 include_g=include_g)
    computed = config.compute_scenario(sc)
    oracle_mp = mp_material_point(sc.wg, sc.omega_s0, sc.omega_i0)
    monkeypatch.setattr(config, "scenario_material", lambda _: oracle_mp)
    assert_tree_close(computed, config.compute_scenario(sc), f"fig2 include_g={include_g}")


def test_point_is_frozen(waveguide):
    w = omega_of(LAMBDA_PAIR)
    mp = material_point(waveguide, w, w)
    with pytest.raises(AttributeError):
        mp.n_s = 2.0


def test_wrappers_equal_the_point_paths(make_case):
    for include_g in (True, False):
        case = make_case(z_p=3e-5, sigma_s=3e13, include_g=include_g)
        built = cp.build_tpsa(case.wg, case.pump, case.filt, case.omega_s0,
                              case.omega_i0, include_g=include_g)
        assert built == case.tpsa
        assert case.mp == material_point(case.wg, case.omega_s0, case.omega_i0)


def test_apply_sweep_value_matches_the_point_path(monkeypatch):
    # a swept setting leaves the material of the unswept scenario valid
    sc = config.resolve_scenario(config.parse_config(CONFIG_DIR / "fig2.cfg"))
    point = config.apply_sweep_value(sc, "pump.D_theta_out", -2e8)
    computed = config.compute_scenario(point)
    mp = config.scenario_material(sc)
    monkeypatch.setattr(config, "scenario_material", lambda _: mp)
    assert computed == config.compute_scenario(point)


@pytest.mark.parametrize("centrals", [(1.064e-6, 1.064e-6), (1.060e-6, 1.068e-6)])
def test_a_config_key_sets_its_setting_as_a_sweep_axis_does(tmp_path, centrals):
    # one setter: the angular dispersion in a config file equals the same
    # value applied to the scenario resolved without it
    lambda_p0 = 1.0 / (1.0 / centrals[0] + 1.0 / centrals[1])
    text = "".join(
        f"{line}\n" for line in (CONFIG_DIR / "fig2.cfg").read_text().splitlines()
        if line.split(" = ")[0] not in ("pump.lambda_p0", "centrals.lambda_s0",
                                        "centrals.lambda_i0")
    ) + (f"pump.lambda_p0 = {lambda_p0!r} m\n"
         f"centrals.lambda_s0 = {centrals[0]!r} m\ncentrals.lambda_i0 = {centrals[1]!r} m\n")
    cfg = tmp_path / "angular.cfg"
    cfg.write_text(text)
    sc = config.resolve_scenario(config.parse_config(cfg))
    for key, unit, values in (("pump.D_theta_out", "deg/m", (-2.7e8, 0.0, 1.5e8, 3e9)),
                              ("pump.Dtilde_theta", "rad*s", (-1e-16, 3e-17))):
        for value in values:
            cfg.write_text(text + f"{key} = {value!r} {unit}\n")
            resolved = config.resolve_scenario(config.parse_config(cfg))
            assert resolved == config.apply_sweep_value(sc, key, value)
            assert (resolved.pump.dtilde_theta != 0.0) == (value != 0.0 or sc.pump.theta_p0 != 0.0)


def test_scenario_evaluates_the_material_once(count_calls):
    sc = config.resolve_scenario(config.parse_config(CONFIG_DIR / "fig2.cfg"))
    index = count_calls("refractive_index")
    taylor = count_calls("_g_taylor")
    bundle = config.compute_scenario(sc)
    # fig2 takes the infeasible-beam path of separability_roots
    assert bundle["separability"]["min_feasible_Z_p_m"] is not None
    assert taylor["calls"] == 1
    assert index["calls"] <= 3


def test_scenario_request_evaluates_the_index_at_most_seven_times(count_calls, capsys):
    # the material point's 3, phase matching's 3 and the load-time window check's 1
    index = count_calls("refractive_index")
    assert main(["scenario", "--config", str(CONFIG_DIR / "fig2.cfg")]) == 0
    capsys.readouterr()
    assert index["calls"] <= 7


def test_sweep_evaluates_the_material_once(count_calls, capsys, tmp_path):
    index = count_calls("refractive_index")
    taylor = count_calls("_g_taylor")
    assert main(["sweep", "--config", str(CONFIG_DIR / "fig6_sweep.cfg"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    cells = 32 * 32
    assert taylor["calls"] == 1
    assert index["calls"] <= 6 * cells


def test_phase_match_and_dispersion_info_need_no_material_point(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("material point built")

    for module in MODULES:
        if getattr(module, "material_point", None) is material_point:
            monkeypatch.setattr(module, "material_point", refuse)
    # alpha = 0 has no G expansion, so a material point cannot be built there
    cfg = tmp_path / "free.cfg"
    cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text().replace(
        "waveguide.alpha = 4e6 1/m", "waveguide.alpha = 0 1/m"))
    assert main(["phase-match", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["theta_p0_rad"] == 0.0
    assert main(["dispersion-info", "--config", str(cfg), "--at", "1.064e-6"]) == 0
    point = json.loads(capsys.readouterr().out)["points"][0]
    assert math.isfinite(point["v_guided_m_per_s"])


def test_material_failure_fails_every_sweep_cell(capsys, tmp_path):
    # every cell shares the material, so a material that cannot be evaluated
    # fails all of them; the sweep still completes and says why
    cfg = tmp_path / "free.cfg"
    shutil.copy(CONFIG_DIR / "fig7_sweep.cfg", cfg)
    cfg.write_text(cfg.read_text().replace("waveguide.alpha = 4e6 1/m",
                                           "waveguide.alpha = 0 1/m"))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert len(manifest["errors"]) == 1
    assert "below floor" in manifest["errors"][0]
    with pytest.raises(cp.errors.DegenerateExpansion, match="below floor"):
        material_point(cp.WaveguideSpec(alpha=0.0, ly=1e-5, d=41.05e-12,
                                        model=cp.load_model("linbo3_e")),
                       omega_of(LAMBDA_PAIR), omega_of(LAMBDA_PAIR))
    for fname in manifest["files"].values():
        rows = (out / fname).read_text().splitlines()[1:]
        assert len(rows) == 39
        assert all(math.isnan(float(row.split(",")[1])) for row in rows)
