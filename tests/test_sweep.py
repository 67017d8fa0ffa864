"""Vectorized sweeps: one broadcast evaluation per map against per-cell scalars.

Every sweepable parameter is swept against a Z_p axis that starts at 0
(or, for Z_p itself, against tau_p), with all sweep quantities (with and
without the G terms) and with each alone, around a non-degenerate, chirped scenario with a one-sided
filter. Each grid cell
must equal the scalar evaluation of that cell to 1e-12 relative, fail
where it fails, and report the same messages. A sweep quantity is a key of
a section of the scenario document: each quantity equals the document's
value there, and a sweep builds each section it reads once.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from counterpairs import config
from counterpairs.cli import main
from counterpairs.constants import C_LIGHT
from counterpairs.errors import CounterpairsError

from conftest import LAMBDA_PUMP

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
LAMBDA_S = 1.05e-6
LAMBDA_I = 1.0 / (1.0 / LAMBDA_PUMP - 1.0 / LAMBDA_S)
SIGMA_S = 2.0 * math.pi * C_LIGHT / LAMBDA_S**2 * 5e-9   # a 5 nm signal filter

# swept parameter -> range line of a 3-point axis
AXIS1 = {
    "pump.tau_p": "5e-14 5e-13 s",
    "pump.Z_p": "5e-6 5e-5 m",
    "pump.Y_p": "5e-6 2e-5 m",
    "pump.a_p": "-1 1",
    "pump.P_p": "0 2 W",
    "pump.Dtilde_theta": "-1e-16 1e-16 rad*s",
    "pump.D_theta_out": "-3e8 3e8 deg/m",
    "filters.sigma_s": "1e13 1e14 rad/s",
    "filters.sigma_i": "1e13 1e14 rad/s",
    "filters.sigma_both": "1e13 1e14 rad/s",
    "filters.sigma_both_nm": "2 40 nm",
}


def base_config() -> str:
    text = (CONFIG_DIR / "fig2.cfg").read_text()
    for old, new in (("pump.a_p = 0", "pump.a_p = 0.4"),
                     ("centrals.lambda_s0 = 1.064e-6 m", f"centrals.lambda_s0 = {LAMBDA_S!r} m"),
                     ("centrals.lambda_i0 = 1.064e-6 m", f"centrals.lambda_i0 = {LAMBDA_I!r} m"),
                     ("filters.sigma_s = unfiltered", f"filters.sigma_s = {SIGMA_S!r} rad/s")):
        assert old in text
        text = text.replace(old, new)
    return text


def read_cells(path: Path):
    """Grid cells of a sweep CSV, without the axis values, as strings."""
    return [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]


def test_every_sweepable_parameter_is_covered():
    assert sorted(AXIS1) == sorted(config.SWEEP_PARAMS)


# axis pairs that write the same pump or filter setting, so the second
# would overwrite what the first labels
_CROSS = ([("pump.Dtilde_theta", "pump.D_theta_out")]
          + [(one, both) for one in ("filters.sigma_s", "filters.sigma_i")
             for both in ("filters.sigma_both", "filters.sigma_both_nm")]
          + [("filters.sigma_both", "filters.sigma_both_nm")])
OVERLAPPING = [(p, p) for p in sorted(AXIS1)] + _CROSS + [(b, a) for a, b in _CROSS]


def _two_axis_config(param1, param2) -> str:
    return base_config() + (
        f"sweep.axis1 = {param1}\n"
        f"sweep.axis1_range = {AXIS1[param1]}\n"
        "sweep.axis1_points = 3\n"
        f"sweep.axis2 = {param2}\n"
        f"sweep.axis2_range = {AXIS1[param2]}\n"
        "sweep.axis2_points = 3\n"
        "sweep.quantities = N\n"
    )


@pytest.mark.parametrize("param1,param2", OVERLAPPING)
def test_axes_that_set_the_same_setting_are_rejected(capsys, tmp_path, param1, param2):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_two_axis_config(param1, param2))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.endswith(" set the same setting [field: sweep.axis2]\n")
    assert not out.exists()


@pytest.mark.parametrize("param1,param2", [("filters.sigma_s", "filters.sigma_i"),
                                           ("pump.Dtilde_theta", "filters.sigma_both")])
def test_axes_on_different_settings_are_accepted(tmp_path, param1, param2):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_two_axis_config(param1, param2))
    spec = config.parse_sweep(config.parse_config(cfg))
    assert (spec.axis1.param, spec.axis2.param) == (param1, param2)


@pytest.mark.parametrize("which", ["axis1", "axis2"])
def test_an_axis_without_a_scale_takes_the_schema_default(tmp_path, monkeypatch, which):
    # the unset scale comes from the schema, not from a literal of the axis parser
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_two_axis_config("pump.tau_p", "pump.Z_p"))
    raw = config.parse_config(cfg)
    assert getattr(config.parse_sweep(raw), which).scale == "linear"
    key = f"sweep.{which}_scale"
    unit, required, _, domain = config._SCHEMA[key]
    monkeypatch.setitem(config._SCHEMA, key, (unit, required, "log", domain))
    axis = getattr(config.parse_sweep(raw), which)
    assert axis.scale == "log"
    assert axis.values[1] == pytest.approx(math.sqrt(axis.values[0] * axis.values[2]), rel=1e-12)


ALL = " ".join(config.QUANTITIES)


def _leaf(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def scalar_quantity(point, mp, tpsa, name):
    """One cell's sweep quantity: its key in its scenario section, built on scalars."""
    _, section, key = config.QUANTITIES[name]
    if section == "flux":
        doc = config._flux(point, mp, tpsa, config._spectra(point, mp, tpsa))
    else:
        doc = config._SECTIONS[section](point, mp, tpsa)
    if name == "ratio_lambda_si":
        assert key == ("sigma_lambda_s_nm", "sigma_lambda_i_nm")
        return doc["sigma_lambda_s_nm"] / doc["sigma_lambda_i_nm"]
    return _leaf(doc, key)


@pytest.mark.parametrize("quantities,include_g",
                         [(ALL, True), (ALL, False)] + [(q, True) for q in config.QUANTITIES])
@pytest.mark.parametrize("param", sorted(AXIS1))
def test_grid_equals_per_cell_scalar_evaluation(capsys, tmp_path, param, quantities,
                                                include_g):
    # alone, a quantity fails only where it (or the amplitude) fails
    axis2, range2 = ("pump.tau_p", "5e-14 5e-13 s") if param == "pump.Z_p" \
        else ("pump.Z_p", "0 4e-5 m")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(base_config() + (
        f"sweep.axis1 = {param}\n"
        f"sweep.axis1_range = {AXIS1[param]}\n"
        "sweep.axis1_points = 3\n"
        f"sweep.axis2 = {axis2}\n"
        f"sweep.axis2_range = {range2}\n"
        "sweep.axis2_points = 4\n"
        f"sweep.quantities = {quantities}\n"
    ))
    out = tmp_path / "out"
    flag = "--include-g" if include_g else "--neglect-g"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out), flag]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "sweep_manifest.json").read_text())

    raw = config.parse_config(cfg)
    sc = config.resolve_scenario(raw, include_g=include_g)
    spec = config.parse_sweep(raw)
    assert sc.omega_s0 != sc.omega_i0 and sc.pump.a_p != 0.0
    assert sc.filt.sigma_s is not None and sc.filt.sigma_i is None
    want = {name: [] for name in spec.quantities}
    classes, messages = [], set()
    for v1 in spec.axis1.values:
        for name in spec.quantities:
            want[name].append([])
        classes.append([])
        for v2 in spec.axis2.values:
            try:
                point = config.apply_sweep_value(
                    config.apply_sweep_value(sc, param, v1), axis2, v2)
                mp = config.scenario_material(point)
                tpsa = config.build_scenario_tpsa(point)
                cell = {name: scalar_quantity(point, mp, tpsa, name)
                        for name in spec.quantities}
                classes[-1].append("")
            except CounterpairsError as exc:
                cell = dict.fromkeys(spec.quantities, math.nan)
                classes[-1].append(type(exc).__name__)
                messages.add(str(exc))
            for name in spec.quantities:
                want[name][-1].append(cell[name])

    assert manifest["errors"] == sorted(messages)
    if messages:
        assert read_cells(out / "errors.csv") == classes
    else:
        assert not (out / "errors.csv").exists()
    for name in spec.quantities:
        got = read_cells(out / f"{name}.csv")
        for row_got, row_want in zip(got, want[name], strict=True):
            for text, value in zip(row_got, row_want, strict=True):
                if math.isnan(value):
                    assert text == "nan", (name, text)
                elif name == "n_min":
                    assert type(value) is int and text == str(value)
                else:
                    assert type(value) is float
                    assert float(text) == pytest.approx(value, rel=1e-12, abs=0), name


def test_assembly_runs_once_per_sweep(capsys, tmp_path, monkeypatch):
    calls = []
    assemble = config.assemble_tpsa
    monkeypatch.setattr(config, "assemble_tpsa",
                        lambda *args, **kwargs: calls.append(1) or assemble(*args, **kwargs))
    assert main(["sweep", "--config", str(CONFIG_DIR / "fig6_sweep.cfg"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def spy_on(monkeypatch, names) -> list:
    """Record each call of the named functions of config, through every package
    module that binds them, as (name, *its field arguments), in call order."""
    calls = []
    for name in names:
        original = getattr(config, name)

        def spy(*args, _name=name, _fn=original, **kwargs):
            calls.append((_name, *(arg for arg in args if isinstance(arg, str))))
            return _fn(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("counterpairs")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("name,observable,observed", [
    ("fig3_sweep", "_field_spectrum", [("_field_spectrum", "s"), ("_field_spectrum", "i")]),
    ("fig5_sweep", "hom_params", [("hom_params",)]),
    ("fig6_sweep", "schmidt", [("schmidt",)]),
    ("fig7_sweep", "schmidt", [("schmidt",)]),
    ("fig2_sweep", "time_domain", [("time_domain",)]),
    ("fig2_sweep", "l2_norm", [("l2_norm",)] * 3),
])
def test_a_sweep_evaluates_each_observable_once(capsys, tmp_path, monkeypatch, name,
                                                observable, observed):
    # however many requested quantities read one section, the broadcast grid
    # builds it once: fig3's three quantities read both spectra, fig6's three
    # one Schmidt spectrum. fig2's rate, spectra and flux sections form one
    # norm each, and its flux section one time-domain form for both fields
    calls = spy_on(monkeypatch, [observable])
    assert main(["sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == observed


OBSERVABLES = ("pair_rate", "l2_norm", "_field_spectrum", "width_ratio", "time_domain",
               "_field_flux", "hom_params", "schmidt", "principal_axes")


@pytest.mark.parametrize("command,observed", [
    ("scenario", [("pair_rate",), ("l2_norm",), ("l2_norm",), ("_field_spectrum", "s"),
                  ("_field_spectrum", "i"), ("width_ratio",), ("time_domain",), ("l2_norm",),
                  ("_field_flux", "s"), ("_field_flux", "i"), ("hom_params",), ("schmidt",),
                  ("principal_axes",)]),
    ("hom", [("hom_params",)]),
    ("schmidt", [("schmidt",)]),
    ("hom --curve-out", [("hom_params",)]),
])
def test_a_document_evaluates_each_observable_once(capsys, monkeypatch, tmp_path, command,
                                                   observed):
    # section by section, in this order: a scenario that fails in several
    # observables names the first of them. Each value is formed once: the rate,
    # spectra and flux sections one norm each, and the dip's section, its
    # curve and the curve's span read one dip
    calls = spy_on(monkeypatch, OBSERVABLES)
    curve = [str(tmp_path / "curve.csv")] if command.endswith("--curve-out") else []
    assert main([*command.split(), *curve, "--config", str(CONFIG_DIR / "fig2.cfg")]) == 0
    capsys.readouterr()
    assert calls == observed


def test_every_sweep_quantity_is_its_scenario_value():
    # on every cell of the fig2 map, each quantity equals compute_scenario's
    # value at its section and key for that cell, and ratio_lambda_si the
    # quotient of the two wavelength widths
    raw = config.parse_config(CONFIG_DIR / "fig2_sweep.cfg")
    sc = config.resolve_scenario(raw)
    spec = replace(config.parse_sweep(raw), quantities=tuple(config.QUANTITIES))
    grid = config.sweep_point(sc, spec)
    assert len(spec.quantities) == 18
    cells = 0
    for i, v1 in enumerate(spec.axis1.values):
        for j, v2 in enumerate(spec.axis2.values):
            point = config.apply_sweep_value(
                config.apply_sweep_value(sc, spec.axis1.param, v1), spec.axis2.param, v2)
            doc = config.compute_scenario(point)
            assert grid.errors[i][j] is None
            for name, (_, section, key) in config.QUANTITIES.items():
                if name == "ratio_lambda_si":
                    want = (doc["spectra"]["sigma_lambda_s_nm"]
                            / doc["spectra"]["sigma_lambda_i_nm"])
                else:
                    want = _leaf(doc[section], key)
                got = grid.values[name][i][j]
                assert type(got) is type(want), name
                assert got == pytest.approx(want, rel=1e-12, abs=0), (name, v1, v2)
            cells += 1
    assert cells == 576


def test_a_failure_every_cell_shares_fails_each_cell(capsys, tmp_path):
    # a Y_p axis leaves f2s, f2i, f2si scalar, so the singular D_f of this
    # short-pulse, wide-beam scenario raises once for the whole grid
    cfg = tmp_path / "shared.cfg"
    cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text()
                   .replace("pump.tau_p = 1e-13 s", "pump.tau_p = 5.2e-16 s")
                   .replace("pump.Z_p = 1e-5 m", "pump.Z_p = 0.1 m") + (
        "sweep.axis1 = pump.Y_p\n"
        "sweep.axis1_range = 5e-6 2e-5 m\n"
        "sweep.axis1_points = 3\n"
        "sweep.quantities = N sigma_tau_s\n"
    ))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert len(manifest["errors"]) == 1 and manifest["errors"][0].startswith("|D_f| = ")
    assert read_cells(out / "errors.csv") == [["SingularTransform"]] * 3
    for name in ("N", "sigma_tau_s"):
        assert read_cells(out / f"{name}.csv") == [["nan"]] * 3


@pytest.mark.parametrize("name", ["fig6_sweep", "fig7_sweep"])
def test_schmidt_cells_equal_their_scalar_evaluation(name):
    # P = 2 D_fr/|f2si|^2 has no cancelling difference, so the broadcast and
    # the scalar arithmetic agree to rounding: vartheta and n_min exactly
    raw = config.parse_config(CONFIG_DIR / f"{name}.cfg")
    sc, spec = config.resolve_scenario(raw), config.parse_sweep(raw)
    assert sorted(spec.quantities) == ["entropy", "n_min", "vartheta"]
    axis2 = None if spec.axis2 is None else spec.axis2.values
    grid = config.sweep_point(sc, spec)
    mp = config.scenario_material(sc)
    for i, v1 in enumerate(spec.axis1.values):
        for j, v2 in enumerate([None] if axis2 is None else axis2):
            cell = config._evaluate_sweep(sc, spec, mp, v1, v2)[1]
            assert grid.errors[i][j] is None
            assert grid.values["vartheta"][i][j] == cell["vartheta"]
            assert grid.values["n_min"][i][j] == cell["n_min"]
            assert grid.values["entropy"][i][j] == pytest.approx(
                cell["entropy"], rel=1e-15, abs=0)
