"""Command-line driver: scenario/sweep/inverse round trips and determinism."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from counterpairs import cli, config
from counterpairs.cli import build_parser, main
from counterpairs.config import (
    apply_sweep_value,
    build_scenario_tpsa,
    parse_config,
    parse_sweep,
    resolve_scenario,
)
from counterpairs.entanglement import schmidt
from counterpairs.errors import ConfigInvalid, CounterpairsError, TotalInternalReflection
from counterpairs.spectral import pair_rate
from counterpairs.temporal import flux, hom_params
from counterpairs.tpsa import normalize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "data" / "golden"
INVERSE_INPUTS = GOLDEN_INPUTS / "inverse"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fig2_cfg(tmp_path):
    dst = tmp_path / "fig2.cfg"
    shutil.copy(CONFIG_DIR / "fig2.cfg", dst)
    return dst


# centrals whose pump angle n0 sin(theta_p0) exceeds 1: no angle outside the material
NO_EXTERNAL_ANGLE = {"centrals.lambda_s0": "0.8e-6 m", "centrals.lambda_i0": "2.2e-6 m",
                     "pump.lambda_p0": f"{1e-6 / (1 / 0.8 + 1 / 2.2)!r} m"}


def grid_cells(path: Path) -> list:
    """The cells of a sweep grid CSV, without its header row and axis column."""
    return [row.split(",")[1:] for row in path.read_text().splitlines()[1:]]


def config_with(path: Path, settings: dict, base: str | Path) -> Path:
    """Write a shipped config (or, by absolute path, any input file of 'key = value'
    lines) to path with some of its lines replaced or added, and those of the
    keys set to None dropped."""
    lines = [line for line in (CONFIG_DIR / base).read_text().splitlines()
             if line.split(" = ")[0] not in settings]
    path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in settings.items()
                                       if v is not None]) + "\n")
    return path


# (settings, the guard that names them, the commands they fail)
OVERFLOWING = [
    ({"pump.tau_p": "1e300 s"}, "pump and filter", ("scenario", "hom", "schmidt")),
    ({"pump.Z_p": "1e300 m"}, "pump and filter", ("scenario", "hom", "schmidt")),
    ({"pump.a_p": "1e300"}, "pump and filter", ("scenario", "hom", "schmidt")),
    ({"filters.sigma_s": "1e-300 rad/s"}, "pump and filter", ("scenario", "hom", "schmidt")),
    # assembles, then overflows in the time-domain and dip closed forms
    ({"filters.sigma_s": "1e-100 rad/s"}, "the scenario's", ("scenario", "hom")),
    # assembles, then overflows in the Schmidt numbers; the dip stays in range
    ({"pump.tau_p": "1e85 s", "pump.a_p": "1e10", "pump.Z_p": "1e83 m"}, "the scenario's",
     ("scenario", "schmidt")),
]

# (input key, a value just outside its domain, the domain) for every key whose
# domain bounds it, in the config and the widths file alike
OUTSIDE = [(key, "-1" if domain == ">= 0" else "0", domain)
           for table in (config._SCHEMA, cli._WIDTHS_KEYS)
           for key, (_, _, _, domain) in table.items() if domain in ("> 0", ">= 0")]


@pytest.mark.parametrize("key,number,domain", OUTSIDE, ids=[key for key, _, _ in OUTSIDE])
def test_value_outside_its_domain_names_its_key(capsys, tmp_path, key, number, domain):
    measured = key in cli._WIDTHS_KEYS
    unit = (cli._WIDTHS_KEYS if measured else config._SCHEMA)[key][0]
    value = number if unit is None else f"{number} {unit}"
    if measured:
        widths = config_with(tmp_path / "widths.cfg", {key: value},
                             INVERSE_INPUTS / "fig2_split_widths.cfg")
        args = ("inverse", "--widths", str(widths),
                "--hom-csv", str(INVERSE_INPUTS / "fig2_split_dip.csv"))
    else:
        args = ("scenario", "--config",
                str(config_with(tmp_path / "bad.cfg", {key: value}, "fig2.cfg")))
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err == f"error: {key} must be {domain}; got {value!r} [field: {key}]\n"


# (command, the config: its whole text, or a shipped file with some keys set
# or, set to None, dropped; the message, the field it names) for each check
# of a config file's lines, keys and sweep section
CONFIG_ERRORS = [
    ("scenario", "pump.tau_p 1e-13 s\n",
     "line 1: expected 'key = value', got 'pump.tau_p 1e-13 s'", None),
    ("scenario", "", "missing required key 'waveguide.alpha'", "waveguide.alpha"),
    ("scenario", ("fig2.cfg", {"pump.a_p": "0.1 s"}),
     "pump.a_p is dimensionless; got '0.1 s'", "pump.a_p"),
    ("scenario", ("fig2.cfg", {"pump.Dtilde_theta": "0 rad*s", "pump.D_theta_out": "0 deg/m"}),
     "give either pump.Dtilde_theta or pump.D_theta_out, not both", "pump.D_theta_out"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1": "pump.theta_p0"}),
     "sweep.axis1: 'pump.theta_p0' is not sweepable", "sweep.axis1"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis2_points": None}),
     "sweep.axis2 needs sweep.axis2_range and sweep.axis2_points", "sweep.axis2"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1_range": "1e-14 2e-12"}),
     "sweep.axis1_range must be '<lo> <hi> s'", "sweep.axis1_range"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1_range": "short 2e-12 s"}),
     "sweep.axis1_range: could not convert string to float: 'short'", "sweep.axis1_range"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1_points": "many"}),
     "sweep.axis1_points: invalid literal for int() with base 10: 'many'",
     "sweep.axis1_points"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1_points": "0"}),
     "sweep.axis1_points must be >= 1", "sweep.axis1_points"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.axis1_scale": "cubic"}),
     "sweep.axis1_scale must be linear or log", "sweep.axis1_scale"),
    ("sweep", ("fig2.cfg", {}), "sweep.axis1 is required for sweeps", "sweep.axis1"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.quantities": None}),
     "sweep.quantities is required", "sweep.quantities"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.quantities": "entropy bogus"}),
     f"unknown sweep quantity 'bogus'; choose from {sorted(config.QUANTITIES)}",
     "sweep.quantities"),
    ("sweep", ("fig6_sweep.cfg", {"sweep.quantities": ","}),
     "sweep.quantities is empty", "sweep.quantities"),
]


@pytest.mark.parametrize("command,source,message,field", CONFIG_ERRORS,
                         ids=[message.split(";")[0] for _, _, message, _ in CONFIG_ERRORS])
def test_a_bad_config_names_its_line_or_field(capsys, tmp_path, command, source, message,
                                              field):
    cfg = tmp_path / "bad.cfg"
    if isinstance(source, str):
        cfg.write_text(source)
    else:
        config_with(cfg, source[1], source[0])
    out_dir = tmp_path / "out"
    extra = ["--out-dir", str(out_dir)] if command == "sweep" else []
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra)
    assert (code, out) == (1, "")
    assert err == f"error: {message}{'' if field is None else f' [field: {field}]'}\n"
    assert not out_dir.exists()


def test_only_sweepable_settings_are_applied():
    # the CLI checks an axis before it applies it, so only a library call gets here
    sc = resolve_scenario(parse_config(CONFIG_DIR / "fig2.cfg"))
    with pytest.raises(ConfigInvalid, match="'pump.theta_p0' is not sweepable") as exc:
        apply_sweep_value(sc, "pump.theta_p0", 0.1)
    assert exc.value.field == "pump.theta_p0"


# (arguments, the one that names a path that cannot be read or written):
# {dir} is a directory, {file} a regular file, {model} a config whose
# waveguide.model names a directory ending in .json
BAD_PATHS = [
    pytest.param(["scenario", "--config", "{dir}"], "{dir}", id="--config"),
    pytest.param(["scenario", "--config", "{fig2}", "--out", "{dir}"], "{dir}", id="--out"),
    pytest.param(["sweep", "--config", "{fig2_sweep}", "--out-dir", "{file}"], "{file}",
                 id="--out-dir"),
    pytest.param(["hom", "--config", "{fig2}", "--curve-out", "{dir}"], "{dir}",
                 id="--curve-out"),
    pytest.param(["inverse", "--widths", "{dir}", "--hom-csv", "{dip}"], "{dir}", id="--widths"),
    pytest.param(["inverse", "--widths", "{widths}", "--hom-csv", "{dir}"], "{dir}",
                 id="--hom-csv"),
    pytest.param(["scenario", "--config", "{model}"], "{dir}.json", id="waveguide.model"),
]


@pytest.mark.parametrize("argv,path", BAD_PATHS)
def test_a_path_that_cannot_be_used_is_a_user_error(capsys, tmp_path, argv, path):
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file",
             "fig2": CONFIG_DIR / "fig2.cfg", "fig2_sweep": CONFIG_DIR / "fig2_sweep.cfg",
             "dip": INVERSE_INPUTS / "fig2_dip.csv",
             "widths": INVERSE_INPUTS / "fig2_widths.cfg", "model": tmp_path / "model.cfg"}
    paths["dir"].mkdir()
    (tmp_path / "dir.json").mkdir()
    paths["file"].write_text("")
    config_with(paths["model"], {"waveguide.model": f"{paths['dir']}.json"}, "fig2.cfg")
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "internal error" not in err
    assert f"'{path.format(**paths)}'" in err


def test_readme_tables_give_each_key_its_unit_and_domain():
    # one row per input key in the config and widths tables, read off the same tables
    def cell(token):
        return "-" if token is None else f"`{token}`"

    expected = {key: (cell(unit), cell(domain))
                for table in (config._SCHEMA, cli._WIDTHS_KEYS)
                for key, (unit, _, _, domain) in table.items() if not key.startswith("sweep.")}
    rows = {}
    for line in README.read_text().splitlines():
        cells = [part.strip() for part in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in expected:
            rows[cells[0].strip("`")] = (cells[1], cells[2])
    assert rows == expected


class TestScenario:
    def test_reference_rate_in_band(self, capsys, fig2_cfg):
        code, out, _ = run_cli(capsys, "scenario", "--config", str(fig2_cfg))
        assert code == 0
        doc = json.loads(out)
        assert 1e4 <= doc["rate"]["N_pairs_per_s"] <= 9e4
        assert 3.8e-4 / 3 <= doc["rate"]["per_pulse_probability"] <= 3.8e-4 * 3
        # resolved amplitude echoed for reproducibility
        assert doc["tpsa"]["f2s_s2"][0] > 0
        assert doc["inputs"]["pump"]["theta_p0_rad"] == 0.0

    def test_separability_config_reports_zero_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--neglect-g",
                               "--config", str(CONFIG_DIR / "separable.cfg"))
        assert code == 0
        doc = json.loads(out)
        assert doc["schmidt"]["entropy_bits"] == 0.0
        assert doc["schmidt"]["n_min"] == 1

    def test_zero_pump_power_keeps_the_schmidt_section(self, capsys, tmp_path):
        # no pairs at 0 W, but the amplitude's shape and so its entanglement
        # are those at any power: the Schmidt spectrum never normalizes it
        text = (CONFIG_DIR / "fig2.cfg").read_text()
        dark = tmp_path / "dark.cfg"
        dark.write_text(text.replace("pump.P_p = 1 W", "pump.P_p = 0 W"))
        assert "pump.P_p = 0 W" in dark.read_text()
        code, out, _ = run_cli(capsys, "scenario", "--config", str(dark))
        assert code == 0
        doc = json.loads(out)
        assert doc["rate"]["N_pairs_per_s"] == 0.0
        _, lit, _ = run_cli(capsys, "scenario", "--config", str(CONFIG_DIR / "fig2.cfg"))
        assert doc["schmidt"] == json.loads(lit)["schmidt"]

    def test_malformed_unit_names_field(self, capsys, tmp_path):
        text = (CONFIG_DIR / "fig2.cfg").read_text().replace(
            "pump.tau_p = 1e-13 s", "pump.tau_p = 1e-13 sec")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
        assert code == 1
        assert "pump.tau_p" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text((CONFIG_DIR / "fig2.cfg").read_text()
                       + "pump.waist = 1e-5 m\n")
        code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
        assert code == 1
        assert "pump.waist" in err

    def test_energy_conservation_guard(self, capsys, tmp_path):
        text = (CONFIG_DIR / "fig2.cfg").read_text().replace(
            "centrals.lambda_i0 = 1.064e-6 m", "centrals.lambda_i0 = 1.1e-6 m")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
        assert code == 1
        assert "energy conservation" in err

    @pytest.mark.parametrize("key,value", [
        ("pump.P_p", "inf W"), ("pump.f_rep", "inf 1/s"), ("waveguide.d", "inf m/V"),
        ("filters.sigma_s", "inf rad/s"), ("pump.a_p", "nan"),
        ("pump.D_theta_out", "-inf deg/m")])
    def test_non_finite_value_names_field(self, capsys, tmp_path, key, value):
        bad = config_with(tmp_path / "bad.cfg", {key: value}, "fig2.cfg")
        code, out, err = run_cli(capsys, "scenario", "--config", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {key}: {value.split()[0]!r} is not a finite number [field: {key}]\n"

    @pytest.mark.parametrize("command,settings,what", [
        pytest.param(command, settings, what, id=" ".join([command, *(f"{k}={v}" for k, v in settings.items())]))
        for settings, what, commands in OVERFLOWING for command in commands])
    def test_settings_that_overflow_are_user_errors(self, capsys, tmp_path, command, settings,
                                                    what):
        bad = config_with(tmp_path / "bad.cfg", settings, "fig2.cfg")
        code, out, err = run_cli(capsys, command, "--config", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} settings leave double range (")

    @pytest.mark.parametrize("command,p_min", [("scenario", "nan"), ("scenario", "1"),
                                               ("schmidt", "0"), ("sweep", "7")])
    def test_p_min_outside_the_unit_interval_names_field(self, capsys, tmp_path, command,
                                                         p_min):
        out_dir = tmp_path / "out"
        extra = ["--out-dir", str(out_dir)] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--config", str(CONFIG_DIR / "fig2_sweep.cfg"),
                                 "--p-min", p_min, *extra)
        assert (code, out) == (1, "")
        assert err == (f"error: p_min must lie in (0, 1); got {float(p_min)!r}"
                       " [field: p_min]\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_external_angle_echoes_a_null_lab_dispersion(self, capsys, tmp_path, fmt):
        # the pump cannot leave the crystal, so it has no dispersion outside
        # it; with none set, that is no error
        cfg = config_with(tmp_path / "tir.cfg", NO_EXTERNAL_ANGLE, "fig2.cfg")
        code, out, err = run_cli(capsys, "scenario", "--config", str(cfg), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["inputs"]["pump"]["D_theta_out_deg_per_m"] is None
        else:
            assert "inputs.pump.D_theta_out_deg_per_m," in out.splitlines()

    def test_external_angular_dispersion_without_an_external_angle(self, capsys, tmp_path):
        cfg = config_with(tmp_path / "tir.cfg",
                          {**NO_EXTERNAL_ANGLE, "pump.D_theta_out": "1e8 deg/m"}, "fig2.cfg")
        with pytest.raises(TotalInternalReflection):
            resolve_scenario(parse_config(cfg))
        code, out, err = run_cli(capsys, "scenario", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: n0 sin(theta_p0) = ")
        assert err.endswith(" has no external angle\n")

    def test_csv_format(self, capsys, fig2_cfg):
        code, out, _ = run_cli(capsys, "scenario", "--config", str(fig2_cfg),
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("rate.N_pairs_per_s,") for line in lines)


class TestSweep:
    def _mini_sweep_cfg(self, tmp_path, points1=3, points2=2):
        text = (CONFIG_DIR / "fig2.cfg").read_text() + (
            "sweep.axis1 = pump.tau_p\n"
            "sweep.axis1_range = 5e-14 5e-13 s\n"
            "sweep.axis1_scale = log\n"
            f"sweep.axis1_points = {points1}\n"
            "sweep.axis2 = pump.Z_p\n"
            "sweep.axis2_range = 5e-6 5e-5 m\n"
            "sweep.axis2_scale = log\n"
            f"sweep.axis2_points = {points2}\n"
            "sweep.quantities = sigma_lambda_s entropy N\n"
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        return cfg

    def test_grid_layout_and_manifest(self, capsys, tmp_path):
        cfg = self._mini_sweep_cfg(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out-dir", str(out_dir))
        assert code == 0
        for name in ("sigma_lambda_s", "entropy", "N"):
            lines = (out_dir / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 4  # header + 3 axis1 rows
            assert lines[0].startswith("pump.tau_p [s] \\ pump.Z_p [m]")
            assert len(lines[1].split(",")) == 3  # axis1 value + 2 columns
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert manifest["quantities"]["sigma_lambda_s"] == "nm"
        assert manifest["errors"] == []
        assert len(manifest["config_sha256"]) == 64

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_manifest_hashes_a_piped_config(self, capsys, tmp_path):
        # a pipe can be read once: the manifest must hash the bytes that were parsed
        cfg = CONFIG_DIR / "fig5_sweep.cfg"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "counterpairs.cli", "sweep", "--config", "/dev/stdin",
             "--out-dir", str(tmp_path / "piped")],
            input=cfg.read_bytes(), env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "file"))
        assert code == 0
        piped, direct = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                         for d in ("piped", "file"))
        assert piped == direct
        manifest = json.loads(piped["sweep_manifest.json"])
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_manifest_records_p_min(self, capsys, tmp_path):
        # n_min depends on the mode-count target, so the manifest names it
        cfg = CONFIG_DIR / "fig7_sweep.cfg"
        runs = {}
        for p_min in ("0.95", "0.5"):
            out_dir = tmp_path / p_min
            code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                 "--out-dir", str(out_dir), "--p-min", p_min)
            assert code == 0
            manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
            assert manifest["p_min"] == float(p_min)
            runs[p_min] = (out_dir / "n_min.csv").read_text()
        assert runs["0.95"] != runs["0.5"]

    def test_single_point_sweep_matches_scenario(self, capsys, tmp_path, fig2_cfg):
        text = (CONFIG_DIR / "fig2.cfg").read_text() + (
            "sweep.axis1 = pump.tau_p\n"
            "sweep.axis1_range = 1e-13 1e-13 s\n"
            "sweep.axis1_points = 1\n"
            "sweep.quantities = N sigma_lambda_s delta_tau_l\n"
        )
        cfg = tmp_path / "point.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out-dir", str(out_dir))
        assert code == 0
        code, out, _ = run_cli(capsys, "scenario", "--config", str(fig2_cfg))
        doc = json.loads(out)
        n_cell = float((out_dir / "N.csv").read_text().splitlines()[1].split(",")[1])
        assert n_cell == pytest.approx(doc["rate"]["N_pairs_per_s"], rel=1e-12, abs=0)
        width_cell = float((out_dir / "sigma_lambda_s.csv")
                           .read_text().splitlines()[1].split(",")[1])
        assert width_cell == pytest.approx(
            doc["spectra"]["sigma_lambda_s_nm"], rel=1e-12, abs=0)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = self._mini_sweep_cfg(tmp_path)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                 "--out-dir", str(d))
            assert code == 0
        for name in ("sigma_lambda_s.csv", "entropy.csv", "N.csv",
                     "sweep_manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_workers_option_is_a_usage_error(self, capsys, tmp_path):
        # sweeps run in one process, so there is no worker-count option
        cfg = self._mini_sweep_cfg(tmp_path)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir),
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failing_cells_do_not_abort_the_sweep(self, capsys, tmp_path):
        # at tau_p = 0.52 fs, D_f cancels below its floor at Z_p = 10 cm
        # (SingularTransform): that cell turns NaN in every requested grid, with
        # its message in the manifest and its class name in errors.csv, and the
        # rest are still written. The amplitude is exchange-symmetric on this
        # axis, so the dip contrast is exactly 1 in every cell, the failing one
        # included: only the time-domain quantity fails there.
        base = (CONFIG_DIR / "fig2.cfg").read_text().replace(
            "pump.tau_p = 1e-13 s", "pump.tau_p = 5.2e-16 s") + (
            "sweep.axis1 = pump.Z_p\n"
            "sweep.axis1_range = 1e-7 1e-1 m\n"
            "sweep.axis1_scale = log\n"
            "sweep.axis1_points = 9\n"
        )
        quantities = "hom_A visibility entropy N sigma_tau_s"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(base + f"sweep.quantities = {quantities}\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        errors = [row.split(",")[1] for row in
                  (out_dir / "errors.csv").read_text().splitlines()[1:]]
        assert sorted(manifest["files"]) == sorted(quantities.split())

        raw = parse_config(cfg)
        sc = resolve_scenario(raw)
        messages = set()
        failed = []
        for z_p in parse_sweep(raw).axis1.values:
            tpsa = build_scenario_tpsa(apply_sweep_value(sc, "pump.Z_p", z_p))
            assert tpsa.f2s == tpsa.f2i and tpsa.f1s == tpsa.f1i
            assert hom_params(tpsa).a == 1.0
            try:
                schmidt(normalize(tpsa)), pair_rate(tpsa), flux(tpsa, "s")
                failed.append("")
            except CounterpairsError as exc:
                messages.add(str(exc))
                failed.append(type(exc).__name__)
        assert failed == [""] * 8 + ["SingularTransform"]
        assert all(m.startswith("|D_f| = ") for m in messages)
        assert manifest["errors"] == sorted(messages)
        assert errors == failed
        for name, fname in manifest["files"].items():
            rows = (out_dir / fname).read_text().splitlines()[1:]
            cells = [float(row.split(",")[1]) for row in rows]
            assert [np.isnan(x) for x in cells] == [bool(f) for f in failed]
            if name == "hom_A":
                assert cells[:-1] == [1.0] * 8

    @pytest.mark.parametrize("axis", [
        {"sweep.axis1_range": "1e-14 inf s"},
        {"sweep.axis1_range": "nan 1e-12 s"},
        # finite bounds 313 decades apart: the log-grid ratio is inf
        {"sweep.axis1": "filters.sigma_both", "sweep.axis1_range": "1e-300 1e13 rad/s"}])
    def test_non_finite_axis_names_field(self, capsys, tmp_path, axis):
        cfg = config_with(tmp_path / "bad.cfg", {"sweep.axis1_scale": "log", **axis},
                          "fig6_sweep.cfg")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert err == ("error: sweep.axis1_range: bounds and grid must be finite"
                       " [field: sweep.axis1_range]\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("points", ["1", "2"])
    def test_log_axis_with_a_non_positive_bound_names_field(self, capsys, tmp_path, points):
        # one point checks the bounds as two do
        cfg = config_with(tmp_path / "bad.cfg", {
            "sweep.axis1_range": "-1e-13 1e-12 s", "sweep.axis1_points": points},
            "fig6_sweep.cfg")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert err == ("error: sweep.axis1_range: log scale needs positive bounds"
                       " [field: sweep.axis1_range]\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("lo,quantities,message", [
        # 1/sigma^2 divides by zero in the assembly
        ("1e-300", "entropy n_min vartheta",
         "pump and filter settings leave double range (float division by zero)"),
        # assembles, then a square overflows in the dip and time-domain forms
        ("1e-100", "hom_A sigma_tau_s",
         "the swept settings leave double range (")])
    def test_a_cell_that_overflows_fails_only_itself(self, capsys, tmp_path, lo, quantities,
                                                     message):
        # the filter width lo is in the first row only
        cfg = config_with(tmp_path / "tiny.cfg", {
            "sweep.axis1": "filters.sigma_both", "sweep.axis1_range": f"{lo} 1e13 rad/s",
            "sweep.axis1_scale": "linear", "sweep.axis1_points": "3",
            "sweep.axis2_points": "4", "sweep.quantities": quantities}, "fig6_sweep.cfg")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert len(manifest["errors"]) == 1 and manifest["errors"][0].startswith(message)
        rows = [row.split(",")[1:] for row in
                (out_dir / "errors.csv").read_text().splitlines()[1:]]
        assert rows == [["OutOfRange"] * 4, [""] * 4, [""] * 4]
        for fname in manifest["files"].values():
            cells = [row.split(",")[1:] for row in
                     (out_dir / fname).read_text().splitlines()[1:]]
            assert cells[0] == ["nan"] * 4 and "nan" not in cells[1] + cells[2]

    def test_invalid_swept_value_fails_only_its_cells(self, capsys, tmp_path):
        # a linear Z_p axis from 0: PumpSpec rejects Z_p = 0 for that row only
        cfg = tmp_path / "zero.cfg"
        cfg.write_text((CONFIG_DIR / "fig2.cfg").read_text() + (
            "sweep.axis1 = pump.Z_p\n"
            "sweep.axis1_range = 0 1e-5 m\n"
            "sweep.axis1_points = 3\n"
            "sweep.quantities = N entropy\n"
        ))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert manifest["errors"] == ["lambda_p0, tau_p, z_p, y_p must be positive"]
        for fname in manifest["files"].values():
            rows = (out_dir / fname).read_text().splitlines()[1:]
            cells = [float(row.split(",")[1]) for row in rows]
            assert float(rows[0].split(",")[0]) == 0.0 and np.isnan(cells[0])
            assert all(np.isfinite(cells[1:])) and len(cells) == 3

    def test_angle_axis_without_an_external_angle_fails_every_cell(self, capsys, tmp_path):
        cfg = config_with(tmp_path / "tir.cfg", {**NO_EXTERNAL_ANGLE, "sweep.axis1_points": "3",
                                                 "sweep.axis2_points": "2"}, "fig3_sweep.cfg")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert len(manifest["errors"]) == 1
        assert manifest["errors"][0].endswith(" has no external angle")
        assert grid_cells(out_dir / "errors.csv") == [["TotalInternalReflection"] * 2] * 3
        for fname in manifest["files"].values():
            assert grid_cells(out_dir / fname) == [["nan"] * 2] * 3

    def test_a_cell_left_non_finite_fails(self, capsys, tmp_path):
        # per_pulse = N / f_rep overflows to inf in every cell, and raises nowhere
        cfg = config_with(tmp_path / "tiny.cfg", {
            "pump.f_rep": "5e-324 1/s", "sweep.axis1_points": "3", "sweep.axis2_points": "2",
            "sweep.quantities": "per_pulse N"}, "fig2_sweep.cfg")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert manifest["errors"] == ["sweep quantity per_pulse = inf is not finite"]
        assert grid_cells(out_dir / "errors.csv") == [["OutOfRange"] * 2] * 3
        for fname in ("per_pulse.csv", "N.csv"):
            assert grid_cells(out_dir / fname) == [["nan"] * 2] * 3


class TestOutputFormat:
    """Outputs carry plain numbers: no numpy reprs, and every sweep cell parses."""

    @pytest.mark.parametrize("stem", ["fig2", "separable"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_scenario_output_has_no_numpy_repr(self, capsys, stem, fmt):
        code, out, _ = run_cli(capsys, "scenario", "--config",
                               str(CONFIG_DIR / f"{stem}.cfg"), "--format", fmt)
        assert code == 0 and "np." not in out

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*_sweep.cfg")))
    def test_sweep_cells_parse_as_numbers(self, capsys, tmp_path, name):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                             "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        two_axes = manifest["axis2"] is not None
        for fname in manifest["files"].values():
            text = (out_dir / fname).read_text()
            assert "np." not in text
            rows = [line.split(",") for line in text.splitlines()]
            for cell in rows[0][1:] if two_axes else []:
                float(cell)
            for row in rows[1:]:
                for cell in row:
                    float(cell)
                if fname == "n_min.csv":
                    assert all(cell == str(int(cell)) for cell in row[1:])

    @staticmethod
    def _no_constant(name):
        raise AssertionError(f"{name} is not strict JSON")

    @pytest.mark.parametrize("command", ["scenario", "schmidt", "hom", "phase-match"])
    @pytest.mark.parametrize("neglect_g", [False, True], ids=["with-g", "neglect-g"])
    def test_json_output_is_strict(self, capsys, command, neglect_g):
        # no NaN or Infinity on any shipped config: a separable P is null
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            argv = [command, "--config", str(cfg)] + (["--neglect-g"] if neglect_g else [])
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), cfg.name
            json.loads(out, parse_constant=self._no_constant)
        assert len(list(CONFIG_DIR.glob("*.cfg"))) == 8

    @pytest.mark.parametrize("command", ["scenario", "hom", "schmidt", "phase-match",
                                         "dispersion-info", "inverse"])
    def test_csv_output_rows_have_two_fields(self, capsys, command):
        # the material label holds commas, so its rows must be quoted
        if command == "inverse":
            runs = [["--widths", str(INVERSE_INPUTS / f"{stem}_widths.cfg"),
                     "--hom-csv", str(INVERSE_INPUTS / f"{stem}_dip.csv")]
                    for stem in ("fig2", "fig2_split")]
        else:
            extra = ["--at", "1.064e-6"] if command == "dispersion-info" else []
            runs = [["--config", str(cfg), *extra] for cfg in sorted(CONFIG_DIR.glob("*.cfg"))]
        assert len(runs) == (2 if command == "inverse" else 8)
        for argv in runs:
            code, out, err = run_cli(capsys, command, *argv, "--format", "csv")
            assert (code, err) == (0, ""), argv
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["key", "value"]
            assert all(len(row) == 2 for row in rows), argv
            if command in ("scenario", "dispersion-info"):
                model = "inputs.waveguide.model" if command == "scenario" else "model"
                assert dict(rows)[model] == "congruent LiNbO3, extraordinary index, 25 C"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_non_finite_value_names_its_key(self, capsys, tmp_path, fmt):
        # per_pulse = N / f_rep overflows to inf, and raises nowhere
        cfg = config_with(tmp_path / "tiny.cfg", {"pump.f_rep": "5e-324 1/s"}, "fig2.cfg")
        out_file = tmp_path / f"out.{fmt}"
        code, out, err = run_cli(capsys, "scenario", "--config", str(cfg), "--format", fmt,
                                 "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err == "error: rate.per_pulse_probability = inf is not finite\n"
        assert not out_file.exists()

    def test_separable_p_is_null_and_an_empty_csv_value(self, capsys):
        argv = ["--config", str(CONFIG_DIR / "separable.cfg"), "--neglect-g"]
        code, out, _ = run_cli(capsys, "schmidt", *argv)
        assert code == 0 and json.loads(out)["P"] is None
        code, out, _ = run_cli(capsys, "scenario", *argv, "--format", "csv")
        assert code == 0 and "schmidt.P," in out.splitlines()


class TestHomAndSchmidt:
    def test_hom_json_and_curve(self, capsys, fig2_cfg, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "hom", "--config", str(fig2_cfg),
                               "--curve-out", str(curve))
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == pytest.approx(1.0, abs=1e-12)
        rows = curve.read_text().splitlines()
        assert rows[0] == "tau_l [s],R_n [1]"
        mid = rows[1 + (len(rows) - 1) // 2]
        assert float(mid.split(",")[1]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("option,value,rule", [
        ("--span", "nan", "finite and > 0"), ("--span", "inf", "finite and > 0"),
        ("--span", "0", "finite and > 0"), ("--points", "0", "a positive integer"),
        ("--points", "-5", "a positive integer")])
    def test_curve_options_are_validated(self, capsys, fig2_cfg, tmp_path, option, value, rule):
        curve = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "hom", "--config", str(fig2_cfg),
                                 "--curve-out", str(curve), option, value)
        assert (code, out) == (1, "")
        shown = repr(float(value)) if option == "--span" else value
        assert err == f"error: {option} must be {rule}; got {shown} [field: {option}]\n"
        assert not curve.exists()

    def test_non_finite_curve_value_names_its_delay(self, capsys, tmp_path):
        # cos(beat tau) overflows at the ends of a split-centrals curve this wide
        curve = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "hom", "--config",
                                 str(GOLDEN_INPUTS / "scenario" / "fig2_split_dtilde.cfg"),
                                 "--curve-out", str(curve), "--span", "1.7e308",
                                 "--points", "5")
        assert (code, out) == (1, "")
        assert err == "error: R_n at tau_l = -2.059138588039198e+295 s is nan, not finite\n"
        assert not curve.exists()

    def test_schmidt_json(self, capsys, fig2_cfg):
        code, out, _ = run_cli(capsys, "schmidt", "--config", str(fig2_cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["n_min"] == 1 and "n_min_index" not in doc
        lams = doc["lambda_sq_first_8"]
        assert sum(lams) == pytest.approx(1.0, abs=1e-6)


class TestInverse:
    def _write_measurements(self, capsys, tmp_path, cfg):
        code, out, _ = run_cli(capsys, "scenario", "--neglect-g",
                               "--config", str(cfg))
        doc = json.loads(out)
        widths = tmp_path / "widths.cfg"
        widths.write_text(
            f"measure.sigma_omega_s = {doc['spectra']['sigma_omega_s_rad_per_s']!r} rad/s\n"
            f"measure.sigma_omega_i = {doc['spectra']['sigma_omega_i_rad_per_s']!r} rad/s\n"
        )
        curve = tmp_path / "dip.csv"
        code, out, _ = run_cli(capsys, "hom", "--neglect-g",
                               "--config", str(cfg),
                               "--curve-out", str(curve), "--points", "61")
        return widths, curve, doc

    def test_round_trip_from_files(self, capsys, tmp_path, fig2_cfg):
        widths, curve, doc = self._write_measurements(capsys, tmp_path, fig2_cfg)
        code, out, _ = run_cli(capsys, "inverse", "--widths", str(widths),
                               "--hom-csv", str(curve))
        assert code == 0
        result = json.loads(out)
        se_truth = doc["schmidt"]["entropy_bits"]
        best = min(result["roots"],
                   key=lambda r: abs(r["entropy_bits"] - se_truth))
        assert best["entropy_bits"] == pytest.approx(se_truth, abs=1e-6)

    def test_short_sample_file_rejected(self, capsys, tmp_path, fig2_cfg):
        widths, curve, _ = self._write_measurements(capsys, tmp_path, fig2_cfg)
        rows = curve.read_text().splitlines()
        curve.write_text("\n".join(rows[:6]) + "\n")  # header + 5 samples
        code, _, err = run_cli(capsys, "inverse", "--widths", str(widths),
                               "--hom-csv", str(curve))
        assert code == 1
        assert "at least 7" in err


    @pytest.mark.parametrize("key", ["measure.omega_s0", "measure.omega_i0"])
    def test_one_measured_central_names_the_other(self, capsys, tmp_path, fig2_cfg, key):
        widths, curve, _ = self._write_measurements(capsys, tmp_path, fig2_cfg)
        widths.write_text(widths.read_text() + f"{key} = 1.77e15 rad/s\n")
        code, out, err = run_cli(capsys, "inverse", "--widths", str(widths),
                                 "--hom-csv", str(curve))
        other = "measure.omega_i0" if key == "measure.omega_s0" else "measure.omega_s0"
        assert (code, out) == (1, "")
        assert err == (f"error: missing key {other!r}: give both measured centrals or"
                       f" neither [field: {other}]\n")

    def test_non_finite_width_names_field(self, capsys, tmp_path, fig2_cfg):
        widths, curve, _ = self._write_measurements(capsys, tmp_path, fig2_cfg)
        lines = widths.read_text().splitlines()
        widths.write_text("\n".join(["measure.sigma_omega_s = inf rad/s"] + lines[1:]) + "\n")
        code, out, err = run_cli(capsys, "inverse", "--widths", str(widths),
                                 "--hom-csv", str(curve))
        assert (code, out) == (1, "")
        assert err == ("error: measure.sigma_omega_s: 'inf' is not a finite number"
                       " [field: measure.sigma_omega_s]\n")

    @pytest.mark.parametrize("sample", ["inf,1.0", "0.0,nan"])
    def test_non_finite_dip_sample_names_line(self, capsys, tmp_path, fig2_cfg, sample):
        widths, curve, _ = self._write_measurements(capsys, tmp_path, fig2_cfg)
        curve.write_text(curve.read_text() + sample + "\n")
        lineno = len(curve.read_text().splitlines())
        code, out, err = run_cli(capsys, "inverse", "--widths", str(widths),
                                 "--hom-csv", str(curve))
        assert (code, out) == (1, "")
        assert err == (f"error: line {lineno}: non-finite coincidence sample {sample!r}"
                       " [field: --hom-csv]\n")

    @pytest.mark.parametrize("junk", [1, 3])
    def test_dip_file_takes_one_header_line(self, capsys, tmp_path, junk):
        # the golden dip has its header; a line above it is a second one
        dip = tmp_path / "dip.csv"
        dip.write_text("# measured dip\n\n" + "junk\n" * junk
                       + (INVERSE_INPUTS / "fig2_dip.csv").read_text())
        code, out, err = run_cli(capsys, "inverse", "--widths",
                                 str(INVERSE_INPUTS / "fig2_widths.cfg"), "--hom-csv", str(dip))
        assert (code, out) == (1, "")
        second = "junk" if junk > 1 else "tau_l [s],R_n [1]"
        assert err == f"error: line 4: bad coincidence sample {second!r} [field: --hom-csv]\n"

    @pytest.mark.parametrize("line,message", [
        ("measure.sigma_omega_s = 1e13 rad/s", "duplicate key"),
        ("measure.omega_s0 = wide rad/s", "is not a number"),
    ], ids=["duplicate-key", "non-numeric"])
    def test_bad_widths_line_names_field(self, capsys, tmp_path, fig2_cfg, line, message):
        widths, curve, _ = self._write_measurements(capsys, tmp_path, fig2_cfg)
        widths.write_text(widths.read_text() + line + "\n")
        code, _, err = run_cli(capsys, "inverse", "--widths", str(widths),
                               "--hom-csv", str(curve))
        assert code == 1
        assert message in err and f"[field: {line.split()[0]}]" in err

    @pytest.mark.parametrize("widths,scale,what", [
        ((1e300, 1e300), None, "the measured widths and b"),
        ((1e-300, 2e-300), None, "the measured widths and b"),
        (None, 1e150, "the measured widths and b"),
        (None, 1e-170, "the coincidence samples"),
    ], ids=["huge-widths", "tiny-widths", "long-dip", "short-dip"])
    def test_values_leaving_double_range_are_user_errors(self, capsys, tmp_path, widths,
                                                          scale, what):
        widths_file = INVERSE_INPUTS / "fig2_widths.cfg"
        if widths is not None:
            widths_file = tmp_path / "widths.cfg"
            widths_file.write_text(f"measure.sigma_omega_s = {widths[0]!r} rad/s\n"
                                   f"measure.sigma_omega_i = {widths[1]!r} rad/s\n")
        dip = INVERSE_INPUTS / "fig2_dip.csv"
        if scale is not None:   # 21 samples of R = 1 - 0.9 exp(-9 u^2) at tau = scale u
            dip = tmp_path / "dip.csv"
            us = [k / 10 - 1 for k in range(21)]
            dip.write_text("".join(f"{scale * u!r},{1 - 0.9 * math.exp(-9 * u * u)!r}\n"
                                   for u in us))
        code, out, err = run_cli(capsys, "inverse", "--widths", str(widths_file),
                                 "--hom-csv", str(dip))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} leave double range (")


class TestDiagnostics:
    def test_phase_match_subcommand(self, capsys, fig2_cfg):
        code, out, _ = run_cli(capsys, "phase-match", "--config", str(fig2_cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_p0_deg"] == 0.0
        assert abs(doc["residual_rad_per_m"]) < 1e-6

    def test_dispersion_info(self, capsys, fig2_cfg):
        code, out, _ = run_cli(capsys, "dispersion-info", "--config",
                               str(fig2_cfg), "--at", "1.064e-6",
                               "--at", "0.532e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["points"][0]["n0"] == pytest.approx(2.1555, abs=1e-3)
        assert doc["points"][1]["v_bulk_m_per_s"] < doc["points"][0]["v_bulk_m_per_s"]

    def test_dispersion_info_rejects_zero_wavelength(self, capsys, fig2_cfg):
        code, out, err = run_cli(capsys, "dispersion-info", "--config", str(fig2_cfg),
                                 "--at", "1.064e-6", "--at", "0")
        assert (code, out) == (1, "")
        assert err == "error: --at 0.0 is not a positive wavelength [field: --at]\n"

    def test_missing_config_is_user_error(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "--config", "/nowhere.cfg")
        assert code == 1
        assert err


SUBCOMMANDS = ("scenario", "sweep", "hom", "schmidt", "inverse", "phase-match",
               "dispersion-info")


def _exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    """main() parses every request with the one parser built at import.

    Whatever it prints and the namespace it hands on are those of the
    full build_parser().
    """

    EXITS = (
        [["--help"], ["--version"], [], ["bogus"], ["bogus", "--config", "c"],
         ["--version", "scenario"]]
        + [[name, "--help"] for name in SUBCOMMANDS]
        # a missing required option
        + [["scenario"], ["sweep", "--config", "c"], ["inverse", "--widths", "w"],
           ["dispersion-info", "--config", "c"]]
        # a value of the wrong type or outside its choices
        + [["hom", "--config", "c", "--points", "x"],
           ["scenario", "--config", "c", "--p-min", "abc"],
           ["schmidt", "--config", "c", "--format", "xml"]]
        # unrecognized or conflicting arguments
        + [["scenario", "--config", "c", "--bogus"],
           ["scenario", "--config", "c", "--version"],
           ["phase-match", "--config", "c", "--include-g", "--neglect-g"]]
    )

    @pytest.mark.parametrize("argv", EXITS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_exits_as_the_full_parser_does(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = _exit(capsys, main, argv)
        assert got == _exit(capsys, build_parser().parse_args, argv)
        assert got[0] == (0 if "--help" in argv[:2] or argv[:1] == ["--version"] else 2)

    REQUESTS = [
        ["scenario", "--config", "c", "--format", "csv", "--neglect-g"],
        ["sweep", "--config", "c", "--out-dir", "d", "--p-min", "0.9"],
        ["hom", "--config", "c", "--curve-out", "k.csv", "--points", "11", "--span", "2"],
        ["schmidt", "--config", "c", "--p-min", "0.99", "--out", "o.json"],
        ["inverse", "--widths", "w", "--hom-csv", "h.csv"],
        ["phase-match", "--config", "c", "--include-g"],
        ["dispersion-info", "--config", "c", "--at", "1e-6", "--at", "5e-7"],
    ]

    @pytest.mark.parametrize("argv", REQUESTS, ids=lambda argv: argv[0])
    def test_request_namespace_is_the_full_parsers(self, monkeypatch, argv):
        seen = []
        help_text, _, options = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, seen.append, options))
        monkeypatch.setattr(cli, "_PARSER", build_parser())    # main's parser, with the stub
        assert main(argv) == 0
        assert seen == [build_parser().parse_args(argv)]
        assert seen[0].command == argv[0]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "c", "--out-dir", "d", "--format", "csv"],
        ["inverse", "--widths", "w", "--hom-csv", "h", "--include-g"],
        ["inverse", "--widths", "w", "--hom-csv", "h", "--neglect-g"],
        ["inverse", "--widths", "w", "--hom-csv", "h", "--p-min", "0.9"],
        ["hom", "--config", "c", "--points", "11", "--p-min", "0.5"],
        ["phase-match", "--config", "c", "--format", "csv", "--p-min", "0.5"],
        ["dispersion-info", "--config", "c", "--at", "1e-6", "--p-min", "0.5"],
    ], ids=lambda argv: f"{argv[0]} {argv[5]}")
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, capsys, argv):
        # sweep writes no document, inverse builds no scenario, and hom,
        # phase-match and dispersion-info count no Schmidt modes
        code, _, err = _exit(capsys, main, argv)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(argv[5:])}" in err

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--config", "c", "--out", "o"],
         "the following arguments are required: --out-dir"),
        (["sweep", "--config", "c", "--out-dir", "d", "--out", "o"],
         "unrecognized arguments: --out o"),
        (["scenario", "--config", "c", "--neg"], "unrecognized arguments: --neg"),
    ], ids=["sweep-out", "sweep-out-dir-out", "scenario-neg"])
    def test_option_prefixes_are_usage_errors(self, capsys, argv, message):
        # no unique-prefix abbreviations: a prefix never stands for an option
        code, _, err = _exit(capsys, main, argv)
        assert code == 2 and message in err
        assert _exit(capsys, build_parser().parse_args, argv) == (code, "", err)

    def test_a_request_builds_no_parser(self, capsys, monkeypatch, fig2_cfg):
        def refuse(*args, **kwargs):
            raise AssertionError("parser built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert main(["scenario", "--config", str(fig2_cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["rate"]["N_pairs_per_s"] > 0
