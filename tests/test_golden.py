"""Golden outputs: shipped sweeps and scenarios against stored reference files.

The files under tests/data/golden were written by the CLI once the
material derivatives were closed forms (analytic Sellmeier derivatives,
group velocities and overlap expansion) and the smallest feasible beam
width the larger zero of a quadratic (fig2_sweep/sigma_tau_s.csv again
once the time-domain determinant was evaluated without cancellation);
any change that moves a number by
more than 1e-12 relative, or moves a NaN, fails here. Regenerate them
only for a change that is meant to alter outputs, and say which outputs
moved and why.

The per-subcommand files (hom, schmidt, phase-match, dispersion-info,
inverse and the help texts) are compared byte for byte: they pin the
exact output of the CLI, not only its numbers. The inverse inputs are
the fig2 widths and 201-point dip written by `scenario` and `hom`, with
degenerate centrals and with 1.060/1.068 um centrals (fig2_split); they
are stored, so the inverse goldens do not move with the forward model.
The fig2 schmidt and the inverse files were written again when the Schmidt
parameter became P = 2 D_fr/|f2si|^2 (last digits of P, vartheta and what
follows from them), and the hom, phase-match and dispersion-info help
texts when those subcommands stopped taking --p-min. The six sweep
manifests were written again when they started recording p_min, the
mode-count target that n_min.csv depends on; no other key moved.
The two angular-dispersion scenarios (fig2 with pump.D_theta_out, and
1.060/1.068 um centrals with pump.Dtilde_theta) are compared byte for
byte; their configs are stored next to them.
"""

import json
import math
from pathlib import Path

import pytest

from counterpairs import config
from counterpairs.cli import main
from counterpairs.temporal import time_domain

from conftest import assert_tree_close, mp_sigma_tau

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SWEEPS = sorted(p.stem for p in CONFIG_DIR.glob("*_sweep.cfg"))
# fields that name the build or the config file, not a computed value
PROVENANCE = ("config_sha256", "version")


def read_grid(path: Path):
    """Cells of a sweep CSV grid; numbers as floats, labels as strings."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(x) for x in line.split(",")] for line in path.read_text().splitlines()]


def test_every_shipped_sweep_has_golden_data():
    assert len(SWEEPS) == 6
    assert sorted(p.name for p in (GOLDEN / "sweeps").iterdir()) == SWEEPS


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_golden(capsys, tmp_path, name):
    out = tmp_path / name
    assert main(["sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    want_dir = GOLDEN / "sweeps" / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())

    manifest = json.loads((out / "sweep_manifest.json").read_text())
    want_manifest = json.loads((want_dir / "sweep_manifest.json").read_text())
    for key in PROVENANCE:
        manifest.pop(key), want_manifest.pop(key)
    assert manifest == want_manifest

    for fname in sorted(want_manifest["files"].values()):
        assert_tree_close(read_grid(out / fname), read_grid(want_dir / fname),
                          f"{name}/{fname}")


@pytest.mark.parametrize("stem", ["fig2", "separable"])
@pytest.mark.parametrize("neglect_g", [False, True])
@pytest.mark.parametrize("command,extra", [
    ("hom", ["--curve-out", "curve.csv"]),
    ("schmidt", []),
    ("phase-match", []),
    ("dispersion-info", ["--at", "1.064e-6", "--at", "0.532e-6"]),
], ids=["hom", "schmidt", "phase-match", "dispersion-info"])
def test_subcommand_output_is_byte_identical(capsys, monkeypatch, tmp_path, stem, neglect_g,
                                             command, extra):
    monkeypatch.chdir(tmp_path)     # hom names its curve file, relative here, in the output
    argv = [command, "--config", str(CONFIG_DIR / f"{stem}.cfg")] + extra
    argv += ["--neglect-g"] if neglect_g else []
    assert main(argv) == 0
    name = stem + ("_neglect_g" if neglect_g else "")
    assert capsys.readouterr().out == (GOLDEN / command / f"{name}.json").read_text()
    if command == "hom":
        assert ((tmp_path / "curve.csv").read_bytes()
                == (GOLDEN / "hom" / f"{name}_curve.csv").read_bytes())


@pytest.mark.parametrize("name", ["fig2", "fig2_split"])
def test_inverse_output_is_byte_identical(capsys, name):
    inputs = GOLDEN / "inverse"
    assert main(["inverse", "--widths", str(inputs / f"{name}_widths.cfg"),
                 "--hom-csv", str(inputs / f"{name}_dip.csv")]) == 0
    assert capsys.readouterr().out == (inputs / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["counterpairs", "scenario", "sweep", "hom", "schmidt",
                                  "inverse", "phase-match", "dispersion-info"])
def test_help_text_is_byte_identical(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if name == "counterpairs" else [name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / "help" / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", ["fig2_dtheta_out", "fig2_split_dtilde"])
def test_angular_dispersion_scenario_is_byte_identical(capsys, name):
    # the angular dispersion set in the config file: D_theta_out on fig2, and
    # Dtilde_theta at split centrals; each config is stored with its output
    scenario = GOLDEN / "scenario"
    assert main(["scenario", "--config", str(scenario / f"{name}.cfg")]) == 0
    assert capsys.readouterr().out == (scenario / f"{name}.json").read_text()


@pytest.mark.parametrize("stem", ["fig2", "separable"])
@pytest.mark.parametrize("neglect_g", [False, True])
def test_scenario_matches_golden(capsys, stem, neglect_g):
    argv = ["scenario", "--config", str(CONFIG_DIR / f"{stem}.cfg")]
    argv += ["--neglect-g"] if neglect_g else []
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    suffix = "_neglect_g" if neglect_g else ""
    want = json.loads((GOLDEN / "scenario" / f"{stem}{suffix}.json").read_text())
    assert_tree_close(doc, want, f"{stem}{suffix}")


def test_scenario_goldens_cover_the_infeasible_beam_path():
    # with the G terms both configs sit just below the feasible beam width,
    # so separability_roots reports no roots and the smallest feasible Z_p
    for stem in ("fig2", "separable"):
        doc = json.loads((GOLDEN / "scenario" / f"{stem}.json").read_text())
        sep = doc["separability"]
        assert sep["dtilde_theta_roots_rad_s"] == []
        assert sep["min_feasible_Z_p_m"] == pytest.approx(1.332e-5, rel=1e-3, abs=0)


def test_fig2_flux_widths_follow_an_mpmath_inversion():
    # fig2_sweep/sigma_tau_s.csv was regenerated when the time-domain
    # determinant became D_fr/|D_f|^2: the stored cells sit within 1e-15 of
    # a 60-digit inversion of the same coefficients, where the difference
    # 4 t2s t2i - t2si^2 that the earlier file came from is off by ~1e-12
    raw = config.parse_config(CONFIG_DIR / "fig2_sweep.cfg")
    sc = config.resolve_scenario(raw)
    spec = config.parse_sweep(raw)
    rows = read_grid(GOLDEN / "sweeps" / "fig2_sweep" / "sigma_tau_s.csv")[1:]
    stored_err = difference_err = 0.0
    for v1, row in zip(spec.axis1.values, rows, strict=True):
        for v2, stored in zip(spec.axis2.values, row[1:], strict=True):
            point = config.apply_sweep_value(
                config.apply_sweep_value(sc, "pump.tau_p", v1), "pump.Z_p", v2)
            tpsa = config.build_scenario_tpsa(point)
            want = mp_sigma_tau(tpsa, "s") * 1e15
            td = time_domain(tpsa)
            difference = math.sqrt(2.0 * td.t2i / (4.0 * td.t2s * td.t2i - td.t2si**2)) * 1e15
            stored_err = max(stored_err, abs(stored - want) / want)
            difference_err = max(difference_err, abs(difference - want) / want)
    assert stored_err < 1e-15
    assert difference_err > 1e-13
