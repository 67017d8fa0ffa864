"""Golden outputs: shipped sweeps and scenarios against stored reference files.

The files under tests/data/golden were written by the CLI once the
material derivatives were closed forms (analytic Sellmeier derivatives,
group velocities and overlap expansion) and the smallest feasible beam
width the larger zero of a quadratic; any change that moves a number by
more than 1e-12 relative, or moves a NaN, fails here. Regenerate them
only for a change that is meant to alter outputs, and say which outputs
moved and why.
"""

import json
from pathlib import Path

import pytest

from counterpairs.cli import main

from conftest import assert_tree_close

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
