"""Golden outputs: shipped sweeps and scenarios against stored reference files.

The files under tests/data/golden were written by the CLI before the
material layer was evaluated once per (waveguide, centrals); any change
that moves a number by more than 1e-12 relative, or moves a NaN, fails
here. Regenerate them only for a change that is meant to alter outputs,
and say which outputs moved and why.
"""

import json
import math
from pathlib import Path

import pytest

from counterpairs.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
REL = 1e-12
SWEEPS = sorted(p.stem for p in CONFIG_DIR.glob("*_sweep.cfg"))
# fields that name the build or the config file, not a computed value
PROVENANCE = ("config_sha256", "version")


def assert_close(got, want, where):
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got), f"{where}: {got!r} is not NaN"
    elif isinstance(want, float) and math.isinf(want):
        assert got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert not math.isnan(got), f"{where}: NaN where {want!r} was stored"
        assert abs(got - want) <= REL * max(abs(got), abs(want)), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_tree_close(got, want, where=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_tree_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_tree_close(g, w, f"{where}[{k}]")
    else:
        assert_close(got, want, where)


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


def test_scenario_goldens_cover_the_bisection_path():
    # with the G terms both configs sit just below the feasible beam width,
    # so separability_roots walks its doubling bracket and bisection there
    for stem in ("fig2", "separable"):
        doc = json.loads((GOLDEN / "scenario" / f"{stem}.json").read_text())
        sep = doc["separability"]
        assert sep["dtilde_theta_roots_rad_s"] == []
        assert sep["min_feasible_Z_p_m"] == pytest.approx(1.332e-5, rel=1e-3)
