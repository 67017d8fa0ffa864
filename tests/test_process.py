"""What a fresh process loads: the scalar path never imports numpy, and a request
imports no module that importing the CLI did not.

These run the package in new interpreters, because this test process has
numpy loaded already (conftest imports it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from counterpairs.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs"
INVERSE = Path(__file__).resolve().parent / "data" / "golden" / "inverse"


def run_fresh(script: str, *args, cwd: Path) -> None:
    """Run script in a new interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


SCALAR_PATH = """
import json, sys
import counterpairs
assert "numpy" not in sys.modules, "import counterpairs loaded numpy"
from counterpairs.cli import main
loaded = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    # numpy above all: a request imports nothing that the import did not
    assert set(sys.modules) == loaded, f"{argv[0]} imported {sorted(set(sys.modules) - loaded)}"
"""

# (output file, arguments): each scalar subcommand, and scenario in both formats
SCALAR_RUNS = [
    ("scenario.json", ["scenario", "--config", CONFIG / "fig2.cfg"]),
    ("scenario.csv", ["scenario", "--config", CONFIG / "fig2.cfg", "--format", "csv"]),
    ("schmidt.json", ["schmidt", "--config", CONFIG / "fig2.cfg"]),
    ("hom.json", ["hom", "--config", CONFIG / "fig2.cfg"]),
    ("phase-match.json", ["phase-match", "--config", CONFIG / "fig2.cfg"]),
    ("dispersion-info.json", ["dispersion-info", "--config", CONFIG / "fig2.cfg",
                              "--at", "1.064e-6", "--at", "0.532e-6"]),
    ("inverse.json", ["inverse", "--widths", INVERSE / "fig2_split_widths.cfg",
                      "--hom-csv", INVERSE / "fig2_split_dip.csv"]),
]


def test_the_scalar_path_never_loads_numpy(tmp_path):
    # and writes the same bytes as this process, which has numpy loaded
    runs = {name: [str(a) for a in argv] for name, argv in SCALAR_RUNS}
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir(), here.mkdir()
    run_fresh(SCALAR_PATH, json.dumps([argv + ["--out", str(fresh / name)]
                                       for name, argv in runs.items()]), cwd=tmp_path)
    for name, argv in runs.items():
        assert main(argv + ["--out", str(here / name)]) == 0
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


ARRAY_PATH = """
import sys
from pathlib import Path
late = sys.argv[1] == "late"
if not late:
    import numpy
from counterpairs import _elementwise as ew, evaluate, hom_curve
from counterpairs.cli import main
from counterpairs.config import build_scenario_tpsa, parse_config, resolve_scenario
fig2, sweep_cfg = sys.argv[2:]
tpsa = build_scenario_tpsa(resolve_scenario(parse_config(fig2)))   # scalars only
if late:
    assert "numpy" not in sys.modules
    import numpy
ws = tpsa.omega_s0 + numpy.linspace(-3e13, 3e13, 7)
arrays = {
    "evaluate": evaluate(tpsa, ws[:, None], ws[None, :] - tpsa.omega_s0 + tpsa.omega_i0),
    "hom_curve": hom_curve(tpsa, numpy.linspace(-1e-12, 1e-12, 9)),
    "erf": ew.erf(numpy.linspace(-2.0, 2.0, 9)),
}
for name, value in arrays.items():
    assert isinstance(value, numpy.ndarray), name
    Path(name + ".txt").write_text(repr(value.tolist()))
assert main(["sweep", "--config", sweep_cfg, "--out-dir", "sweep"]) == 0
assert main(["hom", "--config", fig2, "--curve-out", "curve.csv", "--out", "hom.json"]) == 0
"""


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_numpy_imported_after_the_package_gives_the_same_arrays(tmp_path):
    # the dispatch table looks its numpy functions up on the first array
    # call, which an in-process test, with numpy already loaded, never sees
    trees = {}
    for order in ("early", "late"):
        out = tmp_path / order
        out.mkdir()
        run_fresh(ARRAY_PATH, order, CONFIG / "fig2.cfg", CONFIG / "fig6_sweep.cfg", cwd=out)
        trees[order] = _tree(out)
    assert {"evaluate.txt", "hom_curve.txt", "erf.txt", "curve.csv", "hom.json",
            "sweep/entropy.csv", "sweep/sweep_manifest.json"} <= trees["early"].keys()
    assert trees["late"] == trees["early"]

