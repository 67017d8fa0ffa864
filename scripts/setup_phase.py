"""Where the collector stands when perfbench's setup timing takes its last probe.

    python3 scripts/setup_phase.py [RUNS]

perfbench's `setup_s` times the import of `counterpairs.cli` and the first
resolved scenario in a fresh interpreter (`SETUP_SNIPPET` in
perfbench/run.py), and scales it by the mean of speed probes that include
one last probe taken after the timed region. When a generation-1 garbage
collection falls inside that last probe, the probe is slow and the scaled
reading low; so the reading depends on how many container objects the
package leaves the collector counting at import, not only on its speed.

This script runs that snippet, read as text from perfbench/run.py and left
unedited there, against the checkout it sits in, in RUNS pairs of fresh
interpreters (default 20) with PYTHONDONTWRITEBYTECODE=1; for readings
without a bytecode cache, leave no __pycache__ under src/. The first of
each pair runs the snippet with one `gc.get_count()` read injected before
the last `on_timer(None, None)`; importing `gc` for it allocates the same
objects in every tree, so the counts compare across trees. That injection
moves the phase it observes, so the second runs the snippet unmodified,
which reads what perfbench reads. For each pair it prints the collector
counts, the last probe's milliseconds, the wall and scaled seconds of the
instrumented run and the scaled seconds of the unmodified one; then how
often each count triple occurred, and the median of each scaled reading.
First it prints the net count of tracked objects that `import
counterpairs.cli` leaves, read in one fresh interpreter with the collector
disabled.
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PROBE = "\non_timer(None, None)\n"
INJECTED = "\nimport gc\n_counts = gc.get_count()"
PRINTED = "print(*_counts, repr(probes[-1]))\n"
# the net tracked objects of the import, with no collection to remove any
IMPORT_OBJECTS = "import gc\ngc.disable()\nimport counterpairs.cli\nprint(gc.get_count()[0])\n"


def _constants(path: Path) -> dict:
    """{name: value} of the top-level assignments of literals in a module."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                continue
    return found


def instrumented_snippet(snippet: str) -> str:
    """The setup snippet with the collector counts read before its last probe
    and printed, with that probe's seconds, after its own output line."""
    if snippet.count(PROBE) != 1:
        raise SystemExit("error: perfbench's setup snippet no longer has one final probe")
    return snippet.replace(PROBE, INJECTED + PROBE) + PRINTED


def _run(code: str, *args: str, env: dict) -> list:
    """The output lines of code run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup snippet failed: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()


def _scaled(timing: str, reference_s: float) -> tuple:
    """(wall, scaled) seconds of the snippet's timing line."""
    seconds, mean_probe = map(float, timing.split())
    return seconds, seconds * reference_s / mean_probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=int, nargs="?", default=20,
                        help="fresh interpreters to run (default 20)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("runs must be >= 1")
    run_py = _constants(PERFBENCH / "run.py")
    reference_s = _constants(PERFBENCH / "speed.py")["REFERENCE_S"]["python"]
    snippet = run_py["SETUP_SNIPPET"]
    instrumented = instrumented_snippet(snippet)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    print(f"net tracked objects of import counterpairs.cli: "
          f"{_run(IMPORT_OBJECTS, env=env)[-1]}")
    phases = collections.Counter()
    scaled = {"instrumented": [], "unmodified": []}
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "fig2.cfg"
        cfg.write_text(run_py["FIG2"])
        print("run  gen0 gen1 gen2  last_probe_ms  wall_s  scaled_s  unmodified_scaled_s")
        for k in range(args.runs):
            timing, phase = _run(instrumented, str(cfg), str(PERFBENCH), env=env)[-2:]
            seconds, reading = _scaled(timing, reference_s)
            plain = _scaled(_run(snippet, str(cfg), str(PERFBENCH), env=env)[-1],
                            reference_s)[1]
            *counts, last_probe = phase.split()
            counts = tuple(map(int, counts))
            phases[counts] += 1
            scaled["instrumented"].append(reading)
            scaled["unmodified"].append(plain)
            print(f"{k:3d}  {counts[0]:4d} {counts[1]:4d} {counts[2]:4d}  "
                  f"{float(last_probe) * 1e3:13.3f}  {seconds:6.4f}  {reading:8.4f}  "
                  f"{plain:19.4f}")
    print("counts (gen0, gen1, gen2): runs")
    for counts, n in phases.most_common():
        print(f"  {counts}: {n}")
    for name, readings in scaled.items():
        print(f"median scaled_s, {name}: {statistics.median(readings):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
