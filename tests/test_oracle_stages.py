"""The in-process part of scripts/oracle_stages.py on one case. Starts no process
and asserts no timing."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import counterpairs as cp
from counterpairs import oracle

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("oracle_stages",
                                                  ROOT / "scripts" / "oracle_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_case_reads_every_oracle_and_stage():
    script = _script()
    saved = oracle._times, oracle._adjoint_times, np.linalg.qr, np.linalg.svd
    # seed 1's first case is checked by the Schmidt oracle (vartheta <= 0.9)
    reading = script.measure(cp, script._workloads(), seed=1, n_cases=1, repeats=2)
    assert (oracle._times, oracle._adjoint_times, np.linalg.qr, np.linalg.svd) == saved
    assert set(reading["ms"]) == set(script.ORACLES + script.STAGES + ("case",))
    assert all(len(ms) == 1 for ms in reading["ms"].values())
    (products,) = reading["products"]
    assert products >= 3
    assert reading["qr_median_ms"] is not None
    readings = [json.loads(json.dumps(reading))] * 2      # as two workers print it
    lines = script.report("tree", readings)
    assert lines[0] == "tree: 2 processes"
    for name in script.ORACLES + ("case",) + tuple(f"schmidt {s}" for s in script.STAGES):
        assert any(line.split()[:len(name.split())] == name.split() for line in lines[1:])
    assert (f"  products (half steps) per Schmidt call: {products} over 1 calls; "
            f"{products}: 1") in lines
    assert lines[-1].startswith("  QR median per process, ms: ")
    assert len(lines[-1].split(": ")[1].split()) == 2
