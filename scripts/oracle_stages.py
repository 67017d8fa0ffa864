"""Where an oracle-verify case spends its time, oracle by oracle and inside the Schmidt oracle.

    python3 scripts/oracle_stages.py TREE [TREE] [--processes N] [--seed S]

For each checkout TREE (one, or two to compare), it runs N fresh
interpreters (default 10; the trees alternate) with PYTHONPATH=TREE/src
and PYTHONDONTWRITEBYTECODE=1. Each builds perfbench's 70 seeded
oracle-verify cases of seed S (default 1), what a 30-s run draws, from
perfbench/workloads.py of the checkout this script sits in, so every tree
gets the same cases. It runs them as perfbench's `_verify` does:
`quad_norm`, then per field `numeric_marginal` and `numeric_time_marginal`
at 1537 points, then `numeric_schmidt` at 512 points where vartheta <=
0.9. Each case runs 3 times in turn and each call is timed; a case's time
is the median of its 3.

Inside `numeric_schmidt`, spies on `oracle._times` and
`oracle._adjoint_times` (the products with the amplitude),
`numpy.linalg.qr` and `numpy.linalg.svd` time those stages; sampling is
the rest of the call. They also count the products per case, one per
half step of the subspace iteration.

It prints, per tree, the median over cases of each oracle's and each
stage's milliseconds (the median over processes, with their range), the
products (half steps) per case, and each process's median complex QR, so
that a process whose QRs run several times slower than the others shows
up when it happens.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
ORACLES = ("quad_norm", "numeric_marginal", "numeric_time_marginal", "numeric_schmidt")
STAGES = ("sampling", "products", "qr", "svd")
CASES, REPEATS = 70, 3


def _workloads():
    """perfbench/workloads.py of this checkout, imported with perfbench/ on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _cases(cp, wl, seed: int, n_cases: int) -> list:
    """(tpsa, normalized tpsa or None) of the seeded cases that build; the second
    is None where perfbench skips the Schmidt check (vartheta > 0.9)."""
    workload = wl.OracleVerify(cp, seed, n_cases)
    built = []
    for p in workload.cases:
        omega_s0 = 2.0 * math.pi * wl.C_LIGHT / p["lambda_s"]
        omega_i0 = 2.0 * math.pi * wl.C_LIGHT / wl.LAMBDA_PUMP - omega_s0
        pump = cp.PumpSpec(lambda_p0=2.0 * math.pi * wl.C_LIGHT / (omega_s0 + omega_i0),
                           tau_p=p["tau_p"], z_p=p["z_p"], y_p=1e-5, a_p=p["a_p"],
                           dtilde_theta=p["dtilde_theta"], p_p=1.0, f_rep=8e7)
        try:
            pump = cp.with_matched_angle(workload.wg, pump, omega_s0, omega_i0)
            tpsa = cp.build_tpsa(workload.wg, pump,
                                 cp.FilterSpec(sigma_s=p["sigma_s"], sigma_i=p["sigma_i"]),
                                 omega_s0, omega_i0)
            t = cp.normalize(tpsa)
            checked = cp.schmidt(t).vartheta <= wl.SCHMIDT_SKIP_VARTHETA
        except cp.errors.CounterpairsError:
            continue
        built.append((tpsa, t if checked else None))
    return built


@contextlib.contextmanager
def _stage_spies(oracle, log: list):
    """Append (stage, seconds) to log for each product, QR and SVD while open."""
    def timed(stage, fn):
        def spy(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log.append((stage, time.perf_counter() - start))
        return spy

    saved = oracle._times, oracle._adjoint_times, np.linalg.qr, np.linalg.svd
    oracle._times, oracle._adjoint_times = timed("products", saved[0]), timed("products", saved[1])
    np.linalg.qr, np.linalg.svd = timed("qr", saved[2]), timed("svd", saved[3])
    try:
        yield
    finally:
        oracle._times, oracle._adjoint_times, np.linalg.qr, np.linalg.svd = saved


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def measure(cp, wl, seed: int, n_cases: int, repeats: int) -> dict:
    """One process's readings: per case, the median over repeats of each oracle's
    and each Schmidt stage's milliseconds (oracle names summed over their calls),
    the products of each Schmidt call, and the median of every QR call."""
    from counterpairs import oracle

    points = wl.MARGINAL_POINTS
    per_case = collections.defaultdict(list)
    products, qr_calls = [], []
    for tpsa, t in _cases(cp, wl, seed, n_cases):
        runs = collections.defaultdict(list)
        for _ in range(repeats):
            td = cp.temporal.time_domain(tpsa)
            spent = collections.Counter(quad_norm=_timed(oracle.quad_norm, tpsa))
            for f in ("s", "i"):
                spent["numeric_marginal"] += _timed(oracle.numeric_marginal, tpsa, f, points)
                spent["numeric_time_marginal"] += _timed(oracle.numeric_time_marginal,
                                                         td, f, points)
            if t is not None:
                log = []
                with _stage_spies(oracle, log):
                    spent["numeric_schmidt"] = _timed(oracle.numeric_schmidt, t,
                                                      wl.SCHMIDT_POINTS)
                for stage, seconds in log:
                    spent[stage] += seconds
                spent["sampling"] = spent["numeric_schmidt"] - sum(spent[s] for s in STAGES[1:])
                qr_calls += [seconds for stage, seconds in log if stage == "qr"]
                half_steps = sum(stage == "products" for stage, _ in log)
            spent["case"] = sum(spent[name] for name in ORACLES)
            for name, seconds in spent.items():
                runs[name].append(seconds)
        if t is not None:
            products.append(half_steps)
        for name, seconds in runs.items():
            per_case[name].append(1e3 * statistics.median(seconds))
    return {"ms": dict(per_case), "products": products,
            "qr_median_ms": 1e3 * statistics.median(qr_calls) if qr_calls else None}


def report(tree: str, readings: list) -> list:
    """The printed lines for one tree from its processes' readings."""
    lines = [f"{tree}: {len(readings)} processes"]
    names = ORACLES + ("case",) + tuple(f"schmidt {stage}" for stage in STAGES)
    for name in names:
        key = name.removeprefix("schmidt ")
        medians = [statistics.median(r["ms"][key]) for r in readings if r["ms"].get(key)]
        if medians:
            lines.append(f"  {name:24s} {statistics.median(medians):8.3f} ms "
                         f"[{min(medians):.3f}-{max(medians):.3f}]")
    products = readings[0]["products"]
    if products:
        counts = sorted(collections.Counter(products).items())
        lines.append(f"  products (half steps) per Schmidt call: {sum(products)} over "
                     f"{len(products)} calls; " + ", ".join(f"{n}: {k}" for n, k in counts))
    lines.append("  QR median per process, ms: " + " ".join(
        f"{r['qr_median_ms']:.3f}" for r in readings if r["qr_median_ms"] is not None))
    return lines


def _worker(tree: Path, seed: int) -> int:
    import counterpairs as cp
    if (tree / "src") not in Path(cp.__file__).resolve().parents:
        raise SystemExit(f"error: counterpairs came from {cp.__file__}, not {tree}")
    print(json.dumps(measure(cp, _workloads(), seed, CASES, REPEATS)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two checkouts")
    parser.add_argument("--processes", type=int, default=10,
                        help="fresh interpreters per tree (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed (default 1)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    if args.worker:
        return _worker(trees[0], args.seed)
    if len(trees) > 2:
        parser.error("give one or two trees")
    if args.processes < 1:
        parser.error("--processes must be >= 1")
    readings = {tree: [] for tree in trees}
    for _ in range(args.processes):
        for tree in trees:
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), str(tree), "--worker",
                 "--seed", str(args.seed)],
                env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"error: worker on {tree} failed: {proc.stderr.strip()}")
            readings[tree].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"seed {args.seed}, {CASES} cases drawn, {REPEATS} runs each; "
          "medians over cases, then over processes [their range]")
    for tree, found in readings.items():
        print("\n".join(report(str(tree), found)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
