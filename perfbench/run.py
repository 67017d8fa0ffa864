"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep-maps --seed 1 --seconds 25 --trace 0

Runs one workload against the counterpairs sources of the checkout this
file sits in (``src/``), in this process, with one closed-loop caller.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. Details
(metadata, shares of input properties, percentiles, per-kind latencies)
go to ``.perfbench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import speed
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("cli", "config", "constants", "dispersion", "entanglement", "errors",
           "inverse", "oracle", "spectral", "temporal", "tpsa")

SETUP_RUNS = 7
TAIL_BEYOND = 10
TRACE_SWEEP_POINTS = 8        # per axis, traced sweep maps
TRACE_REQUESTS = 300
TRACE_CASES = 6

# Prints the seconds from before the import to the first resolved scenario,
# less the python probes that a timer runs during them every 20 ms (as in
# speed.Speed), then the mean probe time. probework imports only math, so
# nothing is imported ahead of the package.
SETUP_SNIPPET = """
import sys, time, _signal
sys.path.insert(0, sys.argv[2])
import probework
probes, spent = [], [0.0]

def on_timer(signum, frame):
    t = time.perf_counter()
    probework.python_work()
    d = time.perf_counter() - t
    probes.append(d)
    spent[0] += d

probework.python_work()
_signal.signal(_signal.SIGALRM, on_timer)
_signal.setitimer(_signal.ITIMER_REAL, 0.02, 0.02)
t0 = time.perf_counter()
import counterpairs.cli
from counterpairs.config import parse_config, resolve_scenario
resolve_scenario(parse_config(sys.argv[1]))
seconds = time.perf_counter() - t0 - spent[0]
_signal.setitimer(_signal.ITIMER_REAL, 0.0, 0.0)
on_timer(None, None)
print(repr(seconds), repr(sum(probes) / len(probes)))
"""

FIG2 = """\
waveguide.alpha = 4e6 1/m
waveguide.Ly = 1e-5 m
waveguide.d = 41.05e-12 m/V
waveguide.model = linbo3_e
pump.lambda_p0 = 0.532e-6 m
pump.tau_p = 1e-13 s
pump.a_p = 0
pump.Z_p = 1e-5 m
pump.Y_p = 1e-5 m
pump.P_p = 1 W
pump.f_rep = 8e7 1/s
filters.sigma_s = unfiltered
filters.sigma_i = unfiltered
centrals.lambda_s0 = 1.064e-6 m
centrals.lambda_i0 = 1.064e-6 m
"""

END_TO_END = {"setup_s": "s", "throughput_per_s": "ops/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "success_frac": "1", "peak_rss_mb": "MB"}


def load_package():
    """Import counterpairs from this checkout's src/, and only from there."""
    if not (SRC / "counterpairs" / "__init__.py").is_file():
        raise SystemExit(f"error: no counterpairs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cp = importlib.import_module("counterpairs")
    for m in MODULES:
        importlib.import_module(f"counterpairs.{m}")
    if Path(cp.__file__).resolve().parent != (SRC / "counterpairs").resolve():
        raise SystemExit(f"error: imported counterpairs from {cp.__file__}, not {SRC}")
    return cp


# ---------------------------------------------------------------------------
# measurements shared by the workloads


def measure_setup(cfg: Path) -> tuple:
    """Import-to-first-resolved-scenario times in fresh interpreters: wall
    seconds (probes taken out), and seconds at the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wall, ref = [], []
    for k in range(SETUP_RUNS + 1):    # the first one warms the file cache
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg), str(HERE)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if k:
            seconds, probe_s = map(float, proc.stdout.strip().splitlines()[-1].split())
            wall.append(seconds)
            ref.append(seconds * speed.factor([probe_s], "python"))
    return wall, ref


def timed_loop(workload, calls, seconds: float, max_calls: int | None = None, tracer=None,
               probes: speed.Speed | None = None):
    """Run calls one at a time until `seconds` pass (or `max_calls` calls).

    With `probes`, speed probes run throughout; a call's time excludes the
    probes that ran inside it. Returns the records, the phase's wall time
    and the process's peak RSS in MB after `workload.rss_calls` calls (or
    at the end, if fewer). The count is fixed because the peak keeps
    growing with the calls a run makes (about 3 KB per scenario-mix
    request, nearly all allocator growth, not live objects), so a faster
    program would otherwise read as using more memory.
    """
    # The generated inputs are long-lived benchmark objects: keep them out of
    # the collector's full passes, which would otherwise stall timed calls.
    gc.collect()
    gc.freeze()
    records = []
    with probes if probes is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for call in calls:
            if tracer is not None:
                tracer.op_id = len(records)
            spent = probes.spent if probes is not None else 0.0
            t = time.perf_counter()
            ok, error = call.fn()
            end = time.perf_counter()
            if probes is not None:
                spent = probes.spent - spent
            rec = wl.Record(call=call, start=t, end=end, seconds=end - t - spent,
                            ok=ok, error=error)
            records.append(rec)
            if len(records) == workload.rss_calls:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if max_calls is not None:
                if len(records) == max_calls:
                    break
            elif time.perf_counter() - t0 >= seconds and workload.may_stop(records):
                break
        wall = time.perf_counter() - t0
    if len(records) < workload.rss_calls:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, wall, rss_mb


def tail(samples: list):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n
    return s[-1], 100.0


def block_throughput(records, duration) -> float:
    """Median over complete blocks of operations per second of call time.

    A block is one pass over the maps (sweep-maps), one block of the exact
    request mix (scenario-mix) or one case (oracle-verify); a median over
    blocks resists the bursts of a shared machine better than one ratio.
    """
    blocks: dict = {}
    for r in records:
        ops, secs, calls = blocks.get(r.call.block, (0, 0.0, 0))
        blocks[r.call.block] = (ops + r.call.ops, secs + duration(r), calls + 1)
    sizes = [calls for _, _, calls in blocks.values()]
    complete = [ops / secs for ops, secs, calls in blocks.values() if calls == max(sizes)]
    return statistics.median(complete)


def shares(records) -> dict:
    """Share of operations with each recorded input property."""
    total = sum(r.call.ops for r in records)
    counts: dict = {}
    for r in records:
        keys = [f"kind={r.call.kind}"] + [k for k, v in r.call.props.items() if v is True]
        for k in keys:
            counts[k] = counts.get(k, 0) + r.call.ops
    return {k: counts[k] / total for k in sorted(counts)}


def metadata(cp) -> dict:
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("openblas configuration"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "caches": cache_sizes(),
        "src_lines": {},
    }
    for path in sorted((SRC / "counterpairs").glob("*.py")):
        meta["src_lines"][path.stem] = len(path.read_text().splitlines())
    meta["src_lines_total"] = sum(meta["src_lines"].values())
    return meta


def blas_threads():
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None       # a plain checkout
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def cache_sizes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = {}
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes or None


# ---------------------------------------------------------------------------
# end-to-end run


def make_workload(cp, name, work, seed, seconds, smoke, traced):
    if name == "sweep-maps":
        points = 2 if smoke else TRACE_SWEEP_POINTS if traced else None
        return wl.SweepMaps(cp, ROOT, work, seed, points)
    if name == "scenario-mix":
        # whole mix blocks, more than a run uses at today's speed; a faster
        # program cycles through them again
        n = 24 if smoke else TRACE_REQUESTS if traced else wl.MIX_BLOCK * (int(seconds * 1.5) + 1)
        return wl.ScenarioMix(cp, work, seed, n)
    n = 2 if smoke else TRACE_CASES if traced else int(seconds * 2) + 10
    return wl.OracleVerify(cp, seed, n)


def run_end_to_end(cp, args, work, report):
    cfg = work / "fig2.cfg"
    cfg.write_text(FIG2)
    setup_wall, setup = measure_setup(cfg)
    t = time.perf_counter()
    workload = make_workload(cp, args.workload, work, args.seed, args.seconds, args.smoke, False)
    prepare_s = time.perf_counter() - t
    probes = speed.Speed(workload.speed_kind)
    records, wall, rss_mb = timed_loop(workload, workload.calls(), args.seconds, probes=probes)
    t = time.perf_counter()
    detail = workload.check(records, np.random.default_rng([args.seed, 1]))
    check_s = time.perf_counter() - t

    attempted = sum(r.call.ops for r in records)
    failed = sum(r.failed_ops for r in records)

    def timings(duration):
        if args.workload == "sweep-maps":
            # a user waits on one `sweep` invocation: one sample per map
            by_map: dict = {}
            for r in records:
                if r.ok:
                    by_map.setdefault(r.call.kind, []).append(duration(r))
            latencies = [statistics.median(v) for v in by_map.values()]
        else:
            latencies = [duration(r) for r in records if r.ok]
        if not latencies:
            raise RuntimeError("no operation succeeded; latencies are undefined")
        tail_s, tail_pct = tail(latencies)
        return {"throughput_per_s": block_throughput(records, duration),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3}, tail_pct, len(latencies)

    raw, tail_pct, n_latencies = timings(lambda r: r.seconds)
    scaled = timings(lambda r: probes.scale(r.seconds, r.start, r.end))[0]
    metrics = {
        "setup_s": statistics.median(setup),
        **scaled,
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    per_kind = {}
    for r in records:
        per_kind.setdefault(r.call.kind, []).append(r.seconds * 1e3)
    errors: dict = {}
    for r in records:
        if not r.ok:
            key = re.sub(r"-?\d[\d.e+-]*", "#", r.error)
            errors[key] = errors.get(key, 0) + 1
    report.update({
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "wall_metrics": raw,
        "speed_probes_s": probes.probes,
        "speed_probe_times_s": [t - records[0].start for t in probes.times],
        "prepare_s": prepare_s,
        "check_s": check_s,
        "timed_wall_s": wall,
        "ops_per_wall_s": attempted / wall,
        "calls": len(records),
        "latency_samples": n_latencies,
        "latency_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "per_kind_ms": {k: {"n": len(v), "p50": statistics.median(v), "max": max(v)}
                        for k, v in sorted(per_kind.items())},
        "slowest_ms": sorted(((r.seconds * 1e3, r.call.kind) for r in records if r.ok),
                             reverse=True)[:2 * TAIL_BEYOND],
        "shares": shares(records),
        "errors": dict(sorted(errors.items(), key=lambda kv: -kv[1])),
        "check": detail,
    })
    print(f"# {args.workload}: {len(records)} calls, {attempted} ops, "
          f"{failed} failed, wall {wall:.2f} s, setup median of {len(setup)}")
    print(f"# latency_tail_ms is p{tail_pct:.1f} of {n_latencies} samples")
    for name, unit in END_TO_END.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return detail["correct"], attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run


def run_traced(cp, args, work, report):
    (work / "fig2.cfg").write_text(FIG2)
    workload = make_workload(cp, args.workload, work, args.seed, args.seconds, args.smoke, True)
    calls = workload.calls()
    n_calls = workload.pass_size()      # one untraced pass, then the same inputs traced
    plain, plain_wall, _ = timed_loop(workload, calls, 0.0, max_calls=n_calls)

    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall, _ = timed_loop(workload, calls, 0.0, max_calls=n_calls,
                                            tracer=tracer)
    finally:
        tracer.restore()

    records = plain + traced
    detail = workload.check(records, np.random.default_rng([args.seed, 1]))
    table = tracer.table()
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    ops = sum(r.call.ops for r in traced)
    bytes_written = sum(layers.output_bytes(r.call.outputs) for r in traced)
    metrics = layers.per_layer(table, tracer, ops=ops, wall_s=sum(r.seconds for r in traced),
                               overhead=traced_wall / plain_wall - 1.0,
                               bytes_written=bytes_written)
    baseline = layers.baseline(cp, work, full_sweeps=args.workload == "sweep-maps"
                               and not args.smoke)
    attempted = sum(r.call.ops for r in records)
    failed = sum(r.failed_ops for r in records)
    report.update({"traced_ops": ops, "traced_wall_s": traced_wall,
                   "untraced_wall_s": plain_wall, "spans": table["spans"],
                   "functions": table["functions"], "raised": tracer.raised,
                   "shares": shares(traced), "baseline": baseline, "check": detail})
    print(f"# traced {args.workload}: {len(traced)} calls, {ops} ops, "
          f"{table['spans']} spans, overhead {metrics['trace.overhead_frac']:.3g}")
    layers.print_table(metrics)
    layers.print_baseline(baseline)
    return detail["correct"], attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-maps", "scenario-mix", "oracle-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    cp = load_package()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "meta": metadata(cp)}
    try:
        runner = run_traced if args.trace else run_end_to_end
        correct, attempted, failed, metrics = runner(cp, args, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = END_TO_END.get if not args.trace else layers.unit_of
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": {k: {"value": float(v), "unit": unit(k)} for k, v in metrics.items()}}
    report["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
