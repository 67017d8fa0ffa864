"""Per-layer metrics from a traced run, and the ROADMAP baseline rows.

Metric names: ``<module>.<function>.calls_per_op`` is an exact count,
``<module>.<function>.self_us_per_op`` is self time (span time minus
child span time) per operation, ``<module>.self_frac`` is the module's
self time over the operations' wall time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FAILURE_CLASSES, MODULES, Tracer

CALLS = ("dispersion.refractive_index", "dispersion.group_velocity",
         "dispersion.g_taylor", "dispersion.index_derivative",
         "entanglement.separability_roots", "tpsa.evaluate")
SELF = ("entanglement.separability_roots", "entanglement.schmidt",
        "tpsa.build_tpsa", "tpsa.normalize", "inverse.fit_hom_B", "inverse.estimate",
        "oracle.quad_norm", "oracle.numeric_marginal", "oracle.numeric_time_marginal",
        "oracle.numeric_schmidt", "cli.build_parser", "cli.main")
BOTH = ("spectral.pair_rate", "spectral.spectrum", "temporal.flux", "temporal.hom_params",
        "temporal.time_bandwidth", "temporal.hom_curve", "temporal.evaluate_time",
        "config.parse_config", "config.resolve_scenario", "config.compute_scenario",
        "config.sweep_point")
EXTRA = ("entanglement.separability_roots.bisection_share", "tpsa.evaluate.points_per_op",
         "oracle.computed_bytes_per_op", "config.quantities_used_frac",
         "cli.bytes_written_per_op", "trace.overhead_frac")
QUANTITY_COUNT = 18                       # len(counterpairs.config.QUANTITIES)
AMPLITUDE_BYTES = 16                      # one complex128 sample


def metric_names() -> list:
    names = [f"{f}.calls_per_op" for f in CALLS + BOTH]
    names += [f"{f}.self_us_per_op" for f in SELF + BOTH]
    names += [f"{m}.self_frac" for m in MODULES]
    names += list(EXTRA)
    names += [f"failed.{c}" for c in FAILURE_CLASSES] + ["failed.other"]
    return sorted(names)


def unit_of(name: str) -> str:
    if name.endswith(".calls_per_op") or name.startswith("failed."):
        return "count"
    if name.endswith(".self_us_per_op"):
        return "us"
    if name.endswith(".points_per_op"):
        return "points"
    if name.endswith("bytes_per_op") or name.endswith("bytes_written_per_op"):
        return "B"
    return "1"


def output_bytes(paths) -> int:
    total = 0
    for p in paths:
        p = Path(p)
        if p.is_dir():
            total += sum(f.stat().st_size for f in p.iterdir())
        elif p.is_file():
            total += p.stat().st_size
    return total


def per_layer(table, tracer, *, ops, wall_s, overhead, bytes_written) -> dict:
    fns = table["functions"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def self_us(name):
        return fns.get(name, {}).get("self_ns", 0.0) / 1e3

    out = {}
    for f in CALLS + BOTH:
        out[f"{f}.calls_per_op"] = calls(f) / ops
    for f in SELF + BOTH:
        out[f"{f}.self_us_per_op"] = self_us(f) / ops
    for m in MODULES:
        module_ns = sum(v["self_ns"] for k, v in fns.items() if k.startswith(m + "."))
        out[f"{m}.self_frac"] = module_ns / 1e9 / wall_s
    out["entanglement.separability_roots.bisection_share"] = (
        tracer.sep_bisect / tracer.sep_calls if tracer.sep_calls else 0.0)
    out["tpsa.evaluate.points_per_op"] = fns.get("tpsa.evaluate", {}).get("points", 0) / ops
    out["oracle.computed_bytes_per_op"] = table["oracle_points"] * AMPLITUDE_BYTES / ops
    bundles = calls("config.compute_scenario")
    requested = tracer.sweep_quantities + QUANTITY_COUNT * (bundles - tracer.sweep_points)
    out["config.quantities_used_frac"] = (requested / (QUANTITY_COUNT * bundles)
                                          if bundles else 0.0)
    out["cli.bytes_written_per_op"] = bytes_written / ops
    out["trace.overhead_frac"] = overhead
    failures = {f"failed.{c}": 0 for c in FAILURE_CLASSES}
    failures["failed.other"] = 0
    for key, count in tracer.raised.items():
        cls = key.split(".", 1)[1]
        name = f"failed.{cls}" if cls in FAILURE_CLASSES else "failed.other"
        failures[name] += count
    out.update({k: v / ops for k, v in failures.items()})
    missing = set(metric_names()) ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric set mismatch: {sorted(missing)}")
    return dict(sorted(out.items()))


def print_table(metrics) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")


# ---------------------------------------------------------------------------
# ROADMAP baseline rows


def _median_us(fn, repeats=7, number=20):
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t) / number)
    return statistics.median(samples) * 1e6


def baseline(cp, work: Path, full_sweeps: bool) -> dict:
    """Rows of the ROADMAP Baseline table, measured untraced in this process."""
    cfg = work / "fig2.cfg"
    sc = cp.config.resolve_scenario(cp.config.parse_config(cfg))
    tpsa = cp.config.build_scenario_tpsa(sc)
    rows = {
        "compute_scenario_fig2_ms": _median_us(lambda: cp.config.compute_scenario(sc)) / 1e3,
        "build_tpsa_us": _median_us(lambda: cp.config.build_scenario_tpsa(sc)),
        "pair_rate_us": _median_us(lambda: cp.pair_rate(tpsa), number=200),
        "spectrum_us": _median_us(lambda: cp.spectrum(tpsa, "s"), number=200),
        "flux_us": _median_us(lambda: cp.flux(tpsa, "s"), number=200),
        "hom_params_us": _median_us(lambda: cp.hom_params(tpsa), number=200),
        "schmidt_normalize_us": _median_us(lambda: cp.schmidt(cp.normalize(tpsa)), number=200),
    }

    tracer = Tracer()
    tracer.install()
    try:
        rc = cp.cli.main(["scenario", "--config", str(cfg), "--out", str(work / "fig2.json")])
    finally:
        tracer.restore()
    if rc != 0:
        raise RuntimeError("traced fig2 scenario request failed")
    rows["refractive_index_calls_fig2_scenario"] = tracer.calls_under(
        "dispersion.refractive_index", "config.compute_scenario")
    rows["refractive_index_calls_fig2_request"] = \
        tracer.table()["functions"]["dispersion.refractive_index"]["calls"]

    proc = [subprocess.run([sys.executable, "-c",
                            "import time; t = time.perf_counter(); import counterpairs.cli; "
                            "print(time.perf_counter() - t)"],
                           env=dict(os.environ, PYTHONPATH=str(Path(cp.__file__).parents[1])),
                           capture_output=True, text=True, timeout=60, check=True)
            for _ in range(4)][1:]
    rows["import_cli_s"] = statistics.median(float(p.stdout) for p in proc)

    td = cp.temporal.time_domain(tpsa)
    for name, fn in (("numeric_marginal_1537_ms",
                      lambda: cp.oracle.numeric_marginal(tpsa, "s", n_points=1537)),
                     ("numeric_time_marginal_1537_ms",
                      lambda: cp.oracle.numeric_time_marginal(td, "s", n_points=1537)),
                     ("numeric_schmidt_512_ms",
                      lambda: cp.oracle.numeric_schmidt(cp.normalize(tpsa), n_points=512)),
                     ("quad_norm_ms", lambda: cp.oracle.quad_norm(tpsa))):
        rows[name] = _median_us(fn, repeats=3, number=1) / 1e3

    if full_sweeps:
        root = Path(cp.__file__).parents[2]
        for src in sorted((root / "configs").glob("*_sweep.cfg")):
            t = time.perf_counter()
            rc = cp.cli.main(["sweep", "--config", str(src),
                              "--out-dir", str(work / "baseline" / src.stem)])
            rows[f"sweep_{src.stem}_s"] = time.perf_counter() - t
            if rc != 0:
                raise RuntimeError(f"baseline sweep {src.name} failed")
    return rows


def print_baseline(rows) -> None:
    for name, value in rows.items():
        print(f"# baseline {name} = {value:.6g}")
