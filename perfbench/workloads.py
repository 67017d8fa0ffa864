"""The three benchmark workloads: input generators, timed calls and checks.

Each workload writes its seeded inputs into a work directory before the
timed phase, yields `Call`s that the runner times one at a time (a single
closed-loop caller), and checks the outputs afterwards, outside the timed
region. A call may stand for several operations: a sweep-map call is one
`counterpairs sweep` invocation and counts one operation per grid cell.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sheared

C_LIGHT = 299792458.0
LAMBDA_PUMP = 0.532e-6
LAMBDA_PAIR = 1.064e-6

# Tolerances of acceptance criterion 2 (tests/test_acceptance.py).
TOL_RATE, TOL_WIDTH, TOL_SCHMIDT, SCHMIDT_SKIP_VARTHETA = 1e-6, 1e-4, 1e-3, 0.9
MARGINAL_POINTS, SCHMIDT_POINTS = 1537, 512


@dataclass(slots=True)
class Call:
    """One timed call into the program."""

    kind: str
    ops: int
    block: int                      # throughput is a median over blocks of calls
    fn: object                      # () -> (ok, error label or None)
    props: dict = field(default_factory=dict)
    outputs: tuple = ()             # files the call writes, for byte counts


@dataclass(slots=True)
class Record:
    call: Call
    start: float                    # perf_counter when the call began
    end: float                      # and when it returned
    seconds: float                  # wall time, less the speed probes inside it
    ok: bool
    error: str | None
    failed_ops: int = 0


def _cli_call(cli, argv):
    """Run one in-process CLI request; stderr is captured, not printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        return True, None
    return False, f"exit {rc}: {err.getvalue().strip()[:160]}"


def _write_config(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _rel(num: float, ref: float) -> float:
    return abs(num / ref - 1.0)


# ---------------------------------------------------------------------------
# sweep-maps


def thin_config(text: str, max_points: int) -> str:
    """Same map with at most `max_points` per axis (traced and smoke runs)."""
    out = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if key in ("sweep.axis1_points", "sweep.axis2_points"):
            n = int(line.split("=", 1)[1])
            line = f"{key} = {min(n, max_points)}"
        out.append(line)
    return "\n".join(out) + "\n"


class SweepMaps:
    """The six shipped figure maps through `counterpairs sweep`, seeded order."""

    name = "sweep-maps"
    speed_kind = "python"           # scalar closed forms through the CLI
    rss_calls = 6                   # peak RSS is read after one pass
    min_passes = 2          # the byte-identity check compares two passes

    def __init__(self, cp, root: Path, work: Path, seed: int, max_points: int | None):
        self.cp, self.work = cp, work
        self.rng = np.random.default_rng(seed)
        self.maps = {}
        for src in sorted((root / "configs").glob("*_sweep.cfg")):
            text = src.read_text()
            if max_points is not None:
                text = thin_config(text, max_points)
            dst = work / "inputs" / src.name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_text(text)
            spec = cp.config.parse_sweep(cp.config.parse_config(dst))
            n2 = 1 if spec.axis2 is None else len(spec.axis2.values)
            self.maps[src.stem] = (dst, len(spec.axis1.values) * n2)
        if len(self.maps) != 6:
            raise RuntimeError(f"expected the six shipped sweep maps, found {sorted(self.maps)}")
        self.passes_done = 0

    def calls(self):
        for k in itertools.count():
            order = self.rng.permutation(sorted(self.maps))
            for pos, name in enumerate(order):
                cfg, cells = self.maps[name]
                out = self.work / f"pass{k}" / name
                argv = ["sweep", "--config", str(cfg), "--out-dir", str(out)]
                last = pos == len(order) - 1
                yield Call(kind=name, ops=cells, block=k,
                           fn=lambda argv=argv, last=last, k=k: self._run(argv, last, k),
                           props={"pass": k, "map": name}, outputs=(out,))

    def pass_size(self) -> int:
        return len(self.maps)

    def _run(self, argv, last, k):
        result = _cli_call(self.cp.cli, argv)
        if last:
            self.passes_done = k + 1
        return result

    def may_stop(self, records) -> bool:
        # a pass cut short by the clock counts toward latencies, not throughput
        return self.passes_done >= self.min_passes

    def check(self, records, rng) -> dict:
        """Byte identity across passes, NaN/error cells, oracle-sampled cells."""
        detail = {"identical_passes": True, "nan_cells": 0, "oracle_cells": []}
        first = {}
        for rec in records:
            name, k = rec.call.props["map"], rec.call.props["pass"]
            out = rec.call.outputs[0]
            if not rec.ok:
                rec.failed_ops = rec.call.ops
                continue
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if k == 0:
                first[name] = files
            elif files != first.get(name):
                detail["identical_passes"] = False
                rec.ok, rec.error, rec.failed_ops = False, "output differs from pass 0", rec.call.ops
                continue
            bad = self._bad_cells(files)
            if bad:
                detail["nan_cells"] += len(bad)
                rec.ok, rec.error, rec.failed_ops = False, "NaN or error cells", len(bad)
        pass0 = {r.call.props["map"]: r for r in records if r.call.props["pass"] == 0}
        for name in sorted(pass0):
            rec = pass0[name]
            if not rec.ok:
                continue
            for cell in self._oracle_sample(name, rec, rng):
                detail["oracle_cells"].append(cell)
                if not cell["ok"]:
                    rec.ok, rec.error = False, f"oracle check: {cell['error']}"
                    rec.failed_ops += 1
        detail["correct"] = detail["identical_passes"]
        return detail

    @staticmethod
    def _read_grid(text: str):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return [[float(x) for x in row[1:]] for row in rows]

    def _bad_cells(self, files) -> set:
        manifest = json.loads(files["sweep_manifest.json"])
        bad = set()
        for fname in manifest["files"].values():
            for i, row in enumerate(self._read_grid(files[fname].decode())):
                bad.update((i, j) for j, x in enumerate(row) if not math.isfinite(x))
        if manifest["errors"] and not bad:
            bad.add(("manifest", 0))
        return bad

    def _oracle_sample(self, name, rec, rng, per_map=2):
        """Rebuild sampled cells and compare them with the oracles."""
        cp = self.cp
        cfg, _ = self.maps[name]
        raw = cp.config.parse_config(cfg)
        sc = cp.config.resolve_scenario(raw)
        spec = cp.config.parse_sweep(raw)
        checkable = [q for q in spec.quantities if q in ORACLE_QUANTITIES]
        if not checkable:
            return []
        out = rec.call.outputs[0]
        grids = {q: self._read_grid((out / f"{q}.csv").read_text()) for q in checkable}
        n1 = len(spec.axis1.values)
        n2 = 1 if spec.axis2 is None else len(spec.axis2.values)
        results = []
        for flat in rng.permutation(n1 * n2):
            if len(results) == per_map:
                break
            i, j = divmod(int(flat), n2)
            point = cp.config.apply_sweep_value(sc, spec.axis1.param, spec.axis1.values[i])
            if spec.axis2 is not None:
                point = cp.config.apply_sweep_value(point, spec.axis2.param,
                                                    spec.axis2.values[j])
            cell = {"map": name, "cell": [i, j], "ok": True, "error": None, "worst": {}}
            try:
                tpsa = cp.config.build_scenario_tpsa(point)
                for q in checkable:
                    err = oracle_check(cp, q, grids[q][i][j], tpsa, point)
                    if err is None:           # skipped, as criterion 2 skips
                        continue
                    cell["worst"][q] = err
                    if err >= ORACLE_QUANTITIES[q]:
                        cell["ok"], cell["error"] = False, f"{q} off by {err:.3g}"
            except (cp.errors.CounterpairsError, sheared.NotConverged) as exc:
                cell["ok"], cell["error"] = False, type(exc).__name__
            if cell["worst"] or not cell["ok"]:
                results.append(cell)
        return results


ORACLE_QUANTITIES = {
    "N": TOL_RATE, "per_pulse": TOL_RATE,
    "sigma_omega_s": TOL_WIDTH, "sigma_omega_i": TOL_WIDTH,
    "sigma_lambda_s": TOL_WIDTH, "sigma_lambda_i": TOL_WIDTH,
    "sigma_tau_s": TOL_WIDTH, "sigma_tau_i": TOL_WIDTH,
    "entropy": TOL_SCHMIDT, "vartheta": TOL_SCHMIDT,
}


def _vartheta_of_entropy(cp, bits: float) -> float:
    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cp.entanglement.entropy(mid) < bits:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_check(cp, quantity, cell, tpsa, point):
    """Oracle error of one sweep cell value; None when criterion 2 would skip.

    Rates and widths are integrated on grids sheared along the amplitude's
    ridge (sheared.py): the axis-aligned package oracles cannot resolve the
    corners of the fig2 map.
    """
    if quantity in ("N", "per_pulse"):
        num = sheared.spectral(cp, tpsa, "s", n_points=MARGINAL_POINTS)[0]
        if quantity == "per_pulse":
            num /= point.pump.f_rep
        return _rel(num, cell)
    field_ = quantity[-1]
    omega0 = point.omega_s0 if field_ == "s" else point.omega_i0
    if quantity.startswith("sigma_omega"):
        return _rel(sheared.spectral(cp, tpsa, field_, n_points=MARGINAL_POINTS)[1], cell)
    if quantity.startswith("sigma_lambda"):
        sigma = sheared.spectral(cp, tpsa, field_, n_points=MARGINAL_POINTS)[1]
        return _rel(cp.spectral.wavelength_width(omega0, sigma) * 1e9, cell)
    if quantity.startswith("sigma_tau"):
        td = cp.temporal.time_domain(tpsa)
        return _rel(sheared.temporal(cp, td, field_, n_points=MARGINAL_POINTS) * 1e15, cell)
    vartheta = cell if quantity == "vartheta" else _vartheta_of_entropy(cp, cell)
    if vartheta > SCHMIDT_SKIP_VARTHETA:
        return None
    svals = cp.oracle.numeric_schmidt(cp.tpsa.normalize(tpsa), n_points=SCHMIDT_POINTS)
    analytic = np.sqrt((1.0 - vartheta) * vartheta ** np.arange(6))
    return float(np.max(np.abs(svals[:6] - analytic)))


# ---------------------------------------------------------------------------
# scenario-mix

# Request mix: (kind, requests per block). Reasons are in perfbench/README.md.
MIX = (("scenario", 75), ("hom", 8), ("schmidt", 6),
       ("phase-match", 5), ("dispersion-info", 5), ("inverse", 1))
MIX_BLOCK = sum(count for _, count in MIX)
NEGLECT_G_SHARE = 0.25
RATE_SAMPLE = 6


# The domain of the paper's figure maps (README: scenario-mix inputs).
TAU_LOG10, Z_LOG10, FILTER_LOG10 = (-14.0, -11.7), (-6.0, -3.7), (12.5, 14.0)
SIGNAL_M, CHIRP, D_THETA_OUT = (1.00e-6, 1.13e-6), 1.5, 3e8
SHARES = {"nondegenerate": 0.5, "chirp": 0.3, "d_theta_out": 0.3, "filters": 0.5}


def _scenario(u, flags) -> dict:
    """A figure-domain scenario from seven uniforms in [0, 1) and the flags."""
    def span(x, lo_hi):
        return lo_hi[0] + x * (lo_hi[1] - lo_hi[0])

    p = {"tau_p": float(10.0 ** span(u[0], TAU_LOG10)),
         "z_p": float(10.0 ** span(u[1], Z_LOG10)),
         "nondegenerate": bool(flags["nondegenerate"]),
         "a_p": float(CHIRP * (2.0 * u[3] - 1.0)) if flags["chirp"] else 0.0,
         "d_theta_out": float(D_THETA_OUT * (2.0 * u[4] - 1.0)) if flags["d_theta_out"] else None,
         "filters": None}
    p["lambda_s"] = float(span(u[2], SIGNAL_M)) if p["nondegenerate"] else LAMBDA_PAIR
    if flags["filters"]:
        p["filters"] = (float(10.0 ** span(u[5], FILTER_LOG10)),
                        float(10.0 ** span(u[6], FILTER_LOG10)))
    return p


def figure_params(rng) -> dict:
    """One scenario from the figure domain, each property drawn on its own."""
    u = rng.random(7)
    return _scenario(u, {k: rng.random() < share for k, share in SHARES.items()})


def exact_share(rng, m: int, share: float) -> np.ndarray:
    """m booleans of which exactly round(share * m) are true, in seeded order."""
    return rng.permutation(m) < round(share * m)


def figure_block(rng, m: int) -> list:
    """m scenarios from the figure domain, stratified so that every block
    has the same make-up: each property's share is exact and each range is
    covered in m equal strata. Request cost depends on these, so a
    median over a run then depends little on the seed."""
    u = (np.array([rng.permutation(m) for _ in range(7)]) + rng.random((7, m))) / m
    flags = {k: exact_share(rng, m, share) for k, share in SHARES.items()}
    return [_scenario(u[:, n], {k: v[n] for k, v in flags.items()}) for n in range(m)]


def config_entries(p: dict) -> dict:
    lambda_i = 1.0 / (1.0 / LAMBDA_PUMP - 1.0 / p["lambda_s"])
    e = {
        "waveguide.alpha": "4e6 1/m", "waveguide.Ly": "1e-5 m",
        "waveguide.d": "41.05e-12 m/V", "waveguide.model": "linbo3_e",
        "pump.lambda_p0": f"{LAMBDA_PUMP!r} m", "pump.tau_p": f"{p['tau_p']!r} s",
        "pump.a_p": repr(p["a_p"]), "pump.Z_p": f"{p['z_p']!r} m",
        "pump.Y_p": "1e-5 m", "pump.P_p": "1 W", "pump.f_rep": "8e7 1/s",
        "centrals.lambda_s0": f"{p['lambda_s']!r} m",
        "centrals.lambda_i0": f"{lambda_i!r} m",
    }
    if p["d_theta_out"] is not None:
        e["pump.D_theta_out"] = f"{p['d_theta_out']!r} deg/m"
    if p["filters"] is not None:
        e["filters.sigma_s"] = f"{p['filters'][0]!r} rad/s"
        e["filters.sigma_i"] = f"{p['filters'][1]!r} rad/s"
    return e


class ScenarioMix:
    """Seeded CLI requests from the domain of the figure maps, run in-process."""

    name = "scenario-mix"
    speed_kind = "python"           # scalar closed forms through the CLI
    rss_calls = 10 * MIX_BLOCK      # peak RSS is read after ten mix blocks

    def __init__(self, cp, work: Path, seed: int, n_requests: int):
        self.cp, self.work = cp, work
        rng = np.random.default_rng(seed)
        (work / "in").mkdir(parents=True)
        (work / "out").mkdir()
        # Exact mix per block of MIX_BLOCK requests, in seeded order; the
        # scenarios of each kind in a block are stratified (figure_block).
        self.requests = []
        while len(self.requests) < n_requests:
            block = []
            for kind, count in MIX:
                if kind == "inverse":
                    block += [(kind, None, False)] * count
                    continue
                neglect = exact_share(rng, count, NEGLECT_G_SHARE)
                block += [(kind, p, bool(g)) for p, g in zip(figure_block(rng, count), neglect)]
            for i in rng.permutation(len(block)):
                self.requests.append(self._make(len(self.requests), *block[i], rng))
        del self.requests[n_requests:]
        # Everything a call needs but the Call itself is built once per
        # request, before timing; a later cycle over the requests rewrites
        # their outputs, which are the same.
        self.prepared = []
        for k, (kind, argv, props) in enumerate(self.requests):
            out = work / "out" / f"{k}"
            argv = [a.format(out=out) for a in argv] + ["--out", f"{out}.json"]
            outputs = (Path(f"{out}.json"),) + ((Path(f"{out}.curve.csv"),)
                                               if kind == "hom" else ())
            self.prepared.append((kind, props, outputs,
                                  lambda argv=argv: _cli_call(cp.cli, argv)))

    def pass_size(self) -> int:
        return len(self.requests)

    def _make(self, k, kind, p, neglect, rng):
        inp = self.work / "in"
        if kind == "inverse":
            props, argv = self._make_inverse(k, rng)
            return kind, argv, props
        cfg = inp / f"{k}.cfg"
        _write_config(cfg, config_entries(p))
        argv = [kind, "--config", str(cfg)]
        if kind == "hom":
            argv += ["--curve-out", "{out}.curve.csv"]
        if kind == "dispersion-info":
            for lam in rng.uniform(0.45e-6, 3.0e-6, size=2):
                argv += ["--at", repr(float(lam))]
        if neglect:
            argv.append("--neglect-g")
        props = {"nondegenerate": p["nondegenerate"], "chirp": p["a_p"] != 0.0,
                 "filters": p["filters"] is not None,
                 "d_theta_out": p["d_theta_out"] is not None, "neglect_g": neglect,
                 "config": cfg}
        return kind, argv, props

    def _make_inverse(self, k, rng):
        """Widths file and dip curve from a chirp-free forward scenario.

        A measured dip needs a physical amplitude, so the source scenario is
        redrawn until the forward model yields one; the inverse request
        itself is never filtered.
        """
        cp = self.cp
        for _ in range(100):
            p = figure_params(rng)
            p["a_p"] = 0.0
            cfg = self.work / "in" / f"{k}.src.cfg"
            _write_config(cfg, config_entries(p))
            try:
                sc = cp.config.resolve_scenario(cp.config.parse_config(cfg))
                tpsa = cp.config.build_scenario_tpsa(sc)
                dip = cp.temporal.hom_params(tpsa)
                ws = cp.spectral.spectrum(tpsa, "s").sigma_omega
                wi = cp.spectral.spectrum(tpsa, "i").sigma_omega
            except (cp.errors.CounterpairsError, ValueError):
                continue
            taus = np.linspace(-3.0 * dip.delta_tau_l, 3.0 * dip.delta_tau_l, 201)
            rates = cp.temporal.hom_curve(tpsa, taus)
            break
        else:
            raise RuntimeError("no physical source scenario for an inverse request")
        widths = self.work / "in" / f"{k}.widths"
        lines = [f"measure.sigma_omega_s = {ws!r} rad/s",
                 f"measure.sigma_omega_i = {wi!r} rad/s"]
        if p["nondegenerate"]:
            lines += [f"measure.omega_s0 = {sc.omega_s0!r} rad/s",
                      f"measure.omega_i0 = {sc.omega_i0!r} rad/s"]
        widths.write_text("\n".join(lines) + "\n")
        curve = self.work / "in" / f"{k}.hom.csv"
        curve.write_text("tau_l [s],R_n [1]\n" + "".join(
            f"{float(t)!r},{float(r)!r}\n" for t, r in zip(taus, rates)))
        props = {"nondegenerate": p["nondegenerate"], "chirp": False,
                 "filters": p["filters"] is not None,
                 "d_theta_out": p["d_theta_out"] is not None, "neglect_g": False}
        return props, ["inverse", "--widths", str(widths), "--hom-csv", str(curve)]

    def calls(self):
        for n in itertools.count():
            kind, props, outputs, fn = self.prepared[n % len(self.prepared)]
            yield Call(kind=kind, ops=1, block=n // MIX_BLOCK, fn=fn, props=props,
                       outputs=outputs)

    def may_stop(self, records) -> bool:
        return True

    def check(self, records, rng) -> dict:
        """Exit codes, lenient JSON parse, NaN values, sampled rates vs a
        sheared-grid integral (sheared.py)."""
        detail = {"unparsable": 0, "nan_outputs": 0, "rate_checks": []}
        scenario_ok = {}
        for rec in records:
            if not rec.ok:
                rec.failed_ops = 1
                continue
            try:
                doc = json.loads(rec.call.outputs[0].read_text())
                for extra in rec.call.outputs[1:]:
                    [float(x) for line in extra.read_text().splitlines()[1:]
                     for x in line.split(",")]
            except (OSError, ValueError):
                detail["unparsable"] += 1
                rec.ok, rec.error, rec.failed_ops = False, "unparsable output", 1
                continue
            if _has_nan(doc):
                detail["nan_outputs"] += 1
                rec.ok, rec.error, rec.failed_ops = False, "NaN in output", 1
                continue
            if rec.call.kind == "scenario":
                scenario_ok.setdefault(rec.call.props["config"], (rec, doc))
        scenario_ok = list(scenario_ok.values())
        picks = rng.permutation(len(scenario_ok))[:RATE_SAMPLE]
        for idx in sorted(int(i) for i in picks):
            rec, doc = scenario_ok[idx]
            check = {"config": rec.call.props["config"].name, "ok": True, "error": None}
            try:
                sc = self.cp.config.resolve_scenario(
                    self.cp.config.parse_config(rec.call.props["config"]),
                    include_g=not rec.call.props["neglect_g"])
                num = sheared.spectral(self.cp, self.cp.config.build_scenario_tpsa(sc), "s",
                                       n_points=MARGINAL_POINTS)[0]
                check["rel_error"] = _rel(num, doc["rate"]["N_pairs_per_s"])
                if not check["rel_error"] < TOL_RATE:
                    check["ok"], check["error"] = False, f"rate off by {check['rel_error']:.3g}"
            except (self.cp.errors.CounterpairsError, sheared.NotConverged) as exc:
                check["ok"], check["error"] = False, type(exc).__name__
            if not check["ok"]:
                rec.ok, rec.error, rec.failed_ops = False, f"rate check: {check['error']}", 1
            detail["rate_checks"].append(check)
        detail["correct"] = detail["unparsable"] == 0
        return detail


def _has_nan(node) -> bool:
    if isinstance(node, dict):
        return any(_has_nan(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_nan(v) for v in node)
    return isinstance(node, float) and math.isnan(node)


# ---------------------------------------------------------------------------
# oracle-verify


def random_case_params(rng) -> dict:
    """One case of the criterion-2 domain (tests/conftest.py random_cases, chirp on)."""
    lam_s = LAMBDA_PAIR
    if rng.random() < 0.5:
        lam_s = float(rng.uniform(1.00e-6, 1.13e-6))
    p = {"tau_p": float(10.0 ** rng.uniform(-13.5, -12.0)),
         "z_p": float(10.0 ** rng.uniform(-5.5, -4.0)), "lambda_s": lam_s,
         "a_p": 0.0, "dtilde_theta": 0.0, "sigma_s": None, "sigma_i": None}
    if rng.random() < 0.7:
        p["a_p"] = float(rng.uniform(-1.5, 1.5))
    if rng.random() < 0.5:
        p["dtilde_theta"] = float(rng.uniform(-1.5e-16, 1.5e-16))
    if rng.random() < 0.5:
        p["sigma_s"] = float(10.0 ** rng.uniform(12.7, 14.0))
        p["sigma_i"] = float(10.0 ** rng.uniform(12.7, 14.0))
    return p


class OracleVerify:
    """Criterion-2 checks, all four per case, on seeded random cases."""

    name = "oracle-verify"
    speed_kind = "numpy"            # grid kernels and an SVD
    rss_calls = 5                   # peak RSS is read after five cases

    def __init__(self, cp, seed: int, n_cases: int):
        self.cp = cp
        self.wg = cp.WaveguideSpec(alpha=4e6, ly=1e-5, d=41.05e-12,
                                   model=cp.load_model("linbo3_e"))
        rng = np.random.default_rng(seed)
        self.cases = [random_case_params(rng) for _ in range(n_cases)]

    def calls(self):
        for n in itertools.count():
            p = self.cases[n % len(self.cases)]
            props = {"nondegenerate": p["lambda_s"] != LAMBDA_PAIR, "chirp": p["a_p"] != 0.0,
                     "filters": p["sigma_s"] is not None,
                     "dtilde_theta": p["dtilde_theta"] != 0.0, "schmidt_checked": None}
            yield Call(kind="case", ops=1, block=n, props=props,
                       fn=lambda p=p, props=props: self._verify(p, props))

    def pass_size(self) -> int:
        return len(self.cases)

    def _verify(self, p, props):
        cp = self.cp
        omega_s0 = 2.0 * math.pi * C_LIGHT / p["lambda_s"]
        omega_i0 = 2.0 * math.pi * C_LIGHT / LAMBDA_PUMP - omega_s0
        pump = cp.PumpSpec(lambda_p0=2.0 * math.pi * C_LIGHT / (omega_s0 + omega_i0),
                           tau_p=p["tau_p"], z_p=p["z_p"], y_p=1e-5, a_p=p["a_p"],
                           dtilde_theta=p["dtilde_theta"], p_p=1.0, f_rep=8e7)
        try:
            pump = cp.with_matched_angle(self.wg, pump, omega_s0, omega_i0)
            tpsa = cp.build_tpsa(self.wg, pump,
                                 cp.FilterSpec(sigma_s=p["sigma_s"], sigma_i=p["sigma_i"]),
                                 omega_s0, omega_i0)
            if not _rel(cp.oracle.quad_norm(tpsa), cp.pair_rate(tpsa).pairs_per_s) < TOL_RATE:
                return False, "rate"
            td = cp.temporal.time_domain(tpsa)
            for f in ("s", "i"):
                num = cp.oracle.numeric_marginal(tpsa, f, n_points=MARGINAL_POINTS).sigma_e1
                if not _rel(num, cp.spectrum(tpsa, f).sigma_omega) < TOL_WIDTH:
                    return False, f"spectral width {f}"
                num = cp.oracle.numeric_time_marginal(td, f, n_points=MARGINAL_POINTS).sigma_e1
                if not _rel(num, cp.flux(tpsa, f).sigma_tau) < TOL_WIDTH:
                    return False, f"temporal width {f}"
            t = cp.normalize(tpsa)
            sch = cp.schmidt(t)
            props["schmidt_checked"] = sch.vartheta <= SCHMIDT_SKIP_VARTHETA
            if props["schmidt_checked"]:
                svals = cp.oracle.numeric_schmidt(t, n_points=SCHMIDT_POINTS)
                analytic = np.array([math.sqrt(sch.lambda_sq(n)) for n in range(6)])
                if not float(np.max(np.abs(svals[:6] - analytic))) < TOL_SCHMIDT:
                    return False, "schmidt"
        except cp.errors.CounterpairsError as exc:
            return False, type(exc).__name__
        return True, None

    def may_stop(self, records) -> bool:
        return True

    def check(self, records, rng) -> dict:
        for rec in records:
            rec.failed_ops = 0 if rec.ok else 1
        return {"correct": True}


WORKLOADS = {w.name: w for w in (SweepMaps, ScenarioMix, OracleVerify)}
