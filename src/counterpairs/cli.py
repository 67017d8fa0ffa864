"""Command-line driver.

Subcommands: scenario, sweep, hom, schmidt, inverse, phase-match,
dispersion-info. Scalar results are emitted as JSON (or flat key,value
CSV with --format csv); sweeps write one CSV grid per quantity plus a
provenance sidecar. Output is byte-deterministic for identical inputs:
fixed key ordering, repr-based float formatting, no timestamps.

Exit codes: 0 success, 1 user/input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import (
    QUANTITIES,
    SWEEP_PARAMS,
    Scenario,
    _DEG,
    _hom_section,
    _parse_quantity,
    _read_assignments,
    _schmidt_section,
    build_scenario_tpsa,
    compute_scenario,
    parse_config,
    parse_sweep,
    resolve_scenario,
    sweep_point,
)
from .constants import C_LIGHT
from .dispersion import (
    beta,
    gamma,
    group_velocity,
    momentum_mismatch,
    pump_wavevector,
    refractive_index,
)
from .entanglement import schmidt
from .errors import ConfigInvalid, CounterpairsError, OutOfRange, in_double_range
from .inverse import MeasurementSet, estimate, fit_hom_B
from .temporal import hom_curve, hom_params

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _leaves(doc: dict) -> list:
    """(dotted key, value) for each leaf of a document, keys sorted; the first
    non-finite float raises OutOfRange naming its key: no output holds one."""
    leaves = []

    def walk(prefix, node):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}{key}.", node[key])
        elif isinstance(node, (list, tuple)):
            for k, item in enumerate(node):
                walk(f"{prefix}{k}.", item)
        elif isinstance(node, float) and not math.isfinite(node):
            raise OutOfRange(f"{prefix[:-1]} = {node!r} is not finite")
        else:
            leaves.append((prefix[:-1], node))

    walk("", doc)
    return leaves


def _emit(doc: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:      # the walk names a non-finite float's key
            _leaves(doc)
            raise
    else:
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(
            [["key", "value"]] + [[key, _fmt(value)] for key, value in _leaves(doc)])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_scenario(args) -> Scenario:
    raw = parse_config(args.config)
    return resolve_scenario(raw, include_g=args.include_g,
                            **({"p_min": args.p_min} if "p_min" in args else {}))


def _cmd_scenario(args) -> dict:
    return compute_scenario(_load_scenario(args))


def _grid_csv(axis1, axis2, rows, label: str) -> str:
    """Row-major grid CSV; first column axis1, header row axis2.

    axis = (param, values, unit or None); label names the cells of a
    one-axis grid.
    """
    unit1 = "" if axis1[2] is None else f" [{axis1[2]}]"
    lines = []
    if axis2 is None:
        lines.append(f"{axis1[0]}{unit1},{label}")
        for v, row in zip(axis1[1], rows):
            lines.append(f"{_fmt(v)},{_fmt(row[0])}")
    else:
        unit2 = "" if axis2[2] is None else f" [{axis2[2]}]"
        header = [f"{axis1[0]}{unit1} \\ {axis2[0]}{unit2}"]
        header += [_fmt(v) for v in axis2[1]]
        lines.append(",".join(header))
        for v1, row in zip(axis1[1], rows):
            lines.append(",".join([_fmt(v1)] + [_fmt(x) for x in row]))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> None:
    import hashlib
    data = Path(args.config).read_bytes()   # read once: the manifest hashes what was parsed
    raw = parse_config(data)
    sc = resolve_scenario(raw, include_g=args.include_g, p_min=args.p_min)
    spec = parse_sweep(raw)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = sweep_point(sc, spec)

    ax1 = (spec.axis1.param, spec.axis1.values, SWEEP_PARAMS[spec.axis1.param])
    ax2 = None if spec.axis2 is None else (
        spec.axis2.param, spec.axis2.values, SWEEP_PARAMS[spec.axis2.param])
    files = {}
    for name in spec.quantities:
        path = out_dir / f"{name}.csv"
        path.write_text(_grid_csv(ax1, ax2, grid.values[name],
                                  f"value [{QUANTITIES[name][0]}]"))
        files[name] = path.name
    failed = [exc for row in grid.errors for exc in row if exc is not None]
    errors_path = out_dir / "errors.csv"
    if failed:
        names = [["" if exc is None else type(exc).__name__ for exc in row]
                 for row in grid.errors]
        errors_path.write_text(_grid_csv(ax1, ax2, names, "error"))
    else:
        errors_path.unlink(missing_ok=True)

    manifest = {
        "package": "counterpairs",
        "version": __version__,
        "config_sha256": hashlib.sha256(data).hexdigest(),
        "include_g": args.include_g,
        "p_min": args.p_min,
        "axis1": {"param": spec.axis1.param, "points": len(spec.axis1.values),
                  "scale": spec.axis1.scale},
        "axis2": None if spec.axis2 is None else {
            "param": spec.axis2.param, "points": len(spec.axis2.values),
            "scale": spec.axis2.scale},
        "quantities": {name: QUANTITIES[name][0] for name in spec.quantities},
        "files": files,
        "errors": sorted({str(exc) for exc in failed}),
    }
    (out_dir / "sweep_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cmd_hom(args) -> dict:
    if not 0.0 < args.span < math.inf:
        raise ConfigInvalid(f"--span must be finite and > 0; got {args.span!r}", field="--span")
    if args.points < 1:
        raise ConfigInvalid(f"--points must be a positive integer; got {args.points}",
                            field="--points")
    tpsa = build_scenario_tpsa(_load_scenario(args))
    dip = hom_params(tpsa)
    doc = _hom_section(dip)
    if args.curve_out:
        import numpy as np
        span = args.span * dip.delta_tau_l
        taus = np.linspace(-span, span, args.points)
        rates = hom_curve(tpsa, taus)
        Path(args.curve_out).write_text(_grid_csv(
            ("tau_l", taus.tolist(), "s"), None, [[rate] for rate in rates.tolist()], "R_n [1]"))
        doc["curve_file"] = args.curve_out
    return doc


def _cmd_schmidt(args) -> dict:
    sc = _load_scenario(args)
    sch = schmidt(build_scenario_tpsa(sc), p_min=sc.p_min)
    return {**_schmidt_section(sch), "p_min": sch.p_min}


# key -> (unit, required, default, domain), as config._SCHEMA
_WIDTHS_KEYS = {
    "measure.sigma_omega_s": ("rad/s", True, None, "> 0"),
    "measure.sigma_omega_i": ("rad/s", True, None, "> 0"),
    "measure.omega_s0": ("rad/s", False, None, "> 0"),
    "measure.omega_i0": ("rad/s", False, None, "> 0"),
}


def _parse_widths_file(path: str) -> dict:
    widths = {key: _parse_quantity(key, value, _WIDTHS_KEYS)
              for key, value in _read_assignments(Path(path).read_bytes(), _WIDTHS_KEYS).items()}
    if len(missing := {"measure.omega_s0", "measure.omega_i0"} - widths.keys()) == 1:
        key = missing.pop()
        raise ConfigInvalid(f"missing key {key!r}: give both measured centrals or neither",
                            field=key)
    return widths


def _parse_hom_csv(path: str) -> list:
    """(tau_l, R_n) samples; blank and '#' lines are skipped, and the first
    line left may be a header."""
    rows, read = [], 0
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        read += 1
        parts = stripped.split(",")
        try:
            sample = float(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            if read == 1:       # the one header line
                continue
            raise ConfigInvalid(f"line {lineno}: bad coincidence sample {line!r}",
                                field="--hom-csv") from None
        if not all(map(math.isfinite, sample)):
            raise ConfigInvalid(f"line {lineno}: non-finite coincidence sample {line!r}",
                                field="--hom-csv")
        rows.append(sample)
    return rows


def _cmd_inverse(args) -> dict:
    widths = _parse_widths_file(args.widths)
    samples = _parse_hom_csv(args.hom_csv)
    # both measured centrals or neither: a degenerate pair has no beat
    beat = widths.get("measure.omega_s0", 0.0) - widths.get("measure.omega_i0", 0.0)
    fit = fit_hom_B(samples, beat=beat)
    ms = MeasurementSet(sigma_omega_s=widths["measure.sigma_omega_s"],
                        sigma_omega_i=widths["measure.sigma_omega_i"], b=fit.b)
    result = estimate(ms)
    return {
        "fit": {"A": fit.a, "B_per_s2": fit.b, "beat_rad_per_s": fit.beat,
                "residual_rms": fit.residual_rms},
        "F_ratio": result.f_ratio,
        "method": result.method,
        "ambiguous": result.ambiguous,
        "roots": [
            {"f2s_r_s2": r.f2s_r, "f2i_r_s2": r.f2i_r, "f2si_r_s2": r.f2si_r,
             "vartheta": r.vartheta, "entropy_bits": r.entropy_bits}
            for r in result.roots
        ],
    }


def _cmd_phase_match(args) -> dict:
    sc = _load_scenario(args)
    k_p0 = pump_wavevector(sc.wg.model, sc.omega_s0 + sc.omega_i0)
    beta_s0, beta_i0 = beta(sc.wg, sc.omega_s0), beta(sc.wg, sc.omega_i0)
    return {
        "theta_p0_rad": sc.pump.theta_p0,
        "theta_p0_deg": sc.pump.theta_p0 / _DEG,
        "residual_rad_per_m": momentum_mismatch(k_p0, sc.pump.theta_p0, beta_s0, beta_i0),
        "k_p0_rad_per_m": k_p0,
        "beta_s0_rad_per_m": beta_s0,
        "beta_i0_rad_per_m": beta_i0,
    }


def _cmd_dispersion_info(args) -> dict:
    sc = _load_scenario(args)
    doc = {"model": sc.wg.model.material, "points": []}
    for lam in args.at:
        if not lam > 0:
            raise ConfigInvalid(f"--at {lam!r} is not a positive wavelength", field="--at")
        omega = 2.0 * math.pi * C_LIGHT / lam
        doc["points"].append({
            "lambda_m": lam,
            "omega_rad_per_s": omega,
            "n0": refractive_index(sc.wg.model, omega),
            "beta_rad_per_m": beta(sc.wg, omega),
            "gamma_per_m": gamma(sc.wg, omega),
            "v_guided_m_per_s": group_velocity(sc.wg, omega, "guided"),
            "v_bulk_m_per_s": group_velocity(sc.wg, omega, "pump_bulk"),
        })
    return doc


# options that several subcommands read; each subcommand lists those it reads
_CONFIG = {"--config": dict(required=True, help="scenario config file")}
_OUTPUT = {"--format": dict(choices=("json", "csv"), default="json"),
           "--out": dict(default=None, help="write output here instead of stdout")}
# phase-match and dispersion-info keep the G switch for callers that pass it to every command
_G = {("--include-g", "--neglect-g"): (       # a tuple of flags: mutually exclusive
    dict(dest="include_g", action="store_true", default=True,
         help="keep transverse-overlap corrections (default)"),
    dict(dest="include_g", action="store_false",
         help="drop transverse-overlap corrections"))}
_P_MIN = {"--p-min": dict(type=float, default=0.95,
                          help="mode-count probability target (default 0.95)")}
_DOCUMENT = {**_CONFIG, **_OUTPUT, **_G}
_SCENARIO = {**_DOCUMENT, **_P_MIN}

# subcommand -> (help, handler, the options it reads), in `--help` order
_COMMANDS = {
    "scenario": ("all observables of one configuration", _cmd_scenario, _SCENARIO),
    "sweep": ("parameter sweep to CSV grids", _cmd_sweep,
              {**_CONFIG, **_G, **_P_MIN, "--out-dir": dict(required=True)}),
    "hom": ("coincidence-dip parameters and curve", _cmd_hom, {
        **_DOCUMENT,
        "--curve-out": dict(default=None, help="write R_n(tau_l) CSV here"),
        "--points": dict(type=int, default=201),
        "--span": dict(type=float, default=3.0,
                       help="curve half-range in units of the dip width")}),
    "schmidt": ("Schmidt spectrum and entropy", _cmd_schmidt, _SCENARIO),
    "inverse": ("entropy from measured widths + dip samples", _cmd_inverse, {
        **_OUTPUT,
        "--widths": dict(required=True, help="measured-widths file"),
        "--hom-csv": dict(required=True, help="CSV of (tau_l, R_n) samples")}),
    "phase-match": ("central pump angle from momentum conservation", _cmd_phase_match,
                    _DOCUMENT),
    "dispersion-info": ("index/propagation numbers at wavelengths", _cmd_dispersion_info, {
        **_DOCUMENT,
        "--at": dict(type=float, action="append", required=True, metavar="LAMBDA_M",
                     help="vacuum wavelength in meters (repeatable)")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="counterpairs",
        allow_abbrev=False,
        description="Counter-propagating photon pairs from a transversely "
                    "pumped planar waveguide: rates, spectra, interference, "
                    "entanglement.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kwargs in options.items():
            if isinstance(flag, tuple):
                group = command.add_mutually_exclusive_group()
                for one, one_kwargs in zip(flag, kwargs):
                    group.add_argument(one, **one_kwargs)
            else:
                command.add_argument(flag, **kwargs)
        command.set_defaults(command=name, fn=handler)
    return parser


# built once: a request pays for parsing its arguments, not for building a parser
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)     # None parses sys.argv[1:]
    try:
        with in_double_range("the scenario's settings"):     # overflow in any handler is a user error
            doc = args.fn(args)
        if doc is not None:     # sweep writes its own files
            _emit(doc, args.format, args.out)
        return 0
    except ConfigInvalid as exc:
        field = f" [field: {exc.field}]" if exc.field else ""
        print(f"error: {exc}{field}", file=sys.stderr)
        return 1
    except (CounterpairsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
