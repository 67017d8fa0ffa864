"""Scenario configuration: flat dotted-key files with explicit units.

Format, one assignment per line (comments start with '#'):

    pump.tau_p = 1e-13 s
    filters.sigma_s = unfiltered
    waveguide.model = linbo3_e

Every dimensioned value must carry exactly the unit token the schema
expects, and every number must lie in its key's domain; unknown keys,
missing required keys, wrong units and numbers outside their domain are
rejected with the offending field named. The pump angle is never a
config input: it is solved from momentum conservation at the centrals.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import _elementwise as ew
from .constants import C_LIGHT
from .dispersion import (
    MaterialPoint,
    WaveguideSpec,
    index_derivative,
    load_model,
    material_point,
    refractive_index,
)
from .entanglement import principal_axes, schmidt, separability_roots
from .errors import ConfigInvalid, CounterpairsError, OutOfRange, in_double_range
from .spectral import _field_spectrum, pair_rate, wavelength_width, width_ratio
from .temporal import HomDip, _field_flux, hom_params, time_domain, width_products
from .tpsa import (
    FilterSpec,
    GaussianTPSA,
    PumpSpec,
    assemble_tpsa,
    external_dispersion,
    internal_dispersion,
    l2_norm,
    with_matched_angle,
)

_DEG = math.pi / 180.0

# key -> (unit token or None for dimensionless/string, required, default,
#         domain of a number or None for a string); a number outside its
#         domain is rejected where it is parsed, naming its key
_SCHEMA = {
    "waveguide.alpha": ("1/m", True, None, ">= 0"),
    "waveguide.Ly": ("m", True, None, "> 0"),
    "waveguide.d": ("m/V", True, None, "> 0"),
    "waveguide.model": (None, True, None, None),
    "pump.lambda_p0": ("m", True, None, "> 0"),
    "pump.tau_p": ("s", True, None, "> 0"),
    "pump.a_p": (None, False, 0.0, "finite"),
    "pump.Z_p": ("m", True, None, "> 0"),
    "pump.Y_p": ("m", True, None, "> 0"),
    "pump.P_p": ("W", False, 1.0, ">= 0"),
    "pump.f_rep": ("1/s", False, 8e7, "> 0"),
    "pump.Dtilde_theta": ("rad*s", False, None, "finite"),
    "pump.D_theta_out": ("deg/m", False, None, "finite"),
    "filters.sigma_s": ("rad/s", False, None, "> 0"),
    "filters.sigma_i": ("rad/s", False, None, "> 0"),
    "centrals.lambda_s0": ("m", True, None, "> 0"),
    "centrals.lambda_i0": ("m", True, None, "> 0"),
    "sweep.axis1": (None, False, None, None),
    "sweep.axis1_range": (None, False, None, None),
    "sweep.axis1_scale": (None, False, "linear", None),
    "sweep.axis1_points": (None, False, None, None),
    "sweep.axis2": (None, False, None, None),
    "sweep.axis2_range": (None, False, None, None),
    "sweep.axis2_scale": (None, False, "linear", None),
    "sweep.axis2_points": (None, False, None, None),
    "sweep.quantities": (None, False, None, None),
}
# domain -> whether a finite number lies in it: each key's domain is what the
# library constructor its value reaches (PumpSpec, FilterSpec, ...) admits
_DOMAINS = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, "finite": lambda x: True}

# sweepable parameter -> unit token of its range line: a config key's own
# unit, and for the two widths that set both filters at once their own
SWEEP_PARAMS = {**{key: _SCHEMA[key][0] for key in (
    "pump.tau_p", "pump.Z_p", "pump.Y_p", "pump.a_p", "pump.P_p", "pump.Dtilde_theta",
    "pump.D_theta_out", "filters.sigma_s", "filters.sigma_i")},
    "filters.sigma_both": "rad/s", "filters.sigma_both_nm": "nm"}
# the settings a sweepable parameter writes where they are not its own
_WRITES = {"pump.D_theta_out": {"pump.Dtilde_theta"},
           "filters.sigma_both": {"filters.sigma_s", "filters.sigma_i"},
           "filters.sigma_both_nm": {"filters.sigma_s", "filters.sigma_i"}}


def _read_assignments(data: bytes, table: dict) -> dict:
    """Read the 'key = value' lines of a file's bytes, decoded as a text-mode
    open() decodes them, into {key: raw value string}.

    '#' starts a comment; keys outside `table`, repeated keys and missing
    required keys are rejected with the key named.
    """
    raw = {}
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in table:
            raise ConfigInvalid(f"unknown key {key!r} (line {lineno})", field=key)
        if key in raw:
            raise ConfigInvalid(f"duplicate key {key!r} (line {lineno})", field=key)
        raw[key] = value
    for key, (_, required, _, _) in table.items():
        if required and key not in raw:
            raise ConfigInvalid(f"missing required key {key!r}", field=key)
    return raw


def parse_config(source: str | Path | bytes) -> dict:
    """Read a config file, given by its path or as its bytes, into
    {dotted key: raw value string}."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    return _read_assignments(data, _SCHEMA)


def _parse_quantity(key: str, value: str, table: dict) -> float:
    """The number a value string gives, with the unit, finiteness and domain
    that table declares for key checked; a failure names the key."""
    unit, _, _, domain = table[key]
    parts = value.split()
    if unit is None and len(parts) != 1:
        raise ConfigInvalid(f"{key} is dimensionless; got {value!r}", field=key)
    if unit is not None and (len(parts) != 2 or parts[1] != unit):
        raise ConfigInvalid(f"{key} must be '<number> {unit}'; got {value!r}", field=key)
    token = parts[0]
    try:
        number = float(token)
    except ValueError:
        raise ConfigInvalid(f"{key}: {token!r} is not a number", field=key) from None
    if not math.isfinite(number):
        raise ConfigInvalid(f"{key}: {token!r} is not a finite number", field=key)
    if not _DOMAINS[domain](number):
        raise ConfigInvalid(f"{key} must be {domain}; got {value!r}", field=key)
    return number


def _parse_filter(key: str, value: str) -> float | None:
    return None if value.strip() == "unfiltered" else _parse_quantity(key, value, _SCHEMA)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved inputs; pump.theta_p0 already satisfies phase matching."""

    wg: WaveguideSpec
    pump: PumpSpec
    filt: FilterSpec
    omega_s0: float
    omega_i0: float
    include_g: bool = True
    p_min: float = 0.95


def resolve_scenario(raw: dict, *, include_g: bool = True,
                     p_min: float = 0.95) -> Scenario:
    """Validate raw key/value strings into a ready-to-run Scenario.

    Each number is checked against its key's domain where it is parsed, so
    the library types built here accept every value that reaches them.
    """
    if not 0.0 < p_min < 1.0:
        raise ConfigInvalid(f"p_min must lie in (0, 1); got {p_min!r}", field="p_min")

    def get(key):
        if key not in raw:
            return _SCHEMA[key][2]
        return _parse_quantity(key, raw[key], _SCHEMA)

    model_name = raw["waveguide.model"].strip()
    try:
        model = load_model(model_name)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"waveguide.model: {exc}", field="waveguide.model") from exc

    wg = WaveguideSpec(alpha=get("waveguide.alpha"), ly=get("waveguide.Ly"),
                       d=get("waveguide.d"), model=model)
    omega_s0 = 2.0 * math.pi * C_LIGHT / get("centrals.lambda_s0")
    omega_i0 = 2.0 * math.pi * C_LIGHT / get("centrals.lambda_i0")
    omega_p0 = omega_s0 + omega_i0
    lambda_p0 = get("pump.lambda_p0")
    if abs(2.0 * math.pi * C_LIGHT / lambda_p0 - omega_p0) > 1e-6 * omega_p0:
        raise ConfigInvalid(
            "pump.lambda_p0 violates energy conservation against the centrals "
            f"(expected {2.0 * math.pi * C_LIGHT / omega_p0:.9g} m)",
            field="pump.lambda_p0",
        )

    if "pump.Dtilde_theta" in raw and "pump.D_theta_out" in raw:
        raise ConfigInvalid(
            "give either pump.Dtilde_theta or pump.D_theta_out, not both",
            field="pump.D_theta_out",
        )

    pump = with_matched_angle(wg, PumpSpec(
        lambda_p0=lambda_p0, tau_p=get("pump.tau_p"), z_p=get("pump.Z_p"),
        y_p=get("pump.Y_p"), a_p=get("pump.a_p"),
        p_p=get("pump.P_p"), f_rep=get("pump.f_rep"),
    ), omega_s0, omega_i0)
    filt = FilterSpec(*(_parse_filter(key, raw.get(key, "unfiltered"))
                        for key in ("filters.sigma_s", "filters.sigma_i")))
    sc = Scenario(wg=wg, pump=pump, filt=filt, omega_s0=omega_s0,
                  omega_i0=omega_i0, include_g=include_g, p_min=p_min)
    for key in ("pump.Dtilde_theta", "pump.D_theta_out"):
        if key in raw:
            sc = apply_sweep_value(sc, key, get(key))
    return sc


def scenario_material(sc: Scenario) -> MaterialPoint:
    """The material of a scenario at its centrals; fixed under every sweep."""
    return material_point(sc.wg, sc.omega_s0, sc.omega_i0)


def apply_sweep_value(sc: Scenario, param: str, value: float) -> Scenario:
    """Return a scenario with one sweepable setting replaced: the one setter.

    A config key and a sweep axis both set a setting here. pump.X sets the
    pump field x (lower case), filters.sigma_s and sigma_i their filter.
    Two are converted first: D_theta_out (deg/m, outside the material) is
    refracted in to Dtilde_theta at omega_p0, and sigma_both_nm (nm at
    omega_s0) becomes sigma_both, which sets both filters. value may be an
    array of swept values, broadcast over a sweep grid.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigInvalid(f"{param!r} is not sweepable; choose from "
                            f"{sorted(SWEEP_PARAMS)}", field=param)
    group, name = param.split(".")
    if name == "D_theta_out":
        omega_p0 = sc.omega_s0 + sc.omega_i0
        name, value = "Dtilde_theta", internal_dispersion(
            refractive_index(sc.wg.model, omega_p0), index_derivative(sc.wg.model, omega_p0),
            omega_p0, sc.pump.theta_p0, value * _DEG)
    elif name == "sigma_both_nm":
        name, value = "sigma_both", value * 1e-9 * sc.omega_s0**2 / (2.0 * math.pi * C_LIGHT)
    if group == "pump":
        return replace(sc, pump=replace(sc.pump, **{name.lower(): value}))
    names = ("sigma_s", "sigma_i") if name == "sigma_both" else (name,)
    return replace(sc, filt=replace(sc.filt, **dict.fromkeys(names, value)))


def build_scenario_tpsa(sc: Scenario) -> GaussianTPSA:
    return assemble_tpsa(scenario_material(sc), sc.pump, sc.filt, include_g=sc.include_g)


def _complex_pair(z: complex):
    return [z.real, z.imag]


@in_double_range("the scenario's settings")
def compute_scenario(sc: Scenario) -> dict:
    """Every scalar observable of one scenario as a JSON-ready dict."""
    mp = scenario_material(sc)
    tpsa = assemble_tpsa(mp, sc.pump, sc.filt, include_g=sc.include_g)
    rate = _rate(sc, mp, tpsa)
    spectra = _spectra(sc, mp, tpsa)
    flux_out = _flux(sc, mp, tpsa, spectra)
    hom = _hom(sc, mp, tpsa)
    sch = _schmidt(sc, mp, tpsa)
    axes = _principal_axes(sc, mp, tpsa)
    if sc.pump.a_p == 0.0:
        sep = separability_roots(mp, sc.pump, include_g=sc.include_g)
        sep_out = {
            "dtilde_theta_roots_rad_s": list(sep.roots),
            "min_feasible_Z_p_m": sep.min_feasible_z_p,
        }
    else:
        sep_out = None

    return {
        "inputs": _inputs(sc, mp, tpsa),
        "tpsa": {
            "f2s_s2": _complex_pair(tpsa.f2s),
            "f2i_s2": _complex_pair(tpsa.f2i),
            "f2si_s2": _complex_pair(tpsa.f2si),
            "f1s_s": _complex_pair(tpsa.f1s),
            "f1i_s": _complex_pair(tpsa.f1i),
            "f0": tpsa.f0,
            "c_phi_sq_per_m": tpsa.c_phi_sq,
            "prefactor": tpsa.prefactor,
            "V_ps_s_per_m": tpsa.v_ps, "V_pi_s_per_m": tpsa.v_pi,
            "V_si_s_per_m": tpsa.v_si,
            "G_s_s2": tpsa.g_s, "G_i_s2": tpsa.g_i, "G_si_s2": tpsa.g_si,
            "D_fr_s4": tpsa.d_fr,
        },
        "rate": rate, "spectra": spectra, "flux": flux_out, "hom": hom, "schmidt": sch,
        "separability": sep_out, "principal_axes": axes,
    }


# Each computed section of the document: one function of the scenario, its
# material and its amplitude, on scalars or on a sweep's broadcast arrays.
def _inputs(sc, mp, tpsa):
    d_out = external_dispersion(mp.n_p, mp.dn_dw_p, mp.omega_p0,
                                sc.pump.theta_p0, sc.pump.dtilde_theta)
    return {
        "waveguide": {
            "alpha_1_per_m": sc.wg.alpha, "Ly_m": sc.wg.ly,
            "d_m_per_V": sc.wg.d, "model": sc.wg.model.material,
        },
        "pump": {
            "lambda_p0_m": sc.pump.lambda_p0, "tau_p_s": sc.pump.tau_p,
            "a_p": sc.pump.a_p, "Z_p_m": sc.pump.z_p, "Y_p_m": sc.pump.y_p,
            "theta_p0_rad": sc.pump.theta_p0,
            "theta_p0_deg": sc.pump.theta_p0 / _DEG,
            "Dtilde_theta_rad_s": sc.pump.dtilde_theta,
            "D_theta_out_deg_per_m": None if d_out is None else d_out / _DEG,
            "P_p_W": sc.pump.p_p, "f_rep_per_s": sc.pump.f_rep,
        },
        "filters": {"sigma_s_rad_per_s": sc.filt.sigma_s,
                    "sigma_i_rad_per_s": sc.filt.sigma_i},
        "centrals": {"omega_s0_rad_per_s": sc.omega_s0,
                     "omega_i0_rad_per_s": sc.omega_i0,
                     "lambda_s0_m": 2.0 * math.pi * C_LIGHT / sc.omega_s0,
                     "lambda_i0_m": 2.0 * math.pi * C_LIGHT / sc.omega_i0},
        "include_g": sc.include_g,
        "p_min": sc.p_min,
    }


def _rate(sc, mp, tpsa):
    rate = pair_rate(tpsa)
    return {"N_pairs_per_s": rate.pairs_per_s, "per_pulse_probability": rate.per_pulse}


def _spectra(sc, mp, tpsa):
    norm = l2_norm(tpsa)
    spec_s = _field_spectrum(tpsa, "s", norm)
    spec_i = _field_spectrum(tpsa, "i", norm)
    ratio = width_ratio(tpsa)
    return {
        "sigma_omega_s_rad_per_s": spec_s.sigma_omega,
        "sigma_omega_i_rad_per_s": spec_i.sigma_omega,
        "sigma_lambda_s_nm": wavelength_width(sc.omega_s0, spec_s.sigma_omega) * 1e9,
        "sigma_lambda_i_nm": wavelength_width(sc.omega_i0, spec_i.sigma_omega) * 1e9,
        "delta_omega_s0_rad_per_s": spec_s.delta_omega0,
        "delta_omega_i0_rad_per_s": spec_i.delta_omega0,
        "width_ratio_F": ratio.f,
        "sigma_ratio_s_over_i": ratio.sigma_ratio_si,
    }


def _flux(sc, mp, tpsa, spectra):
    """Its time-bandwidth products read the widths of the spectra section, built before."""
    td, norm = time_domain(tpsa), l2_norm(tpsa)
    flux_s = _field_flux(td, "s", norm)
    flux_i = _field_flux(td, "i", norm)
    tb = width_products(spectra["sigma_omega_s_rad_per_s"], spectra["sigma_omega_i_rad_per_s"],
                        flux_s.sigma_tau, flux_i.sigma_tau)
    return {
        "sigma_tau_s_fs": flux_s.sigma_tau * 1e15,
        "sigma_tau_i_fs": flux_i.sigma_tau * 1e15,
        "delta_tau_s0_fs": flux_s.delta_tau0 * 1e15,
        "delta_tau_i0_fs": flux_i.delta_tau0 * 1e15,
        "time_bandwidth_s": tb.product_s,
        "time_bandwidth_i": tb.product_i,
        "time_bandwidth_ratio": tb.ratio,
    }


def _hom(sc, mp, tpsa):
    return _dip_section(hom_params(tpsa))


def _dip_section(dip: HomDip) -> dict:
    """The hom section of a dip already formed."""
    return {"A": dip.a, "B_per_s2": dip.b, "visibility": dip.visibility,
            "beat_rad_per_s": dip.beat, "delta_tau_l_fs": dip.delta_tau_l * 1e15}


def _schmidt(sc, mp, tpsa):
    sch = schmidt(tpsa, p_min=sc.p_min)
    return {"P": ew.where(sch.p < math.inf, sch.p, None),     # infinite when separable
            "vartheta": sch.vartheta, "entropy_bits": sch.entropy_bits, "n_min": sch.n_min,
            "lambda_sq_first_8": [sch.lambda_sq(n) for n in range(8)]}


def _principal_axes(sc, mp, tpsa):
    axes = principal_axes(tpsa)
    return {"mu1_s2": axes.mu1, "mu2_s2": axes.mu2, "psi_si_rad": axes.psi_si,
            "psi_si_deg": axes.psi_si / _DEG}


# Sweep output quantities: name -> (unit label, scenario section, key in it).
# Each is its key's value in the section built on the swept grid; a dotted
# key is nested, and a pair of keys gives their quotient.
QUANTITIES = {
    "N": ("1/s", "rate", "N_pairs_per_s"),
    "per_pulse": ("1", "rate", "per_pulse_probability"),
    "sigma_omega_s": ("rad/s", "spectra", "sigma_omega_s_rad_per_s"),
    "sigma_omega_i": ("rad/s", "spectra", "sigma_omega_i_rad_per_s"),
    "sigma_lambda_s": ("nm", "spectra", "sigma_lambda_s_nm"),
    "sigma_lambda_i": ("nm", "spectra", "sigma_lambda_i_nm"),
    "ratio_lambda_si": ("1", "spectra", ("sigma_lambda_s_nm", "sigma_lambda_i_nm")),
    "sigma_tau_s": ("fs", "flux", "sigma_tau_s_fs"),
    "sigma_tau_i": ("fs", "flux", "sigma_tau_i_fs"),
    "hom_A": ("1", "hom", "A"),
    "hom_B": ("1/s^2", "hom", "B_per_s2"),
    "visibility": ("1", "hom", "visibility"),
    "delta_tau_l": ("fs", "hom", "delta_tau_l_fs"),
    "entropy": ("bits", "schmidt", "entropy_bits"),
    "vartheta": ("1", "schmidt", "vartheta"),
    "n_min": ("modes", "schmidt", "n_min"),
    "psi_si": ("deg", "principal_axes", "psi_si_deg"),
    "theta_p0": ("deg", "inputs", "pump.theta_p0_deg"),
}
_INTEGER_QUANTITIES = ("n_min",)
# section -> the function that builds it; flux, which also reads the spectra
# section, is built by name
_SECTIONS = {"rate": _rate, "spectra": _spectra, "hom": _hom, "schmidt": _schmidt,
             "principal_axes": _principal_axes, "inputs": _inputs}


@dataclass(frozen=True)
class SweepAxis:
    param: str
    values: tuple
    scale: str


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None
    quantities: tuple


def _parse_axis(raw: dict, which: str) -> SweepAxis | None:
    key = f"sweep.{which}"
    if key not in raw:
        return None
    param = raw[key].strip()
    if param not in SWEEP_PARAMS:
        raise ConfigInvalid(f"{key}: {param!r} is not sweepable", field=key)
    range_key = f"{key}_range"
    points_key = f"{key}_points"
    if range_key not in raw or points_key not in raw:
        raise ConfigInvalid(f"{key} needs {range_key} and {points_key}", field=key)
    unit = SWEEP_PARAMS[param]
    parts = raw[range_key].split()
    expected = 2 if unit is None else 3
    if len(parts) != expected or (unit is not None and parts[-1] != unit):
        raise ConfigInvalid(
            f"{range_key} must be '<lo> <hi>{'' if unit is None else ' ' + unit}'",
            field=range_key)
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigInvalid(f"{range_key}: {exc}", field=range_key) from None
    try:
        n = int(raw[points_key])
    except ValueError as exc:
        raise ConfigInvalid(f"{points_key}: {exc}", field=points_key) from None
    if n < 1:
        raise ConfigInvalid(f"{points_key} must be >= 1", field=points_key)
    scale = raw.get(f"{key}_scale", _SCHEMA[f"{key}_scale"][2]).strip()
    if scale not in ("linear", "log"):
        raise ConfigInvalid(f"{key}_scale must be linear or log", field=f"{key}_scale")
    if scale == "log" and (lo <= 0 or hi <= 0):
        raise ConfigInvalid(f"{range_key}: log scale needs positive bounds", field=range_key)
    if n == 1:
        values = (lo,)
    elif scale == "log":
        ratio = (hi / lo) ** (1.0 / (n - 1))
        values = tuple(lo * ratio**k for k in range(n))
    else:
        step = (hi - lo) / (n - 1)
        values = tuple(lo + step * k for k in range(n))
    if not all(map(math.isfinite, (lo, hi) + values)):
        raise ConfigInvalid(f"{range_key}: bounds and grid must be finite", field=range_key)
    return SweepAxis(param=param, values=values, scale=scale)


def parse_sweep(raw: dict) -> SweepSpec:
    axis1 = _parse_axis(raw, "axis1")
    if axis1 is None:
        raise ConfigInvalid("sweep.axis1 is required for sweeps", field="sweep.axis1")
    axis2 = _parse_axis(raw, "axis2")
    if axis2 is not None and (_WRITES.get(axis1.param, {axis1.param})
                              & _WRITES.get(axis2.param, {axis2.param})):
        raise ConfigInvalid(f"sweep.axis2: {axis2.param!r} and sweep.axis1 "
                            f"{axis1.param!r} set the same setting", field="sweep.axis2")
    if "sweep.quantities" not in raw:
        raise ConfigInvalid("sweep.quantities is required", field="sweep.quantities")
    names = tuple(raw["sweep.quantities"].replace(",", " ").split())
    for name in names:
        if name not in QUANTITIES:
            raise ConfigInvalid(
                f"unknown sweep quantity {name!r}; choose from {sorted(QUANTITIES)}",
                field="sweep.quantities")
        if names.count(name) > 1:
            raise ConfigInvalid(f"duplicate sweep quantity {name!r}", field="sweep.quantities")
    if not names:
        raise ConfigInvalid("sweep.quantities is empty", field="sweep.quantities")
    return SweepSpec(axis1=axis1, axis2=axis2, quantities=names)


def _evaluate_sweep(sc: Scenario, spec: SweepSpec, mp: MaterialPoint, v1, v2):
    """The requested quantities at axis values v1, v2 (scalars or broadcast
    arrays), each read off its section of the scenario document; a section is
    built once, when the first quantity that reads it is evaluated."""
    with in_double_range("the swept settings"):
        point = apply_sweep_value(sc, spec.axis1.param, v1)
        if spec.axis2 is not None:
            point = apply_sweep_value(point, spec.axis2.param, v2)
        tpsa = assemble_tpsa(mp, point.pump, point.filt, include_g=sc.include_g)
        doc, values = {}, {}
        for name in spec.quantities:
            _, section, key = QUANTITIES[name]
            if section == "flux" and "spectra" not in doc:   # its width products read it
                doc["spectra"] = _spectra(point, mp, tpsa)
            if section not in doc:
                doc[section] = (_flux(point, mp, tpsa, doc["spectra"]) if section == "flux"
                                else _SECTIONS[section](point, mp, tpsa))
            node = doc[section]
            if isinstance(key, tuple):      # ratio_lambda_si: a quotient of two keys
                values[name] = node[key[0]] / node[key[1]]
            else:
                for part in key.split("."):     # theta_p0's key is nested
                    node = node[part]
                values[name] = node
        return tpsa, values


@dataclass(frozen=True)
class SweepGrid:
    """Sweep results: one row per axis1 value, one column per axis2 value.

    values maps each requested quantity to its rows (floats; ints for
    n_min; NaN in failed cells). errors holds each failed cell's exception
    and None where the cell succeeded.
    """

    values: dict
    errors: list


def sweep_point(sc: Scenario, spec: SweepSpec) -> SweepGrid:
    """Evaluate the requested quantities over the whole sweep grid at once.

    The grid is spec's axis values, made into broadcast arrays here. One
    material point (every sweepable parameter is a pump or filter setting)
    and one broadcast amplitude serve every cell. A cell fails when its
    amplitude or any requested quantity fails there: the broadcast
    evaluation leaves such cells non-finite, and each is evaluated again on
    its own, with scalars, to get its exception (a cell that then succeeds
    keeps those values, and one still non-finite fails with OutOfRange).
    When the material fails, every cell fails with it.
    """
    import numpy as np
    axis1 = np.reshape(spec.axis1.values, (-1, 1))
    axis2 = None if spec.axis2 is None else np.reshape(spec.axis2.values, (1, -1))
    shape = (axis1.shape[0], 1 if axis2 is None else axis2.shape[1])
    try:
        mp = scenario_material(sc)
    except CounterpairsError as exc:
        return SweepGrid(values={name: np.full(shape, math.nan).tolist()
                                 for name in spec.quantities},
                         errors=np.full(shape, exc, dtype=object).tolist())
    with np.errstate(all="ignore"):
        try:
            tpsa, grids = _evaluate_sweep(sc, spec, mp, axis1, axis2)
            ok = ew.finite_cells(tpsa)
        except CounterpairsError:
            # a check on a value that every cell shares failed: so does every cell
            grids, ok = {}, False
        grids = {name: np.broadcast_to(grids.get(name, math.nan), shape)
                 for name in spec.quantities}
        for grid in grids.values():
            ok = ok & np.isfinite(grid)
    values = {name: grid.tolist() for name, grid in grids.items()}
    errors = [[None] * shape[1] for _ in range(shape[0])]
    for i, j in np.argwhere(~ok).tolist():
        try:
            cell = _evaluate_sweep(sc, spec, mp, float(axis1[i, 0]),
                                   None if axis2 is None else float(axis2[0, j]))[1]
            for name in spec.quantities:
                if not math.isfinite(cell[name]):
                    raise OutOfRange(f"sweep quantity {name} = {cell[name]!r} is not finite")
        except CounterpairsError as exc:
            cell = dict.fromkeys(spec.quantities, math.nan)
            errors[i][j] = exc
        for name in spec.quantities:
            values[name][i][j] = cell[name]
    for name in _INTEGER_QUANTITIES:
        if name in values:
            values[name] = [[int(x) if math.isfinite(x) else x for x in row]
                            for row in values[name]]
    return SweepGrid(values=values, errors=errors)

