"""Material dispersion, guided-mode propagation constants, and phase matching.

The waveguide confines light along x through a parabolic index profile
n(x)^2 = n0(w)^2 (1 - alpha^2 x^2) and supports TE modes with Gaussian
transverse profiles of inverse width gamma(w) = sqrt(n0(w) w alpha / c).
The transversely incident pump travels as a bulk plane wave with
wavevector magnitude k_p(w) = n0(w) w / c.

All operations are pure functions of immutable inputs. Frequency
derivatives are closed forms: one pass over the Sellmeier terms gives n,
dn/domega and d^2n/domega^2 by the chain rule in x = L^2, and group
velocities and the overlap expansion follow from these at the evaluation
frequency alone, so a frequency on the edge of the validity window evaluates.

Everything the amplitude needs from the material at one pair of central
frequencies is gathered in a frozen MaterialPoint by material_point().
Pump and filter settings never enter it, so one value serves a whole
scenario or a whole sweep over pump and filter parameters: it is
computed once per (waveguide, centrals) and passed on, not looked up
in a cache.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .constants import C_LIGHT
from .errors import (
    DegenerateExpansion,
    ModeCutoff,
    NoPhaseMatch,
    OutOfValidityWindow,
)

_GAMMA_SQ_FLOOR = 1e-12   # 1/m^2, below this the 1/(gs^2+gi^2) expansion is rejected


@dataclass(frozen=True)
class DispersionModel:
    """Refractive-index model n0(omega) with an explicit validity window.

    kind "sellmeier": coefficients are (B_k, C_k) pairs of the standard
    form n^2 = 1 + sum B_k L^2 / (L^2 - C_k) with L the vacuum wavelength
    in micrometers and C_k in um^2.
    kind "constant": coefficients = (n0,).
    omega_window: inclusive validity interval in rad/s.
    """

    material: str
    kind: str
    coefficients: tuple
    omega_window: tuple

    def __post_init__(self):
        lo, hi = self.omega_window
        if not (0.0 < lo < hi):
            raise ValueError("omega_window must satisfy 0 < lo < hi")
        if self.kind not in ("sellmeier", "constant"):
            raise ValueError(f"unknown dispersion model kind {self.kind!r}")


@dataclass(frozen=True)
class WaveguideSpec:
    """Planar-waveguide parameters.

    alpha: parabolic-profile parameter, 1/m (alpha = 0 is the free-space limit).
    ly: transverse width along y, m.
    d: effective second-order nonlinear coefficient, m/V.
    model: dispersion model used for pump and guided fields alike.
    """

    alpha: float
    ly: float
    d: float
    model: DispersionModel

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.ly <= 0 or self.d <= 0:
            raise ValueError("ly and d must be positive")


@dataclass(frozen=True)
class GTaylor:
    """Second-order expansion of 1/(gamma_s^2 + gamma_i^2) about the centrals.

    1/(gs^2+gi^2) ~ g0 + g1s*ds + g1i*di + g2s*ds^2 + g2i*di^2 + g2si*ds*di,
    with ds, di the signal/idler detunings in rad/s. Units: g0 in m^2,
    g1 in m^2 s, g2 in m^2 s^2.
    """

    g0: float
    g1s: float
    g1i: float
    g2s: float
    g2i: float
    g2si: float

    def __post_init__(self):
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")


def refractive_index(model: DispersionModel, omega: float) -> float:
    """Refractive index n0(omega) for an in-window angular frequency."""
    return _index_derivatives(model, omega, derivatives=False)[0]


def _index_derivatives(model: DispersionModel, omega: float, derivatives: bool = True) -> tuple:
    """(n0, dn0/domega, d^2n0/domega^2) at an in-window frequency from one pass over the
    Sellmeier terms, or (n0,) alone: the derivatives' powers overflow before n0 does.

    With x = L^2 (um^2), dx/dw = -2x/w and d^2x/dw^2 = 6x/w^2; the squared
    index N = n^2 = 1 + sum B x/(x - C) has N_x = -sum B C/(x - C)^2 and
    N_xx = 2 sum B C/(x - C)^3.
    """
    lo, hi = model.omega_window
    if not (lo <= omega <= hi):
        raise OutOfValidityWindow(
            f"omega = {omega:.6g} rad/s outside validity window "
            f"[{lo:.6g}, {hi:.6g}] of {model.material!r}"
        )
    if model.kind == "constant":
        return float(model.coefficients[0]), 0.0, 0.0
    x = (2.0 * math.pi * C_LIGHT / omega * 1e6) ** 2
    n_sq, n_x, n_xx = 1.0, 0.0, 0.0
    for b, c_um2 in model.coefficients:
        n_sq += b * x / (x - c_um2)
        r = b * c_um2 / (x - c_um2) ** 2 if derivatives else 0.0
        n_x -= r
        n_xx += 2.0 * r / (x - c_um2)
    n = math.sqrt(n_sq)
    if not derivatives:
        return (n,)
    x1 = -2.0 * x / omega
    x2 = 6.0 * x / omega**2
    dn_sq = n_x * x1
    d2n_sq = n_xx * x1**2 + n_x * x2
    dn = dn_sq / (2.0 * n)
    return n, dn, (d2n_sq - 2.0 * dn**2) / (2.0 * n)


def index_derivative(model: DispersionModel, omega: float) -> float:
    """dn0/domega, s/rad."""
    return _index_derivatives(model, omega)[1]


def beta(spec: WaveguideSpec, omega: float) -> float:
    """Propagation constant of the guided TE mode, rad/m.

    beta = (n0 w / c) sqrt(1 - alpha c / (n0 w)); raises ModeCutoff when
    the radicand is non-positive.
    """
    return _beta(spec.alpha, refractive_index(spec.model, omega), omega)


def _beta(alpha: float, n: float, omega: float) -> float:
    """beta from the index n0 at omega."""
    radicand = 1.0 - alpha * C_LIGHT / (n * omega)
    if radicand <= 0.0:
        raise ModeCutoff(
            f"no guided mode at omega = {omega:.6g} rad/s "
            f"(alpha c / (n0 w) = {1.0 - radicand:.6g} >= 1)"
        )
    return n * omega / C_LIGHT * math.sqrt(radicand)


def pump_wavevector(model: DispersionModel, omega: float) -> float:
    """Bulk wavevector magnitude k_p = n0 w / c, rad/m."""
    return refractive_index(model, omega) * omega / C_LIGHT


def group_velocity(spec: WaveguideSpec, omega: float, which: str = "guided") -> float:
    """Group velocity, m/s.

    which = "pump_bulk": 1/v = k' with k = n0 w / c, k' = (n0 + w n0')/c.
    which = "guided": 1/v = d beta/dw = k' (k - alpha/2) / beta, from
    beta^2 = k^2 - alpha k.
    """
    if which not in ("guided", "pump_bulk"):
        raise ValueError("which must be 'guided' or 'pump_bulk'")
    n, dn, _ = _index_derivatives(spec.model, omega)
    beta_guided = _beta(spec.alpha, n, omega) if which == "guided" else None
    return _group_velocity(spec.alpha, n, dn, omega, beta_guided)


def _group_velocity(alpha: float, n: float, dn: float, omega: float,
                    beta_guided: float | None) -> float:
    """group_velocity from n0 and dn0/domega; guided when beta_guided is given."""
    inv_v = (n + omega * dn) / C_LIGHT
    if beta_guided is not None:
        inv_v *= (n * omega / C_LIGHT - 0.5 * alpha) / beta_guided
    if inv_v <= 0.0:
        raise ModeCutoff(f"non-positive group slowness at omega = {omega:.6g}")
    return 1.0 / inv_v


def gamma(spec: WaveguideSpec, omega: float) -> float:
    """Inverse transverse mode width gamma = sqrt(n0 w alpha / c), 1/m."""
    n = refractive_index(spec.model, omega)
    return math.sqrt(n * omega * spec.alpha / C_LIGHT)


def momentum_mismatch(k_p0: float, theta_p0: float,
                      beta_s0: float, beta_i0: float) -> float:
    """Momentum mismatch k_p0 sin(theta_p0) - beta_s0 + beta_i0, rad/m.

    Counter-propagation makes the idler contribute with reversed sign.
    """
    return k_p0 * math.sin(theta_p0) - beta_s0 + beta_i0


def solve_phase_matching(spec: WaveguideSpec, omega_s0: float, omega_i0: float) -> float:
    """Central pump angle (rad, in [-pi/2, pi/2]) satisfying momentum conservation.

    k_p0 sin(theta_p0) = beta_s0 - beta_i0; raises NoPhaseMatch when the
    guided-mode mismatch exceeds the available pump wavevector.
    """
    kp0 = pump_wavevector(spec.model, omega_s0 + omega_i0)
    mismatch = beta(spec, omega_s0) - beta(spec, omega_i0)
    ratio = mismatch / kp0
    if abs(ratio) > 1.0:
        raise NoPhaseMatch(
            f"|beta_s0 - beta_i0| = {abs(mismatch):.6g} rad/m exceeds "
            f"k_p0 = {kp0:.6g} rad/m"
        )
    return math.asin(ratio)


def g_taylor(spec: WaveguideSpec, omega_s0: float, omega_i0: float) -> GTaylor:
    """Expansion coefficients of 1/(gamma_s^2 + gamma_i^2) about the centrals.

    With u = gamma^2 = alpha n0 w / c, u' = alpha (n0 + w n0')/c and
    u'' = alpha (2 n0' + w n0'')/c at each central, and S = u_s + u_i:
    g0 = 1/S, g1 = -u'/S^2, g2 = u'^2/S^3 - u''/(2 S^2) and
    g2si = 2 u_s' u_i'/S^3. Raises DegenerateExpansion when S falls below
    floor (alpha -> 0 limit, where every coefficient diverges).
    """
    return _g_taylor(spec.alpha, omega_s0, _index_derivatives(spec.model, omega_s0),
                     omega_i0, _index_derivatives(spec.model, omega_i0))


def _g_taylor(alpha: float, omega_s0: float, derivs_s: tuple,
              omega_i0: float, derivs_i: tuple) -> GTaylor:
    """g_taylor from (n0, n0', n0'') at each central."""
    def u_derivatives(omega, derivs):
        n, dn, d2n = derivs
        a = alpha / C_LIGHT
        return a * n * omega, a * (n + omega * dn), a * (2.0 * dn + omega * d2n)

    us, us1, us2 = u_derivatives(omega_s0, derivs_s)
    ui, ui1, ui2 = u_derivatives(omega_i0, derivs_i)
    total = us + ui
    if total < _GAMMA_SQ_FLOOR:
        raise DegenerateExpansion(
            f"gamma_s^2 + gamma_i^2 = {total:.3g} 1/m^2 below floor; "
            "expansion of the transverse-overlap factor diverges"
        )
    return GTaylor(
        g0=1.0 / total,
        g1s=-us1 / total**2,
        g1i=-ui1 / total**2,
        g2s=us1**2 / total**3 - us2 / (2.0 * total**2),
        g2i=ui1**2 / total**3 - ui2 / (2.0 * total**2),
        g2si=2.0 * us1 * ui1 / total**3,
    )


@dataclass(frozen=True)
class MaterialPoint:
    """Material quantities of one waveguide at one pair of central frequencies.

    n_s, n_i, n_p: indices at omega_s0, omega_i0 and omega_p0.
    beta_s, beta_i: guided propagation constants, rad/m; k_p0: bulk pump
    wavevector, rad/m. v_s, v_i: guided group velocities; v_p: bulk pump
    group velocity, m/s. dn_dw_p: dn0/domega at omega_p0, s/rad.
    gt: expansion of the transverse-overlap factor about the centrals.
    """

    wg: WaveguideSpec
    omega_s0: float
    omega_i0: float
    n_s: float
    n_i: float
    n_p: float
    beta_s: float
    beta_i: float
    k_p0: float
    v_s: float
    v_i: float
    v_p: float
    dn_dw_p: float
    gt: GTaylor

    @property
    def omega_p0(self) -> float:
        return self.omega_s0 + self.omega_i0


def material_point(spec: WaveguideSpec, omega_s0: float, omega_i0: float) -> MaterialPoint:
    """Evaluate every material quantity at the centrals once.

    The index and its two derivatives are evaluated once per frequency
    (pump, signal, idler) and every field is derived from them, in the
    order the amplitude assembly first needs them, so an unusable material
    (out of window, mode cutoff, alpha -> 0) raises the error the assembly
    would have raised first.
    """
    omega_p0 = omega_s0 + omega_i0
    alpha = spec.alpha
    n_p, dn_p, _ = _index_derivatives(spec.model, omega_p0)
    k_p0 = n_p * omega_p0 / C_LIGHT
    derivs_s = _index_derivatives(spec.model, omega_s0)
    beta_s = _beta(alpha, derivs_s[0], omega_s0)
    derivs_i = _index_derivatives(spec.model, omega_i0)
    beta_i = _beta(alpha, derivs_i[0], omega_i0)
    return MaterialPoint(
        wg=spec, omega_s0=omega_s0, omega_i0=omega_i0,
        k_p0=k_p0, beta_s=beta_s, beta_i=beta_i,
        v_s=_group_velocity(alpha, derivs_s[0], derivs_s[1], omega_s0, beta_s),
        v_i=_group_velocity(alpha, derivs_i[0], derivs_i[1], omega_i0, beta_i),
        v_p=_group_velocity(alpha, n_p, dn_p, omega_p0, None),
        gt=_g_taylor(alpha, omega_s0, derivs_s, omega_i0, derivs_i),
        n_s=derivs_s[0], n_i=derivs_i[0], n_p=n_p, dn_dw_p=dn_p,
    )


def constant_model(n0: float) -> DispersionModel:
    """Dispersionless model with fixed index n0 (test and limit cases)."""
    return DispersionModel(material="constant-index test material", kind="constant",
                           coefficients=(float(n0),), omega_window=(1e13, 2e16))


def _numbers(values, count: int) -> bool:
    """Whether a data file's value is a list of count finite numbers (bool is not one)."""
    return (isinstance(values, list) and len(values) == count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in values))


def _coefficients(material: str, kind: str, raw) -> tuple:
    """A data file's coefficients as DispersionModel holds them: (n0,) for a
    constant model, (B, C) pairs for a Sellmeier one."""
    if kind == "constant" and _numbers(raw, 1):
        return (raw[0],)
    if kind == "sellmeier" and isinstance(raw, list) and all(_numbers(pair, 2) for pair in raw):
        return tuple(tuple(pair) for pair in raw)
    if kind not in ("constant", "sellmeier"):
        raise ValueError(f"model {material!r}: unknown dispersion model kind {kind!r}")
    shape = "[n0]" if kind == "constant" else "a list of [B, C] pairs"
    raise ValueError(f"model {material!r}: {kind} coefficients must be {shape}, got {raw!r}")


def _model(raw, source) -> DispersionModel:
    """The model a data file's parsed JSON describes, checked; source names the file."""
    if not isinstance(raw, dict):
        raise ValueError(f"dispersion data {str(source)!r} is not a JSON object")
    if raw.get("schema") != "dispersion-model/1":
        raise ValueError(f"unsupported dispersion data schema {raw.get('schema')!r}")
    for key in ("material", "kind", "coefficients", "wavelength_window_m"):
        if key not in raw:
            raise ValueError(f"dispersion data {str(source)!r} lacks the key {key!r}")
    window = raw["wavelength_window_m"]
    if not (_numbers(window, 2) and 0.0 < window[0] < window[1]):
        raise ValueError(f"dispersion data {str(source)!r}: 'wavelength_window_m' must be "
                         f"[lo, hi] in meters with 0 < lo < hi, got {window!r}")
    lam_lo, lam_hi = window
    model = DispersionModel(
        material=raw["material"],
        kind=raw["kind"],
        coefficients=_coefficients(raw["material"], raw["kind"], raw["coefficients"]),
        omega_window=(2.0 * math.pi * C_LIGHT / lam_hi, 2.0 * math.pi * C_LIGHT / lam_lo),
    )
    if model.kind == "sellmeier":   # then n^2 falls with L^2 between poles: n is least at L_hi
        for b, c_um2 in model.coefficients:
            if not (b > 0.0 and c_um2 >= 0.0):
                raise ValueError(f"model {model.material!r}: Sellmeier term (B, C) = "
                                 f"({b}, {c_um2}) needs B > 0 and C >= 0")
            if (lam_lo * 1e6) ** 2 <= c_um2 <= (lam_hi * 1e6) ** 2:
                raise ValueError(f"model {model.material!r} has a Sellmeier pole at C = "
                                 f"{c_um2} um^2 inside its window [{lam_lo}, {lam_hi}] m")
    n = refractive_index(model, model.omega_window[0])
    if not (n > 1.0 and math.isfinite(n)):
        raise ValueError(
            f"model {model.material!r} gives n0 = {n} at omega = {model.omega_window[0]:.6g}; "
            "index must be finite and > 1 across the validity window"
        )
    return model


def load_model(source: str | Path) -> DispersionModel:
    """Load a dispersion model from a JSON data file or a built-in name.

    A user's .json file is read and checked on every call. A built-in name
    ("linbo3_e") returns the model parsed from the data directory packaged
    beside this module, once, at import.
    The file schema carries the material label, (B, C) coefficient pairs,
    and the wavelength validity window in meters; the loader converts the
    window to angular frequency and verifies n0 > 1 across it.
    """
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        return _model(json.loads(path.read_text()), source)
    try:
        return _BUILT_IN[str(source)]
    except KeyError:
        raise FileNotFoundError(
            f"no dispersion data file at {source!r} and no built-in model of that name"
        ) from None


# name -> model of each shipped data file, checked as a user's file is; a value, not a cache
_BUILT_IN = {path.stem: _model(json.loads(path.read_text()), path.stem)
             for path in Path(__file__).with_name("data").iterdir() if path.suffix == ".json"}
