"""Pair-generation rate and signal/idler intensity spectra.

Rates and spectra follow from Gaussian integrals of |Phi|^2. "general"
mode uses the exact closed forms valid for any coefficients (including
the overlap corrections and linear terms); "simplified" mode evaluates
the reduced expressions that assume those corrections vanish, which is
exact for amplitudes built with include_g=False.

Width convention: spectra are s * exp(-(w - w0 - dw0)^2 / sigma^2), so
sigma is the 1/e half-width of the intensity; converters to FWHM and to
wavelength width are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, HBAR
from .dispersion import WaveguideSpec, material_point
from .errors import NonNormalizable
from .tpsa import GaussianTPSA, PumpSpec, e_factor, l2_norm, v_coefficients


@dataclass(frozen=True)
class SpectrumParams:
    """Gaussian intensity-spectrum parameters for one field."""

    amplitude: float        # peak of the hbar*omega-weighted spectral density, J
    sigma_omega: float      # 1/e half-width, rad/s
    delta_omega0: float     # center shift from the nominal central, rad/s
    field: str              # "s" or "i"

    def __post_init__(self):
        if self.amplitude < 0 or self.sigma_omega <= 0:
            raise ValueError("amplitude must be >= 0 and sigma_omega > 0")


@dataclass(frozen=True)
class RateResult:
    """Pair-generation rate and its diagnostics."""

    pairs_per_s: float
    per_pulse: float        # probability per pump pulse, pairs_per_s / f_rep
    d_fr: float
    e_fr: float

    def __post_init__(self):
        if self.pairs_per_s < 0 or self.d_fr <= 0:
            raise ValueError("rate must be >= 0 and d_fr > 0")


@dataclass(frozen=True)
class WidthRatio:
    """Spectral-asymmetry ratio F = f2s^r/f2i^r and sigma_ws/sigma_wi = 1/sqrt(F)."""

    f: float
    sigma_ratio_si: float


@dataclass(frozen=True)
class AsymptoticWidths:
    """Limiting spectral widths (unfiltered): cw pumping and wide-beam pumping."""

    sigma_cw: float
    sigma_s_inf: float
    sigma_i_inf: float


def _inv_sq(sigma):
    return 0.0 if sigma is None else 1.0 / sigma**2


def _d_simplified(tpsa: GaussianTPSA) -> float:
    """Determinant of the correction-free quadratic form, s^4."""
    inv_s = _inv_sq(tpsa.sigma_s)
    inv_i = _inv_sq(tpsa.sigma_i)
    tau2 = tpsa.tau_p**2 / (1.0 + tpsa.a_p**2)
    z2 = tpsa.z_p**2
    return (4.0 * inv_s * inv_i
            + tau2 * (inv_s + inv_i)
            + tau2 * z2 * tpsa.v_si**2 / 4.0
            + z2 * tpsa.v_pi**2 * inv_s
            + z2 * tpsa.v_ps**2 * inv_i)


def pair_rate(tpsa: GaussianTPSA, mode: str = "general") -> RateResult:
    """Photon pairs per second emitted into the counter-propagating modes.

    general: exact integral of |Phi|^2 (matches 2-D quadrature).
    simplified: correction-free determinant; without filters the rate
    reduces to |C|^2 exp(-2 f0) 2 pi / (sqrt(1+ap^2) v_si), independent
    of both tau_p and z_p.
    """
    if tpsa.d_fr <= 0:
        raise NonNormalizable(f"D_fr = {tpsa.d_fr:.3g} <= 0")
    if mode == "general":
        n = l2_norm(tpsa)
    elif mode == "simplified":
        d = _d_simplified(tpsa)
        n = (tpsa.c_phi_sq * math.exp(-2.0 * tpsa.f0) * math.pi
             * tpsa.z_p * tpsa.tau_p / ((1.0 + tpsa.a_p**2) * math.sqrt(d)))
    else:
        raise ValueError("mode must be 'general' or 'simplified'")
    return RateResult(pairs_per_s=n, per_pulse=n / tpsa.f_rep,
                      d_fr=tpsa.d_fr, e_fr=e_factor(tpsa))


def spectrum(tpsa: GaussianTPSA, field: str = "s", mode: str = "general") -> SpectrumParams:
    """Gaussian parameters of the signal or idler intensity spectrum."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    if tpsa.d_fr <= 0:
        raise NonNormalizable(f"D_fr = {tpsa.d_fr:.3g} <= 0")
    own_omega0 = tpsa.omega_s0 if field == "s" else tpsa.omega_i0
    # Marginalizing over the partner field puts the partner curvature in charge.
    other_f2 = (tpsa.f2i if field == "s" else tpsa.f2s).real
    own_f1 = (tpsa.f1s if field == "s" else tpsa.f1i).real
    other_f1 = (tpsa.f1i if field == "s" else tpsa.f1s).real
    f2si_r = tpsa.f2si.real

    if mode == "general":
        sigma = math.sqrt(2.0 * other_f2 / tpsa.d_fr)
        shift = -(2.0 * other_f2 * own_f1 - f2si_r * other_f1) / tpsa.d_fr
        amp = (tpsa.c_phi_sq * math.exp(-2.0 * tpsa.f0)
               * math.sqrt(math.pi) * HBAR * own_omega0
               * tpsa.tau_p * tpsa.z_p
               / (math.sqrt(2.0) * (1.0 + tpsa.a_p**2))
               * e_factor(tpsa) / math.sqrt(other_f2))
    elif mode == "simplified":
        inv_other = _inv_sq(tpsa.sigma_i if field == "s" else tpsa.sigma_s)
        v_other = tpsa.v_pi if field == "s" else tpsa.v_ps
        tau2 = tpsa.tau_p**2 / (1.0 + tpsa.a_p**2)
        half_curv = tau2 / 2.0 + 2.0 * inv_other + tpsa.z_p**2 * v_other**2 / 2.0
        sigma = math.sqrt(half_curv / _d_simplified(tpsa))
        shift = 0.0
        amp = (tpsa.c_phi_sq * math.exp(-2.0 * tpsa.f0)
               * math.sqrt(math.pi) * HBAR * own_omega0
               * tpsa.tau_p * tpsa.z_p / (1.0 + tpsa.a_p**2)
               / math.sqrt(half_curv))
    else:
        raise ValueError("mode must be 'general' or 'simplified'")
    return SpectrumParams(amplitude=amp, sigma_omega=sigma,
                          delta_omega0=shift, field=field)


def width_ratio(tpsa: GaussianTPSA) -> WidthRatio:
    """F = f2s^r / f2i^r; equals sigma_wi^2/sigma_ws^2, and 1 when symmetric."""
    f = tpsa.f2s.real / tpsa.f2i.real
    return WidthRatio(f=f, sigma_ratio_si=1.0 / math.sqrt(f))


def asymptotic_widths(wg: WaveguideSpec, pump: PumpSpec,
                      omega_s0: float, omega_i0: float) -> AsymptoticWidths:
    """Unfiltered limiting widths: cw pumping and the wide-beam (z_p -> inf) limit."""
    vc = v_coefficients(material_point(wg, omega_s0, omega_i0), pump)
    chirp_scale = math.sqrt(1.0 + pump.a_p**2)
    return AsymptoticWidths(
        sigma_cw=math.sqrt(2.0) / (vc.v_si * pump.z_p),
        sigma_s_inf=math.sqrt(2.0) * abs(vc.v_pi) * chirp_scale / (vc.v_si * pump.tau_p),
        sigma_i_inf=math.sqrt(2.0) * abs(vc.v_ps) * chirp_scale / (vc.v_si * pump.tau_p),
    )


def fwhm(sigma: float) -> float:
    """Full width at half maximum of exp(-x^2/sigma^2)."""
    return 2.0 * math.sqrt(math.log(2.0)) * sigma


def wavelength_width(omega0: float, sigma_omega: float) -> float:
    """Convert a spectral width in rad/s to a wavelength width in m."""
    return 2.0 * math.pi * C_LIGHT / omega0**2 * sigma_omega
