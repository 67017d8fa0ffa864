"""Pair-generation rate and signal/idler intensity spectra.

Rates and spectra follow from Gaussian integrals of |Phi|^2, in closed
forms valid for any coefficients (including the overlap corrections and
linear terms).

Width convention: spectra are s * exp(-(w - w0 - dw0)^2 / sigma^2), so
sigma is the 1/e half-width of the intensity, and the full width at half
maximum is 2 sqrt(ln 2) sigma; wavelength_width converts sigma to a
wavelength width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _elementwise as ew, _gauss
from .constants import C_LIGHT, HBAR
from .errors import OutOfRange
from .tpsa import GaussianTPSA, l2_norm


@dataclass(frozen=True)
class SpectrumParams:
    """Gaussian intensity-spectrum parameters for one field."""

    amplitude: float        # peak of the hbar*omega-weighted spectral density, J
    sigma_omega: float      # 1/e half-width, rad/s
    delta_omega0: float     # center shift from the nominal central, rad/s
    field: str              # "s" or "i"

    def __post_init__(self):
        if ew.violated((self.amplitude >= 0) & (self.sigma_omega > 0), self):
            raise OutOfRange("amplitude must be >= 0 and sigma_omega > 0")


@dataclass(frozen=True)
class RateResult:
    """Pair-generation rate and its diagnostics."""

    pairs_per_s: float
    per_pulse: float        # probability per pump pulse, pairs_per_s / f_rep
    d_fr: float

    def __post_init__(self):
        if ew.violated((self.pairs_per_s >= 0) & (self.d_fr > 0), self):
            raise OutOfRange("rate must be >= 0 and d_fr > 0")


@dataclass(frozen=True)
class WidthRatio:
    """Spectral-asymmetry ratio F = f2s^r/f2i^r and sigma_ws/sigma_wi = 1/sqrt(F)."""

    f: float
    sigma_ratio_si: float


def pair_rate(tpsa: GaussianTPSA) -> RateResult:
    """Photon pairs per second emitted into the counter-propagating modes.

    The exact integral of |Phi|^2 (matches 2-D quadrature). Without
    filters and corrections it reduces to
    |C|^2 exp(-2 f0) 2 pi / (sqrt(1+ap^2) v_si), independent of both
    tau_p and z_p.
    """
    n = l2_norm(tpsa)
    return RateResult(pairs_per_s=n, per_pulse=n / tpsa.f_rep, d_fr=tpsa.d_fr)


def spectrum(tpsa: GaussianTPSA, field: str = "s") -> SpectrumParams:
    """Gaussian parameters of the signal or idler intensity spectrum."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    return _field_spectrum(tpsa, field, l2_norm(tpsa))


def _field_spectrum(tpsa: GaussianTPSA, field: str, norm) -> SpectrumParams:
    """spectrum of one field, given the amplitude's L2 norm."""
    sigma, shift = _gauss.marginal(tpsa.f2s.real, tpsa.f2i.real, tpsa.f2si.real,
                                   tpsa.f1s.real, tpsa.f1i.real, tpsa.d_fr, field)
    return SpectrumParams(amplitude=_peak(tpsa, field, sigma, norm), sigma_omega=sigma,
                          delta_omega0=shift, field=field)


def _peak(tpsa: GaussianTPSA, field: str, sigma, norm):
    """Peak of a spectrum or flux of 1/e half-width sigma; each integrates to hbar w0 norm."""
    own_omega0 = tpsa.omega_s0 if field == "s" else tpsa.omega_i0
    return HBAR * own_omega0 * norm / (math.sqrt(math.pi) * sigma)


def width_ratio(tpsa: GaussianTPSA) -> WidthRatio:
    """F = f2s^r / f2i^r; equals sigma_wi^2/sigma_ws^2, and 1 when symmetric."""
    f = tpsa.f2s.real / tpsa.f2i.real
    return WidthRatio(f=f, sigma_ratio_si=1.0 / ew.sqrt(f))


def wavelength_width(omega0: float, sigma_omega: float) -> float:
    """Convert a spectral width in rad/s to a wavelength width in m."""
    return 2.0 * math.pi * C_LIGHT / omega0**2 * sigma_omega
