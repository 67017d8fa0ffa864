"""Time-domain amplitude, photon fluxes, and two-photon interference.

The time-domain pair amplitude is the (symmetric-normalization) Fourier
transform of the spectral one and is again Gaussian; its width and
cross coefficients follow from the inverted quadratic form. The
coincidence-count rate of a Hong-Ou-Mandel interferometer versus the
relative delay tau_l takes the closed form

    R_n(tau_l) = 1 - a * exp(-b tau_l^2) * cos((ws0 - wi0) tau_l),

where a sets the visibility and b (set by z_p and the filters only, not
by the pulse duration) fixes the dip width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _elementwise as ew, _gauss
from .errors import OutOfRange, SingularTransform
from .spectral import _field_spectrum, _peak
from .tpsa import GaussianTPSA, l2_norm

_DF_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeDomainTPSA:
    """Gaussian time-domain amplitude amp * exp(-q(tau_s, tau_i)).

    q = exp_ss (tau_s - i f1s)^2 + exp_ii (tau_i - i f1i)^2
        + exp_si (tau_s - i f1s)(tau_i - i f1i),
    with exp_ss = f2i/D_f, exp_ii = f2s/D_f, exp_si = -f2si/D_f (the Fourier dual, _gauss.dual)
    and f1s, f1i those of src. The t block holds the real coefficients of -ln|Phi(t)|^2 / 2
    that give the flux widths and centres; d_t = 4 t2s t2i - t2si^2 = D_fr/|D_f|^2 (no cancelling).
    """

    amp: complex
    exp_ss: complex
    exp_ii: complex
    exp_si: complex
    t2s: float
    t2i: float
    t2si: float
    t1s: float
    t1i: float
    d_t: float
    src: GaussianTPSA

    def __post_init__(self):
        if ew.violated((self.t2s > 0) & (self.t2i > 0) & (self.d_t > 0), self):
            raise SingularTransform(
                f"time-domain quadratic form not positive: t2s = {self.t2s:.3g}, "
                f"t2i = {self.t2i:.3g}, d_t = {self.d_t:.3g}"
            )


@dataclass(frozen=True)
class FluxParams:
    """Gaussian photon-flux parameters n * exp(-(tau - dt0)^2 / sigma_tau^2)."""

    amplitude: float      # peak of the hbar*omega-weighted flux envelope, W/s
    sigma_tau: float      # 1/e half-width, s
    delta_tau0: float     # arrival-time shift, s
    field: str

    def __post_init__(self):
        if ew.violated(self.sigma_tau > 0, self):
            raise OutOfRange("sigma_tau must be positive")


@dataclass(frozen=True)
class HomDip:
    """Hong-Ou-Mandel coincidence-dip description.

    a: dip contrast (0 < a <= 1); b: Gaussian envelope rate, 1/s^2;
    visibility = a/(2-a); beat = ws0 - wi0 sets the oscillation;
    delta_tau_l: full width at half depth, s.
    """

    a: float
    b: float
    visibility: float
    beat: float
    delta_tau_l: float

    def __post_init__(self):
        if ew.violated((0.0 < self.a) & (self.a <= 1.0), self):
            raise OutOfRange(f"dip contrast a = {self.a} outside (0, 1]")
        if ew.violated(self.b > 0, self):
            raise OutOfRange("b must be positive")


def time_domain(tpsa: GaussianTPSA) -> TimeDomainTPSA:
    """Invert the spectral quadratic form into the time domain."""
    d_f = tpsa.d_f
    scale = 4.0 * abs(tpsa.f2s) * abs(tpsa.f2i) + abs(tpsa.f2si) ** 2
    ok = abs(d_f) > _DF_REL_FLOOR * scale
    if ew.violated(ok):
        raise SingularTransform(
            f"|D_f| = {abs(d_f):.3g} below {_DF_REL_FLOOR:.0e} of its term scale"
        )
    d_f = ew.where(ok, d_f, math.nan)
    (exp_ss, exp_ii, exp_si), root, d_t = _gauss.dual(tpsa.f2s, tpsa.f2i, tpsa.f2si,
                                                      d_f, tpsa.d_fr)
    # the time-linear coefficients of Re q are -Im of the spectral form's stationary point
    x_s, x_i = _gauss.stationary(tpsa.f2s, tpsa.f2i, tpsa.f2si, tpsa.f1s, tpsa.f1i, d_f)
    amp = ew.sqrt(tpsa.c_phi_sq) * ew.exp(-tpsa.f0) * tpsa.prefactor / root
    return TimeDomainTPSA(
        amp=amp, exp_ss=exp_ss, exp_ii=exp_ii, exp_si=exp_si,
        t2s=exp_ss.real, t2i=exp_ii.real, t2si=exp_si.real,
        t1s=-x_s.imag, t1i=-x_i.imag, d_t=d_t, src=tpsa,
    )


def evaluate_time(td: TimeDomainTPSA, tau_s, tau_i):
    """Complex time-domain amplitude; accepts scalars or arrays.

    Includes the carrier exp(-i ws0 tau_s - i wi0 tau_i) on top of the
    Gaussian envelope; the carrier is what beats at ws0 - wi0 in
    two-photon interference.
    """
    import numpy as np
    ts = np.asarray(tau_s, dtype=float)
    ti = np.asarray(tau_i, dtype=float)
    us = ts - 1j * td.src.f1s
    ui = ti - 1j * td.src.f1i
    q = np.asarray(td.exp_ss * us**2 + td.exp_ii * ui**2 + td.exp_si * us * ui
                   + 1j * td.src.omega_s0 * ts + 1j * td.src.omega_i0 * ti)
    out = td.amp * np.exp(-q)
    return out if out.ndim else complex(out)


def flux(tpsa: GaussianTPSA, field: str = "s") -> FluxParams:
    """Gaussian photon-flux parameters of the signal or idler field."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    return _field_flux(time_domain(tpsa), field, l2_norm(tpsa))


def _field_flux(td: TimeDomainTPSA, field: str, norm) -> FluxParams:
    """flux of one field, given the time-domain form and the amplitude's L2 norm."""
    sigma, shift = _gauss.marginal(td.t2s, td.t2i, td.t2si, td.t1s, td.t1i, td.d_t, field)
    return FluxParams(amplitude=_peak(td.src, field, sigma, norm), sigma_tau=sigma,
                      delta_tau0=shift, field=field)


@dataclass(frozen=True)
class TimeBandwidth:
    """Spectral-temporal width products for both fields and their ratio."""

    product_s: float
    product_i: float
    ratio: float


def time_bandwidth(tpsa: GaussianTPSA) -> TimeBandwidth:
    """sigma_w * sigma_tau per field; the s/i ratio is exactly 1 when chirp-free."""
    norm = l2_norm(tpsa)
    sigma_s = _field_spectrum(tpsa, "s", norm).sigma_omega
    sigma_i = _field_spectrum(tpsa, "i", norm).sigma_omega
    td = time_domain(tpsa)
    return width_products(sigma_s, sigma_i, _field_flux(td, "s", norm).sigma_tau,
                          _field_flux(td, "i", norm).sigma_tau)


def width_products(sigma_omega_s, sigma_omega_i, sigma_tau_s, sigma_tau_i) -> TimeBandwidth:
    """time_bandwidth from the spectral and flux widths of both fields, already formed."""
    prod_s = sigma_omega_s * sigma_tau_s
    prod_i = sigma_omega_i * sigma_tau_i
    return TimeBandwidth(product_s=prod_s, product_i=prod_i,
                         ratio=prod_s / prod_i)


def hom_params(tpsa: GaussianTPSA) -> HomDip:
    """Closed-form coincidence-dip parameters.

    The contrast a is the exchange overlap, the integral of Phi(ws, wi)
    Phi*(wi, ws), over the direct one of |Phi|^2 (Grice & Walmsley 1997).
    Both integrate exp(-2q); the exchange form has a_s = a_i = (f2s^r +
    f2i^r)/2, a_si = f2si^r and b_s = b_i = (f1s^r + f1i^r)/2, so a = 1
    exactly when Phi is exchange-symmetric. Exact for degenerate pairs, chirped
    or not: the equal chirp of the two fields cancels out of the exchange form
    (this also makes b independent of the pulse duration and chirp). For
    centrals split by more than the bandwidth a is an upper bound: the true
    overlap carries an exp(-(ws0-wi0)^2 * form-factor) suppression that a
    single-blob amplitude, with no support at exchanged frequencies, cannot give.
    """
    cross, f1s, f1i = tpsa.f2si.real, tpsa.f1s.real, tpsa.f1i.real
    half, b_x = (tpsa.f2s.real + tpsa.f2i.real) / 2.0, (f1s + f1i) / 2.0
    d_x = _gauss.det(half, half, cross)     # formed as d_fr is, for a = 1 when symmetric
    if ew.violated(d_x < math.inf):         # raise as the square (f2s^r + f2i^r)^2 would
        raise OverflowError("the exchange determinant leaves double range")
    x_d = _gauss.exponent(tpsa.f2s.real, tpsa.f2i.real, cross, f1s, f1i, tpsa.d_fr)
    # one exp of the exponents' difference: each alone may pass 709 where a is 1
    a = ew.sqrt(tpsa.d_fr / d_x) * ew.exp(_gauss.exponent(half, half, cross, b_x, b_x, d_x) - x_d)
    b = 1.0 / (2.0 * (2.0 * half - cross))
    a = ew.where(a <= 1.0 + 1e-9, ew.minimum(a, 1.0), a)
    beat = tpsa.omega_s0 - tpsa.omega_i0
    return HomDip(a=a, b=b, visibility=a / (2.0 - a), beat=beat,
                  delta_tau_l=_solve_dip_width(b, beat))


def hom_curve(tpsa: GaussianTPSA, tau_l):
    """Normalized coincidence rate R_n at delay tau_l (scalar or array).

    The delays are one curve, not a sweep grid: the first delay at which
    R_n is not finite raises OutOfRange naming it.
    """
    return _dip_curve(hom_params(tpsa), tau_l)


def _dip_curve(dip: HomDip, tau_l):
    """hom_curve of a dip already formed."""
    import numpy as np
    tau = np.asarray(tau_l, dtype=float)
    with np.errstate(all="ignore"):
        out = 1.0 - dip.a * np.exp(-dip.b * tau**2) * np.cos(dip.beat * tau)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        k = bad[0]
        raise OutOfRange(f"R_n at tau_l = {float(tau.flat[k])!r} s is "
                         f"{float(out.flat[k])!r}, not finite")
    return out if out.ndim else float(out)


def _solve_dip_width(b, beat: float):
    """Root x of exp(-b x^2/4) cos(beat x / 2) = 1/2 (b scalar or array).

    On (0, pi/|beat|) the left side is a product of two positive
    decreasing factors, so it falls from 1 to 0 and that interval
    brackets the only root; bisection stops at 1e-9 relative width.
    Near-degenerate beats use the closed form 2 sqrt(ln 2 / b).
    """
    if ew.violated(b > 0):
        raise OutOfRange("b must be positive")
    closed = 2.0 * ew.sqrt(math.log(2.0) / b)
    split = abs(beat) / ew.sqrt(b) >= 1e-6
    if not ew.any_(split):
        return closed
    lo = 0.0 * b
    hi = lo + math.pi / abs(beat)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        open_ = (hi - lo) > 1e-9 * mid
        if not ew.any_(open_):
            break
        g = ew.exp(-b * mid * mid / 4.0) * ew.cos(beat * mid / 2.0) - 0.5
        lo = ew.where(open_ & (g > 0.0), mid, lo)
        hi = ew.where(open_ & (g <= 0.0), mid, hi)
    return ew.where(split, 0.5 * (lo + hi), closed)
