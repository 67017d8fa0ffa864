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

import numpy as np

from . import _elementwise as ew
from .constants import HBAR
from .errors import NonNormalizable, OutOfRange, SingularTransform
from .spectral import spectrum
from .tpsa import GaussianTPSA, e_factor

_DF_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeDomainTPSA:
    """Gaussian time-domain amplitude amp * exp(-q(tau_s, tau_i)).

    q = exp_ss (tau_s - i f1s)^2 + exp_ii (tau_i - i f1i)^2
        + exp_si (tau_s - i f1s)(tau_i - i f1i),
    with exp_ss = f2i/D_f, exp_ii = f2s/D_f, exp_si = -f2si/D_f. The t
    block holds the real coefficients of -ln|Phi(t)|^2 / 2 used for the
    flux closed forms; d_t = 4 t2s t2i - t2si^2.
    """

    d_f: complex
    amp: complex
    exp_ss: complex
    exp_ii: complex
    exp_si: complex
    f1s: complex
    f1i: complex
    t2s: float
    t2i: float
    t2si: float
    t1s: float
    t1i: float
    t0: float
    src: GaussianTPSA

    def __post_init__(self):
        if ew.violated((self.t2s > 0) & (self.t2i > 0) & (self.d_t > 0), self):
            raise SingularTransform(
                f"time-domain quadratic form not positive: t2s = {self.t2s:.3g}, "
                f"t2i = {self.t2i:.3g}, d_t = {self.d_t:.3g}"
            )

    @property
    def d_t(self) -> float:
        """4 t2s t2i - t2si^2, evaluated as the identical D_fr / |D_f|^2.

        The difference of products cancels; the quotient does not.
        """
        return self.src.d_fr / abs(self.d_f) ** 2


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
    exp_ss = tpsa.f2i / d_f
    exp_ii = tpsa.f2s / d_f
    exp_si = -tpsa.f2si / d_f
    t1s = ((2.0 * tpsa.f2i * tpsa.f1s - tpsa.f2si * tpsa.f1i) / d_f).imag
    t1i = ((2.0 * tpsa.f2s * tpsa.f1i - tpsa.f2si * tpsa.f1s) / d_f).imag
    t0 = tpsa.f0 - ((tpsa.f2i * tpsa.f1s**2 + tpsa.f2s * tpsa.f1i**2
                     - tpsa.f2si * tpsa.f1s * tpsa.f1i) / d_f).real
    amp = (ew.sqrt(tpsa.c_phi_sq) * ew.exp(-tpsa.f0)
           * tpsa.prefactor / ew.csqrt(d_f))
    return TimeDomainTPSA(
        d_f=d_f, amp=amp, exp_ss=exp_ss, exp_ii=exp_ii, exp_si=exp_si,
        f1s=tpsa.f1s, f1i=tpsa.f1i,
        t2s=exp_ss.real, t2i=exp_ii.real, t2si=exp_si.real,
        t1s=t1s, t1i=t1i, t0=t0, src=tpsa,
    )


def evaluate_time(td: TimeDomainTPSA, tau_s, tau_i):
    """Complex time-domain amplitude; accepts scalars or arrays.

    Includes the carrier exp(-i ws0 tau_s - i wi0 tau_i) on top of the
    Gaussian envelope; the carrier is what beats at ws0 - wi0 in
    two-photon interference.
    """
    ts = np.asarray(tau_s, dtype=float)
    ti = np.asarray(tau_i, dtype=float)
    us = ts - 1j * td.f1s
    ui = ti - 1j * td.f1i
    q = np.asarray(td.exp_ss * us**2 + td.exp_ii * ui**2 + td.exp_si * us * ui
                   + 1j * td.src.omega_s0 * ts + 1j * td.src.omega_i0 * ti)
    out = td.amp * np.exp(-q)
    return out if out.ndim else complex(out)


def flux(tpsa: GaussianTPSA, field: str = "s") -> FluxParams:
    """Gaussian photon-flux parameters of the signal or idler field."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    td = time_domain(tpsa)
    own_omega0 = tpsa.omega_s0 if field == "s" else tpsa.omega_i0
    # The partner-axis curvature governs each marginal, as in the spectra.
    other_t2 = td.t2i if field == "s" else td.t2s
    own_t1 = td.t1s if field == "s" else td.t1i
    other_t1 = td.t1i if field == "s" else td.t1s
    e_t = ew.exp(2.0 * (td.t2s * td.t1i**2 + td.t2i * td.t1s**2
                        - td.t2si * td.t1s * td.t1i) / td.d_t)
    amp = (tpsa.c_phi_sq * ew.exp(-2.0 * td.t0)
           * math.sqrt(math.pi) * HBAR * own_omega0
           * tpsa.tau_p * tpsa.z_p
           / (math.sqrt(2.0) * (1.0 + tpsa.a_p**2))
           / abs(td.d_f) / ew.sqrt(other_t2) * e_t)
    return FluxParams(
        amplitude=amp,
        sigma_tau=ew.sqrt(2.0 * other_t2 / td.d_t),
        delta_tau0=-(2.0 * other_t2 * own_t1 - td.t2si * other_t1) / td.d_t,
        field=field,
    )


@dataclass(frozen=True)
class TimeBandwidth:
    """Spectral-temporal width products for both fields and their ratio."""

    product_s: float
    product_i: float
    ratio: float


def time_bandwidth(tpsa: GaussianTPSA) -> TimeBandwidth:
    """sigma_w * sigma_tau per field; the s/i ratio is exactly 1 when chirp-free."""
    prod_s = spectrum(tpsa, "s").sigma_omega * flux(tpsa, "s").sigma_tau
    prod_i = spectrum(tpsa, "i").sigma_omega * flux(tpsa, "i").sigma_tau
    return TimeBandwidth(product_s=prod_s, product_i=prod_i,
                         ratio=prod_s / prod_i)


def hom_params(tpsa: GaussianTPSA) -> HomDip:
    """Closed-form coincidence-dip parameters.

    Exact for frequency-degenerate pairs (ws0 = wi0), chirped or not: in
    the exchange-overlap Gaussian integral the equal chirp of the two
    fields cancels out of f2s + conj(f2i) and of f2si + conj(f2si), so
    every combination below composes from real parts (this also makes b
    independent of the pulse duration and chirp, as the width of the dip
    must be). When the centrals are split by more than the bandwidth the
    quoted contrast a is an upper bound: the true exchange overlap
    acquires an exp(-(ws0-wi0)^2 * form-factor) suppression that the
    closed form does not carry, because a single-blob amplitude has no
    support at exchanged frequencies.
    """
    if ew.violated(tpsa.d_fr > 0):
        raise NonNormalizable(f"D_fr = {tpsa.d_fr:.3g} <= 0")
    fsum = tpsa.f2s.real + tpsa.f2i.real
    cross = tpsa.f2si.real
    a = ew.sqrt(tpsa.d_fr / (fsum**2 - cross**2))
    f1_sum = tpsa.f1s.real + tpsa.f1i.real
    if ew.any_(f1_sum != 0.0):
        a = ew.where(f1_sum != 0.0,
                     a * ew.exp(f1_sum**2 / (2.0 * (fsum + cross))) / e_factor(tpsa), a)
    b = 1.0 / (2.0 * (fsum - cross))
    a = ew.where(a <= 1.0 + 1e-9, ew.minimum(a, 1.0), a)
    beat = tpsa.omega_s0 - tpsa.omega_i0
    return HomDip(a=a, b=b, visibility=a / (2.0 - a), beat=beat,
                  delta_tau_l=_solve_dip_width(b, beat))


def hom_curve(tpsa: GaussianTPSA, tau_l):
    """Normalized coincidence rate R_n at delay tau_l (scalar or array)."""
    dip = hom_params(tpsa)
    tau = np.asarray(tau_l, dtype=float)
    out = 1.0 - dip.a * np.exp(-dip.b * tau**2) * np.cos(dip.beat * tau)
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
