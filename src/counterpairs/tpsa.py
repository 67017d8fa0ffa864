"""Gaussian two-photon spectral amplitude: assembly, evaluation, transforms.

The joint amplitude of a signal/idler pair emitted into the two
counter-propagating guided modes is Gaussian in the detunings
ds = ws - ws0, di = wi - wi0:

    Phi(ws, wi) = C * sqrt(Zp tau_p / (1 + ap^2)) * exp(-phi),
    phi = f2s ds^2 + f2i di^2 + f2si ds di + f1s ds + f1i di + f0.

The quadratic coefficients combine the pump-pulse envelope (tau_p, chirp
ap), the transverse pump profile (Zp) through group-velocity-mismatch
coefficients V_ps/V_pi, Gaussian frequency filters, and small corrections
(the G terms) from the frequency dependence of the transverse mode
overlap. All values are SI; angles are radians. The determinants D_fr, D_f
and the norm are read off the one Gaussian integral of _gauss.

The swept pump and filter settings may be numpy arrays broadcast over a
sweep grid; the coefficients and every closed form built on them then
hold one value per grid cell (see _elementwise for how checks behave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _elementwise as ew, _gauss
from .constants import C_LIGHT, EPSILON_0
from .dispersion import (
    MaterialPoint,
    WaveguideSpec,
    material_point,
    momentum_mismatch,
    solve_phase_matching,
)
from .errors import (
    ExponentOverflow,
    NonNormalizable,
    OutOfRange,
    PhaseMatchViolated,
    TotalInternalReflection,
    in_double_range,
)

_EXP_GUARD = 700.0       # |exponent| ceiling within double range
_PM_REL_TOL = 1e-6       # allowed phase-matching residual, relative to k_p0


@dataclass(frozen=True)
class PumpSpec:
    """Pump-beam parameters.

    lambda_p0: central vacuum wavelength, m.
    tau_p: pulse duration, s.  a_p: linear chirp, dimensionless.
    z_p / y_p: transverse 1/e amplitude widths along z and y, m.
    theta_p0: central propagation angle from the surface normal, rad.
    dtilde_theta: angular dispersion d(theta_p)/d(omega_p) at the
        central frequency, rad s (rotates the amplitude's axes).
    p_p: average power, W.  f_rep: pulse repetition rate, 1/s.
    """

    lambda_p0: float
    tau_p: float
    z_p: float
    y_p: float
    a_p: float = 0.0
    theta_p0: float = 0.0
    dtilde_theta: float = 0.0
    p_p: float = 1.0
    f_rep: float = 8e7

    def __post_init__(self):
        if ew.violated((self.lambda_p0 > 0) & (self.tau_p > 0) & (self.z_p > 0)
                       & (self.y_p > 0), self):
            raise OutOfRange("lambda_p0, tau_p, z_p, y_p must be positive")
        if ew.violated((self.p_p >= 0) & (self.f_rep > 0), self):
            raise OutOfRange("p_p must be >= 0 and f_rep > 0")
        if abs(self.theta_p0) >= math.pi / 2:
            raise OutOfRange("|theta_p0| must be below pi/2")

    @property
    def omega_p0(self) -> float:
        return 2.0 * math.pi * C_LIGHT / self.lambda_p0


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian frequency filters; None means exactly unfiltered (1/sigma^2 = 0)."""

    sigma_s: float | None = None
    sigma_i: float | None = None

    def __post_init__(self):
        for s in (self.sigma_s, self.sigma_i):
            if s is not None and ew.violated(s > 0, self):
                raise OutOfRange("finite filter widths must be positive")


UNFILTERED = FilterSpec(None, None)


def _inv_sq(sigma: float | None) -> float:
    return 0.0 if sigma is None else 1.0 / sigma**2


@dataclass(frozen=True)
class VCoefficients:
    """Group-velocity-mismatch coefficients, s/m.

    v_ps = sin(th)/v_p + k_p0 cos(th) Dtheta - 1/v_s
    v_pi = sin(th)/v_p + k_p0 cos(th) Dtheta + 1/v_i
    v_si = 1/v_s + 1/v_i   (pump-independent)
    """

    v_ps: float
    v_pi: float
    v_si: float


@dataclass(frozen=True)
class GaussianTPSA:
    """Immutable value holding the full Gaussian-amplitude description.

    Fields that depend on swept settings are arrays for a sweep grid.

    c_phi_sq is |C|^2 (the unobservable global phase of C is dropped);
    prefactor = sqrt(z_p tau_p / (1 + a_p^2)); the pump settings enter only
    through it and the coefficients. f_rep is carried for the per-pulse rate.
    """

    omega_s0: float
    omega_i0: float
    f2s: complex
    f2i: complex
    f2si: complex
    f1s: complex
    f1i: complex
    f0: float
    c_phi_sq: float
    prefactor: float
    v_ps: float
    v_pi: float
    v_si: float
    g_s: float
    g_i: float
    g_si: float
    f_rep: float

    def __post_init__(self):
        if ew.violated((self.f2s.real > 0) & (self.f2i.real > 0) & (self.d_fr > 0), self):
            raise NonNormalizable(
                f"quadratic form not positive definite: Re f2s = {self.f2s.real:.3g}, "
                f"Re f2i = {self.f2i.real:.3g}, D_fr = {self.d_fr:.3g}"
            )

    @property
    def d_fr(self) -> float:
        """Real-part determinant 4 f2s^r f2i^r - (f2si^r)^2, s^4."""
        return _gauss.det(self.f2s.real, self.f2i.real, self.f2si.real)

    @property
    def d_f(self) -> complex:
        """Complex determinant 4 f2s f2i - f2si^2, s^4."""
        return _gauss.det(self.f2s, self.f2i, self.f2si)


def with_matched_angle(wg: WaveguideSpec, pump: PumpSpec,
                       omega_s0: float, omega_i0: float) -> PumpSpec:
    """Pump with theta_p0 replaced by the phase-matching solution."""
    return replace(pump, theta_p0=solve_phase_matching(wg, omega_s0, omega_i0))


def v_coefficients(mp: MaterialPoint, pump: PumpSpec) -> VCoefficients:
    """Group-velocity-mismatch coefficients at the central frequencies."""
    u = (math.sin(pump.theta_p0) / mp.v_p
         + mp.k_p0 * math.cos(pump.theta_p0) * pump.dtilde_theta)
    return VCoefficients(v_ps=u - 1.0 / mp.v_s, v_pi=u + 1.0 / mp.v_i,
                         v_si=1.0 / mp.v_s + 1.0 / mp.v_i)


def pair_norm_constant(mp: MaterialPoint, pump: PumpSpec) -> float:
    """Squared amplitude constant |C|^2 of the Gaussian form, 1/m.

    Collects the nonlinear coefficient, the per-photon mode
    normalizations, the transverse y-aperture overlap erf(Ly/2Yp), and
    the pump power; linear in p_p.
    """
    wg, omega_s0, omega_i0 = mp.wg, mp.omega_s0, mp.omega_i0
    n_p, n_s, n_i = mp.n_p, mp.n_s, mp.n_i
    material = (math.sqrt(2.0 * math.pi) * math.pi**2 * wg.d**2
                * omega_s0 * omega_i0
                / (EPSILON_0 * C_LIGHT**2 * n_p**2 * n_s**3 * n_i**3))
    overlap = (math.sqrt(n_s * n_i * omega_s0 * omega_i0)
               / (n_s * omega_s0 + n_i * omega_i0))
    aperture = (pump.y_p / wg.ly**2) * ew.erf(wg.ly / (2.0 * pump.y_p)) ** 2
    return material * overlap * aperture * pump.p_p / (mp.v_p * math.cos(pump.theta_p0))


def build_tpsa(wg: WaveguideSpec, pump: PumpSpec, filt: FilterSpec,
               omega_s0: float, omega_i0: float, *,
               include_g: bool = True) -> GaussianTPSA:
    """Assemble the Gaussian amplitude for matched central frequencies.

    Evaluates the material at the centrals and hands it to assemble_tpsa,
    which documents the arguments.
    """
    return assemble_tpsa(material_point(wg, omega_s0, omega_i0), pump, filt,
                         include_g=include_g)


def assemble_tpsa(mp: MaterialPoint, pump: PumpSpec, filt: FilterSpec, *,
                  include_g: bool = True) -> GaussianTPSA:
    """Assemble the Gaussian amplitude from the material at the centrals.

    pump.theta_p0 must already satisfy momentum conservation (use
    with_matched_angle); pump.lambda_p0 must match omega_s0 + omega_i0.

    include_g=False drops the transverse-overlap corrections (the G
    terms) and the linear coefficients they generate, reproducing the
    paper's simplified closed forms; the constant f0 is always kept.
    Filters enter the diagonal coefficients only. Pump and filter
    settings may be broadcast arrays (one amplitude per sweep cell).
    Settings whose coefficients leave double range raise OutOfRange.
    """
    omega_s0, omega_i0 = mp.omega_s0, mp.omega_i0
    omega_p0 = omega_s0 + omega_i0
    if abs(pump.omega_p0 - omega_p0) > 1e-6 * omega_p0:
        raise PhaseMatchViolated(
            f"pump.lambda_p0 = {pump.lambda_p0:.6g} m is inconsistent with "
            f"omega_s0 + omega_i0 = {omega_p0:.6g} rad/s"
        )
    kp0 = mp.k_p0
    residual = momentum_mismatch(kp0, pump.theta_p0, mp.beta_s, mp.beta_i)
    if abs(residual) > _PM_REL_TOL * kp0:
        raise PhaseMatchViolated(
            f"momentum mismatch {residual:.6g} rad/m exceeds "
            f"{_PM_REL_TOL:.0e} k_p0; solve the pump angle first"
        )

    with in_double_range("pump and filter settings"):
        vc = v_coefficients(mp, pump)
        v_p = mp.v_p
        gt = mp.gt

        cos_t = math.cos(pump.theta_p0)
        sin_t = math.sin(pump.theta_p0)
        kc = kp0 * cos_t
        # Coefficients shared by the G corrections and the linear terms.
        b1 = cos_t / v_p - kp0 * sin_t * pump.dtilde_theta
        b2 = (cos_t / (kp0 * v_p**2)
              - 4.0 * sin_t * pump.dtilde_theta / v_p
              - kp0 * math.cos(2.0 * pump.theta_p0) / cos_t * pump.dtilde_theta**2)

        if include_g:
            g_s = (kc / 2.0) * (kc * gt.g2s + 2.0 * b1 * gt.g1s + b2 * gt.g0)
            g_i = (kc / 2.0) * (kc * gt.g2i + 2.0 * b1 * gt.g1i + b2 * gt.g0)
            g_si = (kc / 2.0) * (kc * gt.g2si + 2.0 * b1 * (gt.g1s + gt.g1i)
                                 + 2.0 * b2 * gt.g0)
            f1s = kc * (kc / 2.0 * gt.g1s + b1 * gt.g0) + 0j
            f1i = kc * (kc / 2.0 * gt.g1i + b1 * gt.g0) + 0j
        else:
            g_s = g_i = g_si = 0.0
            f1s = f1i = 0.0 + 0.0j
        f0 = kc**2 * gt.g0 / 2.0

        chirp = 1.0 / (1.0 + 1j * pump.a_p)
        tau2 = pump.tau_p**2
        z2 = pump.z_p**2
        inv_s = _inv_sq(filt.sigma_s)
        inv_i = _inv_sq(filt.sigma_i)

        f2s = tau2 * chirp / 4.0 + vc.v_ps**2 * z2 / 4.0 + inv_s + g_s
        f2i = tau2 * chirp / 4.0 + vc.v_pi**2 * z2 / 4.0 + inv_i + g_i
        f2si = tau2 * chirp / 2.0 + vc.v_ps * vc.v_pi * z2 / 2.0 + g_si

        return GaussianTPSA(
            omega_s0=omega_s0, omega_i0=omega_i0,
            f2s=f2s, f2i=f2i, f2si=f2si, f1s=f1s, f1i=f1i, f0=f0,
            c_phi_sq=pair_norm_constant(mp, pump),
            prefactor=ew.sqrt(pump.z_p * pump.tau_p / (1.0 + pump.a_p**2)),
            v_ps=vc.v_ps, v_pi=vc.v_pi, v_si=vc.v_si,
            g_s=g_s, g_i=g_i, g_si=g_si,
            f_rep=pump.f_rep,
        )


def evaluate(tpsa: GaussianTPSA, omega_s, omega_i):
    """Complex amplitude at (omega_s, omega_i); accepts scalars or arrays.

    phi's terms are added left to right, in place, into their first
    full-size sum, which is then negated, exponentiated and scaled in
    place, so at most two full-size arrays exist at once (512^2: 8.7 MB
    traced peak, against 12.6 MB out of place). The bits are those of the
    out-of-place expression, but on arrays under 256 KiB an underflowed
    zero may take the other sign.
    """
    import numpy as np
    ds = np.asarray(omega_s, dtype=float) - tpsa.omega_s0
    di = np.asarray(omega_i, dtype=float) - tpsa.omega_i0
    phi = np.asarray(tpsa.f2s * ds**2 + tpsa.f2i * di**2)
    for term in (tpsa.f2si * ds * di, tpsa.f1s * ds, tpsa.f1i * di, tpsa.f0):
        phi += term
    worst = -float(np.min(phi.real))
    if worst > _EXP_GUARD:
        raise ExponentOverflow(
            f"-Re(phi) = {worst:.3g} exceeds {_EXP_GUARD}; "
            "amplitude coefficients are not credible"
        )
    np.exp(np.negative(phi, out=phi), out=phi)
    phi *= math.sqrt(tpsa.c_phi_sq) * tpsa.prefactor
    return phi if phi.ndim else complex(phi)


def l2_norm(tpsa: GaussianTPSA) -> float:
    """Exact integral of |Phi|^2 over both frequencies (the pair rate scale)."""
    d = tpsa.d_fr
    if ew.violated(d > 0):
        raise NonNormalizable(f"D_fr = {d:.3g} <= 0")
    return _gauss.integral(tpsa.f2s.real, tpsa.f2i.real, tpsa.f2si.real, tpsa.f1s.real,
                           tpsa.f1i.real, d, tpsa.c_phi_sq * tpsa.prefactor**2
                           * ew.exp(-2.0 * tpsa.f0))


def normalize(tpsa: GaussianTPSA) -> GaussianTPSA:
    """Rescale the amplitude to unit L2 norm; idempotent, coefficients untouched."""
    norm = l2_norm(tpsa)
    ok = (norm > 0.0) & (norm < math.inf)
    if ew.violated(ok):
        raise NonNormalizable(f"L2 norm {norm} is not positive and finite")
    return replace(tpsa, c_phi_sq=ew.where(ok, tpsa.c_phi_sq / norm, math.nan))


def external_angle(n: float, theta_p0: float) -> float:
    """The pump angle outside the material (Snell's law) for theta_p0 inside it."""
    s_out = n * math.sin(theta_p0)
    if abs(s_out) > 1.0:
        raise TotalInternalReflection(f"n0 sin(theta_p0) = {s_out:.4g} has no external angle")
    return math.asin(s_out)


def external_dispersion(n: float, dn_dw: float, omega_p0: float, theta_p0: float,
                        dtilde: float) -> float | None:
    """Angular dispersion outside the material, rad/m, for dtilde (rad s) inside it.

    n and dn_dw are the index and dn/domega at omega_p0. The result is the
    per-wavelength form used for lab gratings and prisms, dtilde_out
    omega_p0^2/(2 pi c); None when the pump has no external angle.
    """
    try:
        theta_out = external_angle(n, theta_p0)
    except TotalInternalReflection:
        return None
    dtilde_out = (n * math.cos(theta_p0) / math.cos(theta_out) * dtilde
                  + math.sin(theta_p0) / math.cos(theta_out) * dn_dw)
    return dtilde_out * omega_p0**2 / (2.0 * math.pi * C_LIGHT)


def internal_dispersion(n: float, dn_dw: float, omega_p0: float, theta_p0: float,
                        d_out: float) -> float:
    """Inverse of external_dispersion: dtilde (rad s) inside the material for
    d_out (rad/m, a scalar or an array) outside it. Raises
    TotalInternalReflection when the pump has no external angle."""
    theta_out = external_angle(n, theta_p0)
    dtilde_out = d_out * 2.0 * math.pi * C_LIGHT / omega_p0**2
    return ((dtilde_out * math.cos(theta_out) - math.sin(theta_p0) * dn_dw)
            / (n * math.cos(theta_p0)))
