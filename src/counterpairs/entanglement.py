"""Analytic Schmidt decomposition, entanglement entropy, and separability.

Tracing the idler out of a normalized Gaussian amplitude leaves a
Gaussian reduced kernel whose eigenvalues form a geometric progression
lambda_n^2 = (1 - theta) theta^n. A single asymmetry number

    P = Re(e2)/e2c - 1

fixes theta = 1/(1 + P + sqrt(P^2 + 2P)) and with it the base-2 entropy
of entanglement and the number of modes needed to reach a target
probability. P -> infinity (e2c -> 0, i.e. f2si -> 0) is the separable
limit; P -> 0 is maximal entanglement.

Only the real part of e2 can influence the spectrum: the imaginary
diagonal parts of the kernel are a pure gauge exp(i Im(e2) w^2) that a
local unitary removes. A magnitude-based asymmetry built from |e2|
instead coincides with P only for chirp-free pumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _elementwise as ew
from .dispersion import MaterialPoint
from .errors import NonNormalizable, OutOfRange
from .tpsa import GaussianTPSA, PumpSpec, l2_norm

_SEPARABLE_SNAP = 1e-14    # e2c below this fraction of |e2| is exact separability
_NORMALIZED_TOL = 1e-6


@dataclass(frozen=True)
class ReducedKernel:
    """Gaussian kernel of the reduced one-photon state.

    kernel(w', w) = c_psi_sq * exp(-e2 w'^2 - conj(e2) w^2 + 2 e2c w w')
                    * exp(-e1 w' - conj(e1) w)
    in centered signal detunings; c_psi_sq makes the trace equal 1.
    """

    e2: complex
    e2c: float
    e1: complex
    c_psi_sq: float

    def __post_init__(self):
        if ew.violated((self.e2c >= 0) & (self.e2.real > self.e2c), self):
            raise NonNormalizable(
                f"reduced kernel not normalizable: Re e2 = {self.e2.real:.3g}, "
                f"e2c = {self.e2c:.3g}"
            )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Geometric Schmidt spectrum lambda_n^2 = (1 - vartheta) vartheta^n.

    n_min is the mode count reaching probability p_min (separable -> 1);
    n_min_index = n_min - 1 is the raw index satisfying the bracketing
    inequalities on the cumulative sums.
    """

    p: float
    vartheta: float
    entropy_bits: float
    n_min: int
    n_min_index: int
    p_min: float

    def __post_init__(self):
        if ew.violated((0.0 <= self.vartheta) & (self.vartheta < 1.0), self):
            raise OutOfRange("vartheta must lie in [0, 1)")

    def lambda_sq(self, n: int) -> float:
        if n < 0:
            raise OutOfRange("n must be >= 0")
        if self.vartheta == 0.0:
            return 1.0 if n == 0 else 0.0
        return (1.0 - self.vartheta) * self.vartheta**n


def reduced_kernel(tpsa: GaussianTPSA) -> ReducedKernel:
    """Trace out the idler of a normalized amplitude."""
    norm = l2_norm(tpsa)
    normalized = abs(norm - 1.0) <= _NORMALIZED_TOL
    if ew.violated(normalized):
        raise NonNormalizable(
            f"amplitude L2 norm is {norm:.6g}; normalize() it before reducing"
        )
    f2i_r = tpsa.f2i.real
    e2 = ew.where(normalized, tpsa.f2s - tpsa.f2si**2 / (8.0 * f2i_r), math.nan)
    e2c = abs(tpsa.f2si) ** 2 / (8.0 * f2i_r)
    e1 = tpsa.f1s - tpsa.f2si * tpsa.f1i.real / (2.0 * f2i_r)
    gap = e2.real - e2c
    if ew.violated(gap > 0):
        raise NonNormalizable(f"Re e2 - e2c = {gap:.3g} <= 0")
    c_psi_sq = ew.sqrt(2.0 * gap / math.pi) * ew.exp(-e1.real**2 / (2.0 * gap))
    return ReducedKernel(e2=e2, e2c=e2c, e1=e1, c_psi_sq=c_psi_sq)


def entropy(vartheta):
    """Base-2 entropy of the geometric spectrum; 0 at vartheta = 0."""
    in_range = (0.0 <= vartheta) & (vartheta < 1.0)
    if ew.violated(in_range):
        raise OutOfRange(f"vartheta = {vartheta} outside [0, 1)")
    if ew.holds(vartheta == 0.0):
        return 0.0
    bits = (-ew.log2(1.0 - vartheta)
            - vartheta * ew.log2(vartheta) / (1.0 - vartheta))
    return ew.where(vartheta == 0.0, 0.0, ew.where(in_range, bits, math.nan))


def _mode_count(vartheta, p_min: float):
    """Smallest m >= 1 with 1 - vartheta^m >= p_min (float cells for arrays)."""
    if not (0.0 < p_min < 1.0):
        raise ValueError("p_min must lie in (0, 1)")
    if ew.holds(vartheta == 0.0):
        return 1
    m = ew.maximum(1, ew.ceil(math.log(1.0 - p_min) / ew.log(vartheta)))
    while ew.any_(short := 1.0 - vartheta**m < p_min):
        m = m + short
    while ew.any_(spare := (m > 1) & (1.0 - vartheta ** (m - 1) >= p_min)):
        m = m - spare
    return ew.where(vartheta == 0.0, 1, m)


def schmidt(tpsa: GaussianTPSA, p_min: float = 0.95) -> SchmidtSpectrum:
    """Schmidt spectrum of a normalized Gaussian amplitude.

    Exactly separable kernels (e2c below 1e-14 of |e2|) snap to
    vartheta = 0 with a single unit eigenvalue.
    """
    kernel = reduced_kernel(tpsa)
    separable = kernel.e2c <= _SEPARABLE_SNAP * abs(kernel.e2)
    if ew.holds(separable):
        return SchmidtSpectrum(p=math.inf, vartheta=0.0, entropy_bits=0.0,
                               n_min=1, n_min_index=0, p_min=p_min)
    p = ew.where(separable, math.inf, kernel.e2.real / kernel.e2c - 1.0)
    vartheta = 1.0 / (1.0 + p + ew.sqrt(p * p + 2.0 * p))
    n_min = _mode_count(vartheta, p_min)
    return SchmidtSpectrum(p=p, vartheta=vartheta, entropy_bits=entropy(vartheta),
                           n_min=n_min, n_min_index=n_min - 1, p_min=p_min)


def schmidt_mode(vartheta: float, n: int, x):
    """Orthonormal mode function number n in the scaled coordinate x.

    Hermite-Gaussian with scale s = sqrt((1 - vartheta^2)/vartheta);
    evaluated through the normalized-function three-term recurrence to
    stay finite for large n. Accepts scalar or array x.
    """
    if not (0.0 < vartheta < 1.0):
        raise OutOfRange(f"vartheta = {vartheta} outside (0, 1)")
    if n < 0:
        raise OutOfRange("n must be >= 0")
    s = math.sqrt((1.0 - vartheta**2) / vartheta)
    u = s * np.asarray(x, dtype=float)
    h_prev = math.pi**-0.25 * np.exp(-0.5 * u * u)
    if n == 0:
        out = math.sqrt(s) * h_prev
        return out if out.ndim else float(out)
    h = math.sqrt(2.0) * u * h_prev
    for k in range(2, n + 1):
        h, h_prev = (math.sqrt(2.0 / k) * u * h
                     - math.sqrt((k - 1.0) / k) * h_prev), h
    out = math.sqrt(s) * h
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PrincipalAxes:
    """Eigenvalues of the real quadratic form and its axis declination.

    psi_si is reported in (-pi/4, pi/4], the declination of the nearest
    principal axis from the frequency axes; it vanishes with f2si.
    """

    mu1: float
    mu2: float
    psi_si: float


def principal_axes(tpsa: GaussianTPSA) -> PrincipalAxes:
    """Diagonalize the real part of the quadratic form (chirp-free path).

    Isotropic forms (both the cross term and the diagonal gap at noise
    level) report psi_si = 0: every axis pair is principal there.
    """
    a = tpsa.f2s.real
    b = tpsa.f2i.real
    c = tpsa.f2si.real
    root = ew.hypot(a - b, c)
    psi = 0.5 * ew.atan2(c, a - b)
    psi = ew.where(psi > math.pi / 4.0, psi - math.pi / 2.0,
                   ew.where(psi < -math.pi / 4.0, psi + math.pi / 2.0, psi))
    psi = ew.where(root < 1e-12 * (a + b), 0.0, psi)
    return PrincipalAxes(mu1=(a + b + root) / 2.0, mu2=(a + b - root) / 2.0,
                         psi_si=psi)


@dataclass(frozen=True)
class SeparabilityRoots:
    """Angular-dispersion values cancelling the cross coefficient.

    Empty roots mean the pump beam is too narrow; min_feasible_z_p is then
    the beam width at which real solutions first appear (None otherwise).
    """

    roots: tuple
    min_feasible_z_p: float | None


def separability_roots(mp: MaterialPoint, pump: PumpSpec, *,
                       include_g: bool = True) -> SeparabilityRoots:
    """Angular-dispersion roots making the amplitude factorize (chirp-free).

    mp is the material at the centrals. The cross-term condition is a
    quadratic a2 d^2 + a1 d + a0 in d = dtilde_theta (the overlap
    corrections are themselves quadratic in the angular dispersion). In
    the symmetric degenerate geometry the roots reduce to
    +- (1/k_p0) sqrt(1/v_s^2 - tau_p^2/z_p^2), real only for z_p >= v_s tau_p.

    Each coefficient is affine in u = z_p^2, so the discriminant
    a1^2 - 4 a2 a0 is a quadratic A u^2 + B u + C with
    A = (k_p0 cos(theta_p0) V_si)^2 > 0. When the beam is too narrow,
    min_feasible_z_p is the square root of its larger zero.
    """
    if pump.a_p != 0.0:
        raise ValueError("separability roots are defined for chirp-free pumps")

    v_s, v_i, v_p, kp0 = mp.v_s, mp.v_i, mp.v_p, mp.k_p0
    s = math.sin(pump.theta_p0)
    co = math.cos(pump.theta_p0)
    kc = kp0 * co
    tau2 = pump.tau_p**2
    # a2 = u kc^2 - g_a2, a1 = u kc slope1 - g_a1, a0 = tau2 + u slope0 + g_const
    slope1 = 2.0 * s / v_p + 1.0 / v_i - 1.0 / v_s
    slope0 = (s / v_p) ** 2 + (s / v_p) * (1.0 / v_i - 1.0 / v_s) - 1.0 / (v_s * v_i)
    slope0_mag = ((s / v_p) ** 2 + abs(s / v_p) * abs(1.0 / v_i - 1.0 / v_s)
                  + 1.0 / (v_s * v_i))
    g_a2 = g_a1 = g_const = 0.0
    if include_g:
        gt = mp.gt
        g_a2 = 2.0 * kp0**2 * math.cos(2.0 * pump.theta_p0) * gt.g0
        g_a1 = 2.0 * kc * s * (kp0 * (gt.g1s + gt.g1i) + 4.0 * gt.g0 / v_p)
        g_const = (kc**2 * gt.g2si
                   + 2.0 * kc * co * (gt.g1s + gt.g1i) / v_p
                   + 2.0 * kc * co * gt.g0 / (kp0 * v_p**2))

    u = pump.z_p**2
    a2 = u * kc**2 - g_a2
    a1 = u * kc * slope1 - g_a1
    a0 = tau2 + u * slope0 + g_const
    disc = a1 * a1 - 4.0 * a2 * a0
    # cancellation-insensitive scale: |a0| can vanish at a double root
    scale = a1 * a1 + abs(4.0 * a2) * (tau2 + u * slope0_mag + abs(g_const))
    if scale == 0.0:
        return SeparabilityRoots(roots=(), min_feasible_z_p=None)
    if disc / scale > 1e-12:
        sgn = 1.0 if a1 >= 0.0 else -1.0
        q = -0.5 * (a1 + sgn * math.sqrt(disc))
        roots = tuple(sorted((q / a2, a0 / q)))
        return SeparabilityRoots(roots=roots, min_feasible_z_p=None)
    if disc / scale >= -1e-12:
        return SeparabilityRoots(roots=(-a1 / (2.0 * a2),), min_feasible_z_p=None)

    # No real root at this beam width. The discriminant is negative at u,
    # so its quadratic in u has two real zeros and u lies between them.
    big_a = (kc * (1.0 / v_s + 1.0 / v_i)) ** 2
    big_b = (-2.0 * kc * slope1 * g_a1 - 4.0 * kc**2 * (tau2 + g_const)
             + 4.0 * g_a2 * slope0)
    big_c = g_a1**2 + 4.0 * g_a2 * (tau2 + g_const)
    sgn = 1.0 if big_b >= 0.0 else -1.0
    q = -0.5 * (big_b + sgn * math.sqrt(max(big_b * big_b - 4.0 * big_a * big_c, 0.0)))
    u_feasible = q / big_a if q > 0.0 else big_c / q
    return SeparabilityRoots(roots=(), min_feasible_z_p=math.sqrt(u_feasible))
