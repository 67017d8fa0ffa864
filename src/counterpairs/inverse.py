"""Entanglement estimation from measurable widths.

For a chirp-free pump the Gaussian amplitude is fixed (up to irrelevant
frequency shifts) by three real numbers, and those are recoverable from
experiment: the two intensity-spectrum widths give the asymmetry
F = sigma_wi^2 / sigma_ws^2, and the coincidence-dip envelope rate b
gives the remaining scale through a quadratic equation for f2s. Every
physically admissible root is reported with its entropy; when the two
roots disagree materially the ambiguity is flagged rather than resolved
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._gauss import det
from .entanglement import _p_vartheta, entropy
from .errors import FitDiverged, NegativeDiscriminant, NoPhysicalRoot, in_double_range

_F_SYMMETRIC_TOL = 1e-12
_AMBIGUITY_BITS = 0.1


@dataclass(frozen=True)
class MeasurementSet:
    """Measured spectral widths (1/e, rad/s) and dip envelope rate b (1/s^2)."""

    sigma_omega_s: float
    sigma_omega_i: float
    b: float

    def __post_init__(self):
        if self.sigma_omega_s <= 0 or self.sigma_omega_i <= 0 or self.b <= 0:
            raise ValueError("widths and b must be positive")


@dataclass(frozen=True)
class RootEstimate:
    """One admissible coefficient triple with its entanglement numbers."""

    f2s_r: float
    f2i_r: float
    f2si_r: float
    vartheta: float
    entropy_bits: float


@dataclass(frozen=True)
class EstimateResult:
    """All physical roots (sorted by entropy), with ambiguity disclosure."""

    roots: tuple
    f_ratio: float
    ambiguous: bool
    method: str


def _candidate(f2s: float, f: float, b: float) -> tuple[float, float, float, float] | None:
    """Complete a candidate triple with its determinant; filter it for physicality."""
    if not (f2s > 0.0 and math.isfinite(f2s)):
        return None
    f2i = f2s / f
    f2si = (f + 1.0) / f * f2s - 1.0 / (2.0 * b)
    if (d_fr := det(f2s, f2i, f2si)) <= 0.0:
        return None
    return f2s, f2i, f2si, d_fr


@in_double_range("the measured widths and b")
def estimate(ms: MeasurementSet) -> EstimateResult:
    """Recover (f2s^r, f2i^r, f2si^r) and the entropy from measured widths.

    Raises OutOfRange where the arithmetic leaves double range.
    """
    f = ms.sigma_omega_i**2 / ms.sigma_omega_s**2
    sw2 = ms.sigma_omega_s**2

    candidates = []
    if abs(f - 1.0) <= _F_SYMMETRIC_TOL:
        method = "symmetric-closed-form"
        if sw2 <= ms.b:
            raise NoPhysicalRoot(
                f"symmetric inversion needs sigma_ws^2 > b; got "
                f"{sw2:.6g} <= {ms.b:.6g}"
            )
        candidates.append(_candidate(sw2 / (8.0 * ms.b * (sw2 - ms.b)), f, ms.b))
    else:
        method = "quadratic"
        qa = -((f - 1.0) ** 2) / f
        qb = (f + 1.0) / ms.b - 2.0 / sw2
        qc = -f / (4.0 * ms.b**2)
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise NegativeDiscriminant(
                f"width-inversion discriminant = {disc:.6g} < 0; the measured "
                "(sigma_ws, sigma_wi, b) do not describe a Gaussian amplitude"
            )
        sgn = 1.0 if qb >= 0.0 else -1.0
        q = -0.5 * (qb + sgn * math.sqrt(disc))
        for root in (q / qa, qc / q) if q != 0.0 else (0.0,):
            candidates.append(_candidate(root, f, ms.b))

    roots = []
    for cand in candidates:
        if cand is None:
            continue
        f2s, f2i, f2si, d_fr = cand
        vartheta = _p_vartheta(f2s, f2i, f2si, d_fr)[1]
        roots.append(RootEstimate(f2s_r=f2s, f2i_r=f2i, f2si_r=f2si,
                                  vartheta=vartheta, entropy_bits=entropy(vartheta)))
    if not roots:
        raise NoPhysicalRoot(
            "no quadratic root gives positive coefficients with a "
            "positive-definite form"
        )
    roots.sort(key=lambda r: r.entropy_bits)
    ambiguous = (len(roots) > 1
                 and roots[-1].entropy_bits - roots[0].entropy_bits > _AMBIGUITY_BITS)
    return EstimateResult(roots=tuple(roots), f_ratio=f,
                          ambiguous=ambiguous, method=method)


@dataclass(frozen=True)
class HomFit:
    """Least-squares dip fit: R_n = 1 - a exp(-b tau^2) cos(beat tau)."""

    a: float
    b: float
    beat: float
    residual_rms: float


@in_double_range("the coincidence samples")
def fit_hom_B(samples, beat: float = 0.0) -> HomFit:
    """Fit the dip model to (tau_l, R_n) samples by variable projection.

    With depths d = 1 - R_n and model g = exp(-b tau^2) cos(beat tau), the
    best amplitude at fixed b is a = D / G (D = sum d g, G = sum g^2), which
    leaves a one-dimensional problem in x = log10 b: minimise
    S(x) = sum d^2 - D^2 / G (Golub & Pereyra 1973). A 25-point scan of S
    over 12 decades of b brackets the minimum; bisection on the sign of the
    closed-form dS/dx, which is that of D (sum tau^2 d g * G - D sum tau^2 g^2),
    then shrinks the bracket until its ends are adjacent floats. Each trial
    b is evaluated once. A fit no better than the top of the window leaves b
    unbounded: pinned. Requires at least 7 samples spanning the dip. Raises
    OutOfRange where the arithmetic leaves double range.
    """
    pts = [(float(t), float(r)) for t, r in samples]
    if len(pts) < 7:
        raise ValueError(f"need at least 7 samples spanning the dip, got {len(pts)}")
    taus = [t for t, _ in pts]
    depths = [1.0 - r for _, r in pts]
    for _, r in pts:
        if not (-0.1 <= r <= 2.1):
            raise ValueError(f"sample R_n = {r} is not a normalized coincidence rate")
    if max(abs(d) for d in depths) < 1e-12:
        raise FitDiverged("samples are flat at R_n = 1; a = 0 and b is unidentifiable")
    tau_scale = max(abs(t) for t in taus)
    if tau_scale == 0.0:
        raise ValueError("samples must span a range of delays")

    coss = [math.cos(beat * t) for t in taus]
    tau2s = [t * t for t in taus]

    def project(x):
        """Model samples g, amplitude a = D/G and a multiple of dS/dx at b = 10**x."""
        b = 10.0**x
        gs = [math.exp(-b * t2) * c for t2, c in zip(tau2s, coss)]
        dg = gg = t2dg = t2gg = 0.0
        for g, d, t2 in zip(gs, depths, tau2s):
            dg += d * g
            gg += g * g
            t2dg += t2 * d * g
            t2gg += t2 * g * g
        return gs, (dg / gg if gg > 0.0 else 0.0), dg * (t2dg * gg - dg * t2gg)

    def sse(gs, a):
        total = 0.0     # summed directly: sum d^2 - D^2/G cancels on a close fit
        for g, d in zip(gs, depths):
            total += (d - a * g) ** 2
        return total

    lo_exp = math.log10(1e-6 / tau_scale**2)
    hi_exp = math.log10(1e6 / tau_scale**2)
    grid = [lo_exp + (hi_exp - lo_exp) * k / 24 for k in range(25)]
    sses = [sse(*project(x)[:2]) for x in grid]
    k_best = min(range(len(grid)), key=lambda k: (sses[k], k))
    left = grid[max(k_best - 1, 0)]
    right = grid[min(k_best + 1, len(grid) - 1)]
    x = 0.5 * (left + right)
    while left < x < right:
        if project(x)[2] > 0.0:
            right = x
        else:
            left = x
        x = 0.5 * (left + right)
    gs, a, _ = project(x)
    residual = sse(gs, a)
    if residual == sses[-1]:
        x = grid[-1]    # the top of the window fits as well: the data do not bound b
    b = 10.0**x
    if a <= 1e-10:
        raise FitDiverged(f"fitted dip contrast a = {a:.3g} is not identifiable")
    if not (grid[0] + 1e-3 < x < grid[-1] - 1e-3):
        raise FitDiverged(f"envelope rate b = {b:.3g} pinned to the search boundary")
    return HomFit(a=a, b=b, beat=beat, residual_rms=math.sqrt(residual / len(pts)))
