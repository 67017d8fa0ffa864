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

import functools
import math
from dataclasses import dataclass

from .entanglement import _p_vartheta, entropy
from .errors import FitDiverged, NegativeDiscriminant, NoPhysicalRoot

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


def _candidate(f2s: float, f: float, b: float) -> tuple[float, float, float] | None:
    """Complete a candidate triple and filter it for physicality."""
    if not (f2s > 0.0 and math.isfinite(f2s)):
        return None
    f2i = f2s / f
    f2si = (f + 1.0) / f * f2s - 1.0 / (2.0 * b)
    if 4.0 * f2s * f2i - f2si**2 <= 0.0:
        return None
    return f2s, f2i, f2si


def estimate(ms: MeasurementSet) -> EstimateResult:
    """Recover (f2s^r, f2i^r, f2si^r) and the entropy from measured widths."""
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
        f2s, f2i, f2si = cand
        vartheta = _p_vartheta(f2s - f2si**2 / (8.0 * f2i), f2si**2 / (8.0 * f2i))[1]
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


def fit_hom_B(samples, beat: float = 0.0) -> HomFit:
    """Fit the dip model to (tau_l, R_n) samples.

    The amplitude enters linearly, so the fit is separable: a dense
    logarithmic scan over the envelope rate b followed by golden-section
    refinement, with the optimal a solved in closed form at each b.
    Requires at least 7 samples spanning the dip.
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

    @functools.cache        # keyed by log10 b: the golden section revisits trial points
    def amp_and_sse(x):
        b = 10.0**x
        gs = [math.exp(-b * t * t) * cos_k for t, cos_k in zip(taus, coss)]
        gg = dd = 0.0
        for g, d in zip(gs, depths):
            gg += g * g
            dd += g * d
        a = dd / gg if gg > 0.0 else 0.0
        sse = 0.0
        for g, d in zip(gs, depths):
            sse += (d - a * g) ** 2
        return a, sse

    lo_exp = math.log10(1e-6 / tau_scale**2)
    hi_exp = math.log10(1e6 / tau_scale**2)
    grid = [lo_exp + (hi_exp - lo_exp) * k / 240 for k in range(241)]
    sses = [amp_and_sse(e)[1] for e in grid]
    k_best = min(range(len(grid)), key=lambda k: (sses[k], k))
    left = grid[max(k_best - 1, 0)]
    right = grid[min(k_best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = amp_and_sse(x1)[1], amp_and_sse(x2)[1]
    for _ in range(120):
        if f1 < f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = amp_and_sse(x1)[1]
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = amp_and_sse(x2)[1]
    b = 10.0 ** (0.5 * (left + right))
    a, sse = amp_and_sse(0.5 * (left + right))
    if a <= 1e-10:
        raise FitDiverged(f"fitted dip contrast a = {a:.3g} is not identifiable")
    if not (grid[0] + 1e-3 < math.log10(b) < grid[-1] - 1e-3):
        raise FitDiverged(f"envelope rate b = {b:.3g} pinned to the search boundary")
    return HomFit(a=a, b=b, beat=beat,
                  residual_rms=math.sqrt(sse / len(pts)))
