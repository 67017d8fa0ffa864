"""Brute-force verifiers for the closed forms.

Every analytic result in this package has an independent numerical
counterpart here: adaptive tensor Gauss-Kronrod quadrature for rates,
Simpson marginals for widths and shifts, a discretized singular value
decomposition for Schmidt spectra, a direct Riemann-sum Fourier transform
for the time-domain amplitude, and a no-Taylor evaluation of the
single-pulse amplitude (exact propagation constants and exact
transverse-overlap factor). Special functions are evaluated by in-house
routines (rational-approximation erf, three-term Hermite recurrence) so
the oracle shares no numerics with the paths it checks.

Rates and marginals integrate |Phi|^2 = scale exp(-2q), q the real
quadratic form, one real exp per point, on a grid sheared along the
amplitude: the outer axis spans the field's marginal, the inner one the
partner's conditional width about its conditional centre. This resolves
the thin diagonal ridges that a box aligned with the field axes cannot.

Oracles favor correctness and determinism over speed.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, HBAR
from .dispersion import WaveguideSpec, beta, gamma, group_velocity, refractive_index
from .errors import ExponentOverflow, GridTooCoarse, QuadratureNotConverged
from .temporal import TimeDomainTPSA, evaluate_time
from .tpsa import _EXP_GUARD, GaussianTPSA, PumpSpec, evaluate

# 15-point Kronrod extension of 7-point Gauss (QUADPACK constants).
_XGK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
        0.741531185599394, 0.586087235467691, 0.405845151377397,
        0.207784955007898, 0.0)
_WGK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)

_NODES15 = np.array([-x for x in _XGK[:7]] + [0.0] + list(_XGK[6::-1]))
_W15 = np.array(list(_WGK[:7]) + [_WGK[7]] + list(_WGK[6::-1]))
_G_IDX = np.arange(1, 15, 2)
_W7 = np.array(list(_WG[:3]) + [_WG[3]] + list(_WG[2::-1]))


def quad2d(f, xlim, ylim, abs_tol: float, max_cells: int = 20000):
    """Adaptive 2-D quadrature of a real integrand over a rectangle.

    Recursively quarters the cell with the largest Kronrod-Gauss error
    estimate until the summed estimate drops below abs_tol; deterministic
    regardless of float noise (heap ties broken by creation order) with a
    fixed-order final summation. Returns (value, error_estimate) and
    raises QuadratureNotConverged when the cell budget is exhausted.
    """

    def eval_cell(ax, bx, ay, by):
        hx, mx = 0.5 * (bx - ax), 0.5 * (ax + bx)
        hy, my = 0.5 * (by - ay), 0.5 * (ay + by)
        grid = f(mx + hx * _NODES15[:, None], my + hy * _NODES15[None, :])
        val_k = hx * hy * float(_W15 @ grid @ _W15)
        val_g = hx * hy * float(_W7 @ grid[np.ix_(_G_IDX, _G_IDX)] @ _W7)
        return val_k, abs(val_k - val_g)

    counter = 0
    val, err = eval_cell(*xlim, *ylim)
    heap = [(-err, counter, xlim[0], xlim[1], ylim[0], ylim[1], val)]
    err_total = err
    n_cells = 1
    while err_total > abs_tol and heap:
        if n_cells >= max_cells:
            raise QuadratureNotConverged(
                f"error estimate {err_total:.3g} above {abs_tol:.3g} "
                f"after {n_cells} cells"
            )
        neg_err, _, ax, bx, ay, by, _ = heapq.heappop(heap)
        err_total += neg_err
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        for cxl, cxh in ((ax, mx), (mx, bx)):
            for cyl, cyh in ((ay, my), (my, by)):
                v, e = eval_cell(cxl, cxh, cyl, cyh)
                counter += 1
                heapq.heappush(heap, (-e, counter, cxl, cxh, cyl, cyh, v))
                err_total += e
                n_cells += 1
    done = sorted(heap, key=lambda c: c[1])
    value = math.fsum(c[6] for c in done)
    return value, err_total


def quad1d(f, lim, abs_tol: float, max_cells: int = 20000):
    """Adaptive 1-D Gauss-Kronrod quadrature; same contract as quad2d."""

    def eval_cell(a, b):
        h, m = 0.5 * (b - a), 0.5 * (a + b)
        vals = f(m + h * _NODES15)
        val_k = h * float(_W15 @ vals)
        val_g = h * float(_W7 @ vals[_G_IDX])
        return val_k, abs(val_k - val_g)

    counter = 0
    val, err = eval_cell(*lim)
    heap = [(-err, counter, lim[0], lim[1], val)]
    err_total = err
    n_cells = 1
    while err_total > abs_tol and heap:
        if n_cells >= max_cells:
            raise QuadratureNotConverged(
                f"error estimate {err_total:.3g} above {abs_tol:.3g}"
            )
        neg_err, _, a, b, _ = heapq.heappop(heap)
        err_total += neg_err
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            v, e = eval_cell(lo, hi)
            counter += 1
            heapq.heappush(heap, (-e, counter, lo, hi, v))
            err_total += e
            n_cells += 1
    done = sorted(heap, key=lambda c: c[1])
    return math.fsum(c[4] for c in done), err_total


def _spectral_form(tpsa: GaussianTPSA):
    """(scale, origin, coefficients) with |Phi|^2 = scale exp(-2q) in
    detunings from the centrals; q = Re phi = a_s x_s^2 + a_i x_i^2
    + a_si x_s x_i + b_s x_s + b_i x_i + c."""
    return (tpsa.c_phi_sq * tpsa.prefactor**2, (tpsa.omega_s0, tpsa.omega_i0),
            (tpsa.f2s.real, tpsa.f2i.real, tpsa.f2si.real,
             tpsa.f1s.real, tpsa.f1i.real, tpsa.f0))


def _time_form(td: TimeDomainTPSA):
    """The same for |Phi(tau_s, tau_i)|^2: q is the real part of evaluate_time's
    exponent expanded in the times (the carrier is a pure phase), built from
    the complex exponent, not from the t block the flux closed forms read."""
    us, ui = -1j * td.f1s, -1j * td.f1i      # constant parts of tau - i f1
    e_ss, e_ii, e_si = td.exp_ss, td.exp_ii, td.exp_si
    return (abs(td.amp) ** 2, (0.0, 0.0),
            (e_ss.real, e_ii.real, e_si.real,
             (2.0 * e_ss * us + e_si * ui).real, (2.0 * e_ii * ui + e_si * us).real,
             (e_ss * us**2 + e_ii * ui**2 + e_si * us * ui).real))


def _density(form, xs, xi):
    """scale exp(-2q) at offsets (xs, xi) from the origin; one real exp per point."""
    scale, _, (a_s, a_i, a_si, b_s, b_i, c) = form
    q = np.asarray(a_s * xs**2 + a_i * xi**2 + a_si * xs * xi + b_s * xs + b_i * xi + c)
    worst = -float(q.min())
    if worst > _EXP_GUARD:
        raise ExponentOverflow(f"-q = {worst:.3g} exceeds {_EXP_GUARD}")
    q *= -2.0                   # in place: the grids hold millions of points
    np.exp(q, out=q)
    q *= scale
    return q


def _shear(form, field: str):
    """Sheared frame (cx, sx, k, m, w) of one field's marginal: the field x
    has marginal centre cx and 1/e width sx; at each x the partner peaks at
    k x + m with conditional 1/e width w. These only place grids."""
    a_s, a_i, a_si, b_s, b_i, _ = form[2]
    a_o, a_p, b_o, b_p = (a_s, a_i, b_s, b_i) if field == "s" else (a_i, a_s, b_i, b_s)
    d = 4.0 * a_o * a_p - a_si**2
    return (-(2.0 * a_p * b_o - a_si * b_p) / d, math.sqrt(2.0 * a_p / d),
            -a_si / (2.0 * a_p), -b_p / (2.0 * a_p), 1.0 / math.sqrt(2.0 * a_p))


def quad_norm(tpsa: GaussianTPSA, span: float = 8.0,
              abs_tol: float | None = None) -> float:
    """Integral of |Phi|^2 over both frequencies by adaptive quadrature,
    over +-span widths of the signal's sheared frame (unit Jacobian, so
    the inner width w is the only scale factor)."""
    form = _spectral_form(tpsa)
    cx, sx, k, m, w = _shear(form, "s")

    def f(x, u):
        return w * _density(form, x, k * x + m + w * u)

    if abs_tol is None:
        abs_tol = 1e-9 * float(f(cx, 0.0)) * (2.0 * span * sx) * (2.0 * span)
    value, _ = quad2d(f, (cx - span * sx, cx + span * sx), (-span, span), abs_tol)
    return value


def _simpson(values: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    n = values.shape[axis]
    if n % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(values, w, axes=([axis], [0])) * (h / 3.0)


@dataclass(frozen=True)
class MarginalResult:
    """Sampled single-field marginal of |Phi|^2 with its Gaussian moments.

    sigma_e1 = sqrt(2 Var) is the 1/e half-width equivalent of the second
    central moment; shift is the mean minus the nominal central frequency.
    conv_error is the relative change under halving the grid resolution.
    """

    field: str
    axis: np.ndarray
    values: np.ndarray
    norm: float
    mean: float
    sigma_e1: float
    shift: float
    conv_error: float


def _moments(axis, marginal, h):
    norm = float(_simpson(marginal, h))
    mean = float(_simpson(marginal * axis, h)) / norm
    var = float(_simpson(marginal * (axis - mean) ** 2, h)) / norm
    return norm, mean, var


def _marginal(form, field: str, n_points: int, span: float) -> MarginalResult:
    """Marginal of scale exp(-2q) over the partner, on the sheared Simpson
    grid of +-span marginal widths by +-span conditional widths."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    cx, sx, k, m, w = _shear(form, field)
    t = np.linspace(-span, span, n_points)
    x = cx + sx * t
    p = (k * x + m)[:, None] + w * t
    dens = _density(form, x[:, None], p) if field == "s" else _density(form, p, x[:, None])
    h_p, h_x = w * (t[1] - t[0]), x[1] - x[0]
    marginal = _simpson(dens, h_p, axis=1)
    norm, mean, var = _moments(x, marginal, h_x)

    coarse = _simpson(dens[::2, ::2], 2.0 * h_p, axis=1)
    c_norm, c_mean, c_var = _moments(x[::2], coarse, 2.0 * h_x)
    conv = max(abs(c_norm / norm - 1.0), abs(c_var / var - 1.0))
    if conv > 1e-6:
        raise QuadratureNotConverged(
            f"marginal moments changed by {conv:.3g} under grid halving"
        )
    own0 = form[1][0 if field == "s" else 1]
    return MarginalResult(field=field, axis=own0 + x, values=marginal, norm=norm,
                          mean=own0 + mean, sigma_e1=math.sqrt(2.0 * var),
                          shift=mean, conv_error=conv)


def numeric_marginal(tpsa: GaussianTPSA, field: str = "s",
                     n_points: int = 2049, span: float = 8.0) -> MarginalResult:
    """Marginal of |Phi|^2 over the partner frequency, with moments; without
    the hbar*omega intensity prefactor, to compare with the closed forms."""
    return _marginal(_spectral_form(tpsa), field, n_points, span)


def numeric_time_marginal(td: TimeDomainTPSA, field: str = "s",
                          n_points: int = 2049, span: float = 8.0) -> MarginalResult:
    """Marginal of |Phi(tau_s, tau_i)|^2 over the partner time, with moments."""
    return _marginal(_time_form(td), field, n_points, span)


def sample_grid(tpsa: GaussianTPSA, n_points: int, span: float):
    """(omega_s, omega_i, amplitude) over +-span marginal widths about the centers."""
    form = _spectral_form(tpsa)
    (cs, ss, *_), (ci, si, *_) = _shear(form, "s"), _shear(form, "i")
    cs, ci = tpsa.omega_s0 + cs, tpsa.omega_i0 + ci
    ws = np.linspace(cs - span * ss, cs + span * ss, n_points)
    wi = np.linspace(ci - span * si, ci + span * si, n_points)
    return ws, wi, evaluate(tpsa, ws[:, None], wi[None, :])


def numeric_schmidt(tpsa: GaussianTPSA, n_points: int = 512,
                    span: float = 5.0) -> np.ndarray:
    """Schmidt coefficients from the SVD of the discretized amplitude.

    Returned singular values are scaled so their squares sum to one.
    Raises GridTooCoarse when the boundary ring of |Phi|^2 carries more
    than 1e-8 of the sampled mass (a conservative proxy for the 1e-6
    outside-the-grid bound).
    """
    if n_points < 256:
        raise ValueError("n_points must be at least 256")
    amplitude = sample_grid(tpsa, n_points, span)[2]
    dens = np.abs(amplitude) ** 2
    total = float(dens.sum())
    ring = float(dens[0, :].sum() + dens[-1, :].sum()
                 + dens[:, 0].sum() + dens[:, -1].sum())
    if total == 0.0 or ring / total > 1e-8:
        raise GridTooCoarse(
            f"boundary ring carries {ring / total if total else math.inf:.3g} "
            "of the sampled mass; widen the grid"
        )
    svals = np.linalg.svd(amplitude, compute_uv=False)
    return svals / math.sqrt(float((svals**2).sum()))


def dft_time_amplitude(tpsa: GaussianTPSA, tau_s, tau_i,
                       n_points: int = 1024, span: float = 8.0) -> np.ndarray:
    """Time-domain amplitude at probe points by direct Riemann-sum transform.

    Phi(ts, ti) = (1/2pi) integral Phi(ws, wi) exp(-i ws ts - i wi ti);
    evaluated as an explicit double sum over an n_points^2 grid (the
    brute-force counterpart of the closed-form transform).
    """
    omega_s, omega_i, amplitude = sample_grid(tpsa, n_points, span)
    dws, dwi = omega_s[1] - omega_s[0], omega_i[1] - omega_i[0]
    taus = np.atleast_1d(np.asarray(tau_s, dtype=float))
    tauis = np.atleast_1d(np.asarray(tau_i, dtype=float))
    out = np.empty(taus.shape, dtype=complex)
    for k, (ts, ti) in enumerate(zip(taus.ravel(), tauis.ravel())):
        vs = np.exp(-1j * omega_s * ts)
        vi = np.exp(-1j * omega_i * ti)
        out.ravel()[k] = vs @ amplitude @ vi * dws * dwi / (2.0 * math.pi)
    return out


def exact_phi1p(wg: WaveguideSpec, pump: PumpSpec,
                omega_s: float, omega_i: float) -> complex:
    """Single-pulse amplitude without any Taylor expansion.

    Uses exact propagation constants, the exact transverse-overlap
    factor, and the linear angle model theta_p(w) = theta_p0 +
    dtilde_theta (w - w_p0). The aggregate amplitude over f_rep pulses is
    sqrt(f_rep) times this value.
    """
    omega_p = omega_s + omega_i
    omega_p0 = pump.omega_p0
    n_p = refractive_index(wg.model, omega_p)
    k_p = n_p * omega_p / C_LIGHT
    theta_p = pump.theta_p0 + pump.dtilde_theta * (omega_p - omega_p0)
    v_p = group_velocity(wg, omega_p0, "pump_bulk")

    g_s = gamma(wg, omega_s)
    g_i = gamma(wg, omega_i)
    g_sq = g_s**2 + g_i**2
    n_s = refractive_index(wg.model, omega_s)
    n_i = refractive_index(wg.model, omega_i)

    c_p_sq = (pump.tau_p * pump.p_p
              / (math.sqrt(2.0 * math.pi) * math.pi * EPSILON_0 * n_p**2
                 * pump.y_p * pump.z_p * (1.0 + pump.a_p**2)
                 * v_p * math.cos(theta_p) * pump.f_rep))
    c_s_sq = HBAR * omega_s * g_s / (2.0 * math.sqrt(math.pi) * EPSILON_0
                                     * n_s**3 * C_LIGHT * wg.ly)
    c_i_sq = HBAR * omega_i * g_i / (2.0 * math.sqrt(math.pi) * EPSILON_0
                                     * n_i**3 * C_LIGHT * wg.ly)

    front = (-1j * math.sqrt(2.0 * math.pi) * 2.0 * math.pi**2 * EPSILON_0
             * wg.d / HBAR
             * math.sqrt(c_p_sq * c_s_sq * c_i_sq)
             * pump.y_p * pump.z_p / math.sqrt(g_sq)
             * erf_rational(wg.ly / (2.0 * pump.y_p)))

    envelope = -(pump.tau_p**2 * (omega_p - omega_p0) ** 2
                 / (4.0 * (1.0 + 1j * pump.a_p)))
    mismatch = (k_p * math.sin(theta_p) - beta(wg, omega_s) + beta(wg, omega_i))
    transverse = -(k_p**2 * math.cos(theta_p) ** 2) / (2.0 * g_sq)
    return front * cmath.exp(envelope - pump.z_p**2 * mismatch**2 / 4.0 + transverse)


# Rational Chebyshev approximation of erf (Cody's three-region scheme);
# |error| < 1e-15 over the real line, checked against the series in tests.
_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e0,
          6.61191906371416295e1, 2.98635138197400131e2,
          8.81952221241769090e2, 1.71204761263407058e3,
          2.05107837782607147e3, 1.23033935479799725e3,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e1, 1.17693950891312499e2,
          5.37181101862009858e2, 1.62138957456669019e3,
          3.29079923573345963e3, 4.36261909014324716e3,
          3.43936767414372164e3, 1.23033935480374942e3)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e0, 1.87295284992346047e0,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628694e-1


def _erfc_scaled_region2(y: float) -> float:
    num = _ERF_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERF_C[i]) * y
        den = (den + _ERF_D[i]) * y
    return (num + _ERF_C[7]) / (den + _ERF_D[7])


def _erfc_scaled_region3(y: float) -> float:
    z = 1.0 / (y * y)
    num = _ERF_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERF_P[i]) * z
        den = (den + _ERF_Q[i]) * z
    r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    return (_INV_SQRT_PI - r) / y


def erf_rational(x: float) -> float:
    """Error function by rational approximation (oracle-side, no stdlib)."""
    y = abs(x)
    if y <= 0.46875:
        z = y * y
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        return x * (num + _ERF_A[3]) / (den + _ERF_B[3])
    if y <= 4.0:
        erfc = math.exp(-y * y) * _erfc_scaled_region2(y)
    elif y < 26.0:
        erfc = math.exp(-y * y) * _erfc_scaled_region3(y)
    else:
        erfc = 0.0
    return 1.0 - erfc if x > 0 else erfc - 1.0


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(2, n + 1):
        h, h_prev = 2.0 * x * h - 2.0 * (k - 1) * h_prev, h
    return h if h.ndim else float(h)
