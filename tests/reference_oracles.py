"""Reference oracles that only the tests call.

Adaptive tensor Gauss-Kronrod quadrature in one and two dimensions, and
with it a second rate integrator: |Phi|^2 over the package oracle's
sheared frame, so that the rate is checked against two integrators that
share only the quadratic form and its frame. Also the complex amplitude
sampled by evaluate on the Schmidt oracle's grid, a direct Riemann-sum
transform for the time-domain amplitude, a no-Taylor evaluation of the
single-pulse amplitude (exact propagation constants and exact
transverse-overlap factor), and the in-house rational error function it
uses, so it shares no numerics with the paths it checks.
"""

import cmath
import heapq
import itertools
import math

import numpy as np

from counterpairs.constants import C_LIGHT, EPSILON_0, HBAR
from counterpairs.dispersion import WaveguideSpec, beta, gamma, group_velocity, refractive_index
from counterpairs.errors import ExponentOverflow, QuadratureNotConverged
from counterpairs.oracle import _SPAN, _shear, _spectral_form
from counterpairs.tpsa import _EXP_GUARD, GaussianTPSA, PumpSpec, evaluate

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


def _adaptive_gk(f, box, abs_tol: float, max_cells: int):
    """quad2d over a box of (lo, hi) pairs in any dimension: a cell splits in
    half along every axis."""
    gauss = np.ix_(*[_G_IDX] * len(box))
    shapes = [(-1,) + (1,) * k for k in reversed(range(len(box)))]    # axis k along dim k

    def eval_cell(cell):
        h = [0.5 * (hi - lo) for lo, hi in cell]
        vals = f(*[(0.5 * (lo + hi) + hk * _NODES15).reshape(shape)
                   for (lo, hi), hk, shape in zip(cell, h, shapes)])
        val_k, val_g = vals, vals[gauss]
        for _ in cell:
            val_k, val_g = _W15 @ val_k, _W7 @ val_g
        vol = math.prod(h)
        val = vol * float(val_k)
        return val, abs(val - vol * float(val_g))

    val, err_total = eval_cell(box)
    heap = [(-err_total, 0, box, val)]      # (-error, creation index, cell, value)
    n_cells = 1
    while err_total > abs_tol and heap:
        if n_cells >= max_cells:
            raise QuadratureNotConverged(
                f"error estimate {err_total:.3g} above {abs_tol:.3g} "
                f"after {n_cells} cells"
            )
        neg_err, _, cell, _ = heapq.heappop(heap)
        err_total += neg_err
        halves = [((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)) for lo, hi in cell]
        for child in itertools.product(*halves):
            v, e = eval_cell(child)
            heapq.heappush(heap, (-e, n_cells, child, v))
            err_total += e
            n_cells += 1
    done = sorted(heap, key=lambda c: c[1])
    return math.fsum(c[3] for c in done), err_total


def quad2d(f, xlim, ylim, abs_tol: float, max_cells: int = 20000):
    """Adaptive 2-D quadrature of a real integrand over a rectangle.

    Recursively quarters the cell with the largest Kronrod-Gauss error
    estimate until the summed estimate drops below abs_tol; deterministic
    regardless of float noise (heap ties broken by creation order) with a
    fixed-order final summation. Returns (value, error_estimate) and
    raises QuadratureNotConverged when the cell budget is exhausted.
    """
    return _adaptive_gk(f, (xlim, ylim), abs_tol, max_cells)


def quad1d(f, lim, abs_tol: float, max_cells: int = 20000):
    """Adaptive 1-D Gauss-Kronrod quadrature; same contract as quad2d."""
    return _adaptive_gk(f, (lim,), abs_tol, max_cells)


def exponent(form, xs, xi):
    """q at offsets (xs, xi) from the form's origin, from its full expanded
    form at every point (the package oracle expands it per grid row)."""
    _, _, (a_s, a_i, a_si, b_s, b_i, c) = form
    return np.asarray(a_s * xs**2 + a_i * xi**2 + a_si * xs * xi + b_s * xs + b_i * xi + c)


def density(form, xs, xi):
    """scale exp(-2q) at offsets (xs, xi) from the origin; one real exp per point."""
    q = exponent(form, xs, xi)
    worst = -float(q.min())
    if worst > _EXP_GUARD:
        raise ExponentOverflow(f"-q = {worst:.3g} exceeds {_EXP_GUARD}")
    q *= -2.0
    np.exp(q, out=q)
    q *= form[0]
    return q


def gk_rate(tpsa: GaussianTPSA, abs_tol: float | None = None) -> float:
    """Integral of |Phi|^2 over both frequencies by quad2d, over +-8 widths
    of the signal's sheared frame (unit Jacobian, so the inner width w is the
    only scale factor). The default abs_tol is 1e-9 of the peak times the
    box area."""
    form = _spectral_form(tpsa)
    cx, sx, k, m, w = _shear(form, "s")

    def f(x, u):
        return w * density(form, x, k * x + m + w * u)

    if abs_tol is None:
        abs_tol = 1e-9 * float(f(cx, 0.0)) * (2.0 * _SPAN * sx) * (2.0 * _SPAN)
    value, _ = quad2d(f, (cx - _SPAN * sx, cx + _SPAN * sx), (-_SPAN, _SPAN), abs_tol)
    return value


def sample_grid(tpsa: GaussianTPSA, n_points: int, span: float):
    """(omega_s, omega_i, amplitude) over +-span marginal widths about the
    centers, every complex sample by evaluate: the Schmidt oracle's grid with
    all of its phase."""
    form = _spectral_form(tpsa)
    (cs, ss, *_), (ci, si, *_) = _shear(form, "s"), _shear(form, "i")
    cs, ci = tpsa.omega_s0 + cs, tpsa.omega_i0 + ci
    ws = np.linspace(cs - span * ss, cs + span * ss, n_points)
    wi = np.linspace(ci - span * si, ci + span * si, n_points)
    return ws, wi, evaluate(tpsa, ws[:, None], wi[None, :])


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
