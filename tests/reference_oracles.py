"""Reference oracles that only the tests call.

A direct Riemann-sum transform for the time-domain amplitude, a no-Taylor
evaluation of the single-pulse amplitude (exact propagation constants and
exact transverse-overlap factor), the in-house rational error function it
uses, so it shares no numerics with the paths it checks, and 1-D adaptive
Gauss-Kronrod quadrature over the package oracle's heap loop.
"""

import cmath
import math

import numpy as np

from counterpairs.constants import C_LIGHT, EPSILON_0, HBAR
from counterpairs.dispersion import WaveguideSpec, beta, gamma, group_velocity, refractive_index
from counterpairs.oracle import _adaptive_gk, sample_grid
from counterpairs.tpsa import GaussianTPSA, PumpSpec


def quad1d(f, lim, abs_tol: float, max_cells: int = 20000):
    """Adaptive 1-D Gauss-Kronrod quadrature; same contract as oracle.quad2d."""
    return _adaptive_gk(f, (lim,), abs_tol, max_cells)


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
