"""Sheared-grid oracles for the sweep-maps output check.

The package oracles (`oracle.quad_norm`, `oracle.numeric_marginal`,
`oracle.numeric_time_marginal`) sample |Phi|^2 on a box aligned with the
two field axes. In the corners of the fig2 map (tau_p near 10 fs with
wide beams, tau_p near 2 ps with narrow beams) the amplitude is a thin
diagonal ridge in that box: the marginal grids then fail their
grid-halving test, and `quad_norm` either gives up or stops 0.2-0.5 %
off while its error estimate says it converged. Integrating on a grid
sheared along the ridge resolves those cells; there the closed forms
agree with it to about 1e-12.

For a field x ("own") and its partner p, -ln|Phi|^2 / 2 is the real
quadratic q = a_oo x^2 + a_pp p^2 + a_op x p + b_o x + b_p p + const in
the deviations from the central point. The outer grid spans +-span
marginal widths of x; for each x the inner grid spans +-span conditional
widths 1/sqrt(2 a_pp) of p around the conditional centre
-(a_op x + b_p) / (2 a_pp). The amplitude is evaluated by the package's
own `evaluate` / `evaluate_time`; only grid placement uses the quadratic.
"""

from __future__ import annotations

import math

import numpy as np


class NotConverged(Exception):
    """Moments changed by more than the tolerance under grid halving."""


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _moments(density, x0, p0, a_oo, a_pp, a_op, b_o, b_p, n, span):
    """Norm, mean and variance of the x marginal of density(x, p)."""
    d = 4.0 * a_oo * a_pp - a_op * a_op
    sx = math.sqrt(2.0 * a_pp / d)
    cx = -(2.0 * a_pp * b_o - a_op * b_p) / d
    x = cx + sx * np.linspace(-span, span, n)
    u = np.linspace(-span, span, n)
    width = 1.0 / math.sqrt(2.0 * a_pp)
    p = (-(a_op * x + b_p) / (2.0 * a_pp))[:, None] + width * u[None, :]
    dens = density(x0 + x[:, None], p0 + p)

    def integrate(step):
        w = _simpson_weights(len(x[::step]))
        marginal = dens[::step, ::step] @ w * (width * (u[step] - u[0]))
        hx = x[step] - x[0]
        norm = float(marginal @ w) * hx
        mean = float((marginal * x[::step]) @ w) * hx / norm
        var = float((marginal * (x[::step] - mean) ** 2) @ w) * hx / norm
        return norm, mean, var

    fine, coarse = integrate(1), integrate(2)
    conv = max(abs(coarse[0] / fine[0] - 1.0), abs(coarse[2] / fine[2] - 1.0))
    if conv > 1e-8:
        raise NotConverged(f"moments changed by {conv:.3g} under grid halving")
    return fine


def spectral(cp, tpsa, field: str, n_points: int = 1537, span: float = 8.0):
    """(norm, sigma_e1) of the spectral marginal of `field`: norm is the
    integral of |Phi|^2 over both frequencies, sigma_e1 = sqrt(2 Var)."""
    f2s, f2i, f2si = tpsa.f2s.real, tpsa.f2i.real, tpsa.f2si.real
    f1s, f1i = tpsa.f1s.real, tpsa.f1i.real
    if field == "s":
        args = (tpsa.omega_s0, tpsa.omega_i0, f2s, f2i, f2si, f1s, f1i)
        def density(ws, wi): return np.abs(cp.tpsa.evaluate(tpsa, ws, wi)) ** 2
    else:
        args = (tpsa.omega_i0, tpsa.omega_s0, f2i, f2s, f2si, f1i, f1s)
        def density(wi, ws): return np.abs(cp.tpsa.evaluate(tpsa, ws, wi)) ** 2
    norm, _, var = _moments(density, *args, n_points, span)
    return norm, math.sqrt(2.0 * var)


def temporal(cp, td, field: str, n_points: int = 1537, span: float = 8.0) -> float:
    """sigma_e1 = sqrt(2 Var) of the time marginal of `field`."""
    if field == "s":
        args = (0.0, 0.0, td.t2s, td.t2i, td.t2si, td.t1s, td.t1i)
        def density(ts, ti): return np.abs(cp.temporal.evaluate_time(td, ts, ti)) ** 2
    else:
        args = (0.0, 0.0, td.t2i, td.t2s, td.t2si, td.t1i, td.t1s)
        def density(ti, ts): return np.abs(cp.temporal.evaluate_time(td, ts, ti)) ** 2
    _, _, var = _moments(density, *args, n_points, span)
    return math.sqrt(2.0 * var)
