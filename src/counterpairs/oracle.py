"""Brute-force verifiers for the closed forms.

The closed forms have independent numerical counterparts here: Simpson
marginals for rates (the marginal's norm), widths and shifts, and the
leading 8 singular values of the discretized amplitude, normalized by the
sampled Frobenius mass, for Schmidt spectra. The references that only the
tests call (a second, adaptive quadrature of the rate, a direct Riemann-sum
Fourier transform for the time-domain amplitude, a no-Taylor single-pulse
amplitude and its rational error function) live in
tests/reference_oracles.py.

Marginals integrate |Phi|^2 = scale exp(-2q), q the real quadratic form,
over every node of a grid sheared along the amplitude: the outer axis
spans the field's marginal, the inner one the partner's conditional width
about its conditional centre. This resolves the thin diagonal ridges that
a box aligned with the field axes cannot. On each row q is alpha + beta t
+ gamma t^2 in the inner coordinate t; its coefficients are formed once,
on 1-D arrays, in twice the working precision. So exp(-2q) is a row exp
times a column exp times exp(-2 beta t), and at node j = J a + b, J =
ceil(sqrt(n)), that factor is exp(-2 beta t_Ja) exp(-2 beta b h), from two
small tables per row: 2 n ceil(sqrt(n)) + 2 n real exps, not n^2.
The tables are formed a block of rows at a time, never whole, and a
block's two Simpson sums are one real product of one table with the fine
and the halved rules times the column exp, then one elementwise product
with the other (1537^2: about 1.5 ms, 0.4 MB on 2 cores). The rate is
the norm of one marginal on a coarser grid (121^2).
The singular values come from a seeded block subspace iteration in real
matrix products whose Ritz values are compared every half step, not a full
SVD (512^2: about 14-53 ms a call against 70-115 ms), on the transposed
amplitude (rows idler, columns signal) sampled from the same quadratic
form: |Phi| with one real exp per node, and of its phase only the one cross
term that is not a function of one frequency alone, from two small tables.
Oracles favor correctness and determinism over speed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ExponentOverflow, GridTooCoarse, QuadratureNotConverged
from .temporal import TimeDomainTPSA
from .tpsa import _EXP_GUARD, GaussianTPSA

_TABLE_ROWS = 128   # rows of the exp(-2 beta t) tables per block: 160 KB at 1537 points
_TABLE_GUARD = 1.0  # the tables' largest |exponent| 16 max|beta|: 2.8e-12 on the fig2 map
_SCHMIDT_BLOCK, _SCHMIDT_MODES, _SCHMIDT_MAX_STEPS = 32, 8, 100
_NORMAL_SQRT = math.sqrt(sys.float_info.min)
_SPAN = 8.0         # rate and marginal grids reach +-8 widths of the sheared frame
# The rate grid: the least 4k + 1 whose halving moves the norm and variance by at
# most 1e-12 on the 576 fig2-map cells and 50 seeded random cases (4e-14 at 121,
# 3e-12 at 113).
_RATE_POINTS = 121


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
    us, ui = -1j * td.src.f1s, -1j * td.src.f1i      # constant parts of tau - i f1
    e_ss, e_ii, e_si = td.exp_ss, td.exp_ii, td.exp_si
    return (abs(td.amp) ** 2, (0.0, 0.0),
            (e_ss.real, e_ii.real, e_si.real,
             (2.0 * e_ss * us + e_si * ui).real, (2.0 * e_ii * ui + e_si * us).real,
             (e_ss * us**2 + e_ii * ui**2 + e_si * us * ui).real))


def _shear(form, field: str):
    """Sheared frame (cx, sx, k, m, w) of one field's marginal: the field x
    has marginal centre cx and 1/e width sx; at each x the partner peaks at
    k x + m with conditional 1/e width w. These only place grids."""
    a_s, a_i, a_si, b_s, b_i, _ = form[2]
    a_o, a_p, b_o, b_p = (a_s, a_i, b_s, b_i) if field == "s" else (a_i, a_s, b_i, b_s)
    d = 4.0 * a_o * a_p - a_si**2
    return (-(2.0 * a_p * b_o - a_si * b_p) / d, math.sqrt(2.0 * a_p / d),
            -a_si / (2.0 * a_p), -b_p / (2.0 * a_p), 1.0 / math.sqrt(2.0 * a_p))


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson(values: np.ndarray, h: float) -> np.ndarray:
    return values @ _simpson_weights(len(values)) * (h / 3.0)


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


def _finite_mass(mass: float) -> float:
    """mass, when |Phi|^2 neither under- nor overflowed in its sum (Phi itself may not)."""
    if not 0.0 < mass < math.inf:
        raise ExponentOverflow(f"the sampled mass {mass!r} leaves double range: "
                               "the amplitude's scale or exponent is not credible")
    return mass


def _moments(axis, marginal, h):
    norm = _finite_mass(float(_simpson(marginal, h)))
    mean = float(_simpson(marginal * axis, h)) / norm
    var = float(_simpson(marginal * (axis - mean) ** 2, h)) / norm
    return norm, mean, var


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker): 2^27 + 1
    splits each factor into halves of 26 bits whose products are exact."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dot2(terms):
    """Sum of products, each given as a tuple of its factors, as accurate as
    if formed in twice the working precision and rounded once (Ogita, Rump
    & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)): exact products and sums,
    with only their small error terms summed in plain arithmetic."""
    total = err = 0.0
    for first, *rest in terms:
        p, e = first, 0.0
        for f in rest:
            p, e_f = _two_prod(p, f)
            e = e * f + e_f
        total, e_s = _two_sum(total, p)
        err = err + (e_s + e)
    return total + err


def _row_expansion(form, field: str, t: np.ndarray):
    """(x, w, alpha, beta, gamma) of the sheared grid sampled at t widths:
    row x = cx + sx t holds the partner at p = p0 + w t about its conditional
    centre p0 = k x + m, where q is exactly alpha + beta t + gamma t^2 with
    alpha = q(x, p0), beta = w dq/dp at p0 (zero but for the rounding of p0)
    and gamma = a_p w^2. alpha and beta come from _dot2: along a thin ridge
    the terms of q cancel, and their plain sum is off by up to 4e-10 on the
    fig2 map; this expansion stays within 2e-14 of q at 50 digits."""
    cx, sx, k, m, w = _shear(form, field)
    a_s, a_i, a_si, b_s, b_i, c = form[2]
    a_o, a_p, b_o, b_p = (a_s, a_i, b_s, b_i) if field == "s" else (a_i, a_s, b_i, b_s)
    x = cx + sx * t
    p0 = k * x + m
    alpha = _dot2([(a_o, x, x), (a_p, p0, p0), (a_si, x, p0), (b_o, x), (b_p, p0), (c,)])
    beta = w * _dot2([(2.0 * a_p, p0), (a_si, x), (b_p,)])
    return x, w, alpha, beta, a_p * w * w


def _marginal(form, field: str, n_points: int) -> MarginalResult:
    """Marginal of scale exp(-2q) over the partner, on the sheared Simpson grid of +-8
    marginal by +-8 conditional widths, every node summed. At node j = J a + b of
    row r, exp(-2q) = exp(-2 alpha_r) exp(-2 gamma t_j^2) T1[r, a] T2[r, b], with the
    tables T1 = exp(-2 beta t_Ja) and T2 = exp(-2 beta b h) formed _TABLE_ROWS rows at
    a time: a block's fine and halved Simpson sums are one real product of T2 with
    the rules times exp(-2 gamma t^2), then one elementwise product with T1 and a sum.
    The scale, h and exp(-2 alpha) come last, so no product operand is subnormal."""
    if field not in ("s", "i"):
        raise ValueError("field must be 's' or 'i'")
    if n_points < 5 or n_points % 4 != 1:
        raise ValueError(f"n_points must be 4k + 1 with k >= 1, so that the grid and its "
                         f"halving both suit composite Simpson; got {n_points}")
    t = np.linspace(-_SPAN, _SPAN, n_points)
    x, w, alpha, beta, gamma = _row_expansion(form, field, t)
    h_t, h_x = t[1] - t[0], x[1] - x[0]
    h_p = w * h_t
    beta2, col = -2.0 * beta, -2.0 * gamma * t**2
    # each row's -2q peaks at the node nearest -beta / (2 gamma) or at a neighbour
    # (fmax and fmin send a NaN vertex to a valid node, where its -2q is NaN too)
    near = np.fmin(np.fmax(np.rint((-beta / (2.0 * gamma) - t[0]) / h_t), 1.0), n_points - 2.0)
    nodes = near.astype(np.intp)[:, None] + np.arange(-1, 2)
    worst = float(np.max(beta2[:, None] * t[nodes] + col[nodes] - 2.0 * alpha[:, None]))
    if worst > _EXP_GUARD:
        raise ExponentOverflow(f"-2q = {worst:.3g} exceeds {_EXP_GUARD}")
    tables = float(np.max(np.abs(beta2))) * _SPAN        # the tables' largest |exponent|
    if tables > _TABLE_GUARD:
        raise ExponentOverflow(f"the row tables' exponent 16 max|beta| = {tables:.3g} "
                               f"exceeds {_TABLE_GUARD}: the frame is off the ridge")
    J = math.isqrt(n_points - 1) + 1                    # ceil(sqrt(n_points))
    A = -(-n_points // J)                               # ceil(n_points / J)
    # rule k (0: fine; 1: the halved grid's, on even nodes) times exp(-2 gamma t^2),
    # at node J a + b in rule[b, k A + a], zero past the grid
    rule = np.zeros((2, A * J))
    rule[0, :n_points] = _simpson_weights(n_points)
    rule[1, :n_points:2] = _simpson_weights(len(t[::2]))
    rule[:, :n_points] *= np.exp(col)
    rule = rule.reshape(2, A, J).transpose(2, 0, 1).reshape(J, 2 * A)
    sums = np.empty((n_points, 2))
    for lo in range(0, n_points, _TABLE_ROWS):
        b2 = beta2[lo:lo + _TABLE_ROWS]
        t2 = np.multiply.outer(b2, t[:J] - t[0])      # exp(-2 beta b h), in place
        t1 = np.multiply.outer(b2, t[::J])            # exp(-2 beta t_{J a})
        np.exp(t2, out=t2), np.exp(t1, out=t1)
        sums[lo:lo + _TABLE_ROWS] = np.einsum("rka,ra->rk", (t2 @ rule).reshape(-1, 2, A), t1)
    with np.errstate(over="ignore"):        # an overflow raises as a typed error below
        rows = np.exp(-2.0 * alpha)
        marginal = sums[:, 0] * rows * (form[0] * h_p / 3.0)
        coarse = sums[::2, 1] * rows[::2] * (form[0] * 2.0 * h_p / 3.0)
    norm, mean, var = _moments(x, marginal, h_x)
    c_norm, c_mean, c_var = _moments(x[::2], coarse, 2.0 * h_x)
    conv = max(abs(c_norm / norm - 1.0), abs(c_var / var - 1.0))
    if not conv <= 1e-6:        # so is a NaN, from a variance that left double range
        raise QuadratureNotConverged(
            f"marginal moments changed by {conv:.3g} under grid halving"
        )
    own0 = form[1][0 if field == "s" else 1]
    return MarginalResult(field=field, axis=own0 + x, values=marginal, norm=norm,
                          mean=own0 + mean, sigma_e1=math.sqrt(2.0 * var),
                          shift=mean, conv_error=conv)


def quad_norm(tpsa: GaussianTPSA) -> float:
    """Integral of |Phi|^2 over both frequencies: the norm of the signal's
    marginal on a sheared Simpson grid of _RATE_POINTS^2 points."""
    return _marginal(_spectral_form(tpsa), "s", _RATE_POINTS).norm


def numeric_marginal(tpsa: GaussianTPSA, field: str = "s",
                     n_points: int = 2049) -> MarginalResult:
    """Marginal of |Phi|^2 over the partner frequency, with moments; without
    the hbar*omega intensity prefactor, to compare with the closed forms."""
    return _marginal(_spectral_form(tpsa), field, n_points)


def numeric_time_marginal(td: TimeDomainTPSA, field: str = "s",
                          n_points: int = 2049) -> MarginalResult:
    """Marginal of |Phi(tau_s, tau_i)|^2 over the partner time, with moments."""
    return _marginal(_time_form(td), field, n_points)


def _flush(x):
    """Zero, in place, the entries of the real array x under sqrt(least normal
    double), so no product of two is subnormal: subnormal multiply-adds take a
    slow hardware path (one product 1.2 -> 32 ms on a high-vartheta amplitude)."""
    x[(x < _NORMAL_SQRT) & (x > -_NORMAL_SQRT)] = 0.0
    return x


def _times(v, z):
    """A z, for the complex A whose float64 view is v (columns Re A, Im A in
    turn), by one real product. Both products put v to the right of a short
    block: OpenBLAS then touches about 2 MB fewer buffer pages than for v @ w."""
    k = z.shape[1]
    w = np.empty((2 * k, v.shape[1]))
    w[:k, 0::2], w[:k, 1::2] = z.real.T, -z.imag.T
    w[k:, 0::2], w[k:, 1::2] = z.imag.T, z.real.T
    p = _flush(w) @ v.T                     # rows (Re A z)^T, then (Im A z)^T
    return (p[:k] + 1j * p[k:]).T


def _adjoint_times(v, q):
    """A^H q, for the complex A whose float64 view is v, by one real product."""
    k = q.shape[1]
    p = _flush(np.vstack([q.real.T, q.imag.T])) @ v     # rows q_r^T [A_r A_i], then q_i^T [.]
    return ((p[:k, 0::2] + p[k:, 1::2]) + 1j * (p[k:, 0::2] - p[:k, 1::2])).T


def numeric_schmidt(tpsa: GaussianTPSA, n_points: int = 512,
                    span: float = 5.0) -> np.ndarray:
    """Leading 8 Schmidt coefficients of the discretized amplitude: its
    leading 8 singular values, normalized by the sampled Frobenius mass
    (so the squares of all of them would sum to one).

    The amplitude is sampled on n_points^2 nodes over +-span marginal
    widths about the centres, transposed (row j holds idler node j, column
    k signal node k; A^T has the singular values of A), with the phases
    that are functions of one frequency alone dropped: they are diagonal
    unitary factors on either side, which leave the singular values
    unchanged. |Phi| is scale^(1/2) exp(-q) from the real quadratic form,
    one real exp per node (-q is held to 700); the sampled mass and the
    boundary ring are real dot products of |Phi|. The one cross phase left,
    exp(-i Im f2si x_s x_i) up to such factors, is exp(-i g_k j) in row j
    of column k, built from two tables by angle addition with the signal
    axis innermost: 2 n ceil(sqrt(n)) complex exps, not n^2. Their product
    overhangs the grid by whole trailing rows, so A is its leading n rows.

    The values come from a block subspace iteration with Rayleigh-Ritz
    (Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011)): from a fixed
    random block Z of 32 columns, Q = qr(A Z), then in turn Z, R =
    qr(A^H Q) and Q, R = qr(A Z). Each of these half steps' small R
    carries Ritz values, sigma(R) = sigma(Q^H A), then sigma(A Z): lower
    bounds that never fall from one half step to the next, since P_Q A =
    P_Q A P_Z and A P_Z = P_Q' A P_Z. It stops when the leading 8 move by
    at most 1e-14 of the largest between half steps, and raises
    QuadratureNotConverged after 100 full steps. A is the sampled
    amplitude scaled to unit Frobenius norm; _flush zeroes its entries,
    and those of each block, under 1.5e-154, which moves no value by
    1e-150. Every product with A is a real one on its float64 view: on
    OpenBLAS, a complex matrix product can leave every later complex exp
    15-40 times slower, until another BLAS or LAPACK call clears that state.
    Raises GridTooCoarse when the boundary ring of |Phi|^2 carries more
    than 1e-8 of the sampled mass (a conservative proxy for the 1e-6
    outside-the-grid bound), and ExponentOverflow when that mass is 0 or
    not finite: |Phi|^2 leaves double range where Phi may not.
    """
    if n_points < 256:
        raise ValueError("n_points must be at least 256")
    form = _spectral_form(tpsa)
    (cs, ss, *_), (ci, si, *_) = _shear(form, "s"), _shear(form, "i")
    xs = np.linspace(cs - span * ss, cs + span * ss, n_points)
    xi, h_i = np.linspace(ci - span * si, ci + span * si, n_points, retstep=True)
    a_s, a_i, a_si, b_s, b_i, c = form[2]
    ones = np.ones(n_points)
    mag = (np.stack([ones, -(a_i * xi + b_i) * xi, xi], axis=1)
           @ np.stack([-((a_s * xs + b_s) * xs + c), ones, -a_si * xs]))   # -q, then |Phi|
    worst = float(mag.max())
    if worst > _EXP_GUARD:
        raise ExponentOverflow(f"-Re(phi) = {worst:.3g} exceeds {_EXP_GUARD}; "
                               "amplitude coefficients are not credible")
    np.exp(mag, out=mag)
    mag *= math.sqrt(form[0])
    flat = mag.reshape(-1)
    with np.errstate(over="ignore"):        # an overflow raises as a typed error below
        total = _finite_mass(float(flat @ flat))
    del flat                                # a view: it would keep |Phi| past del mag
    ring = float(mag[0] @ mag[0] + mag[-1] @ mag[-1]
                 + mag[:, 0] @ mag[:, 0] + mag[:, -1] @ mag[:, -1])
    if ring / total > 1e-8:
        raise GridTooCoarse(
            f"boundary ring carries {ring / total:.3g} of the sampled mass; widen the grid"
        )
    mag *= 1.0 / math.sqrt(total)
    # Im f2si xs xi less its one-frequency terms: g_k j in row j of column k, j = J a + b
    g = tpsa.f2si.imag * h_i * (xs - cs)
    J = math.isqrt(n_points - 1) + 1                            # ceil(sqrt(n_points))
    phase = (np.exp(-1j * np.multiply.outer(np.arange(0, n_points, J), g))[:, None, :]
             * np.exp(-1j * np.multiply.outer(np.arange(J), g))[None, :, :])
    amplitude = phase.reshape(-1, n_points)[:n_points]     # contiguous: whole rows overhang
    amplitude *= mag
    del mag
    v = _flush(amplitude.view(np.float64))      # row j: Re A_j0, Im A_j0, Re A_j1, ...
    z = np.random.default_rng(0).standard_normal((n_points, _SCHMIDT_BLOCK))
    # the seeded Z is not orthonormal, so this first R carries no Ritz values
    q = np.linalg.qr(_times(v, z))[0]
    previous = np.full(_SCHMIDT_MODES, math.inf)
    for half in range(1, 2 * _SCHMIDT_MAX_STEPS):
        if half % 2:
            z, r = np.linalg.qr(_adjoint_times(v, q))     # sigma(r) = sigma(Q^H A)
        else:
            q, r = np.linalg.qr(_times(v, z))             # sigma(r) = sigma(A Z)
        svals = np.linalg.svd(r, compute_uv=False)[:_SCHMIDT_MODES]
        change = float(np.max(np.abs(svals - previous))) / svals[0]
        if change <= 1e-14:
            return svals
        previous = svals
    raise QuadratureNotConverged(
        f"leading singular values moved by {change:.3g} of the largest "
        f"in subspace step {_SCHMIDT_MAX_STEPS}"
    )
