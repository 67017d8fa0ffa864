"""Shared builders: the reference waveguide, randomized valid scenarios,
and an mpmath evaluation of the material derivatives."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import counterpairs as cp
from counterpairs.constants import C_LIGHT
from counterpairs.dispersion import GTaylor, MaterialPoint
from counterpairs.entanglement import ReducedKernel
from counterpairs.tpsa import GaussianTPSA

LAMBDA_PUMP = 0.532e-6     # transverse pump
LAMBDA_PAIR = 1.064e-6     # degenerate signal/idler
ALPHA = 4e6
LY = 1e-5
D_EFF = 41.05e-12


def omega_of(lam: float) -> float:
    return 2.0 * math.pi * C_LIGHT / lam


@pytest.fixture(scope="session")
def linbo3():
    return cp.load_model("linbo3_e")


@pytest.fixture(scope="session")
def waveguide(linbo3):
    return cp.WaveguideSpec(alpha=ALPHA, ly=LY, d=D_EFF, model=linbo3)


@pytest.fixture(scope="session")
def make_case(waveguide):
    """Factory for a fully built scenario around the 0.532 um pump.

    lambda_i defaults to the energy-conservation partner of lambda_s.
    Returns a namespace with wg, pump, filt, centrals, the material point
    mp, and the built tpsa.
    """

    def make(tau_p=1e-13, z_p=1e-5, y_p=1e-5, a_p=0.0, dtilde_theta=0.0,
             lambda_s=LAMBDA_PAIR, lambda_i=None, sigma_s=None, sigma_i=None,
             p_p=1.0, f_rep=8e7, include_g=True, wg=None):
        wg = waveguide if wg is None else wg
        omega_s0 = omega_of(lambda_s)
        if lambda_i is None:
            omega_i0 = omega_of(LAMBDA_PUMP) - omega_s0
        else:
            omega_i0 = omega_of(lambda_i)
        pump = cp.PumpSpec(
            lambda_p0=2.0 * math.pi * C_LIGHT / (omega_s0 + omega_i0),
            tau_p=tau_p, z_p=z_p, y_p=y_p, a_p=a_p,
            dtilde_theta=dtilde_theta, p_p=p_p, f_rep=f_rep,
        )
        pump = cp.with_matched_angle(wg, pump, omega_s0, omega_i0)
        filt = cp.FilterSpec(sigma_s=sigma_s, sigma_i=sigma_i)
        mp = cp.material_point(wg, omega_s0, omega_i0)
        tpsa = cp.assemble_tpsa(mp, pump, filt, include_g=include_g)
        return SimpleNamespace(wg=wg, pump=pump, filt=filt,
                               omega_s0=omega_s0, omega_i0=omega_i0,
                               mp=mp, tpsa=tpsa)

    return make


@pytest.fixture(scope="session")
def random_cases(make_case):
    """Seeded generator of valid randomized scenarios.

    Spans pulse durations 10^-13.5..10^-12 s, beam widths 10^-5.5..10^-4 m,
    optional nondegenerate splits, filters, angular dispersion, and chirp.
    """

    def gen(n, seed, *, chirp=False, filters=True, nondegenerate=True,
            dtheta=True, include_g=True):
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(n):
            lam_s = LAMBDA_PAIR
            if nondegenerate and rng.random() < 0.5:
                lam_s = float(rng.uniform(1.00e-6, 1.13e-6))
            kwargs = dict(
                tau_p=float(10.0 ** rng.uniform(-13.5, -12.0)),
                z_p=float(10.0 ** rng.uniform(-5.5, -4.0)),
                lambda_s=lam_s,
                include_g=include_g,
            )
            if chirp and rng.random() < 0.7:
                kwargs["a_p"] = float(rng.uniform(-1.5, 1.5))
            if dtheta and rng.random() < 0.5:
                kwargs["dtilde_theta"] = float(rng.uniform(-1.5e-16, 1.5e-16))
            if filters and rng.random() < 0.5:
                kwargs["sigma_s"] = float(10.0 ** rng.uniform(12.7, 14.0))
                kwargs["sigma_i"] = float(10.0 ** rng.uniform(12.7, 14.0))
            cases.append(make_case(**kwargs))
        return cases

    return gen


# --- magnitude-based Schmidt asymmetry (cross-checks of entanglement) ------

def p_from_kernel(kernel: ReducedKernel) -> float:
    """Magnitude-based asymmetry |e2|/e2c - 1 (diagnostic; inf when separable)."""
    if kernel.e2c == 0.0:
        return math.inf
    return abs(kernel.e2) / kernel.e2c - 1.0


def p_from_f(tpsa: GaussianTPSA) -> float:
    """Magnitude-based asymmetry directly from the f coefficients (diagnostic).

    sqrt(1 + 16 f2i^r (4 |f2s|^2 f2i^r - Re(f2s conj(f2si)^2)) / |f2si|^4) - 1;
    algebraically identical to p_from_kernel.
    """
    c4 = abs(tpsa.f2si) ** 4
    if c4 == 0.0:
        return math.inf
    f2i_r = tpsa.f2i.real
    inner = (4.0 * abs(tpsa.f2s) ** 2 * f2i_r
             - (tpsa.f2s * tpsa.f2si.conjugate() ** 2).real)
    return math.sqrt(1.0 + 16.0 * f2i_r * inner / c4) - 1.0


# --- mpmath oracle for the material layer -----------------------------------
# Every quantity is evaluated from the Sellmeier form at MP_DPS digits and
# differentiated numerically by mpmath in a scaled variable w = w0 (1 + t),
# sharing nothing with the closed forms in counterpairs.dispersion. The
# public helpers return floats.

MP_DPS = 40


def _mp_index(model, omega):
    if model.kind == "constant":
        return mpmath.mpf(model.coefficients[0])
    x = (2 * mpmath.pi * mpmath.mpf(C_LIGHT) / omega * 10**6) ** 2
    return mpmath.sqrt(1 + sum(mpmath.mpf(b) * x / (x - mpmath.mpf(c))
                               for b, c in model.coefficients))


def _mp_derivative(fn, omega, order):
    w0 = mpmath.mpf(omega)
    return mpmath.diff(lambda t: fn(w0 * (1 + t)), 0, order) / w0**order


def _mp_bulk_k(model, omega):
    return _mp_index(model, omega) * omega / C_LIGHT


def _mp_beta(wg, omega):
    k = _mp_bulk_k(wg.model, omega)
    return mpmath.sqrt(k * k - wg.alpha * k)


@mpmath.workdps(MP_DPS)
def mp_index_derivative(model, omega, order):
    """d^order n0 / domega^order."""
    return float(_mp_derivative(lambda w: _mp_index(model, w), omega, order))


@mpmath.workdps(MP_DPS)
def mp_inverse_group_velocity(wg, omega, which):
    """1/v: d beta/domega ("guided") or d(n0 w/c)/domega ("pump_bulk")."""
    if which == "guided":
        return float(_mp_derivative(lambda w: _mp_beta(wg, w), omega, 1))
    return float(_mp_derivative(lambda w: _mp_bulk_k(wg.model, w), omega, 1))


@mpmath.workdps(MP_DPS)
def mp_g_taylor(wg, omega_s0, omega_i0):
    """The six expansion coefficients of 1/(gamma_s^2 + gamma_i^2)."""
    ws, wi = mpmath.mpf(omega_s0), mpmath.mpf(omega_i0)
    a = mpmath.mpf(wg.alpha) / C_LIGHT

    def f(t, r):  # in scaled detunings ds = ws t, di = wi r
        w1, w2 = ws * (1 + t), wi * (1 + r)
        return 1 / (a * _mp_index(wg.model, w1) * w1 + a * _mp_index(wg.model, w2) * w2)

    def partial(ns, ni):
        return mpmath.diff(f, (0, 0), (ns, ni)) / (ws**ns * wi**ni)

    return GTaylor(g0=float(f(0, 0)), g1s=float(partial(1, 0)),
                   g1i=float(partial(0, 1)), g2s=float(partial(2, 0) / 2),
                   g2i=float(partial(0, 2) / 2), g2si=float(partial(1, 1)))


@mpmath.workdps(MP_DPS)
def mp_material_point(wg, omega_s0, omega_i0):
    """A MaterialPoint whose every field is evaluated by mpmath."""
    ws, wi = mpmath.mpf(omega_s0), mpmath.mpf(omega_i0)
    wp = ws + wi
    return MaterialPoint(
        wg=wg, omega_s0=omega_s0, omega_i0=omega_i0,
        n_s=float(_mp_index(wg.model, ws)), n_i=float(_mp_index(wg.model, wi)),
        n_p=float(_mp_index(wg.model, wp)),
        beta_s=float(_mp_beta(wg, ws)), beta_i=float(_mp_beta(wg, wi)),
        k_p0=float(_mp_bulk_k(wg.model, wp)),
        v_s=1.0 / mp_inverse_group_velocity(wg, ws, "guided"),
        v_i=1.0 / mp_inverse_group_velocity(wg, wi, "guided"),
        v_p=1.0 / mp_inverse_group_velocity(wg, wp, "pump_bulk"),
        dn_dw_p=mp_index_derivative(wg.model, wp, 1),
        gt=mp_g_taylor(wg, omega_s0, omega_i0),
    )


@mpmath.workdps(60)
def mp_sigma_tau(tpsa, field):
    """Flux width (s) of the signal or idler from the amplitude's coefficients.

    The spectral quadratic form is inverted at 60 digits, so the
    cancellation in 4 t2s t2i - t2si^2 costs nothing here.
    """
    f2s, f2i, f2si = (mpmath.mpc(z.real, z.imag) for z in (tpsa.f2s, tpsa.f2i, tpsa.f2si))
    d_f = 4 * f2s * f2i - f2si**2
    t2s, t2i, t2si = (f2i / d_f).real, (f2s / d_f).real, (-f2si / d_f).real
    other = t2i if field == "s" else t2s
    return float(mpmath.sqrt(2 * other / (4 * t2s * t2i - t2si**2)))


# --- tree comparison of JSON-like documents -----------------------------------

TREE_REL = 1e-12


def assert_close(got, want, where):
    """Numbers within TREE_REL relative (no absolute floor), NaN where NaN."""
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got), f"{where}: {got!r} is not NaN"
    elif isinstance(want, float) and math.isinf(want):
        assert got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert not math.isnan(got), f"{where}: NaN where {want!r} was stored"
        assert abs(got - want) <= TREE_REL * max(abs(got), abs(want)), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_tree_close(got, want, where=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_tree_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_tree_close(g, w, f"{where}[{k}]")
    else:
        assert_close(got, want, where)
