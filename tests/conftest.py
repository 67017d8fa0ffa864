"""Shared builders: the reference waveguide and randomized valid scenarios."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import counterpairs as cp
from counterpairs.constants import C_LIGHT

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
