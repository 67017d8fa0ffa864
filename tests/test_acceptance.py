"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. Tolerances are pinned here, not calibrated elsewhere.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import counterpairs as cp
from counterpairs import oracle
from counterpairs.cli import main as cli_main
from counterpairs.dispersion import group_velocity
from counterpairs.entanglement import schmidt
from counterpairs.inverse import MeasurementSet, estimate, fit_hom_B
from counterpairs.spectral import pair_rate, spectrum, wavelength_width
from counterpairs.temporal import (
    _solve_dip_width,
    flux,
    hom_curve,
    hom_params,
    time_bandwidth,
    time_domain,
)
from counterpairs.tpsa import evaluate, normalize
from conftest import LAMBDA_PAIR, kernel_coefficients, omega_of, p_from_f, p_from_kernel
from reference_oracles import exact_phi1p

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_criterion_1_rate_reproduction(make_case):
    """Pair rate and per-pulse probability at the reference parameters."""
    start = time.perf_counter()
    rate = pair_rate(make_case().tpsa)
    elapsed = time.perf_counter() - start
    target_n, target_p = 3e4, 3.8e-4
    assert target_n / 3 <= rate.pairs_per_s <= target_n * 3
    assert target_p / 3 <= rate.per_pulse <= target_p * 3
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 rate reproduction: PASS "
          f"(N = {rate.pairs_per_s:.3g} /s, per-pulse = {rate.per_pulse:.3g}, "
          f"{elapsed * 1e3:.0f} ms)")


def test_criterion_2_oracle_equivalence(random_cases):
    """Closed forms vs quadrature, moments, and SVD over >= 50 random sets."""
    start = time.perf_counter()

    worst_rate = 0.0
    for case in random_cases(50, seed=202, chirp=True):
        analytic = pair_rate(case.tpsa).pairs_per_s
        numeric = oracle.quad_norm(case.tpsa)
        worst_rate = max(worst_rate, abs(numeric / analytic - 1.0))
    assert worst_rate < 1e-6

    worst_width = 0.0
    for case in random_cases(50, seed=203, chirp=True):
        td = time_domain(case.tpsa)
        for field in ("s", "i"):
            spec_w = spectrum(case.tpsa, field).sigma_omega
            num_w = oracle.numeric_marginal(case.tpsa, field,
                                            n_points=1537).sigma_e1
            worst_width = max(worst_width, abs(num_w / spec_w - 1.0))
            flux_w = flux(case.tpsa, field).sigma_tau
            num_t = oracle.numeric_time_marginal(td, field,
                                                 n_points=1537).sigma_e1
            worst_width = max(worst_width, abs(num_t / flux_w - 1.0))
    assert worst_width < 1e-4

    worst_schmidt = 0.0
    compared = 0
    for case in random_cases(70, seed=204, chirp=True):
        t = normalize(case.tpsa)
        sch = schmidt(t)
        if sch.vartheta > 0.9:
            continue
        svals = oracle.numeric_schmidt(t, n_points=512)
        analytic = np.array([math.sqrt(sch.lambda_sq(n)) for n in range(6)])
        worst_schmidt = max(worst_schmidt, float(np.max(np.abs(svals[:6] - analytic))))
        compared += 1
        if compared == 50:
            break
    assert compared >= 50
    assert worst_schmidt < 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 2 oracle equivalence: PASS "
          f"(rate {worst_rate:.1e}, widths {worst_width:.1e}, "
          f"schmidt {worst_schmidt:.1e}, {elapsed:.0f} s)")


def test_criterion_3_figure_trends(make_case, waveguide):
    """Desk-scale reproduction of the published parameter maps."""
    start = time.perf_counter()
    v_s = group_velocity(waveguide, omega_of(LAMBDA_PAIR), "guided")

    # (a) spectral-width map: ~1 nm to tens of nm, monotone in both knobs
    taus = np.geomspace(1e-14, 2e-12, 24)
    zps = np.geomspace(1e-6, 2e-4, 24)
    width_nm = np.empty((taus.size, zps.size))
    for i, tau in enumerate(taus):
        for j, zp in enumerate(zps):
            t = make_case(tau_p=float(tau), z_p=float(zp)).tpsa
            width_nm[i, j] = wavelength_width(
                t.omega_s0, spectrum(t, "s").sigma_omega) * 1e9
    assert width_nm.min() < 1.0 < 30.0 < width_nm.max()
    assert np.all(np.diff(width_nm, axis=0) < 0)
    assert np.all(np.diff(width_nm, axis=1) < 0)

    # (b) dip width: monotone in Z_p, independent of tau_p to 1e-10
    dips = [hom_params(make_case(z_p=float(zp)).tpsa).delta_tau_l
            for zp in np.geomspace(1e-6, 2e-4, 33)]
    assert all(a < b for a, b in zip(dips, dips[1:]))
    ref = hom_params(make_case(tau_p=1e-13).tpsa).delta_tau_l
    for tau in (3e-14, 2e-13, 1e-12):
        other = hom_params(make_case(tau_p=float(tau)).tpsa).delta_tau_l
        assert abs(other / ref - 1.0) < 1e-10

    # (c) entropy valley along Z_p = v_s tau_p, within one grid cell
    taus_c = np.geomspace(1e-14, 1e-12, 32)
    zps_c = np.geomspace(1e-6, 2e-4, 32)
    cell = math.log(zps_c[1] / zps_c[0])
    for tau in taus_c[::3]:
        entropies = [schmidt(normalize(make_case(tau_p=float(tau),
                                                 z_p=float(zp)).tpsa)).entropy_bits
                     for zp in zps_c]
        z_min = zps_c[int(np.argmin(entropies))]
        assert abs(math.log(z_min / (v_s * tau))) <= cell

    # (d) filter-induced mode-count transition 1 -> 2 near 12 nm
    sigmas_nm = np.linspace(2.0, 40.0, 39)
    n_mins = []
    entropies = []
    for s_nm in sigmas_nm:
        sigma = s_nm * 1e-9 * omega_of(LAMBDA_PAIR) ** 2 / (2 * math.pi * 299792458.0)
        sch = schmidt(normalize(make_case(tau_p=1e-13, z_p=5e-6, sigma_s=float(sigma),
                                          sigma_i=float(sigma)).tpsa))
        n_mins.append(sch.n_min)
        entropies.append(sch.entropy_bits)
    n_mins = np.array(n_mins)
    assert n_mins[0] == 1 and n_mins[-1] >= 2
    transition = float(sigmas_nm[int(np.argmax(n_mins >= 2))])
    assert 9.0 <= transition <= 15.0
    assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))

    # (e) achievable spectral-width asymmetry over the angular-dispersion scan
    best_ratio = 0.0
    for d_out in np.linspace(-3e8, 3e8, 41):
        from counterpairs.config import Scenario, apply_sweep_value
        for zp in np.geomspace(1e-5, 2e-4, 9):
            case = make_case(z_p=float(zp))
            sc = Scenario(wg=case.wg, pump=case.pump, filt=case.filt,
                          omega_s0=case.omega_s0, omega_i0=case.omega_i0)
            sc = apply_sweep_value(sc, "pump.D_theta_out", float(d_out))
            t = cp.build_tpsa(sc.wg, sc.pump, sc.filt, sc.omega_s0, sc.omega_i0)
            ratio = spectrum(t, "s").sigma_omega / spectrum(t, "i").sigma_omega
            best_ratio = max(best_ratio, ratio)
    assert best_ratio >= 5.0

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3 figure trends: PASS "
          f"(widths {width_nm.min():.2f}..{width_nm.max():.0f} nm, "
          f"transition {transition:.1f} nm, max ratio {best_ratio:.1f}, "
          f"{elapsed:.0f} s)")


def test_criterion_4_exact_identities(make_case, waveguide):
    """Symmetry, duality, and closed-form identities at tight tolerances."""
    # symmetric case: full contrast and visibility
    dip = hom_params(make_case().tpsa)
    assert dip.a == pytest.approx(1.0, abs=1e-12)
    assert dip.visibility == pytest.approx(1.0, abs=1e-12)

    # chirp-free time-bandwidth duality on an asymmetric scenario
    t = make_case(lambda_s=1.045e-6, dtilde_theta=7e-17,
                  sigma_s=3e13, sigma_i=6e13).tpsa
    assert time_bandwidth(t).ratio == pytest.approx(1.0, abs=1e-10)

    # product floor with equality on the design curve
    v_s = group_velocity(waveguide, omega_of(LAMBDA_PAIR), "guided")
    tb = time_bandwidth(make_case(tau_p=1e-13, z_p=v_s * 1e-13,
                                  include_g=False).tpsa)
    assert tb.product_s == pytest.approx(1.0, abs=1e-10)
    for tau, zp in ((5e-14, 2e-5), (3e-13, 4e-6)):
        tb = time_bandwidth(make_case(tau_p=tau, z_p=zp, include_g=False).tpsa)
        assert tb.product_s >= 1.0 - 1e-12

    # degenerate dip width: closed form vs bracketed root finder
    dip = hom_params(make_case(z_p=3e-5).tpsa)
    closed = 2.0 * math.sqrt(math.log(2.0) / dip.b)
    numeric = _solve_dip_width(dip.b, 1e-5 * math.sqrt(dip.b))
    assert numeric == pytest.approx(closed, rel=1e-8, abs=0)

    # the two magnitude-based asymmetry evaluations agree
    for kwargs in (dict(sigma_s=3e13, sigma_i=5e13), dict(lambda_s=1.07e-6),
                   dict(dtilde_theta=9e-17)):
        t = make_case(**kwargs).tpsa
        assert p_from_kernel(*kernel_coefficients(t)) == pytest.approx(
            p_from_f(t), rel=1e-10, abs=0)

    # entropy series vs closed form
    from counterpairs.entanglement import entropy
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        series = 0.0
        for n in range(20000):
            lam_sq = (1.0 - theta) * theta**n
            if lam_sq < 1e-300:
                break
            series -= lam_sq * math.log2(lam_sq)
        assert series == pytest.approx(entropy(theta), abs=1e-10)

    print("\nACCEPTANCE 4 exact identities: PASS")


def test_criterion_5_inverse_round_trip(random_cases, make_case):
    """Forward widths + dip curvature invert back to the amplitude."""
    worst_coeff, worst_se = 0.0, 0.0
    for case in random_cases(50, seed=205, chirp=False, include_g=False):
        t = case.tpsa
        ms = MeasurementSet(sigma_omega_s=spectrum(t, "s").sigma_omega,
                            sigma_omega_i=spectrum(t, "i").sigma_omega,
                            b=hom_params(t).b)
        result = estimate(ms)
        best = min(result.roots, key=lambda r: abs(r.f2s_r - t.f2s.real))
        worst_coeff = max(
            worst_coeff,
            abs(best.f2s_r / t.f2s.real - 1.0),
            abs(best.f2i_r / t.f2i.real - 1.0),
            abs(best.f2si_r / t.f2si.real - 1.0) if t.f2si.real else 0.0,
        )
        se_truth = schmidt(normalize(t)).entropy_bits
        worst_se = max(worst_se, abs(best.entropy_bits - se_truth))
    assert worst_coeff < 1e-9
    assert worst_se < 1e-8

    worst_fit = 0.0
    for case in random_cases(10, seed=206, chirp=False, include_g=False):
        dip = hom_params(case.tpsa)
        taus = np.linspace(-2.5 * dip.delta_tau_l, 2.5 * dip.delta_tau_l, 41)
        samples = list(zip(taus.tolist(),
                           np.asarray(hom_curve(case.tpsa, taus)).tolist()))
        fit = fit_hom_B(samples, beat=dip.beat)
        worst_fit = max(worst_fit, abs(fit.a / dip.a - 1.0),
                        abs(fit.b / dip.b - 1.0))
    assert worst_fit < 1e-8
    print(f"\nACCEPTANCE 5 inverse round trip: PASS "
          f"(coeff {worst_coeff:.1e}, Se {worst_se:.1e} bits, fit {worst_fit:.1e})")


def test_criterion_6_gaussian_approximation_audit(make_case, tmp_path):
    """Shape-normalized deviation of the quadratic form from the exact amplitude."""
    case = make_case()
    t = case.tpsa
    sig = spectrum(t, "s").sigma_omega
    g0 = abs(evaluate(t, case.omega_s0, case.omega_i0))
    e0 = abs(exact_phi1p(case.wg, case.pump, case.omega_s0, case.omega_i0))
    scales = np.linspace(-2.0, 2.0, 41)
    dev_map = np.empty((scales.size, scales.size))
    for i, a in enumerate(scales):
        for j, b in enumerate(scales):
            ws = case.omega_s0 + a * sig
            wi = case.omega_i0 + b * sig
            gauss = abs(evaluate(t, ws, wi)) / g0
            exact = abs(exact_phi1p(case.wg, case.pump, ws, wi)) / e0
            dev_map[i, j] = abs(gauss / exact - 1.0)
    out = tmp_path / "gaussian_deviation_map.json"
    out.write_text(json.dumps({
        "detuning_grid_sigma": scales.tolist(),
        "relative_deviation": dev_map.tolist(),
    }))
    worst = float(dev_map.max())
    assert worst < 0.05
    # regression fixture: frozen from the first validated run
    assert worst == pytest.approx(0.011331, abs=5e-4)
    assert dev_map[20, 20] < 1e-12  # shape-normalized at the centrals
    print(f"\nACCEPTANCE 6 gaussian audit: PASS "
          f"(max deviation {worst:.4f} within +-2 widths, map at {out})")


def test_criterion_7_determinism(tmp_path, capsys):
    """Repeated sweep runs produce byte-identical CSV grids."""
    out_dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in out_dirs:
        code = cli_main(["sweep", "--config", str(CONFIG_DIR / "fig7_sweep.cfg"),
                         "--out-dir", str(d)])
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in out_dirs[0].iterdir())
    assert names == sorted(p.name for p in out_dirs[1].iterdir())
    for name in names:
        assert (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
    print(f"\nACCEPTANCE 7 determinism: PASS ({', '.join(names)})")
