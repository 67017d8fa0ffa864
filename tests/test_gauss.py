"""The Gaussian integral module against 50-digit mpmath references.

Each case is a seeded positive-definite form q = a_s x^2 + a_i y^2 + a_si x y
+ b_s x + b_i y with O(1) coefficients. The module runs on the double
coefficients and the reference on the same values, converted exactly, at
50 digits; every gate is 1e-12 of the reference or of its scale. The Fourier
dual is checked on complex quadratic parts whose real parts are such forms.
"""

import math
import random

import mpmath as mp
import pytest

from counterpairs import _gauss

DPS = 50
REL = 1e-12


def _forms(n, seed, complex_=False):
    """n seeded forms (a_s, a_i, a_si, b_s, b_i); in the real ones the matrix
    of the quadratic part has eigenvalues in [0.3, 2.5]."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a_s, a_i = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        a_si = rng.uniform(-1.0, 1.0) * math.sqrt(a_s * a_i)
        form = (a_s, a_i, a_si, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if complex_:
            out.append(tuple(x + 1j * rng.uniform(-1.0, 1.0) for x in form))
            continue
        half_trace, det = (a_s + a_i) / 2.0, a_s * a_i - a_si**2 / 4.0
        spread = math.sqrt(half_trace**2 - det)
        if half_trace - spread >= 0.3 and half_trace + spread <= 2.5:
            out.append(form)
    return out


def _mp(form):
    return [mp.mpc(x) if isinstance(x, complex) else mp.mpf(x) for x in form]


def _mp_stationary(form):
    """The root of grad q = 0, by solving its 2x2 system."""
    a_s, a_i, a_si, b_s, b_i = _mp(form)
    return mp.lu_solve(mp.matrix([[2 * a_s, a_si], [a_si, 2 * a_i]]), mp.matrix([-b_s, -b_i]))


def _mp_q(form):
    a_s, a_i, a_si, b_s, b_i = _mp(form)
    return lambda x, y: a_s * x * x + a_i * y * y + a_si * x * y + b_s * x + b_i * y


def _mp_trapezoid(f, centre, h, n):
    """Trapezoid sum of f on the 2n + 1 points centre + k h."""
    return h * mp.fsum(f(centre + k * h) for k in range(-n, n + 1))


def _mp_plane_integral(form):
    """Trapezoid sums of exp(-2q) on a square grid about the stationary point.

    On an entire Gaussian the sum converges geometrically in the step. With
    the quadratic part's eigenvalues in [0.3, 2.5], the step 0.2 aliases
    below exp(-pi^2/(5 * 0.2^2)) ~ 4e-22 and the half-span 9 truncates below
    exp(-0.6 * 9^2) ~ 8e-22 of the integral.
    """
    q = _mp_q(form)
    centre = _mp_stationary(form)
    h = mp.mpf("0.2")
    return _mp_trapezoid(lambda x: _mp_trapezoid(lambda y: mp.exp(-2 * q(x, y)),
                                                 centre[1], h, 45), centre[0], h, 45)


def _mp_marginal(form, sigma, centre):
    """(1/e width, centre) of m(x) = int exp(-2q) dy from three 1-D sums.

    ln m is exactly quadratic in x, so second and first central differences
    at x0 -+ step give its curvature -2/sigma^2 and its stationary point;
    sigma and centre only place the three points.
    """
    a_s, a_i, a_si, b_s, b_i = _mp(form)
    q = _mp_q(form)
    x0, step = mp.mpf(centre) + mp.mpf("0.3"), mp.mpf(sigma)

    def ln_m(x):
        # the integrand is a Gaussian in y of curvature 2 a_i in [1, 3]: the
        # sum about its peak aliases below exp(-82) and truncates below exp(-64)
        peak = -(a_si * x + b_i) / (2 * a_i)
        return mp.log(_mp_trapezoid(lambda y: mp.exp(-2 * q(x, y)), peak, mp.mpf("0.2"), 40))

    lo, mid, hi = ln_m(x0 - step), ln_m(x0), ln_m(x0 + step)
    curvature = (hi - 2 * mid + lo) / step**2
    return mp.sqrt(-2 / curvature), x0 - (hi - lo) / (2 * step) / curvature


@pytest.mark.parametrize("form", _forms(3, seed=7))
def test_integral_matches_a_plane_quadrature(form):
    d = _gauss.det(*form[:3])
    with mp.workdps(DPS):
        a_s, a_i, a_si = _mp(form[:3])
        assert abs(d - (4 * a_s * a_i - a_si**2)) <= REL * abs(d)
        want = _mp_plane_integral(form)
        assert abs(_gauss.integral(*form, d, 1.0) - want) <= REL * want
        assert abs(_gauss.integral(*form, d, 3.5) - 3.5 * want) <= REL * 3.5 * want


@pytest.mark.parametrize("form", _forms(6, seed=11))
@pytest.mark.parametrize("field", ["s", "i"])
def test_marginal_matches_one_dimensional_quadrature(form, field):
    sigma, centre = _gauss.marginal(*form, _gauss.det(*form[:3]), field)
    a_s, a_i, a_si, b_s, b_i = form
    own = form if field == "s" else (a_i, a_s, a_si, b_i, b_s)    # the field as x
    with mp.workdps(DPS):
        want_sigma, want_centre = _mp_marginal(own, sigma, centre)
        assert abs(sigma - want_sigma) <= REL * want_sigma
        assert abs(centre - want_centre) <= REL * (abs(want_centre) + want_sigma)


@pytest.mark.parametrize("form", _forms(5, seed=13) + _forms(5, seed=17, complex_=True))
def test_stationary_point_solves_the_gradient_system(form):
    got = _gauss.stationary(*form, _gauss.det(*form[:3]))
    with mp.workdps(DPS):
        want = _mp_stationary(form)
        for g, w in zip(got, want):
            assert abs(g - w) <= REL * mp.norm(want)


def _complex_quadratic_parts(n, seed):
    """n seeded complex (a_s, a_i, a_si): the real parts are those of _forms, the
    imaginary parts uniform in [-2.5, 2.5], so that d falls on both sides of the
    root's branch cut along the negative axis."""
    rng = random.Random(seed)
    return [tuple(x + 1j * rng.uniform(-2.5, 2.5) for x in form[:3]) for form in _forms(n, seed)]


@pytest.mark.parametrize("part", _complex_quadratic_parts(8, seed=19))
def test_dual_is_the_inverse_form_with_its_root_and_real_determinant(part):
    d_real = _gauss.det(*(x.real for x in part))      # the real forms' d: 0.36 and more
    (dual_s, dual_i, dual_si), root, d_t = _gauss.dual(*part, _gauss.det(*part), d_real)
    with mp.workdps(DPS):
        a_s, a_i, a_si = _mp(part)
        inverse = mp.inverse(mp.matrix([[a_s, a_si / 2], [a_si / 2, a_i]]))
        # the dual form's matrix is a quarter of the inverse
        for got, want in ((dual_s, inverse[0, 0] / 4), (dual_i, inverse[1, 1] / 4),
                          (dual_si, inverse[0, 1] / 2)):
            assert abs(got - want) <= REL * abs(want)
        want = mp.sqrt(4 * a_s * a_i - a_si**2)       # the principal root
        assert abs(root - want) <= REL * abs(want)
        re_s, re_i, re_si = (mp.re(inverse[k]) for k in ((0, 0), (1, 1), (0, 1)))
        want = (re_s * re_i - re_si**2) / 4           # 4 a_s a_i - a_si^2 of the dual's real part
        assert abs(d_t - want) <= REL * want
