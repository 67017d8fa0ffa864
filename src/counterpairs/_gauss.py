"""The one Gaussian integral behind the closed forms, on scalars or arrays: for
q = a_s x^2 + a_i y^2 + a_si x y + b_s x + b_i y and d = 4 a_s a_i - a_si^2, which
the caller forms once and passes in, the plane integral of exp(-2q) is
pi exp(2 (a_s b_i^2 + a_i b_s^2 - a_si b_s b_i)/d) / sqrt(d); the Fourier
transform of exp(-q) is the Gaussian of the dual form, whose matrix is the inverse."""

import math

from . import _elementwise as ew


def det(a_s, a_i, a_si):
    """4 a_s a_i - a_si^2 of real or complex coefficients."""
    return 4.0 * a_s * a_i - a_si**2


def exponent(a_s, a_i, a_si, b_s, b_i, d):
    """The integral's exponent 2 (a_s b_i^2 + a_i b_s^2 - a_si b_s b_i)/d."""
    return 2.0 * (a_s * b_i**2 + a_i * b_s**2 - a_si * b_s * b_i) / d


def integral(a_s, a_i, a_si, b_s, b_i, d, scale):
    """scale times the integral of exp(-2q) over the plane, rounded left to right."""
    return scale * math.pi * ew.exp(exponent(a_s, a_i, a_si, b_s, b_i, d)) / ew.sqrt(d)


def stationary(a_s, a_i, a_si, b_s, b_i, d):
    """(x, y) where the gradient of q vanishes, for real or complex coefficients;
    negating the quotient, not its numerator, keeps the sign of a zero part."""
    return -((2.0 * a_i * b_s - a_si * b_i) / d), -((2.0 * a_s * b_i - a_si * b_s) / d)


def marginal(a_s, a_i, a_si, b_s, b_i, d, field: str):
    """(1/e width, centre) of the marginal of exp(-2q) over x (field "s") or y."""
    x, y = stationary(a_s, a_i, a_si, b_s, b_i, d)
    return (ew.sqrt(2.0 * a_i / d), x) if field == "s" else (ew.sqrt(2.0 * a_s / d), y)


def dual(a_s, a_i, a_si, d, d_real):
    """The Fourier dual of exp(-q), q complex: its form (a_i, a_s, -a_si)/d, the root sqrt(d)
    dividing its amplitude, and the determinant d_real/|d|^2 of its real part (d_real: q's)."""
    return (a_i / d, a_s / d, -a_si / d), ew.csqrt(d), d_real / abs(d) ** 2
