"""Exception hierarchy shared by all modules."""

from contextlib import contextmanager


class CounterpairsError(Exception):
    """Base class for every error raised by this package."""


class OutOfValidityWindow(CounterpairsError):
    """Frequency outside the dispersion model's validity window."""


class ModeCutoff(CounterpairsError):
    """Guided-mode radicand non-positive; no propagating TE mode."""


class NoPhaseMatch(CounterpairsError):
    """|beta_s0 - beta_i0| exceeds the pump wavevector; no real pump angle."""


class DegenerateExpansion(CounterpairsError):
    """Mode-confinement parameters below floor; Taylor coefficients diverge."""


class PhaseMatchViolated(CounterpairsError):
    """Central frequencies and pump angle do not satisfy momentum conservation."""


class NonNormalizable(CounterpairsError):
    """Gaussian amplitude has no finite L2 norm (quadratic form not positive)."""


class ExponentOverflow(CounterpairsError):
    """Exponent magnitude beyond double range; coefficients likely invalid."""


class TotalInternalReflection(CounterpairsError):
    """Internal pump angle cannot refract out of the material."""


class SingularTransform(CounterpairsError):
    """Time-domain transform singular (quadratic-form determinant ~ 0)."""


class OutOfRange(CounterpairsError):
    """Parameter outside its mathematical domain (e.g. vartheta not in [0, 1))."""


class NoPhysicalRoot(CounterpairsError):
    """Measured widths admit no physically valid amplitude coefficients."""


class NegativeDiscriminant(NoPhysicalRoot):
    """Width-inversion quadratic has complex roots."""


class FitDiverged(CounterpairsError):
    """Least-squares fit of the coincidence dip did not identify parameters."""


class QuadratureNotConverged(CounterpairsError):
    """An oracle did not settle: a marginal whose moments move by more than
    1e-6 under grid halving, or a Schmidt subspace iteration still moving
    after 100 steps."""


class GridTooCoarse(CounterpairsError):
    """Sampling grid leaves too much amplitude mass outside its span."""


class ConfigInvalid(CounterpairsError):
    """Scenario configuration failed to parse or validate.

    Carries the offending field name in ``field`` when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


@contextmanager
def in_double_range(what: str):
    """Raise OutOfRange, naming `what`, where float arithmetic in the block leaves
    double range: Python floats raise there (x**2, exp, 1/x**2) instead of turning inf."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise OutOfRange(f"{what} leave double range ({exc})") from None
