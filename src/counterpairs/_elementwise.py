"""Elementwise math on Python scalars or numpy arrays, for the closed forms.

Every closed form in the package is written once and evaluated either on
Python floats (one scenario) or on broadcast numpy arrays (a whole sweep
grid; a scalar is simply the 0-d case). Scalars go through math/cmath,
which is several times faster than numpy on single values and keeps
results Python floats; arrays go through numpy.

Invariant checks are written as the condition that must hold, so a NaN
fails them. On scalars a violated check raises the caller's typed error.
On arrays nothing raises: the failing cells turn NaN, and so does every
value computed from them. A caller that needs a cell's error re-evaluates
that cell as scalars, which raises it with its exact message.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import fields

import numpy as np

_erf = np.frompyfunc(math.erf, 1, 1)


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def csqrt(z):
    """Principal complex square root."""
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def exp(x):
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def log(x):
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def log2(x):
    return np.log2(x) if isinstance(x, np.ndarray) else math.log2(x)


def cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def ceil(x):
    return np.ceil(x) if isinstance(x, np.ndarray) else math.ceil(x)


def erf(x):
    return _erf(x).astype(float) if isinstance(x, np.ndarray) else math.erf(x)


def atan2(y, x):
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
        return np.arctan2(y, x)
    return math.atan2(y, x)


def hypot(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.hypot(x, y)
    return math.hypot(x, y)


def maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def where(cond, a, b):
    """a where cond holds, else b; a scalar cond picks one operand whole."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def holds(cond) -> bool:
    """True for a scalar condition that holds; False for any array.

    Guards scalar shortcuts (an early return, a branch that would divide
    by zero); arrays take the general path and resolve cells with where().
    """
    return not isinstance(cond, np.ndarray) and bool(cond)


def any_(cond) -> bool:
    """Whether a scalar condition holds, or any cell of an array one does."""
    return bool(np.any(cond)) if isinstance(cond, np.ndarray) else bool(cond)


def violated(ok, value=None) -> bool:
    """Whether a scalar invariant fails, so that the caller raises.

    For an array invariant this returns False; when `value` is a frozen
    dataclass its array fields are set to NaN in the failing cells first.
    """
    if not isinstance(ok, np.ndarray):
        return not ok
    if value is not None and not ok.all():
        for field in fields(value):
            x = getattr(value, field.name)
            if isinstance(x, np.ndarray):
                object.__setattr__(value, field.name, np.where(ok, x, np.nan))
    return False


def finite_cells(value):
    """Mask of the cells where every array field of a dataclass is finite."""
    ok = True
    for field in fields(value):
        x = getattr(value, field.name)
        if isinstance(x, np.ndarray):
            ok = ok & np.isfinite(x)
    return ok
