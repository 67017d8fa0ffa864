"""Elementwise math on Python scalars or numpy arrays, for the closed forms.

Every closed form in the package is written once and evaluated either on
Python floats (one scenario) or on broadcast numpy arrays (a whole sweep
grid; a scalar is simply the 0-d case). Scalars go through math/cmath,
which is several times faster than numpy on single values and keeps
results Python floats; arrays go through numpy. is_array is the one test
that tells the two apart.

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


def is_array(x) -> bool:
    """Whether x is a numpy array (a sweep grid) rather than a Python scalar."""
    return isinstance(x, np.ndarray)


def _dispatch(array_fn, scalar_fn, arity=1):
    """One function that calls array_fn when an operand is an array, else scalar_fn."""
    if arity == 1:
        def fn(x):
            return array_fn(x) if is_array(x) else scalar_fn(x)
    else:
        def fn(a, b):
            return array_fn(a, b) if is_array(a) or is_array(b) else scalar_fn(a, b)
    return fn


_erf = np.frompyfunc(math.erf, 1, 1)

sqrt = _dispatch(np.sqrt, math.sqrt)
csqrt = _dispatch(np.sqrt, cmath.sqrt)      # principal complex square root
exp = _dispatch(np.exp, math.exp)
log = _dispatch(np.log, math.log)
log2 = _dispatch(np.log2, math.log2)
cos = _dispatch(np.cos, math.cos)
ceil = _dispatch(np.ceil, math.ceil)
erf = _dispatch(lambda x: _erf(x).astype(float), math.erf)
atan2 = _dispatch(np.arctan2, math.atan2, arity=2)
hypot = _dispatch(np.hypot, math.hypot, arity=2)
maximum = _dispatch(np.maximum, max, arity=2)
minimum = _dispatch(np.minimum, min, arity=2)


def where(cond, a, b):
    """a where cond holds, else b; a scalar cond picks one operand whole."""
    return np.where(cond, a, b) if is_array(cond) else (a if cond else b)


def holds(cond) -> bool:
    """True for a scalar condition that holds; False for any array.

    Guards scalar shortcuts (an early return, a branch that would divide
    by zero); arrays take the general path and resolve cells with where().
    """
    return not is_array(cond) and bool(cond)


def any_(cond) -> bool:
    """Whether a scalar condition holds, or any cell of an array one does."""
    return bool(np.any(cond) if is_array(cond) else cond)


def _array_fields(value):
    """(name, array) for each array field of a dataclass."""
    return [(f.name, x) for f in fields(value) if is_array(x := getattr(value, f.name))]


def violated(ok, value=None) -> bool:
    """Whether a scalar invariant fails, so that the caller raises.

    For an array invariant this returns False; when `value` is a frozen
    dataclass its array fields are set to NaN in the failing cells first.
    """
    if not is_array(ok):
        return not ok
    if value is not None and not ok.all():
        for name, x in _array_fields(value):
            object.__setattr__(value, name, np.where(ok, x, np.nan))
    return False


def finite_cells(value):
    """Mask of the cells where every array field of a dataclass is finite."""
    ok = True
    for _, x in _array_fields(value):
        ok = ok & np.isfinite(x)
    return ok
