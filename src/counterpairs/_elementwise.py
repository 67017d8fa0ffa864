"""Elementwise math on Python scalars or numpy arrays, for the closed forms.

Every closed form in the package is written once and evaluated either on
Python floats (one scenario) or on broadcast numpy arrays (a whole sweep
grid; a scalar is simply the 0-d case). Scalars go through math/cmath,
which is several times faster than numpy on single values and keeps
results Python floats; arrays go through numpy. is_array is the one test
that tells the two apart.

No array can exist until something has imported numpy, so is_array answers
False until then, and this module imports numpy only on an array branch:
the scalar path never loads it.

Invariant checks are written as the condition that must hold, so a NaN
fails them. On scalars a violated check raises the caller's typed error.
On arrays nothing raises: the failing cells turn NaN, and so does every
value computed from them. A caller that needs a cell's error re-evaluates
that cell as scalars, which raises it with its exact message.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import fields

ndarray = None      # numpy.ndarray, kept once numpy has been imported


def is_array(x) -> bool:
    """Whether x is a numpy array (a sweep grid) rather than a Python scalar."""
    global ndarray
    if ndarray is None:
        if "numpy" not in sys.modules:      # then no array exists
            return False
        ndarray = sys.modules["numpy"].ndarray
    return isinstance(x, ndarray)


def _numpy_fn(name):
    """numpy's function of that name; erf, which numpy lacks, is math.erf as a ufunc."""
    np = sys.modules["numpy"]       # loaded: an operand is an array
    if name != "erf":
        return getattr(np, name)
    ufunc = np.frompyfunc(math.erf, 1, 1)
    return lambda x: ufunc(x).astype(float)


def _dispatch(numpy_name, scalar_fn, arity=1):
    """One function that calls numpy's numpy_name when an operand is an array,
    else scalar_fn; the numpy function is looked up on each array call."""
    if arity == 1:
        def fn(x):
            return _numpy_fn(numpy_name)(x) if is_array(x) else scalar_fn(x)
    else:
        def fn(a, b):
            return _numpy_fn(numpy_name)(a, b) if is_array(a) or is_array(b) else scalar_fn(a, b)
    return fn


sqrt = _dispatch("sqrt", math.sqrt)
csqrt = _dispatch("sqrt", cmath.sqrt)       # principal complex square root
exp = _dispatch("exp", math.exp)
log = _dispatch("log", math.log)
log2 = _dispatch("log2", math.log2)
cos = _dispatch("cos", math.cos)
ceil = _dispatch("ceil", math.ceil)
erf = _dispatch("erf", math.erf)
atan2 = _dispatch("arctan2", math.atan2, arity=2)
hypot = _dispatch("hypot", math.hypot, arity=2)
maximum = _dispatch("maximum", max, arity=2)
minimum = _dispatch("minimum", min, arity=2)


def where(cond, a, b):
    """a where cond holds, else b; a scalar cond picks one operand whole."""
    if not is_array(cond):
        return a if cond else b
    import numpy as np
    return np.where(cond, a, b)


def holds(cond) -> bool:
    """True for a scalar condition that holds; False for any array.

    Guards scalar shortcuts (an early return, a branch that would divide
    by zero); arrays take the general path and resolve cells with where().
    """
    return not is_array(cond) and bool(cond)


def any_(cond) -> bool:
    """Whether a scalar condition holds, or any cell of an array one does."""
    if not is_array(cond):
        return bool(cond)
    import numpy as np
    return bool(np.any(cond))


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
        import numpy as np
        for name, x in _array_fields(value):
            object.__setattr__(value, name, np.where(ok, x, np.nan))
    return False


def finite_cells(value):
    """Mask of the cells where every array field of a dataclass is finite."""
    ok = True
    for _, x in _array_fields(value):
        import numpy as np
        ok = ok & np.isfinite(x)
    return ok
