"""The fixed work of the machine-speed probes (see speed.py).

Imports nothing but `math` at load time, so that a fresh interpreter can
run the python probe while it measures the package's import time without
importing anything ahead of the package.
"""

import math


class _Term:
    """Built like a frozen dataclass (the package's value type), without
    importing dataclasses."""

    def __init__(self, b: float, c: float):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


_TERMS = tuple(_Term(b, c) for b, c in ((2.9804, 0.02047), (0.5981, 0.0666), (8.9543, 416.08)))
_ARRAYS: list = []       # the numpy probe's arrays, made on first use


def _index(lam_um: float) -> float:
    lam2 = lam_um * lam_um
    n_sq = 1.0
    for t in _TERMS:
        n_sq += t.b * lam2 / (lam2 - t.c)
    return math.sqrt(n_sq)


def python_work() -> None:
    """About 1 ms of float math, small objects and function calls."""
    table = {}
    for k in range(300):
        lam = 0.5 + 1e-4 * k
        d = (_index(lam + 1e-6) - _index(lam - 1e-6)) / 2e-6
        table[k % 61] = _Term(d, math.exp(-lam)) if d < 0.0 else None


def numpy_work() -> None:
    """About 2.5 ms of exp and abs over a 1 MB complex array."""
    import numpy as np

    if not _ARRAYS:
        n = 1 << 16
        grid = np.exp(1j * np.linspace(0.0, 50.0, n)) * np.linspace(-1.0, 1.0, n)
        _ARRAYS.extend((grid, np.empty_like(grid), np.empty(n)))
    grid, out, mag = _ARRAYS
    np.exp(grid, out=out)
    np.abs(out, out=mag)
    float(mag.sum())
