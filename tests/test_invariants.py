"""Value invariants: a typed error on a scalar, NaN in the failing cells of an array.

Each result dataclass checks its own invariant. A scalar that violates it
raises OutOfRange, a CounterpairsError, so the CLI exits 1 with the
message. A sweep builds the same values from arrays; there only the
failing cells turn NaN and nothing raises.
"""

import re

import numpy as np
import pytest

from counterpairs.entanglement import SchmidtSpectrum
from counterpairs.errors import OutOfRange
from counterpairs.spectral import RateResult, SpectrumParams
from counterpairs.temporal import FluxParams, _solve_dip_width

# (class, valid fields, field to break, a violating value, message)
INVARIANTS = [
    (SpectrumParams, dict(amplitude=1e-20, sigma_omega=1e13, delta_omega0=0.0, field="s"),
     "sigma_omega", -1e13, "amplitude must be >= 0 and sigma_omega > 0"),
    (RateResult, dict(pairs_per_s=3e4, per_pulse=3.75e-4, d_fr=1e-52, e_fr=1.0),
     "d_fr", -1e-52, "rate must be >= 0 and d_fr > 0"),
    (FluxParams, dict(amplitude=1e-5, sigma_tau=1e-13, delta_tau0=0.0, field="s"),
     "sigma_tau", 0.0, "sigma_tau must be positive"),
    (SchmidtSpectrum, dict(p=0.25, vartheta=0.5, entropy_bits=2.0, n_min=5,
                           n_min_index=4, p_min=0.95),
     "vartheta", 1.0, "vartheta must lie in [0, 1)"),
]
IDS = [case[0].__name__ for case in INVARIANTS]


@pytest.mark.parametrize("cls,valid,name,bad,message", INVARIANTS, ids=IDS)
def test_scalar_violation_raises_typed_error(cls, valid, name, bad, message):
    cls(**valid)
    with pytest.raises(OutOfRange, match=re.escape(message)):
        cls(**{**valid, name: bad})


@pytest.mark.parametrize("cls,valid,name,bad,message", INVARIANTS, ids=IDS)
def test_array_violation_fails_only_its_cells(cls, valid, name, bad, message):
    value = cls(**{**valid, name: np.array([valid[name], bad])})
    cells = getattr(value, name)
    assert cells[0] == valid[name] and np.isnan(cells[1])


def test_schmidt_mode_index_is_typed():
    with pytest.raises(OutOfRange, match="n must be >= 0"):
        SchmidtSpectrum(**INVARIANTS[3][1]).lambda_sq(-1)


def test_dip_width_rate_is_typed():
    with pytest.raises(OutOfRange, match="b must be positive"):
        _solve_dip_width(-1.0, 0.0)
    with np.errstate(invalid="ignore"):
        widths = _solve_dip_width(np.array([1e25, -1.0]), 0.0)
    assert np.isfinite(widths[0]) and np.isnan(widths[1])

