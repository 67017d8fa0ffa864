"""Counter-propagating photon pairs from a transversely pumped planar waveguide.

Closed-form joint spectral amplitude, pair rates, intensity spectra and
photon fluxes, Hong-Ou-Mandel interference, Schmidt decomposition and
entanglement entropy, separability design conditions, and inversion of
measured widths back to the amplitude, all cross-checked by brute-force
numerical oracles.
"""

__version__ = "0.1.0"

from .dispersion import (  # noqa: F401
    DispersionModel,
    GTaylor,
    MaterialPoint,
    WaveguideSpec,
    beta,
    constant_model,
    g_taylor,
    gamma,
    group_velocity,
    load_model,
    material_point,
    refractive_index,
    solve_phase_matching,
)
from .tpsa import (  # noqa: F401
    FilterSpec,
    GaussianTPSA,
    PumpSpec,
    UNFILTERED,
    assemble_tpsa,
    build_tpsa,
    evaluate,
    normalize,
    pair_norm_constant,
    v_coefficients,
    with_matched_angle,
)
from .spectral import pair_rate, spectrum, width_ratio  # noqa: F401
from .temporal import flux, hom_curve, hom_params, time_domain  # noqa: F401
from .entanglement import (  # noqa: F401
    entropy,
    schmidt,
    schmidt_mode,
    separability_roots,
)
from .inverse import MeasurementSet, estimate, fit_hom_B  # noqa: F401
