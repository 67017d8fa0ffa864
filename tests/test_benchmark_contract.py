"""The library surface the benchmark under perfbench/ calls and traces.

perfbench/workloads.py, sheared.py and layers.py call the package with
the argument shapes bound below and read the attributes listed in READS
off the values it returns, and the tracer looks functions up by
"module.function" name. A change to the public API that breaks any of
these fails here, in the fast tests, instead of in a benchmark run.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import counterpairs as cp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MODULES = ("cli", "config", "dispersion", "tpsa", "spectral", "temporal",
           "entanglement", "inverse", "oracle")
for _module in MODULES:     # perfbench imports each one; the package does not
    importlib.import_module(f"counterpairs.{_module}")
ARG = object()              # placeholder argument: only the call shape is checked

# (callable path, positional argument count, keyword names) as perfbench calls it
CALLS = [
    ("cli.main", 1, ()),
    ("config.parse_config", 1, ()),
    ("config.parse_sweep", 1, ()),
    ("config.resolve_scenario", 1, ()),
    ("config.resolve_scenario", 1, ("include_g",)),
    ("config.apply_sweep_value", 3, ()),
    ("config.build_scenario_tpsa", 1, ()),
    ("config.compute_scenario", 1, ()),
    ("WaveguideSpec", 0, ("alpha", "ly", "d", "model")),
    ("load_model", 1, ()),
    ("PumpSpec", 0, ("lambda_p0", "tau_p", "z_p", "y_p", "a_p", "dtilde_theta",
                     "p_p", "f_rep")),
    ("FilterSpec", 0, ("sigma_s", "sigma_i")),
    ("with_matched_angle", 4, ()),
    ("build_tpsa", 5, ()),
    ("pair_rate", 1, ()),
    ("spectrum", 2, ()),
    ("flux", 2, ()),
    ("hom_params", 1, ()),
    ("normalize", 1, ()),
    ("schmidt", 1, ()),
    ("spectral.spectrum", 2, ()),
    ("spectral.wavelength_width", 2, ()),
    ("temporal.time_domain", 1, ()),
    ("temporal.hom_params", 1, ()),
    ("temporal.hom_curve", 2, ()),
    ("temporal.evaluate_time", 3, ()),
    ("tpsa.evaluate", 3, ()),
    ("tpsa.normalize", 1, ()),
    ("entanglement.entropy", 1, ()),
    ("oracle.quad_norm", 1, ()),
    ("oracle.numeric_marginal", 2, ("n_points",)),
    ("oracle.numeric_time_marginal", 2, ("n_points",)),
    ("oracle.numeric_schmidt", 1, ("n_points",)),
]

# Looked up by name in the traced run (perfbench/tracer.py, layers.py).
TRACED_BY_NAME = ("config.compute_scenario", "config.sweep_point",
                  "dispersion.refractive_index", "entanglement.separability_roots")


def _resolve(path):
    obj = cp
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("path,n_args,kwargs", CALLS,
                         ids=[f"{c[0]}/{c[1]}{''.join('+' + k for k in c[2])}" for c in CALLS])
def test_call_shapes_bind(path, n_args, kwargs):
    inspect.signature(_resolve(path)).bind(*[ARG] * n_args, **{k: ARG for k in kwargs})


def test_perfbench_counts_the_sweep_quantities_there_are():
    # layers.QUANTITY_COUNT is the denominator of config.quantities_used_frac;
    # read from the source, so the fast tests need not import perfbench
    counts = [ast.literal_eval(node.value)
              for node in ast.parse((PERFBENCH / "layers.py").read_text()).body
              if isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets] == ["QUANTITY_COUNT"]]
    assert counts == [len(cp.config.QUANTITIES)]


def test_sweep_point_takes_the_spec_second():
    # the tracer reads args[1].quantities of every config.sweep_point call
    params = list(inspect.signature(cp.config.sweep_point).parameters)
    assert params[:2] == ["sc", "spec"]


# (type of a package value, the attribute paths perfbench reads off it)
READS = [
    ("TimeDomainTPSA", ("t2s", "t2i", "t2si", "t1s", "t1i")),
    ("GaussianTPSA", ("omega_s0", "omega_i0", "f2s", "f2i", "f2si", "f1s", "f1i")),
    ("Scenario", ("omega_s0", "omega_i0", "pump.f_rep")),
    ("SweepSpec", ("axis1", "axis2", "quantities", "axis1.param", "axis1.values")),
    ("HomDip", ("delta_tau_l",)),
    ("SchmidtSpectrum", ("vartheta", "lambda_sq")),
    ("SpectrumParams", ("sigma_omega",)),
    ("FluxParams", ("sigma_tau",)),
    ("RateResult", ("pairs_per_s",)),
    ("MarginalResult", ("sigma_e1",)),
    ("SeparabilityRoots", ("roots",)),
]


@pytest.fixture(scope="module")
def package_values():
    """One value of each READS type, from the shipped fig2 configs."""
    sc = cp.config.resolve_scenario(cp.config.parse_config(CONFIGS / "fig2.cfg"))
    tpsa = cp.config.build_scenario_tpsa(sc)
    values = [
        cp.temporal.time_domain(tpsa), tpsa, sc,
        cp.config.parse_sweep(cp.config.parse_config(CONFIGS / "fig2_sweep.cfg")),
        cp.hom_params(tpsa), cp.schmidt(cp.normalize(tpsa)), cp.spectrum(tpsa, "s"),
        cp.flux(tpsa, "s"), cp.pair_rate(tpsa),
        cp.oracle.numeric_marginal(tpsa, "s", n_points=1537),
        cp.separability_roots(cp.config.scenario_material(sc), sc.pump),
    ]
    return {type(value).__name__: value for value in values}


@pytest.mark.parametrize("kind,paths", READS, ids=[kind for kind, _ in READS])
def test_attributes_perfbench_reads(package_values, kind, paths):
    for path in paths:
        obj = package_values[kind]
        for part in path.split("."):
            obj = getattr(obj, part)


def _public_module_function(name):
    module, attr = name.split(".")
    mod = importlib.import_module(f"counterpairs.{module}")
    fn = getattr(mod, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


@pytest.mark.parametrize("name", TRACED_BY_NAME)
def test_traced_names_are_public_module_functions(name):
    assert _public_module_function(name)


def test_every_per_layer_function_is_traceable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    try:
        for name in layers.CALLS + layers.SELF + layers.BOTH:
            assert _public_module_function(name), name
    finally:
        for mod in ("layers", "tracer"):
            sys.modules.pop(mod, None)
