"""Rules on the package source that no behavioural test can observe."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "counterpairs"
CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_uses(tree):
    """Names of functools memo decorators that a module imports or references."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in CACHES)
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield node.attr


def test_no_module_memoizes():
    # observables are pure functions of frozen values: recomputed, never cached
    found = {path.relative_to(SRC).as_posix(): sorted(set(_cache_uses(ast.parse(path.read_text()))))
             for path in sorted(SRC.rglob("*.py"))}
    assert found and not {name: uses for name, uses in found.items() if uses}


def test_no_function_keeps_a_value_between_calls():
    # a closure that rebinds an enclosing variable keeps a value from one call
    # to the next, a memo by another name: each value is formed where it is
    # read, or passed on as an argument
    assert not _found(lambda node: True, ast.Nonlocal)


def _is_ndarray(node):
    """Whether an isinstance class argument names ndarray, alone or in a tuple."""
    if isinstance(node, ast.Tuple):
        return any(map(_is_ndarray, node.elts))
    return (isinstance(node, ast.Attribute) and node.attr == "ndarray"
            or isinstance(node, ast.Name) and node.id == "ndarray")


def _owners(tree, matches):
    """Name of the innermost function around each node for which matches(node) holds;
    a decorator counts as inside the function it decorates."""
    owner = {}
    for node in ast.walk(tree):     # breadth first: inner functions overwrite outer ones
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(inner), node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if matches(node):
            yield owner.get(id(node))


def _found(matches, nodes=ast.Call):
    """(module file, owning function) of each matching node (by default, call) in src/."""
    return {(path.relative_to(SRC).as_posix(), name) for path in sorted(SRC.rglob("*.py"))
            for name in _owners(ast.parse(path.read_text()),
                                lambda node: isinstance(node, nodes) and matches(node))}


def test_one_predicate_tells_scalars_from_arrays():
    # every scalar-or-array decision goes through _elementwise.is_array
    found = _found(lambda call: isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                   and len(call.args) == 2 and _is_ndarray(call.args[1]))
    assert found == {("_elementwise.py", "is_array")}


def test_double_range_guards_sit_at_the_entry_points():
    # one guard per library entry point and one around every CLI handler; a
    # handler that adds its own, or an entry point that loses its, fails here
    found = _found(lambda call: isinstance(call.func, ast.Name)
                   and call.func.id == "in_double_range")
    assert found == {("tpsa.py", "assemble_tpsa"), ("config.py", "compute_scenario"),
                     ("config.py", "_evaluate_sweep"), ("inverse.py", "estimate"),
                     ("inverse.py", "fit_hom_B"), ("cli.py", "main")}


def _calls_to(name):
    """Whether a call calls name, bare or as an attribute of a module."""
    return lambda call: (isinstance(call.func, ast.Name) and call.func.id == name
                         or isinstance(call.func, ast.Attribute) and call.func.attr == name)


def test_one_conversion_each_way_refracts_the_pump():
    # Snell's law at the crystal surface is applied by the two conversions of
    # the angular dispersion alone, and each conversion has its one caller: a
    # third refraction path fails here
    assert _found(_calls_to("external_angle")) == {("tpsa.py", "external_dispersion"),
                                                   ("tpsa.py", "internal_dispersion")}
    assert _found(_calls_to("external_dispersion")) == {("config.py", "_inputs")}
    assert _found(_calls_to("internal_dispersion")) == {("config.py", "apply_sweep_value")}


def test_each_observable_is_evaluated_in_its_section():
    # scenario, sweep, hom and schmidt read every output off the sections of
    # the scenario document, so config and the CLI call each observable in its
    # section alone; a second spelling of an output (a sweep formula, a
    # hand-built section) fails here. A section forms each value it reads once:
    # both spectra share one norm, both fluxes one norm and one time-domain
    # form. The hom handler forms the dip its section, span and curve read.
    sites = {name: {("config.py", owner)} for name, owner in (
        ("pair_rate", "_rate"), ("_field_spectrum", "_spectra"), ("width_ratio", "_spectra"),
        ("time_domain", "_flux"), ("_field_flux", "_flux"), ("schmidt", "_schmidt"),
        ("principal_axes", "_principal_axes"))}
    hom = {("config.py", "_hom"), ("cli.py", "_cmd_hom")}
    sites.update(l2_norm={("config.py", "_spectra"), ("config.py", "_flux")},
                 hom_params=hom, _dip_section=hom, _dip_curve={("cli.py", "_cmd_hom")})
    assert {name: {site for site in _found(_calls_to(name)) if site[0] in ("config.py", "cli.py")}
            for name in sites} == sites


def test_one_writer_writes_every_json_document():
    # cli._json gives json.dumps's bytes, so a scalar document and the sweep
    # manifest alike go through it; a second JSON writer fails here
    assert not _found(lambda call: _calls_to("dumps")(call) or _calls_to("dump")(call))


def _is_square(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _is_determinant(node):
    """x - y**2 where x is 4 * a * b or another square: a 2x2 determinant."""
    left = node.left
    four_ab = (isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult)
               and isinstance(left.left, ast.BinOp) and isinstance(left.left.op, ast.Mult)
               and isinstance(left.left.left, ast.Constant) and left.left.left.value == 4)
    return isinstance(node.op, ast.Sub) and _is_square(node.right) and (four_ab or _is_square(left))


def test_determinants_are_formed_in_one_place():
    # every closed form takes its determinant from the Gaussian-integral module,
    # so exact determinants change one function; the oracle keeps its own
    assert _found(_is_determinant, ast.BinOp) == {("_gauss.py", "det"), ("oracle.py", "_shear")}


def test_the_complex_root_is_taken_in_one_place():
    # the time-domain amplitude's sqrt(D_f) comes with the Fourier dual of the
    # Gaussian-integral module, so a change of branch or precision changes one place
    assert {module for module, _ in _found(_calls_to("csqrt"))} == {"_gauss.py"}


def test_the_oracle_shares_no_numerics_with_the_closed_forms():
    # the oracles check the closed forms, so they import nothing of their integral
    names = []
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names and not any("_gauss" in name.split(".") for name in names)


def _imported_names(tree):
    """(line, bound name) for each name a module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def test_every_import_is_used():
    # a name an import binds is read by the module's code; docstrings do not count
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":      # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                   if name not in used]
    assert not unused


# Public definitions that no other definition in src/ references, with the
# caller outside src/ that keeps each one.
UNREFERENCED = {
    "config.build_scenario_tpsa": "perfbench builds its amplitudes with it (layers, workloads)",
    "dispersion.constant_model": "README library section: dispersion-free material",
    "dispersion.g_taylor": "perfbench counts its calls (layers.CALLS)",
    "entanglement.schmidt_mode": "README library section: Hermite-Gaussian Schmidt modes",
    "oracle.numeric_marginal": "perfbench oracle-verify; README verification design",
    "oracle.numeric_schmidt": "perfbench oracle-verify; README verification design",
    "oracle.numeric_time_marginal": "perfbench oracle-verify; README verification design",
    "oracle.quad_norm": "perfbench oracle-verify; README verification design",
    "temporal.evaluate_time": "perfbench traces it (layers.BOTH)",
    "spectral.spectrum": "README quick start; perfbench layers.BOTH and oracle-verify",
    "temporal.flux": "README quick start; perfbench layers.BOTH and oracle-verify",
    "temporal.hom_curve": "README CLI section; perfbench scenario-mix and layers.BOTH",
    "temporal.time_bandwidth": "perfbench traces it (layers.BOTH)",
    "tpsa.build_tpsa": "README quick start; perfbench oracle-verify",
    "tpsa.evaluate": "README library section; perfbench sheared.py and layers.CALLS",
    "tpsa.normalize": "perfbench oracle-verify and layers.SELF",
}


def _referenced_names(tree):
    """Names each top-level statement reads, as a name or as an attribute,
    apart from imports and the statement's own name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                yield name


def test_every_public_definition_has_a_caller():
    # src/ ships what the CLI, the documented library and the benchmark call;
    # __init__ re-exports and docstrings are not callers
    defined, referenced = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined.update((f"{path.stem}.{node.name}", node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        referenced.update(_referenced_names(tree))
    assert {qual for qual, name in defined.items() if name not in referenced} == set(UNREFERENCED)


def _module_level_imports(tree):
    """Top-level package of each import that runs when the module is imported:
    every import outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_oracle_imports_numpy_at_module_level():
    # the scalar path never needs numpy: array code imports it in the functions
    # that make arrays, so `import counterpairs` and a scalar subcommand never load it
    found = {path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
             if "numpy" in _module_level_imports(ast.parse(path.read_text()))}
    assert found == {"oracle.py"}
