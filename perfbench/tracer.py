"""Span recorder for the traced run.

Wraps every public function of the nine counterpairs modules by replacing
each module attribute bound to that function object, so names imported
across modules (``cli.compute_scenario``) and intra-module calls through
globals are caught. Spans live in flat in-memory arrays; ``restore`` puts
every original function back and checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("cli", "config", "dispersion", "tpsa", "spectral", "temporal",
           "entanglement", "inverse", "oracle")

# Exception classes reported as failed.<Class>; anything else is "other".
FAILURE_CLASSES = ("NonNormalizable", "ExponentOverflow", "SingularTransform",
                   "NoRootInInterval", "OutOfRange", "FitDiverged",
                   "NoPhysicalRoot", "NegativeDiscriminant", "QuadratureNotConverged",
                   "GridTooCoarse", "OutOfValidityWindow", "ConfigInvalid", "ValueError",
                   "OverflowError")

ROOT = -1  # parent index of a span opened directly by the benchmark


def _points(args, kwargs):
    """Sample count of an evaluate/evaluate_time call (broadcast size)."""
    a = args[1] if len(args) > 1 else kwargs.get("omega_s", kwargs.get("tau_s"))
    b = args[2] if len(args) > 2 else kwargs.get("omega_i", kwargs.get("tau_i"))
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


class Tracer:
    """Records one span per call into the wrapped functions.

    Per span: function id, start and end (perf_counter_ns), parent span
    index and operation id. Extra per-function counters (sample points,
    separability bisection path, requested sweep quantities) are kept
    beside the spans.
    """

    def __init__(self):
        self.pkg = importlib.import_module("counterpairs")
        self.mods = {m: importlib.import_module(f"counterpairs.{m}") for m in MODULES}
        self.names: list[str] = []          # "module.function" per function id
        self.patched: list[tuple[object, str, object]] = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")            # evaluate points, 0 otherwise
        self.stack: list[int] = []
        self.op_id = -1
        self.raised: dict[str, int] = {}    # "module.Class" -> count
        self.sep_calls = 0
        self.sep_bisect = 0
        self.sweep_quantities = 0
        self.sweep_points = 0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for mname, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{mname}.{attr}", obj)
        wrappers = {}
        for key, (name, obj) in targets.items():
            wrappers[key] = self._wrap(len(self.names), name, obj)
            self.names.append(name)
        for mod in (self.pkg, *self.mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self.patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in self.patched:
            setattr(mod, attr, obj)
        leftover = [f"{mod.__name__}.{attr}" for mod, attr, obj in self.patched
                    if getattr(mod, attr) is not obj]
        for mod in (self.pkg, *self.mods.values()):
            for attr, obj in vars(mod).items():
                if getattr(obj, "__wrapped_by_perfbench__", False):
                    leftover.append(f"{mod.__name__}.{attr}")
        if leftover:
            raise RuntimeError(f"functions left patched: {sorted(set(leftover))}")

    def _wrap(self, fid: int, name: str, fn):
        counts_points = name in ("tpsa.evaluate", "temporal.evaluate_time")
        is_sep = name == "entanglement.separability_roots"
        is_sweep_point = name == "config.sweep_point"
        module = name.split(".", 1)[0]
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.fn)
            tracer.fn.append(fid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else ROOT)
            tracer.op.append(tracer.op_id)
            tracer.points.append(_points(args, kwargs) if counts_points else 0)
            tracer.end.append(0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = clock()
                tracer.stack.pop()
                if not getattr(exc, "__perfbench_seen__", False):
                    exc.__perfbench_seen__ = True   # count at the innermost span only
                    key = f"{module}.{type(exc).__name__}"
                    tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            tracer.end[idx] = clock()
            tracer.stack.pop()
            if is_sep:
                tracer.sep_calls += 1
                tracer.sep_bisect += not result.roots
            elif is_sweep_point:
                tracer.sweep_points += 1
                tracer.sweep_quantities += len(args[1].quantities)
            return result

        wrapper = functools.wraps(fn)(wrapper)
        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made (at any depth) inside a call of `ancestor`."""
        fid, aid = self.names.index(name), self.names.index(ancestor)
        count = 0
        for i in np.flatnonzero(np.frombuffer(self.fn, dtype=np.int32) == fid):
            p = self.parent[i]
            while p >= 0 and self.fn[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def table(self) -> dict:
        """Per-function calls, total and self time (ns), and oracle points."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(a["fn"], minlength=n)
        self_tot = np.bincount(a["fn"], weights=self_ns, minlength=n)
        points = np.bincount(a["fn"], weights=a["points"], minlength=n)

        # Points evaluated under an oracle span: walk up from each sampling span.
        oracle_ids = {i for i, nm in enumerate(self.names) if nm.startswith("oracle.")}
        oracle_points = 0
        for i in np.flatnonzero(a["points"]):
            p = a["parent"][i]
            while p >= 0 and a["fn"][p] not in oracle_ids:
                p = a["parent"][p]
            if p >= 0:
                oracle_points += int(a["points"][i])
        return {
            "functions": {
                self.names[i]: {"calls": int(calls[i]), "self_ns": float(self_tot[i]),
                                "points": int(points[i])}
                for i in range(n)
            },
            "oracle_points": oracle_points,
            "spans": int(len(dur)),
        }
