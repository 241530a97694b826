"""Spans and counts recorded from outside the program.

``newton_mu`` has no instrumentation of its own, so the traced run wraps
the public functions that carry each pipeline layer.  Modules import
these functions by name (``from .polyhedra import newton_diagram``), so a
wrapper replaces every binding of the original function in every loaded
``newton_mu`` module, not only the defining one.  ``uninstall`` puts the
originals back.

Spans stay in memory until the run writes them out.  Each holds a name,
start and end (``perf_counter_ns``) and the request it belongs to.  A
layer's self time is its span's duration minus the time of the traced
spans nested in it, so self times of all layers add up to at most the
request time.  A function that recurses through its module global
(``pull_triangulate``) records only its outermost call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer name, module, attribute).  ``polyhedra.subset_volumes`` is the
# NewtonRegion method; ``cli.json`` is the benchmark's own rendering of the
# payload, the json.dumps that ``cli.main`` does.
LAYERS = (
    ("polyhedra.newton_diagram", "newton_mu.polyhedra", "newton_diagram"),
    ("geometry.pull_triangulate", "newton_mu.geometry", "pull_triangulate"),
    ("polyhedra.validate_region", "newton_mu.polyhedra", "validate_region"),
    ("polyhedra.subset_volumes", "newton_mu.polyhedra", "NewtonRegion.subset_volumes"),
    ("polyhedra.is_quasi_convenient", "newton_mu.polyhedra", "is_quasi_convenient"),
    ("newton.decompose_difference", "newton_mu.newton", "decompose_difference"),
    ("newton.newton_number", "newton_mu.newton", "newton_number"),
    ("newton.newton_number_factored", "newton_mu.newton", "newton_number_factored"),
    ("higher.r_newton_number", "newton_mu.higher", "r_newton_number"),
    ("higher.r_newton_factored", "newton_mu.higher", "r_newton_factored"),
    ("bounds.stabilized_region", "newton_mu.bounds", "stabilized_region"),
    ("family.negligible_truncation_check", "newton_mu.family", "negligible_truncation_check"),
    ("oracles.ehrhart_volume", "newton_mu.oracles", "ehrhart_volume"),
    ("oracles.shuffled_newton_number", "newton_mu.oracles", "shuffled_newton_number"),
    ("oracles.milnor_colength", "newton_mu.oracles", "milnor_colength"),
    ("parsing.parse_series", "newton_mu.parsing", "parse_series"),
    ("cli.run", "newton_mu.cli", "run"),
    ("cli.json", "workloads", "_dumps"),
)

# Counts taken from a layer's result at the same call sites.
COUNTS = {
    "polyhedra.newton_diagram": ("polyhedra.facets", lambda result: len(result.facets)),
    "geometry.pull_triangulate": ("geometry.simplices", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[list] = []  # [name, start, nested ns]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((name, frame[1], end, self.request))
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "newton_mu" or key.startswith("newton_mu.")
                                         or key == "workloads")]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
