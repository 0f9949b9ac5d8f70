"""Layer tracing from outside the program.

Each layer is a module of the package.  Its public entry points are replaced,
at every module that holds a reference to them, by wrappers that record a
span (name, start, end, parent span, op id) and feed a few counters.  Nothing
in the package changes; ``uninstall`` puts the original functions back, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ENTRY_POINTS = {
    "groups": ("group_from_json", "are_isomorphic"),
    "lattice": ("all_subgroups", "center", "commutator_subgroup",
                "minimal_generator_count", "is_nilpotent"),
    "divisions": ("conjugacy_classes", "divisions"),
    "ust": ("division_graph", "verify_lagarias", "right_cosets"),
    "canon": ("canonical_form",),
    "analysis": ("analyze", "certificate", "compare", "conjecture_scan"),
    "cli": ("run",),
}
LAYERS = tuple(ENTRY_POINTS)

#: Counters that must repeat exactly for one seed.
DETERMINISTIC = ("canon.nodes", "canon.automorphisms", "ust.coset_spaces_built",
                 "lattice.subgroups", "analysis.certificates")


class PassCounters:
    """Counts made at the layer boundaries during one pass."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.input_groups = {}   # id -> Group, kept alive so ids stay unique
        self.lattice_builds = 0
        self.subgroups = 0
        self.division_builds = 0
        self.coset_spaces = 0
        self.coset_pairs = set()
        self.ust_vertices = 0
        self.canon_nodes = 0
        self.canon_automorphisms = 0
        self.canon_vertices = 0
        self.certificates = 0
        self.isomorphism_tests = 0

    def observe(self, layer, name, args, result):
        self.calls[layer] += 1
        if name == "group_from_json":
            self.input_groups[id(result)] = result
        elif name == "are_isomorphic":
            self.isomorphism_tests += 1
        elif name == "all_subgroups":
            self.lattice_builds += 1
            self.subgroups += len(result.subgroups)
        elif name == "divisions":
            self.division_builds += 1
        elif name == "right_cosets":
            self.coset_spaces += 1
            self.coset_pairs.add((id(args[0]), args[2]))
        elif name == "division_graph":
            self.ust_vertices += sum(c.vertex_count() for _, c in result.components)
        elif name == "canonical_form":
            self.canon_nodes += result.nodes
            self.canon_automorphisms += len(result.automorphisms)
            self.canon_vertices += args[0]
        elif name == "certificate":
            self.certificates += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        groups = len(self.input_groups)
        out = {f"{layer}.calls": (self.calls[layer], "count") for layer in LAYERS}
        out.update({
            "lattice.subgroups": (self.subgroups, "count"),
            "lattice.builds_per_group": (_ratio(self.lattice_builds, groups), "ratio"),
            "divisions.builds_per_group": (_ratio(self.division_builds, groups), "ratio"),
            "ust.coset_spaces_built": (self.coset_spaces, "count"),
            "ust.coset_space_reuse": (_ratio(len(self.coset_pairs), self.coset_spaces), "ratio"),
            "ust.vertices": (self.ust_vertices, "count"),
            "canon.nodes": (self.canon_nodes, "count"),
            "canon.automorphisms": (self.canon_automorphisms, "count"),
            "canon.vertices": (self.canon_vertices, "count"),
            "canon.nodes_per_vertex": (_ratio(self.canon_nodes, self.canon_vertices), "ratio"),
            "analysis.certificates": (self.certificates, "count"),
            "analysis.certificates_per_group": (_ratio(self.certificates, groups), "ratio"),
            "groups.are_isomorphic_calls": (self.isomorphism_tests, "count"),
        })
        return out


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Spans of every traced pass, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op id]
        self.ops = []         # op id -> [pass index, op index]
        self._stack = []
        self._installed = []  # (module, attribute, original)
        self.counters = PassCounters()

    def start_pass(self):
        self.counters = PassCounters()
        return len(self.spans)

    def start_op(self, pass_index, op_index):
        self.ops.append([pass_index, op_index])

    def install(self):
        originals = {}
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"divgraph.{layer}"]
            for name in names:
                originals[id(getattr(module, name))] = (layer, name)
        for modname, module in list(sys.modules.items()):
            if modname != "divgraph" and not modname.startswith("divgraph."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    layer, name = originals[id(value)]
                    setattr(module, attr, self._wrap(layer, name, value))
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        label = f"{layer}.{name}"

        def traced(*args, **kwargs):
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1,
                    len(self.ops) - 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self.counters.observe(layer, name, args, result)
            return result

        return traced

    def self_times(self, first_span: int) -> dict[str, float]:
        """Seconds per layer from spans ``first_span`` on, children excluded."""
        child = {}
        for name, start, end, parent, _ in self.spans[first_span:]:
            if parent >= first_span:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans[first_span:], first_span):
            out[name.split(".", 1)[0]] += (end - start) - child.get(i, 0.0)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "ops": self.ops,
            "spans": self.spans,
        }), encoding="utf-8")
