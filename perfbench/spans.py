"""Spans around the public functions of each svb layer, for the traced run.

``Tracer.install()`` rebinds every wrapped function in each ``svb``
module that holds it (so ``svb.cli.check_frontier``,
``svb.bundle._functor_on_subspace`` and the recursive calls inside
``svb.functors.apply_to_map`` are all caught) and wraps ``__init__`` of
the three classes whose callers need the class object itself.
``uninstall()`` puts the originals back.  Spans stay in memory; the
run writes them out when it ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions wrapped in it.
FUNCTIONS = {
    "cli": ["main"],
    "jsonio": ["read_json", "write_json", "stratification_from_json",
               "stratification_to_json", "bundle_from_json", "bundle_to_json",
               "scenario_from_json", "subspace_from_json",
               "subspace_file_from_json", "group_from_json",
               "action_from_json", "fields_from_json"],
    "grassmann": ["span", "gap_distance", "containment_residual",
                  "sequence_limit", "apply_linear_map", "intersection"],
    "functors": ["apply_to_map", "apply_to_subspace", "check_orthogonality"],
    "strata": ["check_frontier", "local_finiteness_report",
               "single_linkage_components", "estimate_cloud_dim"],
    "bundle": ["validate_bundle", "whitney_a_check", "whitney_a_from_sections",
               "apply_functor_to_bundle"],
    "monoid": ["audit_axioms", "regularity_check", "vertical_derivative"],
    "equivariant": ["stabilizer", "conjugacy_label", "fixed_subspace",
                    "orbit_type_partition", "invariant_subbundle",
                    "quotient_bundle"],
    "foliation": ["distribution_at", "stratify_by_rank", "foliation_bundle",
                  "fields_as_sections"],
}
# module -> classes whose construction is a span.
CLASSES = {
    "grassmann": ["Subspace"],
    "strata": ["Stratification"],
    "equivariant": ["FiniteGroupAction"],
}
MODULES = list(FUNCTIONS)
FUNCTOR_OPS = {"Identity": "id", "ConstantSum": "const", "DirectSum": "sum",
               "TensorPower": "tensor", "WedgePower": "wedge",
               "SymPower": "sym", "Compose": "compose"}
VERBS = ["check frontier", "check whitney-a", "check orthogonality",
         "apply-functor", "monoid analyze", "equivariant tilde",
         "equivariant quotient", "foliation stratify", "foliation bundle"]


def verb_metric(verb: str) -> str:
    return "cli." + verb.replace(" ", "_").replace("-", "_") + ".p50_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for module in MODULES:
        for name in CLASSES.get(module, []) + FUNCTIONS[module]:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
        if module == "cli":
            units.update({verb_metric(v): "s" for v in VERBS})
        units[f"{module}.share"] = "1"
    units.update({f"functors.apply_to_map.{op}.self_s": "s"
                  for op in FUNCTOR_OPS.values()})
    units["functors.apply_to_subspace.distinct_ratio"] = "1"
    units["strata.check_frontier.touching_ratio"] = "1"
    units["jsonio.read_json.bytes"] = "B"
    units["jsonio.write_json.bytes"] = "B"
    units["trace.overhead_ratio"] = "1"
    return units


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    and the id of the operation it belongs to."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, op]
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # Counters taken where the work happens.
        self.bytes = defaultdict(int)
        self.fibers_seen: set = set()
        self.frontier_pairs = [0, 0]  # touching, ordered pairs examined

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, namer=None, after=None):
        fixed = self._name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [namer(args) if namer else fixed, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters -------------------------------------------------------------

    def _read_bytes(self, args, kwargs, result):
        self.bytes["read"] += os.path.getsize(args[0])

    def _write_bytes(self, args, kwargs, result):
        self.bytes["write"] += os.path.getsize(args[1])

    def _fiber_seen(self, args, kwargs, result):
        f, w = args[0], args[1]
        self.fibers_seen.add((self.op, f, w.ambient_dim, w.basis.tobytes()))

    def _frontier_seen(self, args, kwargs, result):
        n = len(args[0].strata)
        self.frontier_pairs[0] += len(result.touching_pairs)
        self.frontier_pairs[1] += n * (n - 1)

    # -- install / uninstall --------------------------------------------------

    def install(self, package) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and
                   (key == package.__name__ or
                    key.startswith(package.__name__ + "."))]
        after = {"jsonio.read_json": self._read_bytes,
                 "jsonio.write_json": self._write_bytes,
                 "functors.apply_to_subspace": self._fiber_seen,
                 "strata.check_frontier": self._frontier_seen}
        for module in MODULES:
            home = getattr(package, module)
            for name in FUNCTIONS[module]:
                full = f"{module}.{name}"
                original = getattr(home, name)
                namer = None
                if full == "functors.apply_to_map":
                    ids = {cls: self._name_id(f"{full}.{op}")
                           for cls, op in FUNCTOR_OPS.items()}
                    namer = (lambda args, ids=ids:
                             ids[type(args[0]).__name__])
                wrapper = self.wrap(full, original, namer, after.get(full))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))
            for cls_name in CLASSES.get(module, []):
                cls = getattr(home, cls_name)
                original = cls.__dict__["__init__"]
                cls.__init__ = self.wrap(f"{module}.{cls_name}", original)
                self._restore.append((cls, "__init__", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]; self time is the span minus the
        time of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[self.names[name]]
            entry[0] += 1
            entry[1] += end - start - child[i]
        return out

    def metrics(self, passes: int, traced_wall: float, overhead: float,
                verb_p50: dict[str, float]) -> dict:
        """Per-layer metrics, calls and seconds per pass; ``overhead`` is
        the traced over the untraced time of one pass."""
        values = {name: 0.0 for name in metric_units()}
        per_module = defaultdict(float)
        for name, (calls, self_s) in self.self_times().items():
            module, function = name.split(".")[:2]
            per_module[module] += self_s
            key = f"{module}.{function}"
            values[f"{key}.calls"] += calls / passes
            values[f"{key}.self_s"] += self_s / passes
            if name.count(".") == 2:
                values[f"{name}.self_s"] = self_s / passes
        for module in MODULES:
            values[f"{module}.share"] = per_module[module] / traced_wall
        for verb in VERBS:
            values[verb_metric(verb)] = verb_p50.get(verb, 0.0)
        subspace_calls = values["functors.apply_to_subspace.calls"] * passes
        if subspace_calls:
            values["functors.apply_to_subspace.distinct_ratio"] = \
                len(self.fibers_seen) / subspace_calls
        touching, examined = self.frontier_pairs
        if examined:
            values["strata.check_frontier.touching_ratio"] = \
                touching / examined
        values["jsonio.read_json.bytes"] = self.bytes["read"] / passes
        values["jsonio.write_json.bytes"] = self.bytes["write"] / passes
        values["trace.overhead_ratio"] = overhead
        return values

    def dump(self, path: str, labels: list[str]) -> None:
        """Write the spans: names, operation labels, and one
        [name, start, end, parent, op] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "ops": labels,
                       "spans": self.spans}, fh)
