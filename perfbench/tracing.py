"""Spans around ontodesc's public layer boundaries, installed from outside.

Tracer.install() replaces the listed functions and methods with wrappers
that record one span each: (name, start_ns, end_ns, parent index, n),
where n is a size the layer reports (axioms returned, items read,
intents written, characters parsed, ...).  Module-level functions are
rebound in every ontodesc module that imported them by value, so
``scenarios.reason`` and ``cli.serialize`` are traced as well as their
defining modules' copies.  Hot helpers such as ``Closure.subsumed_by``
are deliberately left alone.  No library file changes.

Spans stay in memory; summary() turns them into per-op metrics and
write() dumps them at the end of a run.
"""

from __future__ import annotations

import gzip
import sys
import weakref
from collections import defaultdict
from time import perf_counter_ns


def _len(args, result) -> int:
    return len(result)


def _truth(args, result) -> int:
    return int(result)


def _read_items(args, result) -> int:
    return len(args[0].items)  # the descriptor after its read


def _text_in(args, result) -> int:
    return len(args[0])


def _inferred(args, result) -> int:
    return len(result.inferred)


def _nothing(args, result) -> int:
    return 0


# (module, function, span name, size of the call)
_FUNCTIONS = [
    ("ontodesc.syntax", "parse", "syntax.parse", _text_in),
    ("ontodesc.syntax", "serialize", "syntax.serialize", _len),
    ("ontodesc.reasoner", "reason", "reasoner.reason", _inferred),
    ("ontodesc.scenarios", "patrol", "scenarios.patrol", _nothing),
    ("ontodesc.scenarios", "reachable_leaf_places", "scenarios.reachable_leaf_places", _nothing),
    ("ontodesc.scenarios", "categorize_new_location", "scenarios.categorize_new_location", _nothing),
    ("ontodesc.scenarios", "setup_door_state_classes", "scenarios.setup_door_state_classes", _nothing),
    ("ontodesc.cli", "main", "cli.main", _nothing),
]

# (module, class, method, span name, size of the call)
_METHODS = [
    ("ontodesc.model", "Ontology", "assert_axiom", "model.assert_axiom", _nothing),
    ("ontodesc.model", "Ontology", "retract_axiom", "model.retract_axiom", _nothing),
    ("ontodesc.model", "Ontology", "axioms", "model.axioms", _len),
    ("ontodesc.model", "Ontology", "axioms_about", "model.axioms_about", _len),
    ("ontodesc.reasoner", "Closure", "fillers", "reasoner.fillers", _len),
    ("ontodesc.reasoner", "Closure", "types_of", "reasoner.types_of", _len),
    ("ontodesc.reasoner", "Closure", "instances_of", "reasoner.instances_of", _len),
    ("ontodesc.reasoner", "Closure", "direct_subclasses", "reasoner.direct_subclasses", _len),
    ("ontodesc.reasoner", "Closure", "direct_superclasses", "reasoner.direct_superclasses", _len),
    ("ontodesc.reasoner", "Closure", "is_entailed", "reasoner.is_entailed", _truth),
    ("ontodesc.descriptor", "DescriptorState", "read", "descriptor.read", _read_items),
    ("ontodesc.descriptor", "DescriptorState", "write", "descriptor.write", _len),
    ("ontodesc.descriptor", "DescriptorState", "build", "descriptor.build", _len),
    ("ontodesc.descriptor", "DescriptorState", "build_property", "descriptor.build", _len),
    (
        "ontodesc.descriptor",
        "DescriptorState",
        "build_individuals_by_property",
        "descriptor.build",
        _len,
    ),
    ("ontodesc.compound", "CompoundDescriptor", "read", "compound.read", _len),
    ("ontodesc.compound", "CompoundDescriptor", "write", "compound.write", _len),
]

# per-layer metrics, in print order: name -> unit
CALL_MS = [
    "syntax.parse",
    "syntax.serialize",
    "model.assert_axiom",
    "model.retract_axiom",
    "model.axioms",
    "model.axioms_about",
    "reasoner.reason",
    "reasoner.fillers",
    "reasoner.types_of",
    "reasoner.instances_of",
    "reasoner.direct_subclasses",
    "reasoner.direct_superclasses",
    "reasoner.is_entailed",
    "descriptor.read",
    "descriptor.build",
    "descriptor.write",
    "compound.read",
    "compound.write",
]
METRICS = {}
for _name in CALL_MS:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.ms"] = "ms"
METRICS.update(
    {
        "syntax.parse.kb_per_s": "KB/s",
        "syntax.serialize.kb_per_s": "KB/s",
        "model.axioms.copied": "count",
        "model.axioms_about.hit_ratio": "ratio",
        "reasoner.reason.inferred": "count",
        "reasoner.reason.unchanged_ratio": "ratio",
        "descriptor.read.items": "count",
        "descriptor.build.built": "count",
        "descriptor.write.intents": "count",
        "descriptor.write.noop_ratio": "ratio",
        "scenarios.self_ms": "ms",
        "cli.self_ms": "ms",
        "trace.overhead_ratio": "ratio",
    }
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        # reason() runs on a world that was reasoned before: their inferred
        # axioms, and how many of those equal the previous run's
        self.rerun_inferred = 0
        self.unchanged = 0
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self._previous = weakref.WeakKeyDictionary()  # ontology -> last inferred set

    # -- installation

    def install(self) -> None:
        import importlib

        for module_name, attr, name, size in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, size)
            for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "ontodesc"]:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, key, original))
                        setattr(other, key, wrapper)
        for module_name, cls_name, attr, name, size in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, size))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, size):
        tracer = self
        is_reason = name == "reasoner.reason"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._open
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                n = size(args, result) if result is not None else 0
                spans[index] = (name, start, end, parent, n)
                if is_reason and result is not None:
                    tracer._note_reason(args[0], result.inferred)

        traced.__wrapped__ = fn
        return traced

    def _note_reason(self, onto, inferred) -> None:
        previous = self._previous.get(onto)
        if previous is not None:
            self.rerun_inferred += len(inferred)
            self.unchanged += len(inferred & previous)
        self._previous[onto] = inferred

    # -- results

    def summary(self, ops: int, overhead_ratio: float, scale: float) -> dict:
        """Per-op metrics over every span recorded so far.

        Span times are multiplied by `scale`, the traced ops' scaled over
        wall time, so layer times share the end-to-end metrics' speed.
        """
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        sizes = defaultdict(int)
        for name, start, end, parent, n in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            sizes[name] += n
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        # axioms_about scans what its own axioms() calls hand it
        scanned = sum(
            n
            for name, _, _, parent, n in self.spans
            if name == "model.axioms" and parent >= 0 and self.spans[parent][0] == "model.axioms_about"
        )
        writes = [n for name, _, _, _, n in self.spans if name == "descriptor.write"]

        def per_op(value):
            return value / ops

        def ms(ns):
            return ns * scale / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        def kb_per_s(name):
            return ratio(sizes[name] / 1024, ms(self_ns[name]) / 1e3)

        out = {}
        for name in CALL_MS:
            out[f"{name}.calls"] = per_op(calls[name])
            out[f"{name}.ms"] = per_op(ms(self_ns[name]))
        out["syntax.parse.kb_per_s"] = kb_per_s("syntax.parse")
        out["syntax.serialize.kb_per_s"] = kb_per_s("syntax.serialize")
        out["model.axioms.copied"] = per_op(sizes["model.axioms"])
        # with no scan under axioms_about, every axiom it looked at was returned
        returned = sizes["model.axioms_about"]
        out["model.axioms_about.hit_ratio"] = ratio(returned, scanned) if scanned else float(bool(returned))
        out["reasoner.reason.inferred"] = per_op(sizes["reasoner.reason"])
        out["reasoner.reason.unchanged_ratio"] = ratio(self.unchanged, self.rerun_inferred)
        out["descriptor.read.items"] = per_op(sizes["descriptor.read"])
        out["descriptor.build.built"] = per_op(sizes["descriptor.build"])
        out["descriptor.write.intents"] = per_op(sizes["descriptor.write"])
        out["descriptor.write.noop_ratio"] = ratio(sum(1 for n in writes if n == 0), len(writes))
        out["scenarios.self_ms"] = per_op(
            ms(sum(v for k, v in self_ns.items() if k.startswith("scenarios.")))
        )
        out["cli.self_ms"] = per_op(ms(self_ns["cli.main"]))
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in METRICS}

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tn\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
