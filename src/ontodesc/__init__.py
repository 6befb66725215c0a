"""Ontology toolkit with object-like descriptors.

An in-memory axiom store over a small description-logic dialect, a
plain-text format with parser and canonical serializer, a saturation
reasoner, and a descriptor layer that mirrors axioms into object-style
states with read / write / build semantics.  A CLI drives the packaged
smart-environment seed world.

`import ontodesc` loads no submodule.  A public name, or a submodule
such as `ontodesc.reasoner`, loads its module on first use (PEP 562),
so a caller pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "model": (
        "And", "Axiom", "AxiomTag", "Box", "Entity", "Kind", "KindClash", "KindMismatch",
        "Literal", "Max", "Min", "Named", "NOTHING", "Only", "Ontology", "OntologyError",
        "Or", "Some", "StaleClosure", "THING", "UnknownEntity",
    ),
    "syntax": ("ParseError", "load_seed", "parse", "parse_file", "seed_path", "serialize"),
    "reasoner": ("Closure", "Violation", "reason"),
    "descriptor": (
        "Connective", "DescriptorState", "DescriptorTag", "Intent", "Link", "MappingError",
        "Partition", "Ref", "Restriction", "UndefinedBuild", "Void", "from_axiom",
        "from_definition", "to_axiom", "to_axioms",
    ),
    "compound": (
        "CompoundDescriptor", "MissingTag", "PartFailure", "PartitionClash",
        "default_factory", "full_class", "full_individual", "full_property",
    ),
    "scenarios": (
        "PatrolConfig", "PatrolRng", "PatrolStep", "categorize_new_location", "patrol",
        "reachable_leaf_places", "setup_door_state_classes",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
