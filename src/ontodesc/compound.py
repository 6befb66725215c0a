"""Compound descriptors: one descriptor per tag, sharing a ground.

A compound bundles several DescriptorState parts for the same ground
entity, all from the same partition, at most one per tag.  read and
write run the parts in order and stop at the first failing part,
reporting the intents accumulated so far.  Three stock layouts cover
the usual shapes:

* full_property   - the property tags legal for the ground's kind,
* full_class      - definition, taxonomy neighbours, equivalents,
                    disjoints and instances,
* full_individual - types, links, sameness and distinctness.

default_factory(onto) builds whichever layout fits an entity's kind;
descriptor build() falls back to it when no factory is wired in.
"""

from __future__ import annotations

from typing import Callable

from .descriptor import PARTITION_TAGS, TAG_SPECS, DescriptorState, DescriptorTag, Intent, Partition
from .model import Entity, Ontology, OntologyError, Record


class PartitionClash(OntologyError):
    """Compound parts must all come from one partition."""


class MissingTag(OntologyError):
    """The compound has no part for the requested tag."""


class PartFailure(Record, OntologyError):
    """A part's read or write raised; carries what had happened so far:
    PartFailure(tag, intents, cause)."""

    __slots__ = ("tag", "intents", "cause")

    def __str__(self):
        return f"{self.tag.value} failed after {len(self.intents)} intents: {self.cause}"


class CompoundDescriptor:
    def __init__(self, ontology: Ontology, ground: Entity, parts: list[DescriptorState]):
        if not parts:
            raise PartitionClash("a compound needs at least one part")
        tags = [p.tag for p in parts]
        if len(set(tags)) != len(tags):
            raise PartitionClash("duplicate part tags")
        for p in parts:
            if p.ground != ground:  # so one partition too: a kind grounds one partition's tags
                raise PartitionClash(f"part {p.tag.value} grounded on {p.ground.iri}, not {ground.iri}")
            if p.ontology is not ontology:
                raise PartitionClash("parts must share the compound's ontology")
        self.ontology = ontology
        self.ground = ground
        self.parts = list(parts)

    @property
    def partition(self) -> Partition:
        return self.parts[0].tag.partition

    def part(self, tag: DescriptorTag) -> DescriptorState:
        for p in self.parts:
            if p.tag is tag:
                return p
        raise MissingTag(f"no {tag.value} part on this compound")

    def set_ground(self, entity: Entity) -> None:
        """Re-point every part at a new ground (kind-checked first)."""
        for p in self.parts:
            p._check_ground(entity)
        for p in self.parts:
            p.set_ground(entity)
        self.ground = entity

    def _run(self, op: str) -> list[Intent]:
        intents: list[Intent] = []
        for p in self.parts:
            try:
                intents.extend(getattr(p, op)())
            except OntologyError as exc:
                raise PartFailure(p.tag, intents, exc) from exc
        return intents

    def read(self) -> list[Intent]:
        return self._run("read")

    def write(self) -> list[Intent]:
        return self._run("write")


def _layout(ontology: Ontology, ground: Entity, partition: Partition) -> CompoundDescriptor:
    """The partition's tags whose ground kinds admit the ground, in part
    order.  A ground none admits gets the first tag alone, whose
    DescriptorState raises KindMismatch."""
    tags = [tag for tag in PARTITION_TAGS[partition] if ground.kind in TAG_SPECS[tag].ground_kinds]
    parts = [DescriptorState(tag, ground, ontology) for tag in tags or PARTITION_TAGS[partition][:1]]
    return CompoundDescriptor(ontology, ground, parts)


def full_property(ontology: Ontology, ground: Entity) -> CompoundDescriptor:
    """Every property tag legal for the ground's kind (data properties
    skip the object-only characteristics)."""
    return _layout(ontology, ground, Partition.PROPERTY)


def full_class(ontology: Ontology, ground: Entity) -> CompoundDescriptor:
    return _layout(ontology, ground, Partition.CLASS)


def full_individual(ontology: Ontology, ground: Entity) -> CompoundDescriptor:
    return _layout(ontology, ground, Partition.INDIVIDUAL)


# entity kind -> the partition whose tags ground on it
_PARTITION_OF = {kind: spec.partition for spec in TAG_SPECS.values() for kind in spec.ground_kinds}


def default_factory(ontology: Ontology) -> Callable[[Entity], CompoundDescriptor]:
    """Factory building the layout of an entity's partition, for descriptor build()."""
    return lambda entity: _layout(ontology, entity, _PARTITION_OF[entity.kind])
