import random

import pytest

from generators import random_ontology
from ontodesc import model
from ontodesc.compound import (
    CompoundDescriptor,
    MissingTag,
    PartFailure,
    PartitionClash,
    default_factory,
    full_class,
    full_individual,
    full_property,
)
from ontodesc.descriptor import TAG_SPECS, DescriptorState, DescriptorTag, Partition, Ref
from ontodesc.model import Kind, KindMismatch, Ontology
from ontodesc.reasoner import reason
from ontodesc.syntax import load_seed, parse


class TestConstruction:
    def test_rejects_mixed_partitions(self):
        onto = parse("Class(A) Individual(x)")
        parts = [
            DescriptorState(DescriptorTag.SUB_CLASSES, onto.lookup("A"), onto),
            DescriptorState(DescriptorTag.TYPES, onto.lookup("x"), onto),
        ]
        with pytest.raises(PartitionClash):
            CompoundDescriptor(onto, onto.lookup("A"), parts)

    def test_a_ground_kind_fixes_the_partition(self):
        """Parts on one ground share a partition, so the ground check is all
        that rejects mixed partitions."""
        for kind in Kind:
            partitions = {spec.partition for spec in TAG_SPECS.values() if kind in spec.ground_kinds}
            assert len(partitions) <= 1, kind

    def test_rejects_duplicate_tags(self):
        onto = parse("Class(A)")
        a = onto.lookup("A")
        parts = [
            DescriptorState(DescriptorTag.SUB_CLASSES, a, onto),
            DescriptorState(DescriptorTag.SUB_CLASSES, a, onto),
        ]
        with pytest.raises(PartitionClash):
            CompoundDescriptor(onto, a, parts)

    def test_rejects_part_with_other_ground(self):
        onto = parse("Class(A) Class(B)")
        parts = [DescriptorState(DescriptorTag.SUB_CLASSES, onto.lookup("B"), onto)]
        with pytest.raises(PartitionClash):
            CompoundDescriptor(onto, onto.lookup("A"), parts)

    def test_rejects_part_from_other_ontology(self):
        onto = parse("Class(A)")
        other = parse("Class(A)")
        parts = [DescriptorState(DescriptorTag.SUB_CLASSES, other.lookup("A"), other)]
        with pytest.raises(PartitionClash):
            CompoundDescriptor(onto, onto.lookup("A"), parts)

    def test_rejects_empty_parts(self):
        onto = parse("Class(A)")
        with pytest.raises(PartitionClash):
            CompoundDescriptor(onto, onto.lookup("A"), [])

    def test_part_lookup(self):
        onto = parse("Class(A)")
        compound = full_class(onto, onto.lookup("A"))
        assert compound.part(DescriptorTag.INSTANCES).tag is DescriptorTag.INSTANCES
        with pytest.raises(MissingTag):
            compound.part(DescriptorTag.TYPES)
        assert compound.partition is Partition.CLASS


class TestLayouts:
    def test_full_property_on_object_property(self):
        onto = parse("ObjectProperty(p)")
        compound = full_property(onto, onto.lookup("p"))
        assert [p.tag for p in compound.parts] == [
            DescriptorTag.SUPER_PROPERTIES,
            DescriptorTag.EQUIVALENT_PROPERTIES,
            DescriptorTag.DISJOINT_PROPERTIES,
            DescriptorTag.INVERSE_PROPERTIES,
            DescriptorTag.DOMAIN,
            DescriptorTag.RANGE,
            DescriptorTag.FUNCTIONAL,
            DescriptorTag.REFLEXIVE,
            DescriptorTag.SYMMETRIC,
            DescriptorTag.TRANSITIVE,
        ]

    def test_full_property_on_data_property_drops_object_only_tags(self):
        onto = parse("DataProperty(d)")
        compound = full_property(onto, onto.lookup("d"))
        assert [p.tag for p in compound.parts] == [
            DescriptorTag.SUPER_PROPERTIES,
            DescriptorTag.EQUIVALENT_PROPERTIES,
            DescriptorTag.DISJOINT_PROPERTIES,
            DescriptorTag.DOMAIN,
            DescriptorTag.RANGE,
            DescriptorTag.FUNCTIONAL,
        ]

    def test_full_class_and_full_individual_inventories(self):
        onto = parse("Class(A) Individual(x)")
        cls = full_class(onto, onto.lookup("A"))
        assert [p.tag for p in cls.parts] == [
            DescriptorTag.DEFINITION,
            DescriptorTag.SUB_CLASSES,
            DescriptorTag.SUPER_CLASSES,
            DescriptorTag.EQUIVALENT_CLASSES,
            DescriptorTag.DISJOINT_CLASSES,
            DescriptorTag.INSTANCES,
        ]
        ind = full_individual(onto, onto.lookup("x"))
        assert [p.tag for p in ind.parts] == [
            DescriptorTag.TYPES,
            DescriptorTag.LINKS,
            DescriptorTag.SAME_AS,
            DescriptorTag.DIFFERENT_FROM,
        ]

    def test_a_ground_of_another_partition_raises_kind_mismatch(self):
        onto = parse("Class(A) ObjectProperty(p) Individual(x)")
        for layout, ground in ((full_class, "x"), (full_individual, "A"), (full_property, "A")):
            with pytest.raises(KindMismatch):
                layout(onto, onto.lookup(ground))

    def test_default_factory_dispatch(self):
        onto = parse("Class(A) ObjectProperty(p) DataProperty(d) Individual(x)")
        make = default_factory(onto)
        assert make(onto.lookup("A")).partition is Partition.CLASS
        assert make(onto.lookup("x")).partition is Partition.INDIVIDUAL
        assert make(onto.lookup("p")).partition is Partition.PROPERTY
        assert len(make(onto.lookup("d")).parts) == 6


class TestGroundSwitch:
    def test_set_ground_repoints_every_part(self):
        onto = load_seed()
        reason(onto)
        compound = full_class(onto, onto.lookup("ROOM"))
        compound.read()
        corridor = onto.lookup("CORRIDOR")
        compound.set_ground(corridor)
        assert compound.ground == corridor
        assert all(p.ground == corridor for p in compound.parts)
        # items survive the switch; a fresh read now reflects the new ground
        compound.read()
        supers = compound.part(DescriptorTag.SUPER_CLASSES).items
        assert {r.entity.iri for r in supers} == {"INDOOR"}

    def test_set_ground_wrong_kind_changes_nothing(self):
        onto = parse("ObjectProperty(p) DataProperty(d)")
        compound = full_property(onto, onto.lookup("p"))
        with pytest.raises(KindMismatch):
            compound.set_ground(onto.lookup("d"))
        assert compound.ground == onto.lookup("p")
        assert all(part.ground == onto.lookup("p") for part in compound.parts)


class TestReadWrite:
    def test_read_collects_intents_in_part_order(self):
        onto = load_seed()
        reason(onto)
        compound = full_individual(onto, onto.lookup("Robot1"))
        intents = compound.read()
        types = compound.part(DescriptorTag.TYPES).items
        assert {r.entity.iri for r in types} == {"THING", "ROBOT"}
        links = compound.part(DescriptorTag.LINKS).items
        assert [(l.prop.iri, l.filler.iri) for l in links] == [("isIn", "Corridor1")]
        assert compound.part(DescriptorTag.SAME_AS).items == []
        assert len(intents) == 3
        assert compound.read() == []

    def test_write_after_read_reaches_fixpoint(self):
        onto = load_seed()
        reason(onto)
        compound = full_individual(onto, onto.lookup("Robot1"))
        compound.read()
        first = compound.write()
        # entailed types were promoted into the asserted partition
        assert any(i.change == "add" for i in first)
        assert compound.write() == []
        reason(onto)
        compound.read()
        assert compound.write() == []

    def test_write_preserves_entailments(self):
        rng = random.Random(71)
        onto = random_ontology(rng)
        before = set(reason(onto).inferred) | set(onto.axioms())
        ind = rng.choice(onto.individuals())
        compound = full_individual(onto, ind)
        compound.read()
        compound.write()
        after = set(reason(onto).inferred) | set(onto.axioms())
        assert before == after

    def test_part_failure_carries_tag_and_prior_intents(self):
        onto = parse(
            "Class(A) Class(B) Class(C) ObjectProperty(p) "
            "DefineClass(A Some(p B)) DefineClass(A Some(p C)) SubClassOf(B A)"
        )
        reason(onto)
        a = onto.lookup("A")
        parts = [
            DescriptorState(DescriptorTag.SUB_CLASSES, a, onto),
            DescriptorState(DescriptorTag.DEFINITION, a, onto),
        ]
        compound = CompoundDescriptor(onto, a, parts)
        with pytest.raises(PartFailure) as caught:
            compound.read()
        failure = caught.value
        assert failure.tag is DescriptorTag.DEFINITION
        assert [i.axiom.tag for i in failure.intents] == [model.AxiomTag.SUB_CLASS]
        assert "failed after 1 intents" in str(failure)

    def test_failed_write_stops_at_offending_part(self):
        onto = parse("Class(A) Class(B) Individual(x)")

        class Boom(model.OntologyError):
            pass

        compound = full_individual(onto, onto.lookup("x"))
        types = compound.part(DescriptorTag.TYPES)
        types.items = [Ref(onto.lookup("A"))]

        def broken_write():
            raise Boom("no")

        compound.part(DescriptorTag.LINKS).write = broken_write
        with pytest.raises(PartFailure) as caught:
            compound.write()
        assert caught.value.tag is DescriptorTag.LINKS
        assert len(caught.value.intents) == 1
        # the part before the failure already landed
        assert model.class_assertion(onto.lookup("x"), onto.lookup("A")) in set(onto.axioms())
