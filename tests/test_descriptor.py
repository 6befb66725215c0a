import copy
import pickle
import random

import pytest

from generators import chained_ontology, pick_ground, random_ontology, random_triple, vocabulary
from oracles import entailed_axioms
from ontodesc import model
from ontodesc.descriptor import (
    Connective,
    DescriptorState,
    DescriptorTag,
    GroundMismatch,
    IllegalItem,
    Intent,
    Link,
    MappingError,
    Partition,
    Ref,
    Restriction,
    TAG_SPECS,
    TagMismatch,
    UndefinedBuild,
    UnsupportedRestriction,
    Void,
    expression_to_restrictions,
    from_axiom,
    from_definition,
    restrictions_to_expression,
    to_axiom,
    to_axioms,
)
from ontodesc.model import And, AxiomTag, Kind, Literal, Max, Min, Named, Only, Ontology, Or, Role, Some
from ontodesc.reasoner import Changes, Violation, reason
from ontodesc.scenarios import PatrolConfig, PatrolStep
from ontodesc.syntax import parse


def small_world():
    onto = parse(
        "Class(A) Class(B) Class(C) ObjectProperty(p) ObjectProperty(q) "
        "DataProperty(d) Individual(x) Individual(y)"
    )
    return onto


class TestMappingPerTag:
    def test_every_tag_round_trips_one_item(self):
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        p, q = onto.lookup("p"), onto.lookup("q")
        x, y = onto.lookup("x"), onto.lookup("y")
        cases = [
            (DescriptorTag.SUPER_PROPERTIES, p, Ref(q)),
            (DescriptorTag.EQUIVALENT_PROPERTIES, p, Ref(q)),
            (DescriptorTag.DISJOINT_PROPERTIES, p, Ref(q)),
            (DescriptorTag.INVERSE_PROPERTIES, p, Ref(q)),
            (DescriptorTag.DOMAIN, p, Ref(a)),
            (DescriptorTag.RANGE, p, Ref(b)),
            (DescriptorTag.FUNCTIONAL, p, Void()),
            (DescriptorTag.REFLEXIVE, p, Void()),
            (DescriptorTag.SYMMETRIC, p, Void()),
            (DescriptorTag.TRANSITIVE, p, Void()),
            (DescriptorTag.SUB_CLASSES, a, Ref(b)),
            (DescriptorTag.SUPER_CLASSES, a, Ref(b)),
            (DescriptorTag.EQUIVALENT_CLASSES, a, Ref(b)),
            (DescriptorTag.DISJOINT_CLASSES, a, Ref(b)),
            (DescriptorTag.INSTANCES, a, Ref(x)),
            (DescriptorTag.TYPES, x, Ref(a)),
            (DescriptorTag.LINKS, x, Link(p, y)),
            (DescriptorTag.SAME_AS, x, Ref(y)),
            (DescriptorTag.DIFFERENT_FROM, x, Ref(y)),
        ]
        assert len(cases) == 19
        for tag, ground, item in cases:
            axiom = to_axiom(tag, ground, item)
            assert from_axiom(tag, ground, axiom) == item

    def test_sub_and_super_class_tags_orient_the_same_axiom(self):
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        below = to_axiom(DescriptorTag.SUB_CLASSES, a, Ref(b))
        above = to_axiom(DescriptorTag.SUPER_CLASSES, a, Ref(b))
        assert below == model.sub_class(b, a)
        assert above == model.sub_class(a, b)

    def test_instances_and_types_orient_the_same_axiom(self):
        onto = small_world()
        a, x = onto.lookup("A"), onto.lookup("x")
        axiom = model.class_assertion(x, a)
        assert to_axiom(DescriptorTag.INSTANCES, a, Ref(x)) == axiom
        assert to_axiom(DescriptorTag.TYPES, x, Ref(a)) == axiom
        assert from_axiom(DescriptorTag.INSTANCES, a, axiom) == Ref(x)
        assert from_axiom(DescriptorTag.TYPES, x, axiom) == Ref(a)

    def test_link_with_literal_filler(self):
        onto = small_world()
        d, x = onto.lookup("d"), onto.lookup("x")
        item = Link(d, Literal(3))
        axiom = to_axiom(DescriptorTag.LINKS, x, item)
        assert from_axiom(DescriptorTag.LINKS, x, axiom) == item

    def test_wrong_item_variant_rejected(self):
        onto = small_world()
        a, p, x = onto.lookup("A"), onto.lookup("p"), onto.lookup("x")
        with pytest.raises(IllegalItem):
            to_axiom(DescriptorTag.LINKS, x, Ref(a))
        with pytest.raises(IllegalItem):
            to_axiom(DescriptorTag.TYPES, x, Link(p, x))
        with pytest.raises(IllegalItem):
            to_axiom(DescriptorTag.FUNCTIONAL, p, Ref(a))

    def test_domain_and_range_refuse_restriction_items(self):
        """DOMAIN and RANGE hold Ref items: a restriction, named or not,
        is the wrong item variant however it reaches the descriptor."""
        onto = small_world()
        a, p = onto.lookup("A"), onto.lookup("p")
        for item in (Restriction(Connective.END, Named(a)), Restriction(Connective.INTERSECT, Some(p, a))):
            for tag in (DescriptorTag.DOMAIN, DescriptorTag.RANGE):
                with pytest.raises(IllegalItem):
                    to_axiom(tag, p, item)
                with pytest.raises(IllegalItem):
                    DescriptorState(tag, p, onto, items=[item])
                with pytest.raises(IllegalItem):
                    DescriptorState(tag, p, onto).add(item)

    def test_tag_and_ground_mismatches(self):
        onto = small_world()
        a, b, c = onto.lookup("A"), onto.lookup("B"), onto.lookup("C")
        x = onto.lookup("x")
        with pytest.raises(TagMismatch):
            from_axiom(DescriptorTag.TYPES, x, model.sub_class(a, b))
        with pytest.raises(GroundMismatch):
            equivalent = model.AXIOM_FACTORIES[AxiomTag.EQUIVALENT_CLASSES](a, b)
            from_axiom(DescriptorTag.EQUIVALENT_CLASSES, c, equivalent)
        with pytest.raises(GroundMismatch):
            from_axiom(DescriptorTag.TYPES, x, model.class_assertion(onto.lookup("y"), a))
        with pytest.raises(GroundMismatch):
            from_axiom(DescriptorTag.SUB_CLASSES, a, model.sub_class(a, b))
        with pytest.raises(GroundMismatch):
            from_axiom(DescriptorTag.INSTANCES, a, model.class_assertion(x, b))


# Per tag: asserted axioms with the ground ("Mid", "mid" or "mid1") in the
# tag's ground position, then same-tag axioms the ground's descriptor does
# not own.  Pair members sort on both sides of the ground.
_GROUND_WORLD = (
    "Class(A) Class(Mid) Class(Z) ObjectProperty(a) ObjectProperty(mid) ObjectProperty(z) "
    "Individual(a1) Individual(mid1) Individual(z1) "
)
_GROUND_CASES = {
    DescriptorTag.SUPER_PROPERTIES: ("mid", "SubPropertyOf(mid z)", "SubPropertyOf(a mid)"),
    DescriptorTag.EQUIVALENT_PROPERTIES: (
        "mid",
        "EquivalentProperties(a mid) EquivalentProperties(mid z)",
        "EquivalentProperties(a z)",
    ),
    DescriptorTag.DISJOINT_PROPERTIES: (
        "mid",
        "DisjointProperties(a mid) DisjointProperties(mid z)",
        "DisjointProperties(a z)",
    ),
    DescriptorTag.INVERSE_PROPERTIES: (
        "mid",
        "InverseProperties(a mid) InverseProperties(mid z)",
        "InverseProperties(a z)",
    ),
    DescriptorTag.DOMAIN: ("mid", "PropertyDomain(mid Mid)", "PropertyDomain(a Mid)"),
    DescriptorTag.RANGE: ("mid", "PropertyRange(mid Mid)", "PropertyRange(a Mid)"),
    DescriptorTag.FUNCTIONAL: ("mid", "FunctionalProperty(mid)", "FunctionalProperty(a)"),
    DescriptorTag.REFLEXIVE: ("mid", "ReflexiveProperty(mid)", "ReflexiveProperty(a)"),
    DescriptorTag.SYMMETRIC: ("mid", "SymmetricProperty(mid)", "SymmetricProperty(a)"),
    DescriptorTag.TRANSITIVE: ("mid", "TransitiveProperty(mid)", "TransitiveProperty(a)"),
    DescriptorTag.SUB_CLASSES: ("Mid", "SubClassOf(A Mid)", "SubClassOf(Mid Z)"),
    DescriptorTag.SUPER_CLASSES: ("Mid", "SubClassOf(Mid Z)", "SubClassOf(A Mid)"),
    DescriptorTag.EQUIVALENT_CLASSES: (
        "Mid",
        "EquivalentClasses(A Mid) EquivalentClasses(Mid Z)",
        "EquivalentClasses(A Z)",
    ),
    DescriptorTag.DISJOINT_CLASSES: (
        "Mid",
        "DisjointClasses(A Mid) DisjointClasses(Mid Z)",
        "DisjointClasses(A Z)",
    ),
    DescriptorTag.INSTANCES: ("Mid", "ClassAssertion(Mid a1)", "ClassAssertion(A a1)"),
    DescriptorTag.TYPES: ("mid1", "ClassAssertion(A mid1)", "ClassAssertion(A a1)"),
    DescriptorTag.LINKS: ("mid1", "PropertyAssertion(a mid1 z1)", "PropertyAssertion(a a1 mid1)"),
    DescriptorTag.SAME_AS: ("mid1", "SameIndividual(a1 mid1) SameIndividual(mid1 z1)", "SameIndividual(a1 z1)"),
    DescriptorTag.DIFFERENT_FROM: (
        "mid1",
        "DifferentIndividuals(a1 mid1) DifferentIndividuals(mid1 z1)",
        "DifferentIndividuals(a1 z1)",
    ),
}


@pytest.mark.parametrize(
    "tag", [t for t in DescriptorTag if t is not DescriptorTag.DEFINITION], ids=lambda t: t.value
)
def test_empty_write_retracts_exactly_the_ground_position(tag):
    ground, owned, foreign = _GROUND_CASES[tag]
    owned_axioms = set(parse(_GROUND_WORLD + owned).axioms())
    foreign_axioms = set(parse(_GROUND_WORLD + foreign).axioms())
    assert len({a.tag for a in owned_axioms | foreign_axioms}) == 1
    onto = parse(_GROUND_WORLD + owned + " " + foreign)
    intents = DescriptorState(tag, onto.lookup(ground), onto).write()
    assert {(i.change, i.axiom) for i in intents} == {("remove", a) for a in owned_axioms}
    assert set(onto.axioms()) == foreign_axioms


class TestDefinitionMapping:
    def test_intersection_binds_tighter_than_union(self):
        onto = small_world()
        a, b, c = onto.lookup("A"), onto.lookup("B"), onto.lookup("C")
        p = onto.lookup("p")
        items = [
            Restriction(Connective.INTERSECT, Named(b)),
            Restriction(Connective.UNION, Some(p, c)),
            Restriction(Connective.END, Min(2, p, b)),
        ]
        expr = restrictions_to_expression(items)
        assert expr == Or((And((Named(b), Some(p, c))), Min(2, p, b)))
        assert expression_to_restrictions(expr) == items

    def test_whole_list_maps_to_one_axiom(self):
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        items = [
            Restriction(Connective.INTERSECT, Named(b)),
            Restriction(Connective.END, Max(1, onto.lookup("p"), b)),
        ]
        axioms = to_axioms(DescriptorTag.DEFINITION, a, items)
        assert len(axioms) == 1
        assert from_definition(a, axioms[0]) == items

    def test_empty_definition_maps_to_no_axioms(self):
        onto = small_world()
        assert to_axioms(DescriptorTag.DEFINITION, onto.lookup("A"), []) == []

    def test_connective_discipline(self):
        onto = small_world()
        b = onto.lookup("B")
        with pytest.raises(MappingError):
            restrictions_to_expression([Restriction(Connective.INTERSECT, Named(b))])
        with pytest.raises(MappingError):
            restrictions_to_expression([
                Restriction(Connective.END, Named(b)),
                Restriction(Connective.END, Named(b)),
            ])

    def test_malformed_restriction_payload(self):
        """The atom is an instance of a model atom class: not the class,
        not a bare entity, not a connective's expression."""
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        for atom in (Named, a, And((Named(a), Named(b))), Or((Named(a), Named(b)))):
            with pytest.raises(UnsupportedRestriction):
                Restriction(Connective.END, atom)

    def test_restriction_enums_checked(self):
        onto = small_world()
        a, p = onto.lookup("A"), onto.lookup("p")
        with pytest.raises(MappingError):
            Restriction(Connective.END, "some")
        with pytest.raises(MappingError):
            Restriction("end", Some(p, a))

    def test_single_atom_definition(self):
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        items = [Restriction(Connective.END, Named(b))]
        [axiom] = to_axioms(DescriptorTag.DEFINITION, a, items)
        assert axiom == model.class_definition(a, Named(b))
        assert from_definition(a, axiom) == items


class TestBijectionSweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_triples_round_trip(self, seed):
        rng = random.Random(seed)
        onto = vocabulary(rng)
        for _ in range(200):
            tag, ground, payload = random_triple(rng, onto)
            if tag is DescriptorTag.DEFINITION:
                axioms = to_axioms(tag, ground, payload)
                assert len(axioms) == 1
                assert from_definition(ground, axioms[0]) == payload
            else:
                axiom = to_axiom(tag, ground, payload)
                assert from_axiom(tag, ground, axiom) == payload


class TestReadWrite:
    def test_types_read_lists_every_entailed_class(self, reasoned_seed):
        room1 = reasoned_seed.lookup("Room1")
        d = DescriptorState(DescriptorTag.TYPES, room1, reasoned_seed)
        intents = d.read()
        got = {r.entity.iri for r in d.items}
        assert got == {"THING", "LOCATION", "INDOOR", "ROOM"}
        assert all(i.direction == "read" and i.change == "add" for i in intents)
        assert len(intents) == 4
        assert d.read() == []  # idempotent

    def test_read_replaces_wrong_prepopulation(self, reasoned_seed):
        room1 = reasoned_seed.lookup("Room1")
        wrong = reasoned_seed.lookup("CORRIDOR")
        d = DescriptorState(DescriptorTag.TYPES, room1, reasoned_seed, items=[Ref(wrong)])
        intents = d.read()
        removes = [i for i in intents if i.change == "remove"]
        assert len(removes) == 1 and removes[0].axiom == model.class_assertion(room1, wrong)
        assert Ref(wrong) not in d.items

    def test_sub_classes_read_uses_direct_neighbours_and_sentinels(self, reasoned_seed):
        indoor = reasoned_seed.lookup("INDOOR")
        d = DescriptorState(DescriptorTag.SUB_CLASSES, indoor, reasoned_seed)
        d.read()
        assert {r.entity.iri for r in d.items} == {"ROOM", "CORRIDOR"}
        leaf = DescriptorState(DescriptorTag.SUB_CLASSES, reasoned_seed.lookup("ROOM"), reasoned_seed)
        leaf.read()
        assert [r.entity.iri for r in leaf.items] == ["NOTHING"]
        root = DescriptorState(DescriptorTag.SUPER_CLASSES, reasoned_seed.lookup("LOCATION"), reasoned_seed)
        root.read()
        assert [r.entity.iri for r in root.items] == ["THING"]
        bottom = DescriptorState(DescriptorTag.SUB_CLASSES, model.NOTHING, reasoned_seed)
        bottom.read()
        assert bottom.items == []

    def test_read_requires_fresh_closure(self):
        onto = small_world()
        d = DescriptorState(DescriptorTag.TYPES, onto.lookup("x"), onto)
        with pytest.raises(model.StaleClosure):
            d.read()

    @pytest.mark.parametrize("tag", list(DescriptorTag), ids=lambda tag: tag.value)
    def test_every_tag_reads_only_a_fresh_closure(self, tag):
        onto = small_world()
        ground = onto.lookup({Partition.PROPERTY: "p", Partition.CLASS: "A"}.get(tag.partition, "x"))
        reason(onto)
        onto.assert_axiom(model.class_assertion(onto.lookup("y"), onto.lookup("B")))
        with pytest.raises(model.StaleClosure):
            DescriptorState(tag, ground, onto).read()

    def test_descriptor_enums_hash_by_identity(self):
        for enum in (DescriptorTag, Partition, Connective):
            assert enum.__hash__ is object.__hash__

    def test_write_makes_asserted_projection_exact(self):
        onto = small_world()
        a, b, x = onto.lookup("A"), onto.lookup("B"), onto.lookup("x")
        onto.assert_axiom(model.class_assertion(x, a))
        d = DescriptorState(DescriptorTag.TYPES, x, onto, items=[Ref(b)])
        intents = d.write()
        assert {(i.change, i.axiom) for i in intents} == {
            ("add", model.class_assertion(x, b)),
            ("remove", model.class_assertion(x, a)),
        }
        asserted = set(onto.axioms())
        assert model.class_assertion(x, b) in asserted
        assert model.class_assertion(x, a) not in asserted
        assert d.write() == []  # idempotent

    def test_write_returns_its_intents_in_repr_order(self):
        """Adds, then removes, each in the order of the axioms' repr,
        whatever the order of the items."""
        onto = parse("Class(A) Class(B) Class(C) Class(D) Class(E) Individual(x)")
        x = onto.lookup("x")
        a, b, c, d, e = (onto.lookup(iri) for iri in "ABCDE")
        for cls in (e, d):
            onto.assert_axiom(model.class_assertion(x, cls))
        descriptor = DescriptorState(DescriptorTag.TYPES, x, onto, items=[Ref(c), Ref(a), Ref(b)])
        intents = descriptor.write()
        assert [(i.change, i.axiom) for i in intents] == [
            ("add", model.class_assertion(x, a)),
            ("add", model.class_assertion(x, b)),
            ("add", model.class_assertion(x, c)),
            ("remove", model.class_assertion(x, d)),
            ("remove", model.class_assertion(x, e)),
        ]
        for change in ("add", "remove"):
            axioms = [i.axiom for i in intents if i.change == change]
            assert axioms == sorted(axioms, key=repr)

    def test_write_only_touches_its_own_projection(self):
        onto = small_world()
        a, x, y = onto.lookup("A"), onto.lookup("x"), onto.lookup("y")
        other = model.class_assertion(y, a)
        onto.assert_axiom(other)
        d = DescriptorState(DescriptorTag.TYPES, x, onto, items=[Ref(a)])
        d.write()
        assert other in set(onto.axioms())

    def test_write_auto_declares_entities(self):
        onto = Ontology()
        cls = model.Entity(Kind.CLASS, "Fresh")
        ind = model.Entity(Kind.INDIVIDUAL, "newcomer")
        d = DescriptorState(DescriptorTag.TYPES, ind, onto, items=[Ref(cls)])
        d.write()
        assert onto.lookup("Fresh").kind is Kind.CLASS
        assert onto.lookup("newcomer").kind is Kind.INDIVIDUAL

    def test_a_write_that_does_not_render_declares_nothing(self):
        """An individual is no type: the write raises before it declares
        zz, so the store and its Closure stay as they were."""
        onto = small_world()
        reason(onto)
        zz = model.Entity(Kind.INDIVIDUAL, "zz")
        d = DescriptorState(DescriptorTag.TYPES, onto.lookup("x"), onto, items=[Ref(zz)])
        with pytest.raises(model.KindMismatch):
            d.write()
        assert onto.maybe_lookup("zz") is None
        assert not onto.stale

    def test_a_write_that_clashes_declares_nothing(self):
        """x is an individual, so Ref(Class x) clashes with the vocabulary.
        Every entity the write adds is checked before the first is
        declared, so NewC, whose axiom comes first, stays undeclared."""
        onto = small_world()
        reason(onto)
        new_c, x_as_class = model.Entity(Kind.CLASS, "NewC"), model.Entity(Kind.CLASS, "x")
        d = DescriptorState(DescriptorTag.TYPES, onto.lookup("y"), onto, items=[Ref(new_c), Ref(x_as_class)])
        with pytest.raises(model.KindClash):
            d.write()
        assert onto.maybe_lookup("NewC") is None
        assert not onto.stale

    def test_an_item_appended_after_a_read_is_still_checked(self):
        """Only an item the read found takes the read's axiom; any other
        appended straight to Y meets every check on write, an unhashable
        non-item too."""
        onto = small_world()
        x, y, p = onto.lookup("x"), onto.lookup("y"), onto.lookup("p")
        onto.assert_axiom(model.class_assertion(x, onto.lookup("A")))
        reason(onto)
        before = set(onto.axioms())
        for illegal, error in ((Link(p, y), IllegalItem), (Ref(y), model.KindMismatch), ({}, IllegalItem)):
            d = DescriptorState(DescriptorTag.TYPES, x, onto)
            d.read()
            d.items.append(illegal)
            with pytest.raises(error):
                d.write()
            assert set(onto.axioms()) == before
            assert not onto.stale

    def test_a_write_after_set_ground_renders_for_the_new_ground(self):
        """set_ground forgets the last read: read on x, re-grounded on y,
        the write asserts y's axioms and none of x's."""
        onto = small_world()
        a, x, y = onto.lookup("A"), onto.lookup("x"), onto.lookup("y")
        onto.assert_axiom(model.class_assertion(x, a))
        reason(onto)
        d = DescriptorState(DescriptorTag.TYPES, x, onto)
        d.read()
        assert d.items == [Ref(a), Ref(model.THING)]
        d.set_ground(y)
        intents = d.write()
        assert [(i.change, i.axiom) for i in intents] == [
            ("add", model.class_assertion(y, a)),
            ("add", model.class_assertion(y, model.THING)),
        ]
        assert onto.axioms_about(model.AxiomTag.CLASS_ASSERTION, x) == {model.class_assertion(x, a)}

    def test_write_marks_closure_stale(self):
        onto = small_world()
        reason(onto)
        d = DescriptorState(DescriptorTag.TYPES, onto.lookup("x"), onto, items=[Ref(onto.lookup("A"))])
        d.write()
        assert onto.stale

    def test_definition_read_write_round_trip(self):
        onto = parse(
            "Class(A) Class(B) ObjectProperty(p) DefineClass(A Or(B Min(2 p B)))"
        )
        reason(onto)
        a = onto.lookup("A")
        d = DescriptorState(DescriptorTag.DEFINITION, a, onto)
        d.read()
        assert [type(r.atom) for r in d.items] == [Named, Min]
        assert [r.connective for r in d.items] == [Connective.UNION, Connective.END]
        before = set(onto.axioms())
        assert d.write() == []
        assert set(onto.axioms()) == before

    def test_definition_with_a_repeated_atom_copies_unchanged(self):
        onto = parse("Class(A) Class(B) Class(C) Class(D) DefineClass(D Or(And(A B) And(A C)))")
        reason(onto)
        d = onto.lookup("D")
        original = DescriptorState(DescriptorTag.DEFINITION, d, onto)
        original.read()
        assert [r.atom.cls.iri for r in original.items] == ["A", "B", "A", "C"]
        copy = DescriptorState(DescriptorTag.DEFINITION, d, onto, items=list(original.items))
        assert copy.items == original.items
        before = set(onto.axioms())
        assert copy.write() == []
        assert set(onto.axioms()) == before

    def test_definition_read_rejects_two_definitions(self):
        onto = parse(
            "Class(A) Class(B) Class(C) ObjectProperty(p) "
            "DefineClass(A Some(p B)) DefineClass(A Some(p C))"
        )
        reason(onto)
        d = DescriptorState(DescriptorTag.DEFINITION, onto.lookup("A"), onto)
        with pytest.raises(MappingError):
            d.read()

    def test_ground_kind_checked(self):
        onto = small_world()
        with pytest.raises(model.KindMismatch):
            DescriptorState(DescriptorTag.TYPES, onto.lookup("A"), onto)
        with pytest.raises(model.KindMismatch):
            DescriptorState(DescriptorTag.INVERSE_PROPERTIES, onto.lookup("d"), onto)

    def test_ground_kinds_per_tag(self):
        props = (Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY)
        objects, classes, individuals = (Kind.OBJECT_PROPERTY,), (Kind.CLASS,), (Kind.INDIVIDUAL,)
        expected = {
            DescriptorTag.SUPER_PROPERTIES: props,
            DescriptorTag.EQUIVALENT_PROPERTIES: props,
            DescriptorTag.DISJOINT_PROPERTIES: props,
            DescriptorTag.INVERSE_PROPERTIES: objects,
            DescriptorTag.DOMAIN: props,
            DescriptorTag.RANGE: props,
            DescriptorTag.FUNCTIONAL: props,
            DescriptorTag.REFLEXIVE: objects,
            DescriptorTag.SYMMETRIC: objects,
            DescriptorTag.TRANSITIVE: objects,
            DescriptorTag.DEFINITION: classes,
            DescriptorTag.SUB_CLASSES: classes,
            DescriptorTag.SUPER_CLASSES: classes,
            DescriptorTag.EQUIVALENT_CLASSES: classes,
            DescriptorTag.DISJOINT_CLASSES: classes,
            DescriptorTag.INSTANCES: classes,
            DescriptorTag.TYPES: individuals,
            DescriptorTag.LINKS: individuals,
            DescriptorTag.SAME_AS: individuals,
            DescriptorTag.DIFFERENT_FROM: individuals,
        }
        assert {tag: spec.ground_kinds for tag, spec in TAG_SPECS.items()} == expected
        # a kind check only: a datatype is a class-kind ground
        DescriptorState(DescriptorTag.SUB_CLASSES, model.DT_STRING, small_world())

    def test_items_deduplicate_preserving_order(self):
        onto = small_world()
        a, b, x = onto.lookup("A"), onto.lookup("B"), onto.lookup("x")
        d = DescriptorState(DescriptorTag.TYPES, x, onto, items=[Ref(b), Ref(a), Ref(b)])
        assert d.items == [Ref(b), Ref(a)]
        assert d.add(Ref(a)) is False
        assert d.remove(Ref(a)) is True
        assert d.remove(Ref(a)) is False

    @pytest.mark.parametrize("tag", [DescriptorTag.TYPES, DescriptorTag.DEFINITION])
    @pytest.mark.parametrize("given", [0, 1])
    def test_a_state_does_not_alias_the_callers_items(self, tag, given):
        """The state copies the list it is given, empty or not: editing
        either leaves the other as it was."""
        onto = small_world()
        a, b, c = onto.lookup("A"), onto.lookup("B"), onto.lookup("C")
        if tag is DescriptorTag.TYPES:
            ground, item, other = onto.lookup("x"), Ref(a), Ref(b)
        else:
            ground, item, other = c, Restriction(Connective.END, Named(a)), Restriction(Connective.END, Named(b))
        items = [item] * given
        d = DescriptorState(tag, ground, onto, items=items)
        assert d.items == items and d.items is not items
        d.add(other)
        assert items == [item] * given
        items.append(other)
        assert d.items == [item] * given + [other]

    def test_definition_items_keep_repeats(self):
        onto = small_world()
        a, b = onto.lookup("A"), onto.lookup("B")
        first = Restriction(Connective.INTERSECT, Named(a))
        items = [first, Restriction(Connective.UNION, Named(b)), first]
        d = DescriptorState(DescriptorTag.DEFINITION, onto.lookup("C"), onto, items=list(items))
        assert d.items == items
        assert d.add(first) is True
        assert d.items == items + [first]


class TestIntentCompleteness:
    @pytest.mark.parametrize("seed", range(12))
    def test_read_intents_equal_symmetric_difference(self, seed):
        rng = random.Random(4000 + seed)
        onto = random_ontology(rng)
        reason(onto)
        individuals = onto.individuals()
        ind = rng.choice(individuals)
        d = DescriptorState(DescriptorTag.TYPES, ind, onto)
        before = set(d.items)
        intents = d.read()
        after = set(d.items)
        assert len(intents) == len(before ^ after)


class TestBuild:
    def test_build_returns_read_descriptors(self, reasoned_seed):
        room1 = reasoned_seed.lookup("Room1")
        d = DescriptorState(DescriptorTag.TYPES, room1, reasoned_seed)
        d.read()
        built = d.build()
        grounds = {b.ground.iri for b in built}
        assert grounds == {"THING", "LOCATION", "INDOOR", "ROOM"}
        for b in built:
            assert b.read() == []  # build-read coherence

    def test_build_undefined_for_feature_tags(self):
        onto = small_world()
        p = onto.lookup("p")
        for tag in (DescriptorTag.FUNCTIONAL, DescriptorTag.REFLEXIVE,
                    DescriptorTag.SYMMETRIC, DescriptorTag.TRANSITIVE):
            d = DescriptorState(tag, p, onto, items=[Void()])
            with pytest.raises(UndefinedBuild):
                d.build()

    def test_build_undefined_for_quantified_restrictions(self):
        onto = small_world()
        reason(onto)
        a, p = onto.lookup("A"), onto.lookup("p")
        d = DescriptorState(
            DescriptorTag.DEFINITION, a, onto,
            items=[Restriction(Connective.END, Some(p, onto.lookup("B")))],
        )
        with pytest.raises(UndefinedBuild):
            d.build()

    def test_build_skips_literal_fillers(self):
        onto = small_world()
        reason(onto)
        x, d_prop = onto.lookup("x"), onto.lookup("d")
        d = DescriptorState(
            DescriptorTag.LINKS, x, onto,
            items=[Link(d_prop, Literal(7)), Link(onto.lookup("p"), onto.lookup("y"))],
        )
        built = d.build()
        assert [b.ground.iri for b in built] == ["y"]

    def test_build_property_collapses_duplicates(self, reasoned_seed):
        corridor = reasoned_seed.lookup("Corridor1")
        d = DescriptorState(DescriptorTag.LINKS, corridor, reasoned_seed)
        d.read()
        properties = [b.ground.iri for b in d.build_property()]
        assert sorted(properties) == ["hasDoor", "isConnectedTo"]

    def test_build_property_requires_links(self):
        onto = small_world()
        d = DescriptorState(DescriptorTag.TYPES, onto.lookup("x"), onto)
        with pytest.raises(TagMismatch):
            d.build_property()
        with pytest.raises(TagMismatch):
            d.build_individuals_by_property(onto.lookup("p"))

    def test_build_individuals_by_property_filters(self, reasoned_seed):
        corridor = reasoned_seed.lookup("Corridor1")
        has_door = reasoned_seed.lookup("hasDoor")
        d = DescriptorState(DescriptorTag.LINKS, corridor, reasoned_seed)
        d.read()
        built = d.build_individuals_by_property(has_door)
        assert sorted(b.ground.iri for b in built) == ["Door1", "Door2"]
        absent = d.build_individuals_by_property(reasoned_seed.lookup("isIn"))
        assert absent == []

    def test_build_on_empty_items(self, reasoned_seed):
        d = DescriptorState(DescriptorTag.TYPES, reasoned_seed.lookup("Room1"), reasoned_seed)
        assert d.build() == []

    @pytest.mark.parametrize(
        "row",
        ["ref", "entity link", "literal link", "named definition", "quantified definition", "void", "empty void tag"],
    )
    def test_build_per_item_type(self, row):
        """Each item type's named_entity decides what build() grounds on."""
        onto = small_world()
        reason(onto)
        a, b, c, p, d, x, y = (onto.lookup(name) for name in "ABCpdxy")
        meet, end = Connective.INTERSECT, Connective.END
        tag, ground, items, built = {
            "ref": (DescriptorTag.TYPES, x, [Ref(b), Ref(a)], ["B", "A"]),
            "entity link": (DescriptorTag.LINKS, x, [Link(p, y)], ["y"]),
            "literal link": (DescriptorTag.LINKS, x, [Link(d, Literal(7))], []),
            "named definition": (
                DescriptorTag.DEFINITION, a, [Restriction(meet, Named(b)), Restriction(end, Named(c))], ["B", "C"]
            ),
            "quantified definition": (
                DescriptorTag.DEFINITION, a, [Restriction(meet, Named(b)), Restriction(end, Some(p, c))], None
            ),
            "void": (DescriptorTag.FUNCTIONAL, p, [Void()], None),
            "empty void tag": (DescriptorTag.FUNCTIONAL, p, [], []),
        }[row]
        descriptor = DescriptorState(tag, ground, onto, items=items)
        if built is None:
            with pytest.raises(UndefinedBuild):
                descriptor.build()
        else:
            assert [compound.ground.iri for compound in descriptor.build()] == built

    @pytest.mark.parametrize("seed", range(10))
    def test_a_bare_part_reads_as_the_compound_part(self, seed):
        """A part built alone through factory= reads the same items as the
        same part of default_factory's compound, for every tag."""
        rng = random.Random(8000 + seed)
        onto = random_ontology(rng, monotone=True)  # one definition per class, so every compound reads
        reason(onto)
        compared = 0
        for source in DescriptorTag:
            descriptor = DescriptorState(source, pick_ground(rng, onto, source), onto)
            descriptor.read()
            try:
                compounds = descriptor.build()
            except UndefinedBuild:
                continue
            for tag in DescriptorTag:
                try:
                    bare = descriptor.build(factory=lambda entity: DescriptorState(tag, entity, onto))
                except model.KindMismatch:  # the tag does not ground on these entities
                    continue
                for part, compound in zip(bare, compounds, strict=True):
                    assert part.items == compound.part(tag).items, (source, tag, part.ground)
                    compared += 1
        assert compared


class TestCalculusLaws:
    """Read/write laws for every tag on the worlds criterion 5 (which
    runs random_ontology's monotone ones) does not reach."""

    @pytest.mark.parametrize("seed", range(15))
    def test_read_and_write_idempotence(self, seed):
        # random_ontology's full fragment, Only and Max definitions included
        rng = random.Random(5000 + seed)
        onto = random_ontology(rng)
        for tag in DescriptorTag:
            reason(onto)
            d = DescriptorState(tag, pick_ground(rng, onto, tag), onto)
            d.read()
            assert d.read() == []
            d.write()
            assert d.write() == []

    @pytest.mark.parametrize("seed", range(15))
    def test_write_after_read_preserves_entailments(self, seed):
        # on chained_ontology's monotone worlds, whose definitions chain
        # through fillers; stability is judged on informative axioms: a
        # write may promote or retract a tautology (say, an asserted
        # SubClassOf(A A)) freely
        def informative(axioms):
            return {a for a in axioms if not model.tautological(a)}

        rng = random.Random(6000 + seed)
        onto = chained_ontology(rng, monotone=True)
        for tag in DescriptorTag:
            reason(onto)
            before = informative(entailed_axioms(onto))
            d = DescriptorState(tag, pick_ground(rng, onto, tag), onto)
            d.read()
            d.write()
            reason(onto)
            assert informative(entailed_axioms(onto)) == before, tag


def test_slotted_values_copy_pickle_and_hash_equal():
    """Every immutable record (a model.Value: the axioms, expressions,
    items, intents, tag specs and the reasoner's and the patrol's
    records) and Literal has no instance dict, refuses assignment and
    deletion, and shows as Name(field=value, ...), each text pinned.  It
    equals what rebuilding it from its fields, copy, deepcopy and a
    pickle round trip give back, under the same hash; a record that
    holds a set or a dict (Changes, the reasoner's schema) is
    unhashable, since its hash is its fields' tuple's.  The round trip
    runs from protocol 2 up, where slots classes without __reduce__ can
    be saved too."""
    onto = small_world()
    x, y, p, d, a, b, c = (onto.lookup(n) for n in ("x", "y", "p", "d", "A", "B", "C"))
    axiom = model.property_assertion(x, p, y)
    shown = [
        (Role("a thing", (Kind.CLASS,), callable), "Role(noun='a thing', kinds=(<Kind.CLASS: 'class'>,), fits=<built-in function callable>)"),
        (Named(a), "Named(cls=class:A)"),
        (And((Named(b), Some(p, c))), "And(members=(Named(cls=class:B), Some(prop=object-property:p, filler=class:C)))"),
        (
            Or((Named(a), And((Named(b), Only(p, c))))),
            "Or(members=(Named(cls=class:A), And(members=(Named(cls=class:B), Only(prop=object-property:p, filler=class:C)))))",
        ),
        (Min(2, p, c), "Min(count=2, prop=object-property:p, filler=class:C)"),
        (Max(0, p, c), "Max(count=0, prop=object-property:p, filler=class:C)"),
        (axiom, "PropertyAssertion(individual:x object-property:p individual:y)"),
        (model.property_assertion(x, d, Literal(3)), "PropertyAssertion(individual:x data-property:d literal:3)"),
        (
            model.class_definition(a, And((Named(b), Some(p, c)))),
            "DefineClass(class:A And(members=(Named(cls=class:B), Some(prop=object-property:p, filler=class:C))))",
        ),
        (Literal(3), "literal:3"),
        (Literal("three"), "literal:'three'"),
        (Literal(True), "literal:True"),
        (Literal(-0.5), "literal:-0.5"),
        (Void(), "Void()"),
        (Ref(x), "Ref(entity=individual:x)"),
        (Restriction(Connective.INTERSECT, Named(b)), "Restriction(connective=<Connective.INTERSECT: 'intersect'>, atom=Named(cls=class:B))"),
        (Link(p, y), "Link(prop=object-property:p, filler=individual:y)"),
        (Link(d, Literal("three")), "Link(prop=data-property:d, filler=literal:'three')"),
        (
            TAG_SPECS[DescriptorTag.LINKS],
            "TagSpec(partition=<Partition.INDIVIDUAL: 'individual'>, axiom_tag=<AxiomTag.PROPERTY_ASSERTION: "
            "'PropertyAssertion'>, item_type=<class 'ontodesc.descriptor.Link'>, ground_at=0, derived='links_of', "
            "closure_only=True, ground_kinds=(<Kind.INDIVIDUAL: 'individual'>,))",
        ),
        (
            Intent("read", "add", axiom, "descriptor"),
            "Intent(direction='read', change='add', axiom=PropertyAssertion(individual:x object-property:p "
            "individual:y), target='descriptor', succeeded=True)",
        ),
        (
            Intent("write", "remove", axiom, "ontology", succeeded=False),
            "Intent(direction='write', change='remove', axiom=PropertyAssertion(individual:x object-property:p "
            "individual:y), target='ontology', succeeded=False)",
        ),
        (
            Violation("same-and-different", frozenset({axiom})),
            "Violation(rule='same-and-different', axioms=frozenset({PropertyAssertion(individual:x "
            "object-property:p individual:y)}))",
        ),
        (
            PatrolStep(1, "Room1", (("Door1", "open"),), "Door1", "Room2", True, 1),
            "PatrolStep(index=1, location='Room1', door_states=(('Door1', 'open'),), crossed='Door1', "
            "destination='Room2', consistent=True, position_count=1)",
        ),
        (PatrolConfig(steps=3, seed=1), "PatrolConfig(steps=3, seed=1, robot='Robot1')"),
    ]
    unhashable = [
        (
            Changes({(x, p, y)}, {x: ({a}, set())}, {axiom: True}),
            "Changes(links={(individual:x, object-property:p, individual:y)}, memberships={individual:x: "
            "({class:A}, set())}, edits={PropertyAssertion(individual:x object-property:p individual:y): True})",
        ),
        (reason(onto)._schema, None),
    ]
    def copies(value, text):
        """What rebuilding, copy, deepcopy and pickle give back, each checked equal."""
        if text is not None:
            assert repr(value) == text
        assert not hasattr(value, "__dict__")
        field = (*type(value).__slots__, "new")[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        rebuild, fields = value.__reduce__()
        twin = rebuild(*fields)
        assert twin is not value
        pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        others = [twin, copy.copy(value), copy.deepcopy(value), *pickled]
        for other in others:
            assert type(other) is type(value) and other == value
        return others

    for value, text in shown:
        assert all(hash(other) == hash(value) for other in copies(value, text))
    for value, text in unhashable:
        copies(value, text)
        with pytest.raises(TypeError):
            hash(value)
    values = [value for value, _ in shown]
    assert len(set(values) | set(map(copy.deepcopy, values))) == len(values)
    assert Ref(x) != Ref(y) and Link(p, y) != Link(p, x)


def test_a_literal_refuses_assignment_and_keeps_its_hash():
    """A literal in a set keeps its hash: assigning or deleting its value
    raises, and the set still finds it."""
    lit = Literal(3)
    held, before = {lit}, hash(lit)
    with pytest.raises(AttributeError):
        lit.value = 4
    with pytest.raises(AttributeError):
        del lit.value
    assert lit.value == 3 and hash(lit) == before and lit in held and Literal(3) in held
