import copy
import gc
import itertools
import math
import pickle
import sys
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ontodesc import model
from ontodesc.model import (
    And,
    AxiomTag,
    Box,
    DT_INTEGER,
    DT_STRING,
    Entity,
    Kind,
    KindClash,
    KindMismatch,
    Literal,
    Max,
    Min,
    NOTHING,
    Named,
    Only,
    Ontology,
    OntologyError,
    Or,
    Some,
    StaleClosure,
    THING,
    UnknownEntity,
)
from ontodesc.reasoner import reason


def make_vocab():
    onto = Ontology()
    a = onto.declare(Kind.CLASS, "A")
    b = onto.declare(Kind.CLASS, "B")
    p = onto.declare(Kind.OBJECT_PROPERTY, "p")
    d = onto.declare(Kind.DATA_PROPERTY, "d")
    x = onto.declare(Kind.INDIVIDUAL, "x")
    y = onto.declare(Kind.INDIVIDUAL, "y")
    return onto, a, b, p, d, x, y


# one term of each kind an axiom argument may be offered, by name
GRID_POOL = {
    "A": Entity(Kind.CLASS, "A"),
    "B": Entity(Kind.CLASS, "B"),
    "THING": THING,
    "NOTHING": NOTHING,
    "integer": DT_INTEGER,
    "p": Entity(Kind.OBJECT_PROPERTY, "p"),
    "q": Entity(Kind.OBJECT_PROPERTY, "q"),
    "d": Entity(Kind.DATA_PROPERTY, "d"),
    "x": Entity(Kind.INDIVIDUAL, "x"),
    "y": Entity(Kind.INDIVIDUAL, "y"),
    "1": Literal(1),
    "Named(A)": Named(Entity(Kind.CLASS, "A")),
    "Some(p,A)": Some(Entity(Kind.OBJECT_PROPERTY, "p"), Entity(Kind.CLASS, "A")),
    "'A'": "A",
    "None": None,
}
GRID_MAKERS = {
    **{tag.value: factory for tag, factory in model.AXIOM_FACTORIES.items()},
    "Named": Named,
    "Some": Some,
    "Only": Only,
    "Min": partial(Min, 1),
    "Max": partial(Max, 0),
}
GRID_FILE = Path(__file__).with_name("factory_grid.txt")


class TestEntity:
    def test_rejects_empty_and_whitespace_iris(self):
        with pytest.raises(OntologyError):
            Entity(Kind.CLASS, "")
        with pytest.raises(OntologyError):
            Entity(Kind.CLASS, "two words")

    def test_the_whitespace_check_rejects_what_isspace_finds(self):
        """Entity rejects an IRI that str.split() changes; that must be
        exactly an IRI holding a character for which str.isspace() holds,
        the character alone or inside a name."""
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        spaces = [c for c in chars if c.isspace()]
        assert [c for c in chars if c.split() != [c]] == spaces
        assert [c for c in chars if f"a{c}b".split() != [f"a{c}b"]] == spaces
        for c in spaces:
            with pytest.raises(OntologyError):
                Entity(Kind.CLASS, f"a{c}b")

    @pytest.mark.parametrize("iri", ["Loc\udcff", "\ud800", "a\udfffb"], ids=["argv-byte", "alone", "inside"])
    def test_rejects_an_iri_that_does_not_encode_as_utf8(self, iri):
        # Python decodes an argv byte that is not UTF-8 to a lone surrogate
        onto = Ontology()
        with pytest.raises(OntologyError, match="not UTF-8 text"):
            onto.declare(Kind.INDIVIDUAL, iri)
        assert onto.maybe_lookup(iri) is None

    def test_accepts_a_non_ascii_iri_that_encodes_as_utf8(self):
        assert Entity(Kind.CLASS, "Salle\u00e9\U0001f6aa").iri == "Salle\u00e9\U0001f6aa"

    def test_literal_kind_is_not_an_entity(self):
        with pytest.raises(KindMismatch):
            Entity(Kind.LITERAL, "five")

    def test_equality_is_kind_and_iri(self):
        assert Entity(Kind.CLASS, "A") == Entity(Kind.CLASS, "A")
        assert Entity(Kind.CLASS, "A") != Entity(Kind.INDIVIDUAL, "A")

    def test_entities_are_interned_and_hash_by_identity(self):
        # one live object per (kind, iri), whichever path builds it, so the
        # hash and equality are object identity; punned entities never
        # compare equal
        assert Entity(Kind.CLASS, "A") is Entity(Kind.CLASS, "A")
        assert Ontology().declare(Kind.CLASS, "A") is Entity(Kind.CLASS, "A")
        a = Entity(Kind.CLASS, "A")
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a
        assert Entity.__hash__ is object.__hash__
        assert len({Entity(Kind.CLASS, "A"), Entity(Kind.INDIVIDUAL, "A")}) == 2
        unreferenced = weakref.ref(Entity(Kind.CLASS, "NothingHoldsThis"))
        gc.collect()
        assert unreferenced() is None

    def test_a_dropped_world_leaves_no_interned_entry(self):
        """The intern table holds its entities weakly: once nothing holds a
        parsed world, gc.collect() leaves the table as it was before."""
        from ontodesc.syntax import parse

        gc.collect()
        before = len(model._ENTITIES)
        lines = [f"Individual(Fresh{i})\nClassAssertion(Fresh Fresh{i})" for i in range(1000)]
        text = "\n".join(["Class(Fresh)", *lines])
        onto = parse(text)
        reason(onto)
        assert len(model._ENTITIES) >= before + 1001
        del onto
        gc.collect()
        assert len(model._ENTITIES) == before
        assert Entity(Kind.INDIVIDUAL, "Fresh0").iri == "Fresh0"  # a fresh entry once asked for again

    def test_entities_are_immutable(self):
        a = Entity(Kind.CLASS, "A")
        with pytest.raises(AttributeError):
            a.iri = "B"
        assert a.iri == "A"


class TestLiteral:
    def test_type_distinguishes_equal_looking_values(self):
        assert Literal(1) != Literal(True)
        assert Literal(1) != Literal(1.0)
        assert Literal(0) != Literal(False)
        assert len({Literal(1), Literal(True), Literal(1.0)}) == 3

    def test_same_type_same_value_equal(self):
        assert Literal("a") == Literal("a")
        assert hash(Literal(2.5)) == hash(Literal(2.5))

    def test_non_finite_doubles_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OntologyError):
                Literal(bad)

    def test_unsupported_value_types_rejected(self):
        with pytest.raises(OntologyError):
            Literal([1, 2])


class TestVocabulary:
    def test_builtins_preloaded(self):
        onto = Ontology()
        assert onto.lookup("THING") is THING
        assert onto.lookup("NOTHING") is NOTHING
        assert onto.lookup("integer").kind is Kind.CLASS

    def test_declare_is_idempotent_per_kind(self):
        onto = Ontology()
        first = onto.declare(Kind.CLASS, "A")
        assert onto.declare(Kind.CLASS, "A") is first

    def test_punning_rejected(self):
        onto = Ontology()
        onto.declare(Kind.CLASS, "A")
        with pytest.raises(KindClash):
            onto.declare(Kind.INDIVIDUAL, "A")

    def test_lookup_unknown(self):
        onto = Ontology()
        with pytest.raises(UnknownEntity):
            onto.lookup("missing")
        assert onto.maybe_lookup("missing") is None

    def test_declaring_new_entity_marks_closure_stale(self):
        onto = Ontology()
        reason(onto)
        assert not onto.stale
        onto.declare(Kind.INDIVIDUAL, "x")
        assert onto.stale


class TestAxiomFactories:
    def test_orderless_pairs_canonicalize(self):
        onto, a, b, p, d, x, y = make_vocab()
        q = Entity(Kind.OBJECT_PROPERTY, "q")
        for tag, one, two in (
            (AxiomTag.EQUIVALENT_CLASSES, a, b),
            (AxiomTag.DISJOINT_CLASSES, a, b),
            (AxiomTag.SAME_INDIVIDUAL, x, y),
            (AxiomTag.DIFFERENT_INDIVIDUALS, x, y),
            (AxiomTag.EQUIVALENT_PROPERTIES, p, q),
            (AxiomTag.INVERSE_PROPERTIES, p, q),
        ):
            build = model.AXIOM_FACTORIES[tag]
            assert build(two, one) == build(one, two), tag

    def test_ordered_pairs_do_not(self):
        onto, a, b, *_ = make_vocab()
        assert model.sub_class(a, b) != model.sub_class(b, a)

    def test_class_assertion_argument_kinds(self):
        onto, a, b, p, d, x, y = make_vocab()
        axiom = model.class_assertion(x, a)
        assert axiom.tag is AxiomTag.CLASS_ASSERTION
        with pytest.raises(KindMismatch):
            model.class_assertion(a, x)

    def test_property_assertion_filler_kinds(self):
        onto, a, b, p, d, x, y = make_vocab()
        model.property_assertion(x, p, y)
        model.property_assertion(x, d, Literal(3))
        with pytest.raises(KindMismatch):
            model.property_assertion(x, p, Literal(3))
        with pytest.raises(KindMismatch):
            model.property_assertion(x, d, y)

    def test_range_data_property_needs_datatype(self):
        onto, a, b, p, d, x, y = make_vocab()
        property_range = model.AXIOM_FACTORIES[AxiomTag.PROPERTY_RANGE]
        property_range(d, DT_STRING)
        property_range(p, a)
        with pytest.raises(KindMismatch):
            property_range(d, a)
        with pytest.raises(KindMismatch):
            property_range(p, DT_INTEGER)

    def test_object_only_characteristics(self):
        onto, a, b, p, d, x, y = make_vocab()
        for maker in (model.reflexive, model.symmetric, model.transitive, model.irreflexive):
            maker(p)
            with pytest.raises(KindMismatch):
                maker(d)
        model.functional(d)  # functional applies to both kinds

    def test_property_pairs_never_mix_kinds(self):
        onto, a, b, p, d, x, y = make_vocab()
        for tag in (AxiomTag.SUB_PROPERTY, AxiomTag.EQUIVALENT_PROPERTIES, AxiomTag.INVERSE_PROPERTIES):
            with pytest.raises(KindMismatch):
                model.AXIOM_FACTORIES[tag](p, d)

    def test_chain_takes_three_object_properties(self):
        onto, a, b, p, d, x, y = make_vocab()
        q = onto.declare(Kind.OBJECT_PROPERTY, "q")
        property_chain = model.AXIOM_FACTORIES[AxiomTag.PROPERTY_CHAIN]
        property_chain(p, q, q)
        with pytest.raises(KindMismatch):
            property_chain(p, d, q)

    def test_datatypes_barred_from_class_positions(self):
        onto, a, b, p, d, x, y = make_vocab()
        with pytest.raises(KindMismatch):
            model.sub_class(DT_STRING, a)
        with pytest.raises(KindMismatch):
            model.class_assertion(x, DT_INTEGER)
        with pytest.raises(KindMismatch):
            Named(DT_STRING)
        with pytest.raises(KindMismatch):
            Some(p, DT_STRING)

    def test_axiom_boxes(self):
        onto, a, b, p, d, x, y = make_vocab()
        assert model.sub_class(a, b).tag.box is Box.TBOX
        assert model.AXIOM_FACTORIES[AxiomTag.SUB_PROPERTY](p, p).tag.box is Box.RBOX
        assert model.class_assertion(x, a).tag.box is Box.ABOX
        tbox = {
            AxiomTag.SUB_CLASS,
            AxiomTag.EQUIVALENT_CLASSES,
            AxiomTag.DISJOINT_CLASSES,
            AxiomTag.CLASS_DEFINITION,
        }
        abox = {
            AxiomTag.CLASS_ASSERTION,
            AxiomTag.PROPERTY_ASSERTION,
            AxiomTag.SAME_INDIVIDUAL,
            AxiomTag.DIFFERENT_INDIVIDUALS,
        }
        for tag in AxiomTag:
            assert tag.box is (Box.TBOX if tag in tbox else Box.ABOX if tag in abox else Box.RBOX), tag
        assert [sum(tag.box is box for tag in AxiomTag) for box in Box] == [12, 4, 4]

    def test_factory_grid(self):
        """Every factory and checked expression class against every argument
        tuple of one to three pool terms: factory_grid.txt lists each tuple
        accepted and what it builds; any other tuple of that arity raises
        KindMismatch, and a tuple of another length TypeError."""
        built = {}
        for line in GRID_FILE.read_text().splitlines():
            if line and not line.startswith("#"):
                call, text = line.split(" = ")
                head, *names = call.split()
                built[head, tuple(names)] = text
        arity = {head: len(names) for head, names in built}
        assert arity.keys() == GRID_MAKERS.keys()
        wrong = []
        for head, maker in GRID_MAKERS.items():
            for n in (1, 2, 3):
                for names in itertools.product(GRID_POOL, repeat=n):
                    try:
                        got = repr(maker(*(GRID_POOL[k] for k in names)))
                    except (KindMismatch, TypeError) as e:
                        got = type(e).__name__
                    failure = "KindMismatch" if n == arity[head] else "TypeError"
                    if got != built.get((head, names), failure):
                        wrong.append((head, names, got))
        assert wrong == []


class TestExpressions:
    def test_connectives_need_two_members(self):
        onto, a, b, *_ = make_vocab()
        with pytest.raises(OntologyError):
            And((Named(a),))
        with pytest.raises(OntologyError):
            Or((Named(a),))
        And((Named(a), Named(b)))

    def test_cardinality_bounds(self):
        onto, a, b, p, *_ = make_vocab()
        Min(1, p, a)
        Max(0, p, a)
        with pytest.raises(OntologyError):
            Min(0, p, a)
        with pytest.raises(OntologyError):
            Max(-1, p, a)

    def test_quantifiers_are_object_property_only(self):
        onto, a, b, p, d, *_ = make_vocab()
        with pytest.raises(KindMismatch):
            Some(d, a)
        with pytest.raises(KindMismatch):
            Only(d, a)


class TestOntologyStore:
    def test_assert_requires_declared_entities(self):
        onto = Ontology()
        stranger = Entity(Kind.CLASS, "A")
        other = Entity(Kind.CLASS, "B")
        with pytest.raises(UnknownEntity):
            onto.assert_axiom(model.sub_class(stranger, other))

    def test_assert_and_retract_report_change(self):
        onto, a, b, *_ = make_vocab()
        axiom = model.sub_class(a, b)
        assert onto.assert_axiom(axiom) is True
        assert onto.assert_axiom(axiom) is False
        assert onto.retract_axiom(axiom) is True
        assert onto.retract_axiom(axiom) is False

    def test_mutation_marks_stale_and_entails_after_reason(self):
        onto, a, b, p, d, x, y = make_vocab()
        onto.assert_axiom(model.sub_class(a, b))
        assert onto.stale
        with pytest.raises(StaleClosure):
            onto.current_closure()
        closure = reason(onto)
        assert closure.is_entailed(model.sub_class(a, b))
        onto.assert_axiom(model.class_assertion(x, a))
        assert onto.stale
        with pytest.raises(StaleClosure):
            closure.is_entailed(model.sub_class(a, b))

    def test_no_op_assert_keeps_closure_fresh(self):
        onto, a, b, *_ = make_vocab()
        onto.assert_axiom(model.sub_class(a, b))
        reason(onto)
        onto.assert_axiom(model.sub_class(a, b))
        assert not onto.stale

    def test_axioms_about_matches_either_orderless_position(self):
        onto, a, b, *_ = make_vocab()
        axiom = model.disjoint_classes(b, a)
        onto.assert_axiom(axiom)
        for ground in (a, b):
            found = onto.axioms_about(AxiomTag.DISJOINT_CLASSES, ground)
            assert found == {axiom}
            assert onto.axioms_about(AxiomTag.DISJOINT_CLASSES, ground, at=5) == {axiom}  # a pair ignores at

    @pytest.mark.parametrize("at", [-1, 2])
    def test_axioms_about_refuses_a_position_the_tag_lacks_and_builds_no_slot(self, at):
        onto, a, b, p, d, x, y = make_vocab()
        onto.assert_axiom(model.class_assertion(x, a))
        with pytest.raises(ValueError, match="no argument position"):
            onto.axioms_about(AxiomTag.CLASS_ASSERTION, x, at=at)
        assert AxiomTag.CLASS_ASSERTION not in onto._asserted_index._slots
        assert onto.axioms_about(AxiomTag.CLASS_ASSERTION, a, at=1) == {model.class_assertion(x, a)}
        assert list(onto._asserted_index._slots[AxiomTag.CLASS_ASSERTION]) == [1]

    def test_contains_disjointness_in_both_argument_orders(self):
        onto, a, b, *_ = make_vocab()
        onto.assert_axiom(model.disjoint_classes(a, b))
        assert onto.contains(model.disjoint_classes(a, b))
        assert onto.contains(model.disjoint_classes(b, a))

    def test_a_batch_declares_as_declare_does_and_refuses_a_declared_iri(self):
        onto, built = Ontology(), Ontology()
        onto._declare_all({"A": Kind.CLASS, "x": Kind.INDIVIDUAL})
        built.declare(Kind.CLASS, "A")
        built.declare(Kind.INDIVIDUAL, "x")
        assert list(onto.vocabulary()) == list(built.vocabulary())
        assert onto._journal is built._journal is None  # no run, so no record of change
        for names in ({"A": Kind.CLASS}, {"B": Kind.CLASS, "THING": Kind.CLASS}):
            with pytest.raises(OntologyError, match="undeclared"):
                onto._declare_all(names)
        assert onto.maybe_lookup("B") is None

    def test_a_batch_declaration_refuses_a_journaled_store(self):
        """The journal records each declaration, which a batch does not,
        so the parser's batch runs on a fresh store only."""
        onto = make_vocab()[0]
        reason(onto)
        with pytest.raises(OntologyError, match="no journal"):
            onto._declare_all({"B2": Kind.CLASS})
        assert onto.maybe_lookup("B2") is None
        assert not onto.stale  # the journal is still empty

    def test_a_batch_insert_refuses_a_journaled_or_indexed_store(self):
        onto, a, b, *_ = make_vocab()
        onto._insert_all([model.sub_class(a, b), model.sub_class(a, b), model.sub_class(b, a)])
        assert onto.axioms() == {model.sub_class(a, b), model.sub_class(b, a)}
        onto.axioms_about(AxiomTag.SUB_CLASS, a)  # builds an index slot
        journaled = make_vocab()[0]
        reason(journaled)  # installs a journal and builds no slot
        for store in (onto, journaled):
            with pytest.raises(OntologyError, match="no journal and no built index slot"):
                store._insert_all([model.sub_class(a, THING)])
            assert model.sub_class(a, THING) not in store.axioms()
        assert not journaled.stale  # the refused batch journaled nothing

    def test_inferred_view_is_disjoint_from_asserted(self):
        onto, a, b, p, d, x, y = make_vocab()
        c = onto.declare(Kind.CLASS, "C")
        onto.assert_axiom(model.sub_class(a, b))
        onto.assert_axiom(model.sub_class(b, c))
        inferred = set(reason(onto).inferred)
        asserted = set(onto.axioms())
        assert model.sub_class(a, c) in inferred
        assert not inferred & asserted


@given(value=st.one_of(
    st.text(max_size=30),
    st.integers(-10**9, 10**9),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
))
def test_literal_roundtrips_through_key(value):
    lit = Literal(value)
    assert lit == Literal(value)
    assert (lit == Literal("sentinel-other")) is (value == "sentinel-other" and isinstance(value, str))
