import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from generators import random_ontology
from oracles import naive_reason, naive_violations, subsumption_reachability, transitive_fillers
from ontodesc import cli, model, scenarios
from ontodesc.model import Kind, Literal, NOTHING, Ontology, StaleClosure, THING
from ontodesc.reasoner import reason
from ontodesc.syntax import parse


def closure_of(text):
    onto = parse(text)
    return onto, reason(onto)


class TestSeedWorld:
    def test_consistent(self, reasoned_seed):
        assert reasoned_seed.current_closure().consistent

    def test_realization(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        expected = {
            "Corridor1": {"THING", "LOCATION", "INDOOR", "CORRIDOR"},
            "Room1": {"THING", "LOCATION", "INDOOR", "ROOM"},
            "Room2": {"THING", "LOCATION", "INDOOR", "ROOM"},
            "Robot1": {"THING", "ROBOT"},
            "Door1": {"THING", "DOOR"},
            "Door2": {"THING", "DOOR"},
        }
        for iri, types in expected.items():
            entity = reasoned_seed.lookup(iri)
            assert {c.iri for c in closure.types_of(entity)} == types

    def test_connection_links_derived(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        corridor = reasoned_seed.lookup("Corridor1")
        is_connected = reasoned_seed.lookup("isConnectedTo")
        fillers = {f.iri for f in closure.fillers(corridor, is_connected)}
        assert fillers == {"Room1", "Room2"}
        room1 = reasoned_seed.lookup("Room1")
        assert {f.iri for f in closure.fillers(room1, is_connected)} == {"Corridor1"}

    def test_irreflexive_suppresses_derived_self_connection(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        for iri in ("Corridor1", "Room1", "Room2"):
            entity = reasoned_seed.lookup(iri)
            is_connected = reasoned_seed.lookup("isConnectedTo")
            assert entity not in closure.fillers(entity, is_connected)

    def test_taxonomy(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        indoor = reasoned_seed.lookup("INDOOR")
        assert {c.iri for c in closure.direct_subclasses(indoor)} == {"ROOM", "CORRIDOR"}
        room = reasoned_seed.lookup("ROOM")
        assert {c.iri for c in closure.direct_subclasses(room)} == {"NOTHING"}
        assert {c.iri for c in closure.direct_superclasses(room)} == {"INDOOR"}
        location = reasoned_seed.lookup("LOCATION")
        assert {c.iri for c in closure.direct_superclasses(location)} == {"THING"}
        assert closure.subsumed_by(room, location)
        assert not closure.subsumed_by(location, room)

    def test_most_specific_types(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        room1 = reasoned_seed.lookup("Room1")
        assert {c.iri for c in closure.types_of(room1, most_specific_only=True)} == {"ROOM"}


class TestRules:
    def test_universal_thing_membership(self):
        onto, closure = closure_of("Individual(x)")
        x = onto.lookup("x")
        assert closure.types_of(x) == {THING}
        assert onto.contains(model.class_assertion(x, THING), "entailed")

    def test_subclass_transitivity_materialized(self):
        onto, closure = closure_of("Class(A) Class(B) Class(C) SubClassOf(A B) SubClassOf(B C)")
        a, c = onto.lookup("A"), onto.lookup("C")
        assert model.sub_class(a, c) in onto.inferred_axioms()

    def test_equivalence_is_mutual_subsumption(self):
        onto, closure = closure_of("Class(A) Class(B) EquivalentClasses(A B)")
        a, b = onto.lookup("A"), onto.lookup("B")
        assert closure.subsumed_by(a, b) and closure.subsumed_by(b, a)
        assert closure.equivalent(a, b)

    def test_definition_conjuncts_subsume(self):
        onto, closure = closure_of(
            "Class(A) Class(B) ObjectProperty(p) DefineClass(A And(B Some(p B)))"
        )
        assert closure.subsumed_by(onto.lookup("A"), onto.lookup("B"))

    def test_self_subsumption_entailed_but_not_materialized(self):
        onto, closure = closure_of("Class(A)")
        a = onto.lookup("A")
        assert closure.is_entailed(model.sub_class(a, a))
        assert model.sub_class(a, a) not in onto.axioms("entailed")

    def test_bottom_and_top_edges(self):
        onto, closure = closure_of("Class(A)")
        a = onto.lookup("A")
        assert closure.subsumed_by(a, THING)
        assert closure.subsumed_by(NOTHING, a)

    def test_property_hierarchy_lifts_assertions(self):
        onto, closure = closure_of(
            "ObjectProperty(p) ObjectProperty(q) Individual(x) Individual(y) "
            "SubPropertyOf(p q) PropertyAssertion(p x y)"
        )
        x, y, q = onto.lookup("x"), onto.lookup("y"), onto.lookup("q")
        assert y in closure.fillers(x, q)

    def test_inverse_reads_both_directions(self):
        onto, closure = closure_of(
            "ObjectProperty(p) ObjectProperty(q) Individual(x) Individual(y) "
            "InverseProperties(p q) PropertyAssertion(q x y)"
        )
        x, y, p = onto.lookup("x"), onto.lookup("y"), onto.lookup("p")
        assert x in closure.fillers(y, p)

    def test_symmetric_and_transitive(self):
        onto, closure = closure_of(
            "ObjectProperty(p) Individual(x) Individual(y) Individual(z) "
            "SymmetricProperty(p) TransitiveProperty(p) "
            "PropertyAssertion(p x y) PropertyAssertion(p y z)"
        )
        x, z, p = onto.lookup("x"), onto.lookup("z"), onto.lookup("p")
        assert z in closure.fillers(x, p)
        assert x in closure.fillers(z, p)

    def test_reflexive_covers_every_individual(self):
        onto, closure = closure_of("ObjectProperty(p) ReflexiveProperty(p) Individual(x) Individual(y)")
        for iri in ("x", "y"):
            e = onto.lookup(iri)
            assert e in closure.fillers(e, onto.lookup("p"))

    def test_chain_composition(self):
        onto, closure = closure_of(
            "ObjectProperty(r) ObjectProperty(p) ObjectProperty(q) "
            "Individual(x) Individual(y) Individual(z) "
            "SubPropertyChain(r p q) PropertyAssertion(p x y) PropertyAssertion(q y z)"
        )
        assert onto.lookup("z") in closure.fillers(onto.lookup("x"), onto.lookup("r"))

    def test_asserted_irreflexive_self_loop_is_kept(self):
        onto, closure = closure_of(
            "ObjectProperty(p) IrreflexiveProperty(p) Individual(x) PropertyAssertion(p x x)"
        )
        x = onto.lookup("x")
        assert x in closure.fillers(x, onto.lookup("p"))

    def test_same_individuals_share_types_and_links(self):
        onto, closure = closure_of(
            "Class(A) ObjectProperty(p) Individual(x) Individual(y) Individual(z) "
            "SameIndividual(x y) ClassAssertion(A x) PropertyAssertion(p y z)"
        )
        x, y, z = onto.lookup("x"), onto.lookup("y"), onto.lookup("z")
        assert onto.lookup("A") in closure.types_of(y)
        assert z in closure.fillers(x, onto.lookup("p"))
        assert closure.same_as(x, y)
        assert not closure.same_as(x, z)

    def test_domain_and_range_typing(self):
        onto, closure = closure_of(
            "Class(A) Class(B) ObjectProperty(p) Individual(x) Individual(y) "
            "PropertyDomain(p A) PropertyRange(p B) PropertyAssertion(p x y)"
        )
        assert onto.lookup("A") in closure.types_of(onto.lookup("x"))
        assert onto.lookup("B") in closure.types_of(onto.lookup("y"))

    def test_data_range_types_nothing(self):
        onto, closure = closure_of(
            'DataProperty(d) Individual(x) PropertyRange(d string) PropertyAssertion(d x "v")'
        )
        x = onto.lookup("x")
        assert closure.types_of(x) == {THING}
        assert closure.fillers(x, onto.lookup("d")) == {Literal("v")}

    def test_local_closed_world_counting(self):
        base = (
            "Class(DOOR) Class(WIDE) ObjectProperty(has) "
            "DefineClass(WIDE Min(2 has DOOR)) "
            "Class(T) Individual(x) Individual(d1) Individual(d2) "
            "ClassAssertion(DOOR d1) ClassAssertion(DOOR d2) "
            "PropertyAssertion(has x d1) PropertyAssertion(has x d2)"
        )
        onto, closure = closure_of(base)
        wide = onto.lookup("WIDE")
        assert wide in closure.types_of(onto.lookup("x"))
        # merging the fillers drops the count below the threshold
        onto2, closure2 = closure_of(base + " SameIndividual(d1 d2)")
        assert onto2.lookup("WIDE") not in closure2.types_of(onto2.lookup("x"))

    def test_max_and_only_satisfaction(self):
        onto, closure = closure_of(
            "Class(DOOR) Class(SNUG) Class(SAFE) ObjectProperty(has) "
            "DefineClass(SNUG Max(1 has DOOR)) "
            "DefineClass(SAFE Only(has DOOR)) "
            "Individual(x) Individual(d1) ClassAssertion(DOOR d1) "
            "PropertyAssertion(has x d1)"
        )
        x = onto.lookup("x")
        assert onto.lookup("SNUG") in closure.types_of(x)
        assert onto.lookup("SAFE") in closure.types_of(x)
        # an individual with no fillers satisfies both vacuously
        d1 = onto.lookup("d1")
        assert onto.lookup("SNUG") in closure.types_of(d1)


class TestViolations:
    def test_disjoint_classes(self):
        onto, closure = closure_of(
            "Class(A) Class(B) DisjointClasses(A B) Individual(x) "
            "ClassAssertion(A x) ClassAssertion(B x)"
        )
        assert not closure.consistent
        assert any(v.rule == "disjoint-classes" for v in closure.violations)

    def test_disjoint_classes_inherited(self):
        onto, closure = closure_of(
            "Class(A) Class(B) Class(C) DisjointClasses(A B) SubClassOf(C A) "
            "Individual(x) ClassAssertion(C x) ClassAssertion(B x)"
        )
        assert not closure.consistent

    def test_disjoint_properties(self):
        onto, closure = closure_of(
            "ObjectProperty(p) ObjectProperty(q) DisjointProperties(p q) "
            "Individual(x) Individual(y) PropertyAssertion(p x y) PropertyAssertion(q x y)"
        )
        assert not closure.consistent
        assert any(v.rule == "disjoint-properties" for v in closure.violations)

    def test_functional_fanout(self):
        onto, closure = closure_of(
            "ObjectProperty(p) FunctionalProperty(p) "
            "Individual(x) Individual(y) Individual(z) "
            "PropertyAssertion(p x y) PropertyAssertion(p x z)"
        )
        assert not closure.consistent
        assert any(v.rule == "functional-property" for v in closure.violations)

    def test_functional_tolerates_same_individuals(self):
        onto, closure = closure_of(
            "ObjectProperty(p) FunctionalProperty(p) "
            "Individual(x) Individual(y) Individual(z) SameIndividual(y z) "
            "PropertyAssertion(p x y) PropertyAssertion(p x z)"
        )
        assert closure.consistent

    def test_functional_data_property_by_value(self):
        onto, closure = closure_of(
            'DataProperty(d) FunctionalProperty(d) Individual(x) '
            'PropertyAssertion(d x 1) PropertyAssertion(d x 2)'
        )
        assert not closure.consistent
        onto2, closure2 = closure_of(
            'DataProperty(d) FunctionalProperty(d) Individual(x) '
            'PropertyAssertion(d x 1) PropertyAssertion(d x 1)'
        )
        assert closure2.consistent

    def test_same_and_different(self):
        onto, closure = closure_of(
            "Individual(x) Individual(y) Individual(z) "
            "SameIndividual(x y) SameIndividual(y z) DifferentIndividuals(x z)"
        )
        assert not closure.consistent
        assert any(v.rule == "same-and-different" for v in closure.violations)

    def test_violations_never_block_the_closure(self):
        onto, closure = closure_of(
            "Class(A) Class(B) Class(C) DisjointClasses(A B) SubClassOf(A C) "
            "Individual(x) ClassAssertion(A x) ClassAssertion(B x)"
        )
        assert onto.lookup("C") in closure.types_of(onto.lookup("x"))


class TestClosureInterface:
    def test_stale_closure_refuses_queries(self):
        onto = parse("Class(A) Individual(x)")
        closure = reason(onto)
        onto.assert_axiom(model.class_assertion(onto.lookup("x"), onto.lookup("A")))
        with pytest.raises(StaleClosure):
            closure.types_of(onto.lookup("x"))
        with pytest.raises(StaleClosure):
            onto.current_closure()

    def test_closure_survives_no_op_mutation(self):
        onto = parse("Class(A) Class(B) SubClassOf(A B)")
        closure = reason(onto)
        onto.assert_axiom(model.sub_class(onto.lookup("A"), onto.lookup("B")))
        closure.subsumed_by(onto.lookup("A"), onto.lookup("B"))

    def test_the_schema_holds_only_what_its_axioms_name(self):
        onto, closure = closure_of(
            "ObjectProperty(p) ObjectProperty(q) ObjectProperty(r) SubPropertyOf(p q) "
            "ReflexiveProperty(r) Individual(a) Individual(b) Individual(c) SameIndividual(a b)"
        )
        a, b, c, p, q, r = map(onto.lookup, "abcpqr")
        schema = closure._schema
        assert schema.rep.keys() == {a, b}
        assert {x for group in schema.groups.values() for x in group} == {a, b}
        assert schema.prop_reach == {p: {q}}
        assert closure.same_individuals(c) == set() and closure.same_individuals(a) == {b}
        assert closure.fillers(c, r) == {c}

        # a declaration changes no schema map
        d = onto.declare(Kind.INDIVIDUAL, "d")
        onto.declare(Kind.OBJECT_PROPERTY, "s")
        closure = reason(onto)
        assert closure._schema is not schema
        assert closure._schema.rep == schema.rep
        assert closure._schema.groups == schema.groups
        assert closure._schema.prop_reach == schema.prop_reach
        assert closure.types_of(d) == {THING} and closure.fillers(d, r) == {d}

    def test_instances_and_links_listing(self, reasoned_seed):
        closure = reasoned_seed.current_closure()
        room = reasoned_seed.lookup("ROOM")
        assert {i.iri for i in closure.instances_of(room)} == {"Room1", "Room2"}
        corridor = reasoned_seed.lookup("Corridor1")
        links = {(p.iri, f.iri) for p, f in closure.links_of(corridor)}
        assert ("hasDoor", "Door1") in links and ("isConnectedTo", "Room1") in links

    def test_a_dropped_store_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            onto = scenarios.load_seed()
            closure = reason(onto)
            refs = weakref.ref(onto), weakref.ref(closure)
            del onto, closure
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_closure_outlives_its_store(self):
        text = scenarios.seed_path().read_text(encoding="utf-8")
        kept = parse(text)
        expected = reason(kept)
        closure = reason(parse(text))
        assert closure.ontology is None and expected.ontology is kept
        assert closure.inferred == expected.inferred
        assert list(closure.inferred_groups()) == list(expected.inferred_groups())
        for axiom in kept.axioms("entailed"):
            assert closure.is_entailed(axiom)
        corridor, has_door = kept.lookup("Corridor1"), kept.lookup("hasDoor")
        assert closure.fillers(corridor, has_door) == expected.fillers(corridor, has_door)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_naive_oracle(self, seed):
        onto = random_ontology(random.Random(seed))
        closure = reason(onto)
        oracle_inferred, oracle_consistent = naive_reason(onto)
        assert closure.inferred == oracle_inferred
        assert closure.consistent == oracle_consistent

    @pytest.mark.parametrize("seed", range(60))
    def test_violations_match_naive_oracle(self, seed):
        onto = random_ontology(random.Random(seed))
        closure = reason(onto)
        assert {(v.rule, v.axioms) for v in closure.violations} == naive_violations(onto)

    @pytest.mark.parametrize("seed", range(10))
    def test_inferred_reads_the_run_not_the_store(self, seed):
        """The inferred axioms are built on first read from the run's maps,
        and once the store changes the read raises, built or not."""
        rng = random.Random(5000 + seed)
        onto = random_ontology(rng)
        expected, _ = naive_reason(onto)
        closure = reason(onto)
        assert closure.inferred == expected
        assert onto.assert_axiom(rng.choice(sorted(expected, key=repr)))
        with pytest.raises(StaleClosure):
            closure.inferred

    @pytest.mark.parametrize("seed", range(25))
    def test_subsumption_equals_graph_reachability(self, seed):
        onto = random_ontology(random.Random(1000 + seed))
        closure = reason(onto)
        expected = subsumption_reachability(onto)
        # strict pairs only: asserted tautologies like SubClassOf(A A) are
        # entailed but outside the reachability law
        got = {
            (a.args[0], a.args[1])
            for a in onto.axioms("entailed")
            if a.tag is model.AxiomTag.SUB_CLASS and a.args[0] != a.args[1]
        }
        assert got == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_transitive_property_equals_transitive_closure(self, seed):
        rng = random.Random(2000 + seed)
        onto = Ontology()
        p = onto.declare(Kind.OBJECT_PROPERTY, "p")
        inds = [onto.declare(Kind.INDIVIDUAL, f"a{i}") for i in range(rng.randint(2, 7))]
        onto.assert_axiom(model.transitive(p))
        for _ in range(rng.randint(1, 10)):
            onto.assert_axiom(model.property_assertion(rng.choice(inds), p, rng.choice(inds)))
        closure = reason(onto)
        got = {(s, f) for s in inds for f in closure.fillers(s, p)}
        assert got == transitive_fillers(onto, p)

    @pytest.mark.parametrize("seed", range(15))
    def test_insertion_order_is_irrelevant(self, seed):
        rng = random.Random(3000 + seed)
        onto = random_ontology(rng)
        axioms = list(onto.axioms("asserted"))
        first = reason(onto)
        shuffled = Ontology()
        for entity in onto.vocabulary():
            shuffled.ensure(entity)
        order = axioms[:]
        rng.shuffle(order)
        for axiom in order:
            shuffled.assert_axiom(axiom)
        second = reason(shuffled)
        assert first.inferred == second.inferred
        assert first.consistent == second.consistent
        assert first.violations == second.violations


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), extra=st.integers(0, 10**9))
def test_monotone_fragment_growth(seed, extra):
    """Adding an axiom to a monotone world never removes entailments."""
    from generators import random_axiom

    rng = random.Random(seed)
    onto = random_ontology(rng, monotone=True)
    before = set(reason(onto).inferred) | set(onto.axioms("asserted"))
    addition = random_axiom(random.Random(extra), onto, monotone=True)
    onto.assert_axiom(addition)
    after = set(reason(onto).inferred) | set(onto.axioms("asserted"))
    assert before <= after


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_inferred_axioms_are_what_their_factories_build(seed):
    """reason() builds inferred axioms without the factories' kind checks;
    an ill-kinded or non-canonical one differs from (or is refused by)
    the factory given its arguments."""
    onto = random_ontology(random.Random(seed))
    for axiom in reason(onto).inferred:
        assert model.AXIOM_FACTORIES[axiom.tag](*axiom.args) == axiom


def test_flows_never_build_the_inferred_axioms(monkeypatch, capsys):
    """Descriptor reads, Closure queries, patrol steps, `serialize
    --entailed` and the `reason` counts read the maps; no Closure they see
    builds its inferred axioms."""
    closures = []

    def recorded(onto):
        closures.append(reason(onto))
        return closures[-1]

    monkeypatch.setattr(scenarios, "reason", recorded)
    monkeypatch.setattr(cli, "reason", recorded)
    onto = scenarios.load_seed()
    recorded(onto)
    scenarios.reachable_leaf_places(onto)
    scenarios.patrol(onto, scenarios.PatrolConfig(steps=1, seed=3))
    assert cli.main(["serialize", "--entailed"]) == 0
    assert cli.main(["reason"]) == 0
    assert "# inferred: " in capsys.readouterr().out
    assert len(closures) >= 4
    assert not any("_inferred" in closure.__dict__ for closure in closures)


def _renamer(onto: Ontology, rng: random.Random):
    """A bijection on the store's non-builtin IRIs that also reorders them,
    and the maps it induces on entities, expressions and axioms."""
    names = sorted(e.iri for e in onto.vocabulary() if e not in model.BUILTINS)
    shuffled = names[:]
    rng.shuffle(shuffled)
    new_iri = {old: f"n{i:03d}_{old}" for i, old in enumerate(shuffled)}

    def entity(e):
        return e if e in model.BUILTINS else model.Entity(e.kind, new_iri[e.iri])

    def term(t):
        if isinstance(t, model.Entity):
            return entity(t)
        if isinstance(t, (model.And, model.Or)):
            return type(t)(tuple(term(m) for m in t.members))
        if isinstance(t, model.Named):
            return model.Named(entity(t.cls))
        if isinstance(t, (model.Some, model.Only)):
            return type(t)(entity(t.prop), entity(t.filler))
        if isinstance(t, (model.Min, model.Max)):
            return type(t)(t.count, entity(t.prop), entity(t.filler))
        return t  # a literal

    def axiom(a):
        # the factories put a renamed unordered pair back in canonical order
        return model.AXIOM_FACTORIES[a.tag](*(term(x) for x in a.args))

    return entity, axiom


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), monotone=st.booleans())
def test_renaming_iris_renames_the_closure(seed, monotone):
    """Metamorphic law: rename every non-builtin IRI by a bijection (one
    that reorders them, so canonical pair order and SameIndividual
    representatives change too); reason() gives the renamed inferred
    axioms, consistency and violations."""
    rng = random.Random(seed)
    onto = random_ontology(rng, monotone=monotone)
    entity, axiom = _renamer(onto, rng)
    renamed = Ontology()
    for e in onto.vocabulary():
        renamed.ensure(entity(e))
    for a in onto.axioms("asserted"):
        renamed.assert_axiom(axiom(a))
    original, image = reason(onto), reason(renamed)
    assert image.inferred == {axiom(a) for a in original.inferred}
    assert image.consistent == original.consistent
    assert {(v.rule, v.axioms) for v in image.violations} == {
        (v.rule, frozenset(axiom(a) for a in v.axioms)) for v in original.violations
    }
