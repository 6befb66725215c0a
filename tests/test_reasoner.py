import gc
import importlib.util
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from generators import chained_ontology, defined_world, random_expression, random_ontology, vocabulary
from oracles import (
    entailed_axioms,
    naive_reason,
    naive_stamps,
    naive_violations,
    satisfies_reference,
    subsumption_reachability,
    transitive_fillers,
)
from ontodesc import cli, model, reasoner, scenarios, syntax
from ontodesc.model import And, Kind, Literal, NOTHING, Ontology, StaleClosure, THING
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
        assert model.class_assertion(x, THING) in entailed_axioms(onto)

    def test_subclass_transitivity_materialized(self):
        onto, closure = closure_of("Class(A) Class(B) Class(C) SubClassOf(A B) SubClassOf(B C)")
        a, c = onto.lookup("A"), onto.lookup("C")
        assert model.sub_class(a, c) in closure.inferred

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
        assert model.sub_class(a, a) not in entailed_axioms(onto)

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
        assert schema.same == {a: {a, b}, b: {a, b}}
        assert schema.prop_reach == {p: {q}}
        assert closure.same_individuals(c) == set() and closure.same_individuals(a) == {b}
        assert closure.fillers(c, r) == {c}

        # a declaration changes no schema map, so the run keeps the schema
        d = onto.declare(Kind.INDIVIDUAL, "d")
        onto.declare(Kind.OBJECT_PROPERTY, "s")
        closure = reason(onto)
        assert closure._schema is schema
        assert closure._schema.same == schema.same
        assert closure._schema.prop_reach == schema.prop_reach
        assert closure.types_of(d) == {THING} and closure.fillers(d, r) == {d}

    def test_the_identity_walk_runs_once_per_group(self, monkeypatch):
        def reach_calls(n):
            onto = parse(
                "Class(A) Class(B) SubClassOf(A B) "
                + " ".join(f"Individual(i{k})" for k in range(n))
                + " "
                + " ".join(f"SameIndividual(i{k} i{k + 1})" for k in range(n - 1))
            )
            walk = reasoner._reach
            calls = 0

            def counted(*args):
                nonlocal calls
                calls += 1
                return walk(*args)

            with monkeypatch.context() as patch:
                patch.setattr(reasoner, "_reach", counted)
                closure = reason(onto)
            assert len(closure.same_individuals(onto.lookup("i0"))) == n - 1
            return calls

        assert reach_calls(10) == reach_calls(300)

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
            onto = syntax.load_seed()
            closure = reason(onto)
            refs = weakref.ref(onto), weakref.ref(closure)
            del onto, closure
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_closure_outlives_its_store(self):
        text = syntax.seed_path().read_text(encoding="utf-8")
        kept = parse(text)
        expected = reason(kept)
        closure = reason(parse(text))
        assert closure.ontology is None and expected.ontology is kept
        assert closure.inferred == expected.inferred
        assert list(closure.inferred_groups()) == list(expected.inferred_groups())
        for axiom in entailed_axioms(kept):
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

    @pytest.mark.parametrize("monotone", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_stamps_match_naive_rounds(self, seed, monotone):
        """Each membership's stamp is the naive round that adds it, and each
        round lists the individuals that entered a class in it.  No answer
        shows a wrong stamp, but a resumed run replays from them."""
        onto = random_ontology(random.Random(6000 + seed), monotone=monotone)
        closure = reason(onto)
        assert (closure._types, closure._entered) == naive_stamps(onto)

    @pytest.mark.parametrize("monotone", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_chained_worlds_match_naive_oracle(self, seed, monotone):
        """Definitions chained through fillers add memberships after round
        1, so every later round must wake the readers of what entered in
        the round before."""
        onto = chained_ontology(random.Random(7000 + seed), monotone=monotone)
        closure = reason(onto)
        assert (closure.inferred, closure.consistent) == naive_reason(onto)
        assert {(v.rule, v.axioms) for v in closure.violations} == naive_violations(onto)
        assert len(closure._entered) > 2  # round 2 adds a membership

    @pytest.mark.parametrize("monotone", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_chained_stamps_match_naive_rounds(self, seed, monotone):
        onto = chained_ontology(random.Random(7000 + seed), monotone=monotone)
        closure = reason(onto)
        assert (closure._types, closure._entered) == naive_stamps(onto)

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
            for a in entailed_axioms(onto)
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
        axioms = list(onto.axioms())
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
    before = set(reason(onto).inferred) | set(onto.axioms())
    addition = random_axiom(random.Random(extra), onto, monotone=True)
    onto.assert_axiom(addition)
    after = set(reason(onto).inferred) | set(onto.axioms())
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
    --entailed`, the `reason` counts and is_entailed read the maps; no
    Closure they see builds its inferred axioms.  is_entailed is asked of
    one derived fact of each shape the maps hold, a tautology and an
    axiom that is not entailed, on the seed world with a SameIndividual
    group and a SubPropertyOf chain added."""
    closures = []

    def recorded(onto):
        closures.append(reason(onto))
        return closures[-1]

    monkeypatch.setattr(scenarios, "reason", recorded)
    monkeypatch.setattr(cli, "reason", recorded)
    onto = syntax.load_seed()
    recorded(onto)
    scenarios.reachable_leaf_places(onto)
    scenarios.patrol(onto, scenarios.PatrolConfig(steps=1, seed=3))
    assert cli.main(["serialize", "--entailed"]) == 0
    assert cli.main(["reason"]) == 0
    assert "# inferred: " in capsys.readouterr().out
    world = parse(
        syntax.seed_path().read_text(encoding="utf-8")
        + "Individual(Twin1) Individual(Twin2) SameIndividual(Robot1 Twin1) SameIndividual(Twin1 Twin2)\n"
        + "ObjectProperty(isNear) ObjectProperty(isAround) SubPropertyOf(isConnectedTo isNear)\n"
        + "SubPropertyOf(isNear isAround)\n"
    )
    closure, named = recorded(world), world.lookup
    derived = [
        model.sub_class(named("CORRIDOR"), named("LOCATION")),
        model.AXIOM_FACTORIES[model.AxiomTag.SUB_PROPERTY](named("isConnectedTo"), named("isAround")),
        model.same_individual(named("Twin2"), named("Robot1")),
        model.property_assertion(named("Door1"), named("isDoorOf"), named("Room1")),
        model.class_assertion(named("Room1"), named("INDOOR")),
    ]
    for axiom in derived:
        assert closure.is_entailed(axiom) and not world.contains(axiom), axiom
    assert closure.is_entailed(model.sub_class(named("ROOM"), named("ROOM")))
    assert not closure.is_entailed(model.sub_class(named("LOCATION"), named("ROOM")))
    assert len(closures) >= 5
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
    for a in onto.axioms():
        renamed.assert_axiom(axiom(a))
    original, image = reason(onto), reason(renamed)
    assert image.inferred == {axiom(a) for a in original.inferred}
    assert image.consistent == original.consistent
    assert {(v.rule, v.axioms) for v in image.violations} == {
        (v.rule, frozenset(axiom(a) for a in v.axioms)) for v in original.violations
    }


# ---------------------------------------------------------------------------
# phase three's compiled definitions


@pytest.mark.parametrize("seed", range(60))
def test_the_compiled_plan_answers_as_the_recursive_walk(seed):
    """For random bodies, random stamp maps (stamps on both sides of the
    round), random links and identity groups and a random round, the
    compiled plan holds for exactly the individuals that
    oracles.satisfies_reference says satisfy the body."""
    rng = random.Random(seed)
    onto = vocabulary(rng, classes=6, object_props=3, individuals=7)
    classes = [c for c in onto.entities_of_kind(Kind.CLASS) if c not in model.DATATYPES]
    props = onto.entities_of_kind(Kind.OBJECT_PROPERTY)
    individuals = onto.individuals()
    for _ in range(5):
        r = rng.randint(1, 4)
        types = {ind: {c: rng.randint(0, 5) for c in classes if rng.random() < 0.5} for ind in individuals}
        links = {}
        for ind in individuals:
            for p in props:
                if rng.random() < 0.6:
                    links.setdefault(ind, {})[p] = {f for f in individuals if rng.random() < 0.4}
        same = {}
        for group in ({i for i in individuals if rng.random() < 0.4} for _ in range(rng.randint(0, 2))):
            if len(group) > 1 and not group & same.keys():
                same.update(dict.fromkeys(group, frozenset(group)))
        expr = random_expression(rng, onto)
        body = reasoner._compile(expr)
        for ind in individuals:
            held = reasoner._holds(body, ind, types, links, same, r)
            assert held == satisfies_reference(expr, ind, types, links, same, r), expr


def _perfbench_worlds():
    """perfbench/worlds.py, the benchmark's world generator (standard library only)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worlds.py"
    spec = importlib.util.spec_from_file_location("perfbench_worlds", path)
    worlds = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worlds  # its dataclasses look their module up there
    spec.loader.exec_module(worlds)
    return worlds


def _definition_tests(monkeypatch) -> list:
    """Record (round, individual, body) for each definition body that
    phase three tests on an individual, from here on."""
    tests = []
    holds = reasoner._holds

    def recorded(body, ind, types, links, same, r):
        tests.append((r, ind, body))
        return holds(body, ind, types, links, same, r)

    monkeypatch.setattr(reasoner, "_holds", recorded)
    return tests


def _tested_classes(closure, tests) -> list:
    """(round, individual, defined class) for each recorded test."""
    defined = {id(body): cls for cls, body in closure._schema.definitions}
    return [(r, ind, defined[id(body)]) for r, ind, body in tests]


def test_a_first_run_on_the_load_world_reads_no_filler_of_a_door_or_a_robot(monkeypatch):
    """Every definition of the seed TBox names LOCATION or INDOOR, which no
    door or robot holds, so a first run on the benchmark's load world
    (n=128, k=128, m=64) tests no definition on a door or a robot: none
    of them is a candidate.  Only locations are tested."""
    onto = parse(_perfbench_worlds().generate(128, 128, 64, seed=0).text)
    tests = _definition_tests(monkeypatch)
    closure = reason(onto)
    kinds = {name: onto.lookup(name) for name in ("DOOR", "ROBOT", "LOCATION")}
    of = {name: {i for i in onto.individuals() if cls in closure.types_of(i)} for name, cls in kinds.items()}
    assert len(of["DOOR"]) == 255 and len(of["ROBOT"]) == 64
    tested = {ind for _, ind, _ in tests}
    assert not tested & (of["DOOR"] | of["ROBOT"])
    assert tested and tested <= of["LOCATION"]


def test_a_first_run_on_the_load_world_tests_no_definition_after_a_move_none_reads(monkeypatch):
    """After round 1 an individual's definitions are tested again only when
    it entered a class some definition tests on the individual itself, or
    one of its fillers moved, and then only those definitions whose named
    classes it holds.  On the load world round 1 tests INDOOR on the 128
    corridors (the rooms enter it by inheritance); round 2 tests CORRIDOR
    on the 256 locations that entered INDOOR and ROOM on the corridors.
    The corridors enter CORRIDOR in round 2, which no body names and none
    of their fillers sees, so round 3 tests nothing: 512 tests, where
    testing every definition on each individual evaluated made 575 + 256
    calls of three tests each.  The stamps and the closure stay the naive
    rounds' and the oracle's."""
    onto = parse(_perfbench_worlds().generate(128, 128, 64, seed=0).text)
    tests = _definition_tests(monkeypatch)
    closure = reason(onto)
    names = Counter((r, cls.iri) for r, _, cls in _tested_classes(closure, tests))
    assert names == {(1, "INDOOR"): 128, (2, "CORRIDOR"): 256, (2, "ROOM"): 128}
    assert len(closure._entered) == 3  # round 2 still adds memberships
    assert (closure._types, closure._entered) == naive_stamps(onto)
    assert (closure.inferred, closure.consistent) == naive_reason(onto)


def test_a_first_run_on_the_load_world_passes_each_property_to_the_rules_once(monkeypatch):
    """Phase two runs the rules set at a time: a round passes the facts the
    round before added to reasoner._consequences, one batch per property.
    On the load world hasDoor's asserted facts give isDoorOf (inverse),
    whose facts give isConnectedTo (the chain), whose symmetric copies are
    there already, so a first run makes three calls, one per property and
    round, where passing one fact at a time made 1594.  isIn has no rule
    but identity sharing, and no SameIndividual group, so its batch is
    never passed.  Every fact is passed once, and the stamps and the
    closure stay the naive rounds' and the oracle's."""
    onto = parse(_perfbench_worlds().generate(128, 128, 64, seed=0).text)
    calls = []
    consequences = reasoner._consequences

    def counted(schema, links, back, p, pairs):
        calls.append((p.iri, list(pairs)))
        return consequences(schema, links, back, p, pairs)

    monkeypatch.setattr(reasoner, "_consequences", counted)
    closure = reason(onto)
    assert [p for p, _ in calls] == ["hasDoor", "isDoorOf", "isConnectedTo"]
    facts = [(s, p, f) for p, pairs in calls for s, f in pairs]
    assert len(facts) == len(set(facts)) == 3 * 510
    assert all(f in closure.fillers(s, onto.lookup(p)) for s, p, f in facts)
    assert (closure._types, closure._entered) == naive_stamps(onto)
    assert (closure.inferred, closure.consistent) == naive_reason(onto)


def _scale():
    """scripts/scale.py, whose with_definitions builds its TBox axis's worlds."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
    spec = importlib.util.spec_from_file_location("scale", path)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    return scale


def test_a_definition_is_tested_only_on_the_individuals_its_named_class_admits(monkeypatch):
    """On the load world with 128 definitions Yd = K(d) and a door, no door
    or robot is tested against any definition, and no room against a Yd
    whose K class it does not hold: a room is tested only for the Yd of
    the K classes it is in, each once.  The stamps stay the naive rounds'."""
    onto = parse(_scale().with_definitions(_perfbench_worlds().generate(128, 128, 64, seed=0).text, 128))
    tests = _definition_tests(monkeypatch)
    closure = reason(onto)
    tested = _tested_classes(closure, tests)
    doors, robots, rooms = (closure.instances_of(onto.lookup(name)) for name in ("DOOR", "ROBOT", "ROOM"))
    assert len(doors) == 255 and len(robots) == 64 and len(rooms) == 128
    assert not {ind for _, ind, _ in tested} & (doors | robots)
    by_room = [(ind, cls) for _, ind, cls in tested if ind in rooms]
    assert len(by_room) == len(set(by_room))
    ys = {(ind, cls) for ind, cls in by_room if cls.iri.startswith("Y")}
    held = {(ind, cls) for ind in rooms for cls in closure.types_of(ind) if cls.iri.startswith("K")}
    assert ys == {(ind, onto.lookup(f"Y{d}")) for d in range(128) for ind in rooms if (ind, onto.lookup(f"K{d}")) in held}
    assert (closure._types, closure._entered) == naive_stamps(onto)


@pytest.mark.parametrize("seed", range(20))
def test_many_definition_worlds_match_the_naive_rounds(seed):
    """Small load-shaped worlds with up to 16 definitions (generators.defined_world):
    two named conjuncts, unions naming different classes, bodies with no
    named class.  The stamps are the naive rounds' and the closure the
    oracle's."""
    rng = random.Random(5000 + seed)
    onto = defined_world(rng, _perfbench_worlds().generate(8, 8, 2, seed=seed).text, rng.randint(3, 16))
    closure = reason(onto)
    assert (closure._types, closure._entered) == naive_stamps(onto)
    assert (closure.inferred, closure.consistent) == naive_reason(onto)


def test_entering_a_class_a_body_names_tests_the_definitions_again():
    """x enters A in round 1 through its filler, which moves no further, so
    only x's own entry into A, which B names as a conjunct on x itself,
    makes B hold in round 2."""
    onto = Ontology()
    a, b, c = (onto.declare(Kind.CLASS, n) for n in ("A", "B", "C"))
    p = onto.declare(Kind.OBJECT_PROPERTY, "p")
    x, y = (onto.declare(Kind.INDIVIDUAL, n) for n in ("x", "y"))
    has_c = model.Some(p, c)
    for axiom in (
        model.class_definition(a, has_c),
        model.class_definition(b, And((model.Named(a), has_c))),
        model.property_assertion(x, p, y),
        model.class_assertion(y, c),
    ):
        onto.assert_axiom(axiom)
    closure = reason(onto)
    assert closure._types[x][a] == 1 and closure._types[x][b] == 2
    assert (closure._types, closure._entered) == naive_stamps(onto)
    assert (closure.inferred, closure.consistent) == naive_reason(onto)
