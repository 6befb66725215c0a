"""Acceptance gate: one test per shipping criterion.

Each test prints a single `criterion N: PASS/FAIL - summary` line on the
real stdout (bypassing capture) so a plain pytest run shows the verdict
table, then asserts.  Criteria 5 and 6 deliberately regenerate the same
200 randomized worlds from the same seeds.
"""

import random
import sys
import time

import networkx as nx

from generators import pick_ground, random_ontology, random_triple, vocabulary
from ontodesc import model
from ontodesc.cli import EXIT_OK, main
from ontodesc.compound import full_individual
from ontodesc.descriptor import (
    DescriptorState,
    DescriptorTag,
    Link,
    UndefinedBuild,
    from_axiom,
    from_definition,
    to_axiom,
    to_axioms,
)
from ontodesc.model import Kind, Ontology
from ontodesc.reasoner import reason
from ontodesc.scenarios import (
    PatrolConfig,
    patrol,
    setup_door_state_classes,
)
from ontodesc.syntax import load_seed, parse, seed_path, serialize
from oracles import naive_reason, subsumption_reachability, transitive_fillers

WORLD_COUNT = 200
WORLD_BASE_SEED = 9000


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {verdict} - {description}", file=sys.__stdout__, flush=True)
    assert passed, f"criterion {number} failed: {description} {detail}".rstrip()


def make_world(index: int) -> Ontology:
    return random_ontology(random.Random(WORLD_BASE_SEED + index))


def test_criterion_1_new_location_classification(capsys, tmp_path):
    path = tmp_path / "world.onto"
    path.write_text(seed_path().read_text(encoding="utf-8"), encoding="utf-8")
    started = time.perf_counter()
    code = main(["example1", "--ontology", str(path), "Location3", "Corridor1", "Door3"])
    printed = set(capsys.readouterr().out.split())
    onto = parse(path.read_text(encoding="utf-8"))
    reason(onto)
    links = DescriptorState(DescriptorTag.LINKS, onto.lookup("Location3"), onto)
    links.read()
    elapsed = time.perf_counter() - started
    connected = Link(onto.lookup("isConnectedTo"), onto.lookup("Corridor1"))
    passed = (
        code == EXIT_OK
        and printed == {"THING", "LOCATION", "INDOOR", "ROOM"}
        and connected in links.items
        and elapsed < 1.0
    )
    report(
        1,
        "new location classifies as {THING, LOCATION, INDOOR, ROOM} and links to the corridor",
        passed,
        f"(exit={code}, printed={sorted(printed)}, elapsed={elapsed:.3f}s)",
    )


def test_criterion_2_reachable_leaf_places(capsys):
    started = time.perf_counter()
    code = main(["reachable", "Robot1"])
    lines = capsys.readouterr().out.splitlines()
    elapsed = time.perf_counter() - started
    passed = code == EXIT_OK and lines == ["Room1 ROOM", "Room2 ROOM"] and elapsed < 1.0
    report(
        2,
        "robot reaches exactly (Room1, ROOM) and (Room2, ROOM)",
        passed,
        f"(exit={code}, lines={lines}, elapsed={elapsed:.3f}s)",
    )


def test_criterion_3_patrol_setup_and_determinism():
    onto = load_seed()
    setup_door_state_classes(onto)
    door = onto.lookup("DOOR")
    opened = onto.lookup("OPEN")
    close = onto.lookup("CLOSE")
    setup_ok = (
        onto.contains(model.sub_class(close, door), "asserted")
        and onto.contains(model.sub_class(opened, door), "asserted")
        and onto.contains(model.disjoint_classes(opened, close), "asserted")
        and onto.contains(model.disjoint_classes(close, opened), "asserted")
    )
    first = patrol(load_seed(), PatrolConfig(steps=20, seed=7))
    second = patrol(load_seed(), PatrolConfig(steps=20, seed=7))
    trace_ok = (
        len(first) == 20
        and all(step.consistent for step in first)
        and all(step.position_count == 1 for step in first)
        and [s.line() for s in first] == [s.line() for s in second]
    )
    report(
        3,
        "door state classes install disjointly and the 20-step seed-7 patrol "
        "stays consistent with byte-identical traces",
        setup_ok and trace_ok,
    )


def test_criterion_4_mapping_bijection_10000_triples():
    rng = random.Random(4242)
    mismatches = 0
    seen_tags = set()
    onto = vocabulary(rng)
    for index in range(10_000):
        if index % 250 == 0:
            onto = vocabulary(rng)
        tag, ground, payload = random_triple(rng, onto)
        seen_tags.add(tag)
        if tag is DescriptorTag.DEFINITION:
            axioms = to_axioms(tag, ground, payload)
            if len(axioms) != 1 or from_definition(ground, axioms[0]) != payload:
                mismatches += 1
        else:
            if from_axiom(tag, ground, to_axiom(tag, ground, payload)) != payload:
                mismatches += 1
    passed = mismatches == 0 and seen_tags == set(DescriptorTag)
    report(
        4,
        "10,000 generated (tag, ground, item) triples round-trip with zero mismatches",
        passed,
        f"(mismatches={mismatches}, tags covered={len(seen_tags)}/{len(DescriptorTag)})",
    )


def _informative(axioms):
    """Entailed view minus tautologies: writes may materialise or retract
    a tautology (e.g. an asserted SubClassOf(A A)) without changing what
    is entailed, so stability is judged on the informative axioms."""
    return {a for a in axioms if not model.tautological(a)}


def test_criterion_5_descriptor_calculus_laws():
    # stability needs the monotone fragment: universal and upper-bound
    # restrictions make recognition non-monotone, so materialising an
    # entailed fact could legally change later recognition rounds
    failures = []
    for index in range(WORLD_COUNT):
        rng = random.Random(WORLD_BASE_SEED + index)
        onto = random_ontology(rng, monotone=True)
        for tag in DescriptorTag:
            reason(onto)
            descriptor = DescriptorState(tag, pick_ground(rng, onto, tag), onto)
            descriptor.read()
            if descriptor.read() != []:
                failures.append((index, tag.value, "read not idempotent"))
            try:
                built = descriptor.build()
            except UndefinedBuild:  # an item names nothing to build: nothing to check
                built = []
            if any(b.read() != [] for b in built):
                failures.append((index, tag.value, "built descriptor out of sync"))
            before = _informative(onto.axioms("entailed"))
            descriptor.write()
            if descriptor.write() != []:
                failures.append((index, tag.value, "write not idempotent"))
            reason(onto)
            after = _informative(onto.axioms("entailed"))
            if before != after:
                failures.append((index, tag.value, "write after read changed entailments"))
            if descriptor.read() != []:
                failures.append((index, tag.value, "read after write-back and reason() has intents"))
        if failures:
            break
    report(
        5,
        f"read/write idempotence, build-read coherence, entailment stability and "
        f"write-back read stability hold for every tag on {WORLD_COUNT} randomized worlds",
        not failures,
        f"(first failure: {failures[:1]})",
    )


def test_criterion_6_reasoner_matches_naive_oracle():
    failures = []
    for index in range(WORLD_COUNT):
        onto = make_world(index)
        closure = reason(onto)
        expected_inferred, expected_consistent = naive_reason(make_world(index))
        if set(closure.inferred) != expected_inferred:
            failures.append((index, "inferred sets differ"))
        if closure.consistent != expected_consistent:
            failures.append((index, "consistency verdicts differ"))
        # subsumption pairs against plain graph reachability (strict pairs:
        # generated worlds may assert tautologies like SubClassOf(A A))
        entailed_pairs = {
            (a.args[0], a.args[1])
            for a in onto.axioms("entailed")
            if a.tag is model.AxiomTag.SUB_CLASS and a.args[0] != a.args[1]
        }
        if entailed_pairs != subsumption_reachability(onto):
            failures.append((index, "subsumption differs from graph reachability"))
        # entailed transitive relations are fixpoints of the independent
        # closure operator (irreflexive properties drop derived loops and
        # are covered by the naive oracle above)
        for prop in onto.entities_of_kind(Kind.OBJECT_PROPERTY):
            if not onto.contains(model.transitive(prop)):
                continue
            if onto.contains(model.irreflexive(prop)):
                continue
            edges = {
                (a.args[0], a.args[2])
                for a in onto.axioms("entailed")
                if a.tag is model.AxiomTag.PROPERTY_ASSERTION and a.args[1] == prop
            }
            closed = set(nx.transitive_closure(nx.DiGraph(edges)).edges)
            if edges != closed:
                failures.append((index, f"{prop.iri} not transitively closed"))
        # clean single-rule world: full equality against the oracle
        clean = Ontology()
        clean_rng = random.Random(WORLD_BASE_SEED + index)
        prop = clean.declare(Kind.OBJECT_PROPERTY, "p")
        people = [clean.declare(Kind.INDIVIDUAL, f"a{i}") for i in range(clean_rng.randint(2, 6))]
        clean.assert_axiom(model.transitive(prop))
        for _ in range(clean_rng.randint(1, 9)):
            clean.assert_axiom(
                model.property_assertion(clean_rng.choice(people), prop, clean_rng.choice(people))
            )
        clean_closure = reason(clean)
        got = {(s, f) for s in people for f in clean_closure.fillers(s, prop)}
        if got != transitive_fillers(clean, prop):
            failures.append((index, "clean transitive world differs from oracle"))
        if failures:
            break
    report(
        6,
        f"saturation equals the naive fixpoint oracle axiom-for-axiom on the same "
        f"{WORLD_COUNT} worlds, with reachability and transitive-closure checks",
        not failures,
        f"(first failure: {failures[:1]})",
    )


def test_criterion_7_parser_round_trip_and_golden_file():
    golden = seed_path().read_text(encoding="utf-8")
    golden_ok = serialize(parse(golden)) == golden
    failures = 0
    rng = random.Random(777)
    for _ in range(500):
        onto = random_ontology(rng)
        canonical = serialize(onto)
        if serialize(parse(canonical)) != canonical:
            failures += 1
    report(
        7,
        "500 generated documents re-serialize verbatim and the packaged seed "
        "file is a canonicalization fixed point",
        golden_ok and failures == 0,
        f"(golden_ok={golden_ok}, failures={failures})",
    )


def test_criterion_8_disjointness_is_orderless():
    onto = Ontology()
    a = onto.declare(Kind.CLASS, "A")
    b = onto.declare(Kind.CLASS, "B")
    onto.assert_axiom(model.disjoint_classes(a, b))
    raw_forward = model.Axiom(model.AxiomTag.DISJOINT_CLASSES, (a, b))
    raw_reversed = model.Axiom(model.AxiomTag.DISJOINT_CLASSES, (b, a))
    passed = (
        onto.contains(model.disjoint_classes(a, b))
        and onto.contains(model.disjoint_classes(b, a))
        and onto.contains(raw_forward)
        and onto.contains(raw_reversed)
    )
    report(
        8,
        "a single disjointness assertion answers contains() for both argument orders",
        passed,
    )
