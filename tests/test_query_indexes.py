"""The store's and the Closure's query indexes against the scans they replaced.

Random edit sequences (assert, retract, sometimes reason()) exercise the
indexes after they are built, including built asserted slots that later
retracts must shrink; oracles.py holds the scans, and the axiom round
trip that descriptor reads replaced.
"""

import inspect
import random

from hypothesis import example, given, settings, strategies as st

from generators import random_axiom, random_ontology
from oracles import (
    axioms_about_scan,
    direct_scan,
    entailed_links,
    entailed_reach,
    entailed_types,
    fillers_scan,
    instances_of_scan,
    links_of_scan,
    read_reference,
)
from ontodesc import model, scenarios
from ontodesc.descriptor import TAG_SPECS, DescriptorState
from ontodesc.model import AxiomTag, Kind, Ontology, OntologyError
from ontodesc.reasoner import reason
from ontodesc.scenarios import PatrolConfig, load_seed

ARITY = {
    tag: len(inspect.signature(factory).parameters)
    for tag, factory in model.AXIOM_FACTORIES.items()
}


def _check_axioms_about(onto: Ontology) -> None:
    axioms = onto.axioms("asserted")
    grounds = set(onto.vocabulary())
    for axiom in axioms:
        grounds.update(axiom.args)  # literals and class expressions too
    for tag in AxiomTag:
        for at in range(ARITY[tag]):
            for ground in grounds:
                expected = axioms_about_scan(axioms, tag, ground, at)
                assert onto.axioms_about(tag, ground, at=at) == expected, (tag, ground, at)


def _check_closure(onto: Ontology, closure) -> None:
    links = entailed_links(onto)
    types = entailed_types(onto)
    reach = entailed_reach(onto)
    props = onto.entities_of_kind(Kind.OBJECT_PROPERTY) + onto.entities_of_kind(
        Kind.DATA_PROPERTY
    )
    for ind in onto.individuals():
        assert closure.links_of(ind) == links_of_scan(links, ind)
        for prop in props:
            assert closure.fillers(ind, prop) == fillers_scan(links, ind, prop)
    for cls in onto.entities_of_kind(Kind.CLASS):
        assert closure.instances_of(cls) == instances_of_scan(types, cls)
        assert closure.direct_subclasses(cls) == direct_scan(onto, reach, cls, below=True)
        assert closure.direct_superclasses(cls) == direct_scan(onto, reach, cls, below=False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_indexes_match_the_scans_through_edit_sequences(seed):
    rng = random.Random(seed)
    onto = random_ontology(rng)
    for _ in range(rng.randint(1, 8)):
        pick = rng.random()
        if pick < 0.4:
            onto.assert_axiom(random_axiom(rng, onto))
        elif pick < 0.75:
            asserted = sorted(onto.axioms("asserted"), key=repr)
            if asserted:
                onto.retract_axiom(rng.choice(asserted))
        else:
            _check_closure(onto, reason(onto))
        _check_axioms_about(onto)


def _outcome(read):
    """What a read gives: its (items, intents), or the error it raises."""
    try:
        return read()
    except OntologyError as exc:
        return type(exc)


def _read(descriptor):
    intents = descriptor.read()
    return descriptor.items, intents


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
@example(seed=748)  # a DEFINITION list that repeats an atom
def test_read_matches_the_axiom_round_trip(seed):
    """read() builds items from the asserted index and the Closure's maps;
    the old path built a checked axiom per entailed fact and mapped it
    back.  Both must agree for every tag and every legal ground, the
    datatypes too, read fresh and over the previous ground's items."""
    rng = random.Random(seed)
    onto = random_ontology(rng)
    for _ in range(rng.randint(0, 6)):
        asserted = sorted(onto.axioms("asserted"), key=repr)
        if asserted and rng.random() < 0.4:
            onto.retract_axiom(rng.choice(asserted))
        else:
            onto.assert_axiom(random_axiom(rng, onto))
    reason(onto)
    entailed = onto.axioms("entailed")
    vocabulary = sorted(onto.vocabulary(), key=lambda e: (e.kind.value, e.iri))
    for tag, spec in TAG_SPECS.items():
        held = []
        for ground in (e for e in vocabulary if e.kind in spec.ground_kinds):
            for old in ([], held):
                got = _outcome(lambda: _read(DescriptorState(tag, ground, onto, items=list(old))))
                want = _outcome(lambda: read_reference(onto, entailed, tag, ground, old))
                assert got == want, (tag, ground, old)
            if isinstance(got, tuple):
                held = got[0]


def test_query_path_copies_no_store(monkeypatch):
    """Descriptor reads and writes, Closure queries and the flows built on
    them never copy a whole view; only reason() does."""
    onto = load_seed()
    reason(onto)
    copies = []
    reasoning = []
    axioms, run_reason = Ontology.axioms, scenarios.reason

    def counted_axioms(self, view="asserted"):
        if not reasoning:
            copies.append(view)
        return axioms(self, view)

    def uncounted_reason(world):
        reasoning.append(True)
        try:
            return run_reason(world)
        finally:
            reasoning.pop()

    monkeypatch.setattr(Ontology, "axioms", counted_axioms)
    monkeypatch.setattr(scenarios, "reason", uncounted_reason)
    assert scenarios.reachable_leaf_places(onto) == [("Room1", "ROOM"), ("Room2", "ROOM")]
    scenarios.patrol(onto, PatrolConfig(steps=2))
    closure = onto.current_closure()
    room1, indoor = onto.lookup("Room1"), onto.lookup("INDOOR")
    assert closure.is_entailed(model.class_assertion(room1, indoor))
    assert not closure.is_entailed(model.class_assertion(room1, onto.lookup("CORRIDOR")))
    assert copies == []
