"""The store's and the Closure's query indexes against the scans they replaced.

Random edit sequences (assert, retract, sometimes reason()) exercise the
indexes after they are built, including built asserted slots that later
retracts must shrink; oracles.py holds the scans, and the axiom round
trip that descriptor reads replaced.  Descriptor reads are memoized per
Closure, so both the read that fills the memo and the one it answers
are held to that round trip.
"""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from generators import chained_ontology, random_axiom, random_ontology
from oracles import (
    axioms_about_scan,
    direct_scan,
    entailed_links,
    entailed_reach,
    entailed_types,
    fillers_scan,
    instances_of_scan,
    links_of_scan,
    most_specific_scan,
    read_reference,
)
from test_incremental import edit
from ontodesc import model, scenarios
from ontodesc.descriptor import TAG_SPECS, DescriptorState, DescriptorTag, MappingError, from_axiom
from ontodesc.model import AxiomTag, Kind, Ontology, OntologyError, StaleClosure
from ontodesc.reasoner import reason
from ontodesc.scenarios import PatrolConfig
from ontodesc.syntax import load_seed, parse

ARITY = {tag: len(shape.roles) for tag, shape in model.SHAPES.items()}


def test_arity_covers_every_argument_position():
    unary = {
        AxiomTag.FUNCTIONAL_PROPERTY,
        AxiomTag.REFLEXIVE_PROPERTY,
        AxiomTag.SYMMETRIC_PROPERTY,
        AxiomTag.TRANSITIVE_PROPERTY,
        AxiomTag.IRREFLEXIVE_PROPERTY,
    }
    ternary = {AxiomTag.PROPERTY_CHAIN, AxiomTag.PROPERTY_ASSERTION}
    assert ARITY == {tag: 1 if tag in unary else 3 if tag in ternary else 2 for tag in AxiomTag}


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


def test_most_specific_types_match_the_scan():
    """types_of(most_specific_only=True) reads the taxonomy's direct
    subclasses; the scan compares every pair of an individual's types."""
    for seed in range(200):
        onto = random_ontology(random.Random(seed))
        closure = reason(onto)
        reach = entailed_reach(onto)
        for ind, types in entailed_types(onto).items():
            expected = most_specific_scan(reach, types)
            assert closure.types_of(ind, most_specific_only=True) == expected, (seed, ind)


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


def _legal_pairs(onto: Ontology) -> list:
    vocabulary = sorted(onto.vocabulary(), key=lambda e: (e.kind.value, e.iri))
    return [
        (tag, ground)
        for tag, spec in TAG_SPECS.items()
        for ground in vocabulary
        if ground.kind in spec.ground_kinds
    ]


def _old_items(rng: random.Random, tag, pool: list) -> list:
    """A random buffer for `tag`: items other grounds read, in random order."""
    old = rng.sample(pool, rng.randint(0, min(len(pool), 4)))
    return old if tag is DescriptorTag.DEFINITION else list(dict.fromkeys(old))


def _check_memoized_reads(onto: Ontology, rng: random.Random, pairs: list) -> None:
    """Two reads of every pair - the first fills the Closure's memo, the
    second is answered from it - each equal the round trip: fresh, over
    an old buffer, and after the caller edits what a read handed out."""
    entailed = onto.axioms("entailed")
    wants = {
        (tag, ground): _outcome(lambda: read_reference(onto, entailed, tag, ground, []))
        for tag, ground in pairs
    }
    pools = {}
    for (tag, _), want in wants.items():
        if isinstance(want, tuple):
            pools.setdefault(tag, []).extend(want[0])
    for (tag, ground), want in wants.items():
        for _ in range(2):
            assert _outcome(lambda: _read(DescriptorState(tag, ground, onto))) == want, (tag, ground)
            old = _old_items(rng, tag, pools.get(tag, []))
            got = _outcome(lambda: _read(DescriptorState(tag, ground, onto, items=list(old))))
            assert got == _outcome(lambda: read_reference(onto, entailed, tag, ground, old)), (tag, ground, old)
        if not isinstance(want, tuple):
            continue
        descriptor = DescriptorState(tag, ground, onto)
        intents = descriptor.read()
        descriptor.items.reverse()
        descriptor.items.append(object())
        intents.clear()
        intents.append(None)
        assert _read(DescriptorState(tag, ground, onto)) == want, (tag, ground)


def _change_the_world(rng: random.Random, onto: Ontology, pairs: list) -> None:
    """A descriptor write that drops or adds one item, then asserts until
    the store has changed."""
    tag, ground = rng.choice([p for p in pairs if p[0] is not DescriptorTag.DEFINITION])
    descriptor = DescriptorState(tag, ground, onto)
    descriptor.read()
    if descriptor.items and rng.random() < 0.5:
        descriptor.items.pop(rng.randrange(len(descriptor.items)))
    else:
        donor = DescriptorState(tag, rng.choice([g for t, g in pairs if t is tag]), onto)
        donor.read()
        descriptor.items += donor.items[:1]
    try:
        descriptor.write()
    except OntologyError:
        pass
    for _ in range(50):
        if onto.stale:
            return
        onto.assert_axiom(random_axiom(rng, onto))
    assume(onto.stale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_memoized_reads_match_the_round_trip(seed):
    """read() keeps each (tag, ground) answer on the Closure.  A hit must
    give what the round trip gives, whatever the descriptor held and
    whatever the caller did with an earlier answer; a write makes the
    next read raise StaleClosure, and after reason() reads see the new
    Closure, not the old memo."""
    rng = random.Random(seed)
    onto = random_ontology(rng)
    reason(onto)
    pairs = _legal_pairs(onto)
    _check_memoized_reads(onto, rng, pairs)
    _change_the_world(rng, onto, pairs)
    for tag, ground in pairs:
        with pytest.raises(StaleClosure):
            DescriptorState(tag, ground, onto).read()
    reason(onto)
    _check_memoized_reads(onto, rng, _legal_pairs(onto))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), monotone=st.booleans())
def test_carried_reads_match_the_round_trip(seed, monotone):
    """A resumed run carries the reads its changes leave standing.  After
    every run of an edit sequence each (tag, ground) read, carried or
    fresh, equals the round trip; every read fills the memo the next run
    carries from."""
    rng = random.Random(seed)
    onto = random_ontology(rng, monotone=monotone)
    for step in range(rng.randint(2, 6)):
        reason(onto)
        entailed = onto.axioms("entailed")
        for tag, ground in _legal_pairs(onto):
            got = _outcome(lambda: _read(DescriptorState(tag, ground, onto)))
            assert got == _outcome(lambda: read_reference(onto, entailed, tag, ground, [])), (step, tag, ground)
        for _ in range(rng.randint(1, 4)):
            edit(rng, onto, monotone, step)


# the closure_only tags whose Closure answer must hold every asserted item
# of the slot; SUB_CLASSES and SUPER_CLASSES list the direct neighbours
ANSWERS_HOLD_THE_ASSERTED = (DescriptorTag.TYPES, DescriptorTag.LINKS, DescriptorTag.INSTANCES)


def _check_answers_hold_the_asserted(onto: Ontology, closure) -> None:
    """Each asserted axiom of a TYPES, LINKS or INSTANCES slot maps to an
    item of the Closure's answer for that slot, so a read of those tags
    need not read the store, and reads still equal the round trip."""
    entailed = onto.axioms("entailed")
    for tag in ANSWERS_HOLD_THE_ASSERTED:
        spec = TAG_SPECS[tag]
        for ground in (e for e in onto.vocabulary() if e.kind in spec.ground_kinds):
            answer = set(spec.item_type.from_closure(getattr(closure, spec.derived)(ground)))
            for axiom in onto.axioms_about(spec.axiom_tag, ground, at=spec.ground_at):
                assert from_axiom(tag, ground, axiom) in answer, (tag, ground, axiom)
            got = _outcome(lambda: _read(DescriptorState(tag, ground, onto)))
            assert got == _outcome(lambda: read_reference(onto, entailed, tag, ground, [])), (tag, ground)


def test_closure_only_marks_the_taxonomy_and_the_answers_that_hold_the_asserted():
    closure_only = {tag for tag, spec in TAG_SPECS.items() if spec.closure_only}
    assert closure_only == {DescriptorTag.SUB_CLASSES, DescriptorTag.SUPER_CLASSES, *ANSWERS_HOLD_THE_ASSERTED}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), chained=st.booleans(), monotone=st.booleans())
def test_closure_answers_hold_every_asserted_item(seed, chained, monotone):
    """On generated worlds, after a first run and after each resumed run
    of an edit sequence."""
    rng = random.Random(seed)
    onto = (chained_ontology if chained else random_ontology)(rng, monotone=monotone)
    for step in range(rng.randint(2, 5)):
        _check_answers_hold_the_asserted(onto, reason(onto))
        for _ in range(rng.randint(1, 4)):
            edit(rng, onto, monotone, step)


def test_closure_answers_hold_asserted_self_links_on_an_irreflexive_property():
    """No rule derives a self-link on an irreflexive property, but an
    asserted one stays in the links map: inserted by a first run and by a
    resumed one, and put back after a retract deletes a derivation of it."""
    onto = parse(
        "ObjectProperty(p) IrreflexiveProperty(p) TransitiveProperty(p) Class(A)"
        " Individual(x) Individual(y) Individual(z)"
        " PropertyAssertion(p x x) PropertyAssertion(p x y) PropertyAssertion(p y x)"
        " ClassAssertion(A z)"
    )
    x, y, z, p = (onto.lookup(name) for name in ("x", "y", "z", "p"))
    _check_answers_hold_the_asserted(onto, reason(onto))
    onto.assert_axiom(model.property_assertion(z, p, z))
    closure = reason(onto)
    assert closure.changes() is not None  # resumed
    _check_answers_hold_the_asserted(onto, closure)
    onto.retract_axiom(model.property_assertion(y, p, x))  # deletes x p x, which x p y p x joins to
    closure = reason(onto)
    assert closure.changes() is not None
    _check_answers_hold_the_asserted(onto, closure)
    assert (p, x) in closure.links_of(x) and (p, z) in closure.links_of(z)


def test_two_definitions_raise_on_every_read():
    onto = load_seed()
    door, room = onto.lookup("DOOR"), onto.lookup("ROOM")
    onto.assert_axiom(model.class_definition(room, model.Named(door)))
    closure = reason(onto)
    for _ in range(2):
        with pytest.raises(MappingError):
            DescriptorState(DescriptorTag.DEFINITION, room, onto).read()
    assert (AxiomTag.CLASS_DEFINITION, 0, room) not in closure._reads


def test_each_read_has_a_memo_slot_of_its_own():
    """A read is memoized under the fact slot it lists, (axiom tag,
    ground_at, ground); two tags sharing a slot would answer each other's
    reads.  So no two TAG_SPECS rows share one, and reading every legal
    (tag, ground) pair of the seed world fills one entry per pair."""
    slots = [(spec.axiom_tag, spec.ground_at) for spec in TAG_SPECS.values()]
    assert len(set(slots)) == len(slots)
    onto = load_seed()
    closure = reason(onto)
    pairs = _legal_pairs(onto)
    for tag, ground in pairs:
        DescriptorState(tag, ground, onto).read()
        spec = TAG_SPECS[tag]
        assert (spec.axiom_tag, spec.ground_at, ground) in closure._reads
    assert len(closure._reads) == len(pairs)


def test_a_repeated_flow_reads_from_the_memo(monkeypatch):
    """A second reachable_leaf_places on an unchanged world computes no
    entailed items; after a patrol step changes the world it does again."""
    onto = load_seed()
    reason(onto)
    computed = []
    entailed_items = DescriptorState._entailed_items

    def counted(self, closure):
        computed.append((self.tag, self.ground))
        return entailed_items(self, closure)

    monkeypatch.setattr(DescriptorState, "_entailed_items", counted)
    first = scenarios.reachable_leaf_places(onto)
    assert computed
    computed.clear()
    assert scenarios.reachable_leaf_places(onto) == first
    assert computed == []
    scenarios.patrol(onto, PatrolConfig(steps=1, seed=3))
    computed.clear()
    scenarios.reachable_leaf_places(onto)
    assert computed


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
