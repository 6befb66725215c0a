"""reason() resumed from the installed Closure against reason() from scratch.

Random edit sequences - mostly ClassAssertion and PropertyAssertion
asserts and retracts and declared individuals, which a run resumes
across, now and then a schema or SameIndividual edit or a declared
property or class - run reason() between edits.  After every run the
Closure must answer exactly what a from-scratch run on a copy of the
store answers, and what the naive oracle derives.
"""

import gc
import random
import tracemalloc
from collections import Counter
from copy import deepcopy
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from generators import chained_ontology, defined_world, random_axiom, random_ontology
from oracles import naive_reason, naive_violations
from ontodesc import descriptor, model, reasoner, scenarios
from ontodesc.descriptor import TAG_SPECS, DescriptorState, DescriptorTag
from ontodesc.model import AxiomTag, Kind, Ontology, StaleClosure
from ontodesc.reasoner import reason
from ontodesc.scenarios import PatrolConfig, patrol
from ontodesc.syntax import load_seed, parse, seed_path
from test_reasoner import _perfbench_worlds

ABOX_FACTS = (AxiomTag.CLASS_ASSERTION, AxiomTag.PROPERTY_ASSERTION)


def copy_store(onto: Ontology) -> Ontology:
    copy = Ontology()
    for entity in onto.vocabulary():
        copy.ensure(entity)
    for axiom in onto.axioms("asserted"):
        copy.assert_axiom(axiom)
    return copy


def queries(onto: Ontology, closure):
    """(key, call) for every Closure query over the store's vocabulary."""
    classes = onto.entities_of_kind(Kind.CLASS)
    props = onto.entities_of_kind(Kind.OBJECT_PROPERTY) + onto.entities_of_kind(
        Kind.DATA_PROPERTY
    )
    individuals = onto.individuals()
    for ind in individuals:
        yield ("types", ind), partial(closure.types_of, ind)
        yield ("leaf types", ind), partial(closure.types_of, ind, most_specific_only=True)
        yield ("links", ind), partial(closure.links_of, ind)
        yield ("same", ind), partial(closure.same_individuals, ind)
        for prop in props:
            yield ("fillers", ind, prop), partial(closure.fillers, ind, prop)
            yield ("subjects", ind, prop), partial(closure.subjects, ind, prop)
        for other in individuals:
            yield ("same as", ind, other), partial(closure.same_as, ind, other)
    for cls in classes:
        yield ("instances", cls), partial(closure.instances_of, cls)
        yield ("below", cls), partial(closure.direct_subclasses, cls)
        yield ("above", cls), partial(closure.direct_superclasses, cls)
        for other in classes:
            yield ("subsumed", cls, other), partial(closure.subsumed_by, cls, other)
    for prop in props:
        yield ("super", prop), partial(closure.super_properties, prop)


def answers(onto: Ontology, closure) -> dict:
    """Every Closure query over the store's vocabulary, answered."""
    out = {"consistent": closure.consistent, "violations": closure.violations}
    out.update((key, call()) for key, call in queries(onto, closure))
    return out


def edit(rng: random.Random, onto: Ontology, monotone: bool, step: int) -> None:
    """One random edit: about three in four touch the ABox facts only, and
    one in ten declares an individual, half of those with a class or a
    link on it asserted in the same edit."""
    pick = rng.random()
    if pick < 0.78:
        facts = sorted((a for a in onto.axioms("asserted") if a.tag in ABOX_FACTS), key=repr)
        if facts and rng.random() < 0.5:
            onto.retract_axiom(rng.choice(facts))
            return
        for _ in range(50):
            axiom = random_axiom(rng, onto, monotone)
            if axiom.tag in ABOX_FACTS:
                onto.assert_axiom(axiom)
                return
    elif pick < 0.83:
        onto.assert_axiom(random_axiom(rng, onto, monotone))
    elif pick < 0.86:
        individuals = onto.individuals()
        onto.assert_axiom(model.same_individual(rng.choice(individuals), rng.choice(individuals)))
    elif pick < 0.96:
        fresh = onto.declare(Kind.INDIVIDUAL, f"fresh{step}")
        fact = rng.random()
        if fact < 0.25:
            classes = [c for c in onto.entities_of_kind(Kind.CLASS) if c not in model.DATATYPES]
            onto.assert_axiom(model.class_assertion(fresh, rng.choice(classes)))
        elif fact < 0.5:  # a link from or to it
            ends = [fresh, rng.choice(onto.individuals())]
            rng.shuffle(ends)
            prop = rng.choice(onto.entities_of_kind(Kind.OBJECT_PROPERTY))
            onto.assert_axiom(model.property_assertion(ends[0], prop, ends[1]))
    elif pick < 0.98:
        kind = rng.choice((Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY))
        onto.declare(kind, f"fresh{'O' if kind is Kind.OBJECT_PROPERTY else 'D'}P{step}")
    else:
        onto.declare(Kind.CLASS, f"freshC{step}")


def answered_facts(onto: Ontology, closure) -> tuple[set, dict]:
    """The (subject, property, filler) facts and individual -> classes that
    the Closure's queries answer for the store's individuals."""
    individuals = onto.individuals()
    links = {(ind, p, f) for ind in individuals for p, f in closure.links_of(ind)}
    return links, {ind: closure.types_of(ind) for ind in individuals}


def check_resumed_runs(rng: random.Random, onto: Ontology, monotone: bool) -> None:
    """Random edits with a resumed run after each batch, held to a scratch
    run on a copy of the store and to the naive oracle.  A run that resumed
    reports in changes() exactly the link facts and memberships that
    differ from the ones before it; the "before" side is read before the
    edits, since the run changes the maps in place."""
    reason(onto)
    for step in range(rng.randint(2, 8)):
        links_before, types_before = answered_facts(onto, onto.current_closure())
        for _ in range(rng.randint(1, 4)):
            edit(rng, onto, monotone, step)
        resumed = reason(onto)
        if (changes := resumed.changes()) is not None:
            links, types = answered_facts(onto, resumed)
            assert changes.links == links ^ links_before
            assert changes.memberships == {
                ind: (now - was, was - now)
                for ind, now in types.items()
                if now != (was := types_before.get(ind, set()))
            }
        copy = copy_store(onto)
        scratch = reason(copy)
        assert resumed.inferred == scratch.inferred
        assert answers(onto, resumed) == answers(copy, scratch)
        # the next run replays from these stamps, and no answer shows them
        assert resumed._types == scratch._types
        assert resumed._entered == scratch._entered
        inferred, consistent = naive_reason(onto)
        assert resumed.inferred == inferred
        assert resumed.consistent == consistent
        assert {(v.rule, v.axioms) for v in resumed.violations} == naive_violations(onto)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), monotone=st.booleans())
def test_resumed_runs_match_scratch_runs_and_the_oracle(seed, monotone):
    rng = random.Random(seed)
    check_resumed_runs(rng, random_ontology(rng, monotone=monotone), monotone)


@pytest.mark.parametrize("monotone", [False, True])
@pytest.mark.parametrize("seed", range(15))
def test_chained_worlds_resume_as_scratch_runs(seed, monotone):
    """Edits to worlds whose memberships grow after round 1 (see
    generators.chained_ontology) change late rounds, which a resumed run
    replays from the last run's stamps."""
    rng = random.Random(8000 + seed)
    check_resumed_runs(rng, chained_ontology(rng, monotone=monotone), monotone)


@pytest.mark.parametrize("seed", range(15))
def test_many_definition_worlds_resume_as_scratch_runs(seed):
    """Edits to small load-shaped worlds with up to 16 definitions
    (generators.defined_world) replay rounds whose candidate sets hold
    only the owned individuals."""
    rng = random.Random(5500 + seed)
    onto = defined_world(rng, _perfbench_worlds().generate(8, 8, 2, seed=seed).text, rng.randint(3, 16))
    check_resumed_runs(rng, onto, monotone=False)


@pytest.mark.parametrize("seed", range(30))
def test_an_earlier_closure_keeps_its_results(seed):
    """A resumed run changes the maps in place: the Closure before it keeps
    only its stored results, `consistent` and `violations`, and every
    other read raises StaleClosure."""
    rng = random.Random(7000 + seed)
    onto = random_ontology(rng, axioms=rng.randint(10, 40))
    earlier = reason(onto)
    before = copy_store(onto)
    for _ in range(rng.randint(1, 6)):
        edit(rng, onto, monotone=False, step=0)
    reason(onto)
    assert earlier.violations == reason(before).violations
    assert earlier.consistent == (not earlier.violations)
    for key, call in queries(onto, earlier):
        with pytest.raises(StaleClosure):
            call()
    with pytest.raises(StaleClosure):
        earlier.inferred
    with pytest.raises(StaleClosure):
        next(earlier.inferred_groups())


@pytest.mark.parametrize("seed", range(10))
def test_a_superseded_closure_refuses_reads_with_no_edit_between(seed):
    """A run with an empty journal still installs a new Closure over the
    same maps: the one it supersedes keeps `consistent` and `violations`
    and refuses every other read."""
    rng = random.Random(7500 + seed)
    onto = random_ontology(rng, axioms=rng.randint(10, 40))
    earlier = reason(onto)
    stored = (earlier.consistent, earlier.violations)
    latest = reason(onto)
    assert onto.current_closure() is latest
    assert (earlier.consistent, earlier.violations) == stored
    for key, call in queries(onto, earlier):
        with pytest.raises(StaleClosure):
            call()
    for read in (lambda: earlier.inferred, lambda: next(earlier.inferred_groups()), earlier.changes):
        with pytest.raises(StaleClosure):
            read()


@pytest.mark.parametrize("edit_between", [True, False])
def test_a_superseded_closure_stays_refused_after_its_store_is_freed(edit_between):
    """The later run changed the maps the superseded Closure shared, so
    freeing the store must not make it answer from them: it keeps
    `consistent` and `violations` and refuses every other read."""
    onto = parse("Class(A) Individual(x)")
    earlier = reason(onto)
    if edit_between:
        onto.assert_axiom(model.class_assertion(onto.lookup("x"), onto.lookup("A")))
    latest = reason(onto)
    calls = list(queries(onto, earlier))
    del onto, latest
    gc.collect()
    assert earlier.ontology is None
    assert (earlier.consistent, earlier.violations) == (True, ())
    for key, call in calls:
        with pytest.raises(StaleClosure):
            call()
    for read in (lambda: earlier.inferred, lambda: next(earlier.inferred_groups()), earlier.changes):
        with pytest.raises(StaleClosure):
            read()


def undoable_edit(rng: random.Random, onto: Ontology):
    """One random axiom edit and its inverse, as (edit, inverse): the
    retract of an asserted ABox fact or the assert of an axiom not
    asserted, mostly an ABox fact, which a run resumes across."""
    facts = sorted((a for a in onto.axioms("asserted") if a.tag in ABOX_FACTS), key=repr)
    if facts and rng.random() < 0.4:
        axiom = rng.choice(facts)
    else:
        axiom = random_axiom(rng, onto)
        for _ in range(50 if rng.random() < 0.85 else 0):
            if axiom.tag in ABOX_FACTS:
                break
            axiom = random_axiom(rng, onto)
    put, take = partial(onto.assert_axiom, axiom), partial(onto.retract_axiom, axiom)
    return (take, put) if onto.contains(axiom) else (put, take)


WORLDS = {"random": random_ontology, "chained": chained_ontology}


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("seed", range(15))
def test_edits_undone_before_a_run_leave_the_closure_current(world, seed):
    """The journal drops an edit that is undone, so edits each followed by
    its inverse, with no run between, leave the installed Closure current
    and every answer as it was."""
    rng = random.Random(7700 + seed)
    onto = WORLDS[world](rng)
    closure = reason(onto)
    before = answers(onto, closure)
    inverses = []
    for _ in range(rng.randint(1, 6)):
        edit, inverse = undoable_edit(rng, onto)
        assert edit()
        inverses.append(inverse)
    for inverse in reversed(inverses):
        assert inverse()
    assert not onto.stale and onto.current_closure() is closure
    assert answers(onto, closure) == before


def carried_state(closure) -> tuple:
    """A copy of the state a resumed run takes over from `closure`."""
    return deepcopy(
        (closure._types, closure._entered, closure._links, closure._back, closure._violations_by)
    )


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("seed", range(15))
def test_edits_and_their_inverses_each_run_restore_the_carried_state(world, seed):
    """Edits, each followed by a run, then their inverses in reverse order,
    each followed by a run, leave the stamps, the rounds' entrants, the
    links, their mirror and the violations per individual as the first
    run left them."""
    rng = random.Random(7900 + seed)
    onto = WORLDS[world](rng)
    first = carried_state(reason(onto))
    inverses = []
    for _ in range(rng.randint(1, 6)):
        edit, inverse = undoable_edit(rng, onto)
        assert edit()
        inverses.append(inverse)
        reason(onto)
    for inverse in reversed(inverses):
        assert inverse()
        last = reason(onto)
    assert carried_state(last) == first


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("phase", ["_memberships", "_violations"])
@pytest.mark.parametrize("seed", range(20))
def test_a_run_that_raises_leaves_the_next_to_start_afresh(monkeypatch, seed, phase):
    """A run that raises after phase two changed the maps in place has
    taken the journal: the next run starts from an empty state."""
    rng = random.Random(9000 + seed)
    onto = random_ontology(rng, axioms=rng.randint(10, 40))
    reason(onto)
    for _ in range(rng.randint(1, 6)):
        edit(rng, onto, monotone=False, step=0)

    def interrupted(*args):
        raise Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(reasoner, phase, interrupted)
        with pytest.raises(Interrupted):
            reason(onto)
    resumed = reason(onto)
    copy = copy_store(onto)
    assert answers(onto, resumed) == answers(copy, reason(copy))
    inferred, consistent = naive_reason(onto)
    assert resumed.inferred == inferred
    assert resumed.consistent == consistent


class TestJournal:
    def test_abox_edits_are_carried_and_undone_ones_dropped(self):
        onto = parse("Class(A) Individual(x) Individual(y) ObjectProperty(p)")
        closure = reason(onto)
        x, y = onto.lookup("x"), onto.lookup("y")
        typed = model.class_assertion(x, onto.lookup("A"))
        linked = model.property_assertion(x, onto.lookup("p"), y)
        onto.assert_axiom(typed)
        onto.assert_axiom(linked)
        onto.retract_axiom(linked)
        assert onto._take_journal() == (closure, {typed: True})
        assert onto._take_journal() == (None, None)  # taken until the next run installs

    @staticmethod
    def resumed(change) -> bool:
        """Whether reason() resumes after an ABox fact edit and then change."""
        onto = parse("Class(A) Class(B) Individual(x) Individual(y)")
        reason(onto)
        onto.assert_axiom(model.class_assertion(onto.lookup("x"), onto.lookup("A")))
        change(onto)
        return reason(onto).changes() is not None

    @pytest.mark.parametrize(
        "change",
        [
            lambda onto: onto.assert_axiom(model.sub_class(onto.lookup("A"), onto.lookup("B"))),
            lambda onto: onto.assert_axiom(
                model.same_individual(onto.lookup("x"), onto.lookup("y"))
            ),
            lambda onto: onto.declare(Kind.CLASS, "C"),
        ],
        ids=["tbox", "same-individual", "declaration"],
    )
    def test_any_other_edit_starts_afresh(self, change):
        """The store journals every edit; reason() starts afresh on a class
        declaration or a TBox, RBox or identity edit."""
        assert not self.resumed(change)

    @pytest.mark.parametrize(
        "change",
        [
            lambda onto: onto.declare(Kind.INDIVIDUAL, "z"),
            lambda onto: onto.declare(Kind.OBJECT_PROPERTY, "q"),
            lambda onto: [
                change(model.sub_class(onto.lookup("A"), onto.lookup("B")))
                for change in (onto.assert_axiom, onto.retract_axiom)
            ],
        ],
        ids=["individual-declaration", "property-declaration", "undone-tbox"],
    )
    def test_a_run_resumes_across_new_individuals_and_properties(self, change):
        """reason() resumes across ABox fact edits and declared individuals
        and properties.  An edit undone before the run leaves nothing to
        start afresh on."""
        assert self.resumed(change)


@pytest.mark.parametrize("world", [random_ontology, chained_ontology])
@pytest.mark.parametrize("seed", range(15))
def test_a_declared_individual_changes_only_its_own_answers(monkeypatch, world, seed):
    """The declaration law.  A new individual joins a reasoned world as a
    first run types it, and the run that takes it in builds no schema.
    changes() names the new individual alone: its memberships, THING
    among them, and its self-links (a reflexive property's, and what
    the rules derive from them).  It can enter more classes than THING,
    a self-link's domains and definitions whose bodies hold with no
    fillers (Only, Max), so each other answer stays the same but
    instances_of for each class it entered, and a violation it is in.
    A run after a class declaration builds the schema once."""
    rng = random.Random(6000 + seed)
    onto = world(rng)
    before = answers(onto, reason(onto))
    fresh = onto.declare(Kind.INDIVIDUAL, "fresh")
    calls = 0
    build = reasoner._schema

    def counted(*args):
        nonlocal calls
        calls += 1
        return build(*args)

    monkeypatch.setattr(reasoner, "_schema", counted)
    closure = reason(onto)
    assert calls == 0
    types, changes = closure.types_of(fresh), closure.changes()
    assert model.THING in types
    assert changes.memberships == {fresh: (types, set())}
    assert changes.links == {(fresh, p, f) for p, f in closure.links_of(fresh)}
    assert all(f is fresh for _, f in closure.links_of(fresh)) and not changes.edits
    after = answers(onto, closure)
    violations, was = set(after.pop("violations")), set(before.pop("violations"))
    assert violations >= was
    assert all(any(fresh in model.axiom_entities(a) for a in v.axioms) for v in violations - was)
    assert after.pop("consistent") == (not violations)
    before.pop("consistent")
    for key, answer in before.items():
        entered = key[0] == "instances" and key[1] in types
        assert after[key] == (answer | {fresh} if entered else answer), key
    copy = copy_store(onto)
    scratch = reason(copy)
    assert answers(onto, closure) == answers(copy, scratch)
    assert (closure._types, closure._entered) == (scratch._types, scratch._entered)

    calls = 0
    onto.declare(Kind.CLASS, "Fresh")
    assert reason(onto).changes() is None and calls == 1


def corridor_chain(n: int) -> Ontology:
    """The seed schema over n corridors C0..C(n-1): room R<i> behind door
    RD<i>, door D<i> between C<i> and C<i+1>, Robot1 in C0."""
    abox = ("Individual(", "ClassAssertion(", "PropertyAssertion(")
    lines = [
        line
        for line in seed_path().read_text(encoding="utf-8").splitlines()
        if not line.startswith(abox)
    ]
    lines += ["Individual(Robot1)", "ClassAssertion(ROBOT Robot1)", "PropertyAssertion(isIn Robot1 C0)"]
    for i in range(n):
        lines += [f"Individual(C{i})", f"Individual(R{i})", f"Individual(RD{i})"]
        lines += [f"PropertyAssertion(hasDoor C{i} RD{i})", f"PropertyAssertion(hasDoor R{i} RD{i})"]
        if i + 1 < n:
            lines += [f"Individual(D{i})", f"PropertyAssertion(hasDoor C{i} D{i})"]
            lines += [f"PropertyAssertion(hasDoor C{i + 1} D{i})"]
    return parse("\n".join(lines))


def _re_evaluated(patch) -> list:
    """Record, for each phase three run from here on, the individuals it
    re-evaluates: a re-evaluated individual gets a new stamp map, and a
    declared one its first."""
    runs = []
    memberships = reasoner._memberships

    def recorded(schema, classed, links, back, types, entered, touched, relinked):
        before = dict(types)
        changed = memberships(schema, classed, links, back, types, entered, touched, relinked)
        runs.append({ind for ind, ts in types.items() if before.get(ind) is not ts})
        return changed

    patch.setattr(reasoner, "_memberships", recorded)
    return runs


def _re_evaluated_in_a_step(monkeypatch, n: int) -> tuple[int, str]:
    onto = corridor_chain(n)
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=0))  # declares the door states: a full run
    with monkeypatch.context() as patch:
        runs = _re_evaluated(patch)
        [step] = patrol(onto, PatrolConfig(steps=1, seed=1))  # from C1, through three doors
    return sum(map(len, runs)), step.line()


def test_a_patrol_step_costs_the_edit_not_the_world(monkeypatch):
    small, small_line = _re_evaluated_in_a_step(monkeypatch, 32)
    large, large_line = _re_evaluated_in_a_step(monkeypatch, 128)
    assert small_line == large_line  # the same local step in both worlds
    assert 0 < small and large <= 1.5 * small


def _pairs_passed(monkeypatch, n: int) -> tuple[int, int, str]:
    """The (subject, filler) pairs that phase two passes to the rules in one
    patrol step, and in a retract and a re-assert of PropertyAssertion(hasDoor
    C1 D1), each followed by a resumed run, on the n-corridor chain."""
    onto = corridor_chain(n)
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=0))  # declares the door states: a full run
    passed = []
    consequences = reasoner._consequences

    def counted(schema, links, back, p, pairs):
        passed.append(len(pairs))
        return consequences(schema, links, back, p, pairs)

    with monkeypatch.context() as patch:
        patch.setattr(reasoner, "_consequences", counted)
        [step] = patrol(onto, PatrolConfig(steps=1, seed=1))
        in_step = sum(passed)
        door = model.property_assertion(*(onto.lookup(iri) for iri in ("C1", "hasDoor", "D1")))
        onto.retract_axiom(door)
        assert reason(onto).changes() is not None
        onto.assert_axiom(door)
        assert reason(onto).changes() is not None
    return in_step, sum(passed) - in_step, step.line()


def test_phase_two_passes_the_rules_what_the_edit_touches_not_the_world(monkeypatch):
    """A resumed run's DRed steps pass the rules only the facts an edit
    reaches, so a step's batches do not grow with the world.  A patrol step
    moves the robot along isIn, which no rule reads, so it passes none;
    moving a door out of a corridor and back passes the same pairs at 32
    and at 128 corridors."""
    small_step, small_door, small_line = _pairs_passed(monkeypatch, 32)
    large_step, large_door, large_line = _pairs_passed(monkeypatch, 128)
    assert small_line == large_line  # the same local step in both worlds
    assert small_step == large_step == 0
    assert 0 < small_door == large_door


class _ReadIdentity(dict):
    """An identity map that records in `read` each individual looked up in
    it, and every one when it is walked whole."""

    def __init__(self, same: dict, read: set):
        super().__init__(same)
        self.read = read

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __iter__(self):
        self.read.update(super().keys())
        return super().__iter__()

    def keys(self):
        self.read.update(super().keys())
        return super().keys()

    def items(self):
        self.read.update(super().keys())
        return super().items()


def test_a_resumed_run_shares_only_into_what_it_re_evaluates(monkeypatch):
    """Sharing pulls a mate's classes into each individual a run
    re-evaluates, so a resumed run looks up the identity map for those
    alone, however many identity groups the world holds."""
    onto = parse(
        "Class(A) Class(B) Class(C) SubClassOf(A B)"
        + "".join(
            f" Individual(x{i}) Individual(y{i}) SameIndividual(x{i} y{i}) ClassAssertion(A x{i})"
            for i in range(64)
        )
    )
    reason(onto)
    runs, read = _re_evaluated(monkeypatch), set()
    memberships = reasoner._memberships

    def recorded(schema, *args):
        fields = {name: getattr(schema, name) for name in schema.__slots__}
        return memberships(type(schema)(**fields | {"same": _ReadIdentity(schema.same, read)}), *args)

    monkeypatch.setattr(reasoner, "_memberships", recorded)
    x0, y0, c = onto.lookup("x0"), onto.lookup("y0"), onto.lookup("C")
    onto.assert_axiom(model.class_assertion(x0, c))
    closure = reason(onto)
    assert closure.changes() is not None and c in closure.types_of(y0)  # y0 shares x0's new class
    assert set().union(*runs) == {x0, y0}
    assert read == {x0, y0}


def test_a_mate_gains_by_sharing_what_its_own_test_no_longer_gives():
    """y holds B from round 0, so it enters D = And(B Max(0 p C)) in round
    1, before its filler f enters C.  Its mate x holds B from round 1 on,
    and in round 2 the Max test fails for it: x is in D only because
    sharing copies y's round-1 class in round 2.  A first run and a run
    resumed across the B assertion both share it."""
    text = (
        "Class(A) Class(B) Class(C) Class(D) ObjectProperty(p) SubClassOf(A C)"
        " DefineClass(D And(B Max(0 p C)))"
        " Individual(x) Individual(y) Individual(f) SameIndividual(x y)"
        " ClassAssertion(A f) PropertyAssertion(p x f)"
    )
    first = parse(text + " ClassAssertion(B y)")
    resumed = parse(text)
    reason(resumed)
    resumed.assert_axiom(model.class_assertion(resumed.lookup("y"), resumed.lookup("B")))
    for onto in (first, resumed):
        closure = reason(onto)
        assert onto.lookup("D") in closure.types_of(onto.lookup("x"))
        assert closure.inferred == naive_reason(onto)[0]
        assert answers(onto, closure) == answers(copy_store(onto), reason(copy_store(onto)))
    assert first.current_closure().changes() is None and resumed.current_closure().changes() is not None


def test_a_first_run_records_no_changes(monkeypatch):
    """A from-scratch run types every individual from its own pass over the
    asserted axioms and builds no change record: it makes no ground
    lookup, so the ClassAssertion ground slot is built by the first
    resumed run that needs it."""
    onto = load_seed()
    calls = Counter()
    axioms_about, changes = Ontology.axioms_about, reasoner.Changes

    def counted_axioms_about(*args, **kwargs):
        calls["axioms_about"] += 1
        return axioms_about(*args, **kwargs)

    def counted_changes(*args):
        calls["Changes"] += 1
        return changes(*args)

    slots = onto._asserted_index._slots
    with monkeypatch.context() as patch:
        patch.setattr(Ontology, "axioms_about", counted_axioms_about)
        patch.setattr(reasoner, "Changes", counted_changes)
        assert reason(onto).changes() is None
        assert not calls and AxiomTag.CLASS_ASSERTION not in slots
        onto.assert_axiom(model.class_assertion(onto.lookup("Room1"), onto.lookup("ROBOT")))
        resumed = reason(onto)
    assert calls["Changes"] == 1 and calls["axioms_about"] >= 1
    assert AxiomTag.CLASS_ASSERTION in slots
    copy = copy_store(onto)
    scratch = reason(copy)
    assert answers(onto, resumed) == answers(copy, scratch)
    assert (resumed._types, resumed._entered) == (scratch._types, scratch._entered)


def test_a_patrol_step_matches_a_scratch_run():
    onto = corridor_chain(8)
    for seed in range(12):
        [step] = patrol(onto, PatrolConfig(steps=1, seed=seed))
        resumed = onto.current_closure()
        copy = copy_store(onto)
        assert answers(onto, resumed) == answers(copy, reason(copy)), step.line()
        assert resumed.inferred == copy.current_closure().inferred


def test_patrol_resumes_after_its_first_step():
    onto = load_seed()
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=3))
    onto_closure = onto.current_closure()
    patrol(onto, PatrolConfig(steps=1, seed=4))
    assert onto.current_closure()._schema is onto_closure._schema


def test_a_late_round_still_reaches_a_re_evaluated_individual():
    """x enters A3 in round 3, so y enters Y in round 4.  An unrelated edit
    re-evaluates y from round 0, and y grows nothing until round 4: the
    replay must run the last run's rounds out, not stop at the first
    round in which y grew nothing."""
    onto = parse(
        "Class(A0) Class(A1) Class(A2) Class(A3) Class(Y) Class(Z) ObjectProperty(p)"
        " Individual(x) Individual(y)"
        " DefineClass(A1 A0) DefineClass(A2 A1) DefineClass(A3 A2)"
        " DefineClass(Y Some(p A3))"
        " ClassAssertion(A0 x) PropertyAssertion(p y x)"
    )
    y, cls_y = onto.lookup("y"), onto.lookup("Y")
    assert cls_y in reason(onto).types_of(y)
    onto.assert_axiom(model.class_assertion(y, onto.lookup("Z")))
    assert cls_y in reason(onto).types_of(y)
    assert onto.current_closure()._types == reason(copy_store(onto))._types


def _peak_bytes_of_a_step(n: int) -> tuple[int, str]:
    onto = corridor_chain(n)
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=0))  # declares the door states: a full run
    gc.collect()
    tracemalloc.start()
    try:
        [step] = patrol(onto, PatrolConfig(steps=1, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, step.line()


def test_a_patrol_step_allocates_for_the_edit_not_the_world():
    """The peak memory a step allocates stays flat from n=32 to n=512: a
    resumed run copies no map of the world."""
    small, small_line = _peak_bytes_of_a_step(32)
    large, large_line = _peak_bytes_of_a_step(512)
    assert small_line == large_line
    assert large <= 1.5 * small


def _fresh_reads_per_step(monkeypatch, n: int) -> float:
    onto = corridor_chain(n)
    reason(onto)
    patrol(onto, PatrolConfig(steps=100, seed=0))  # the warm-up visits most of the world
    calls = 0
    entailed_items = DescriptorState._entailed_items

    def counted(self, closure):
        nonlocal calls
        calls += 1
        return entailed_items(self, closure)

    with monkeypatch.context() as patch:
        patch.setattr(DescriptorState, "_entailed_items", counted)
        patrol(onto, PatrolConfig(steps=300, seed=1))
    return calls / 300


@pytest.mark.parametrize("n", [32, 128])
def test_a_patrol_step_reads_afresh_only_what_it_changed(monkeypatch, n):
    """A resumed run carries the descriptor reads its changes leave
    standing, so a step reads afresh the robot's links, the flipped
    doors' types and what it sees for the first time: about 2.4 of the
    4.5 parts a step reads, at n=32 and n=128."""
    assert _fresh_reads_per_step(monkeypatch, n) <= 4


def test_changes_name_what_a_run_changed():
    """After each resumed patrol step, Closure.changes() names exactly the
    subjects whose links changed and each individual's gained and lost
    classes; after a full run it is None."""
    onto = corridor_chain(8)
    assert reason(onto).changes() is None
    scenarios.setup_door_state_classes(onto)  # declares the door states: a full run
    assert onto.current_closure().changes() is None
    robot, opened, close = (onto.lookup(iri) for iri in ("Robot1", "OPEN", "CLOSE"))
    flips = 0
    for seed in range(12):
        before = onto.current_closure()
        types = {ind: before.types_of(ind) for ind in onto.individuals()}
        links = {ind: before.links_of(ind) for ind in onto.individuals()}
        patrol(onto, PatrolConfig(steps=1, seed=seed))
        after = onto.current_closure()
        changes = after.changes()
        assert robot in changes.relinked
        assert changes.relinked == {ind for ind, was in links.items() if after.links_of(ind) != was}
        assert changes.memberships == {
            ind: (after.types_of(ind) - was, was - after.types_of(ind))
            for ind, was in types.items()
            if after.types_of(ind) != was
        }
        flips += sum(
            {opened, close} == {*gained, *lost} for gained, lost in changes.memberships.values()
        )
    assert flips


def test_a_moved_link_drops_its_subjects_read_and_keeps_its_fillers():
    """isIn has no inverse, so moving the robot changes the robot's links
    alone: the resumed run drops the robot's LINKS read and carries its
    destination's, the same object.  The robot's move leaves its
    destination's reads alone."""
    onto = corridor_chain(4)
    reason(onto)
    robot, is_in, start, there = (onto.lookup(iri) for iri in ("Robot1", "isIn", "C0", "C1"))
    spec = TAG_SPECS[DescriptorTag.LINKS]
    slot = {ind: (spec.axiom_tag, spec.ground_at, ind) for ind in (robot, there)}
    for ind in slot:
        DescriptorState(DescriptorTag.LINKS, ind, onto).read()
    carried = onto.current_closure()._reads[slot[there]]
    onto.retract_axiom(model.property_assertion(robot, is_in, start))
    onto.assert_axiom(model.property_assertion(robot, is_in, there))
    closure = reason(onto)
    assert closure.changes().relinked == {robot}
    assert closure._reads[slot[there]] is carried
    assert slot[robot] not in closure._reads
    scratch = copy_store(onto)
    reason(scratch)
    for ind in slot:  # the carried read answers what a scratch run's does
        states = [DescriptorState(DescriptorTag.LINKS, ind, store) for store in (onto, scratch)]
        for state in states:
            state.read()
        assert states[0].items == states[1].items


RELEVANCE_WORLDS = {
    # a filler class read only inside an Or, under an And
    "or": "DefineClass(Y Or(Z And(B Some(p A)))) ClassAssertion(B a) PropertyAssertion(p a c)",
    # a filler class read only through Only; p's Some reads another class
    "only": (
        "DefineClass(Y Only(p A)) DefineClass(W Some(p B))"
        " PropertyAssertion(p a b) PropertyAssertion(p a c) ClassAssertion(A b)"
    ),
    # a filler class read only through Max; p's Some reads another class
    "max": (
        "DefineClass(Y Max(1 p A)) DefineClass(W Some(p B))"
        " PropertyAssertion(p a b) PropertyAssertion(p a c) ClassAssertion(A b)"
    ),
    # an identity-group mate of c gains a class no definition reads
    "same": "DefineClass(Y Some(p A)) SameIndividual(a c) PropertyAssertion(p b a)",
}


@pytest.mark.parametrize("case", sorted(RELEVANCE_WORLDS))
def test_a_changed_class_wakes_every_individual_that_reads_it(case):
    """c gains a class, then loses it.  The run must reach every individual
    whose memberships read that class of c: a subject whose definitions
    test it on c, at any depth and under every restriction, and each
    member of c's identity group.  Each case fails for a rule that misses
    one of them (a restriction under Or, an Only or Max filler, a group
    mate)."""
    onto = parse(
        "Class(A) Class(B) Class(W) Class(Y) Class(Z) ObjectProperty(p)"
        " Individual(a) Individual(b) Individual(c) " + RELEVANCE_WORLDS[case]
    )
    reason(onto)
    cls = onto.lookup("Z" if case == "same" else "A")
    fact = model.class_assertion(onto.lookup("c"), cls)
    results = []
    for change in (onto.assert_axiom, onto.retract_axiom):
        change(fact)
        resumed = reason(onto)
        assert resumed.changes() is not None  # the run resumed
        copy = copy_store(onto)
        assert answers(onto, resumed) == answers(copy, reason(copy))
        inferred, consistent = naive_reason(onto)
        assert resumed.inferred == inferred and resumed.consistent == consistent
        results.append(resumed.types_of(onto.lookup("a")))
    assert results[0] != results[1]  # the edit does reach a


def test_a_patrol_step_re_evaluates_only_the_doors_it_flipped(monkeypatch):
    """The definitions test a location's doors for DOOR alone, so a door
    whose state flips between OPEN and CLOSE wakes no corridor or room
    that holds it: phase three re-evaluates only the flipped doors."""
    onto = corridor_chain(8)
    scenarios.setup_door_state_classes(onto)  # declares the door states: a full run
    states = {onto.lookup("OPEN"): "open", onto.lookup("CLOSE"): "closed"}
    runs = _re_evaluated(monkeypatch)
    evaluated_doors = 0
    for seed in range(12):
        closure = onto.current_closure()
        was = {
            ind: {states[cls] for cls in closure.types_of(ind) if cls in states}
            for ind in onto.individuals()
        }
        runs.clear()
        [step] = patrol(onto, PatrolConfig(steps=1, seed=seed))
        evaluated = set().union(*runs)
        flipped = {
            onto.lookup(iri) for iri, state in step.door_states if was[onto.lookup(iri)] != {state}
        }
        assert evaluated <= flipped, (step.line(), sorted(i.iri for i in evaluated - flipped))
        evaluated_doors += len(evaluated)
    assert evaluated_doors


LINK_SCHEMAS = {
    # (schema, the property the link is asserted on)
    "domain": ("PropertyDomain(p A)", "p"),
    "range": ("PropertyRange(p B)", "p"),
    "both": ("PropertyDomain(p A) PropertyRange(p B)", "p"),
    "neither": ("", "p"),
    # the link's super-property carries the domain
    "inherited domain": ("SubPropertyOf(q p) PropertyDomain(p A)", "q"),
}


@pytest.mark.parametrize("case", sorted(LINK_SCHEMAS))
def test_a_changed_link_retypes_its_ends_through_a_domain_or_range(case):
    """A link (a p b) gives a its property's domains and b its ranges.
    Asserting, then retracting it must retype a exactly when p (or a
    super-property) has a domain, and b exactly when it has a range;
    each case fails for a run that skips that side."""
    schema, prop = LINK_SCHEMAS[case]
    onto = parse(
        "Class(A) Class(B) ObjectProperty(p) ObjectProperty(q)"
        " Individual(a) Individual(b) " + schema
    )
    reason(onto)
    fact = model.property_assertion(onto.lookup("a"), onto.lookup(prop), onto.lookup("b"))
    for change in (onto.assert_axiom, onto.retract_axiom):
        change(fact)
        resumed = reason(onto)
        assert resumed.changes() is not None  # the run resumed
        copy = copy_store(onto)
        assert answers(onto, resumed) == answers(copy, reason(copy))
        inferred, consistent = naive_reason(onto)
        assert resumed.inferred == inferred and resumed.consistent == consistent


PUT_BACK_WORLDS = {
    # (world, the link retracted): each keeps a second derivation of what it loses
    "super-property": (
        "SubPropertyOf(p q) SubPropertyOf(r q) PropertyAssertion(p a b) PropertyAssertion(r a b)",
        ("a", "p", "b"),
    ),
    "transitive": (
        "TransitiveProperty(q) PropertyAssertion(q a b) PropertyAssertion(q b d)"
        " PropertyAssertion(q a c) PropertyAssertion(q c d)",
        ("a", "q", "b"),
    ),
    "chain": (
        "SubPropertyChain(r p q) PropertyAssertion(p a b) PropertyAssertion(q b d)"
        " PropertyAssertion(p a c) PropertyAssertion(q c d)",
        ("a", "p", "b"),
    ),
    "asserted": (
        "SubPropertyOf(p q) PropertyAssertion(p a b) PropertyAssertion(q a b)",
        ("a", "p", "b"),
    ),
    "reflexive": ("ReflexiveProperty(q) SubPropertyOf(p q) PropertyAssertion(p a a)", ("a", "p", "a")),
}


@pytest.mark.parametrize("case", sorted(PUT_BACK_WORLDS))
def test_a_retracted_link_puts_back_what_is_still_derived(case):
    """Retracting one link overdeletes every fact derived through it; the
    run must put back each one still asserted or derived another way.
    `answers` sees an asserted fact that goes missing, which `inferred`
    leaves out.  Each case fails for a run that misses its own way of
    deriving the fact."""
    world, (s, p, f) = PUT_BACK_WORLDS[case]
    onto = parse(
        "ObjectProperty(p) ObjectProperty(q) ObjectProperty(r)"
        " Individual(a) Individual(b) Individual(c) Individual(d) " + world
    )
    reason(onto)
    onto.retract_axiom(model.property_assertion(*map(onto.lookup, (s, p, f))))
    resumed = reason(onto)
    assert resumed.changes() is not None  # the run resumed
    copy = copy_store(onto)
    scratch = reason(copy)
    assert answers(onto, resumed) == answers(copy, scratch)
    assert resumed.inferred == scratch.inferred
    inferred, consistent = naive_reason(onto)
    assert resumed.inferred == inferred and resumed.consistent == consistent


def test_a_patrol_step_rebuilds_no_robot_or_location_types(monkeypatch):
    """A step edits only isIn links and door ClassAssertions, and isIn has
    neither a domain nor a range in the seed schema (hasDoor has both,
    but no step edits a hasDoor link), so the robot's move rebuilds the
    initial types of no robot or location: a step recomputes only the
    doors whose ClassAssertions it wrote."""
    onto = corridor_chain(8)
    scenarios.setup_door_state_classes(onto)  # declares the door states: a full run
    doors = onto.current_closure().instances_of(onto.lookup("DOOR"))
    rebuilt = set()
    memberships = reasoner._memberships

    def recorded(schema, onto, links, back, types, entered, touched, relinked):
        rebuilt.update(touched)
        return memberships(schema, onto, links, back, types, entered, touched, relinked)

    monkeypatch.setattr(reasoner, "_memberships", recorded)
    for seed in range(12):
        patrol(onto, PatrolConfig(steps=1, seed=seed))
    assert rebuilt and rebuilt <= doors, sorted(ind.iri for ind in rebuilt - doors)


IDENTITY_TAGS = (DescriptorTag.SAME_AS, DescriptorTag.DIFFERENT_FROM)


def _part_reads(monkeypatch, flow) -> Counter:
    """The descriptor parts flow() reads, counted by tag."""
    reads = Counter()
    read = DescriptorState.read

    def counted(self):
        reads[self.tag] += 1
        return read(self)

    with monkeypatch.context() as patch:
        patch.setattr(DescriptorState, "read", counted)
        flow()
    return reads


def test_a_patrol_step_reads_only_the_parts_it_uses(monkeypatch):
    """A step reads the robot's links, its position's links and each
    door's types: about 4.5 parts, where whole individual compounds
    read about 18, SameAs and DifferentFrom among them."""
    onto = corridor_chain(32)
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=0))  # declares the door states: a full run
    reads = _part_reads(monkeypatch, lambda: patrol(onto, PatrolConfig(steps=300, seed=1)))
    assert sum(reads.values()) <= 5 * 300
    assert not any(reads[tag] for tag in IDENTITY_TAGS)


def test_a_patrol_step_renders_only_the_items_it_adds(monkeypatch):
    """A write takes the read's axiom for each item its read found, so a
    step renders through the checked to_axiom only the robot's new
    position and each flipped door's new state: about 2.1 items per step
    at n=32, against 8.4 when every written item was rendered."""
    onto = corridor_chain(32)
    reason(onto)
    patrol(onto, PatrolConfig(steps=1, seed=0))  # declares the door states: a full run
    calls = 0
    to_axiom = descriptor.to_axiom

    def counted(*args):
        nonlocal calls
        calls += 1
        return to_axiom(*args)

    with monkeypatch.context() as patch:
        patch.setattr(descriptor, "to_axiom", counted)
        patrol(onto, PatrolConfig(steps=300, seed=1))
    assert calls <= 3 * 300


def test_reachable_places_read_only_the_parts_they_use(monkeypatch):
    """The robot and its position are read for their links alone and each
    neighbour for its types alone."""
    onto = corridor_chain(8)
    reason(onto)
    reads = _part_reads(monkeypatch, lambda: scenarios.reachable_leaf_places(onto))
    assert reads[DescriptorTag.LINKS] <= 2
    assert not any(reads[tag] for tag in IDENTITY_TAGS)


def test_the_carried_memo_holds_only_what_the_flow_reads():
    """A resumed run carries the descriptor reads it leaves standing, so
    the memo holds what the walk has read and its changes left alone:
    26 entries after 300 steps at n=32, against 134 when every step read
    whole individual compounds."""
    onto = corridor_chain(32)
    reason(onto)
    patrol(onto, PatrolConfig(steps=300, seed=0))
    assert len(onto.current_closure()._reads) <= 60
