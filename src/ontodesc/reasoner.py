"""Forward-chaining saturation reasoner.

reason() computes the deductive closure of the asserted axioms and keeps
each derived fact once, in the maps of the Closure it installs and
returns.  Closure.inferred_groups lists the derived facts from those
maps, and Closure.inferred builds them into axioms on its first read.
Derived axioms never repeat asserted ones and the asserted set is never
touched.

Rule set
--------
Schema rules (phase one):

* class subsumption is closed reflexively and transitively over asserted
  SubClassOf edges, the two directions of every EquivalentClasses axiom,
  and one edge per named top-level conjunct of a DefineClass body
  (a definition whose body is a bare name counts as a single conjunct);
  every class is below THING and above NOTHING.  Self-subsumptions are
  entailed but not materialized as stored axioms.
* property subsumption is closed the same way over SubPropertyOf and
  EquivalentProperties; there is no builtin top property.
* SameIndividual is closed as an equivalence relation.

The schema holds what the TBox, RBox and identity axioms name, plus each
declared class's THING and NOTHING bounds; a missing identity group or
property reach reads as empty, so no other declaration changes it.

Property-assertion rules (phase two, run to fixpoint over the links map
and its filler-keyed mirror):

* super-property: a filler of p is a filler of every super-property of p.
* inverse: InverseProperties(p, r) swaps subject and filler, in both
  directions of the declaration.
* symmetric: SymmetricProperty(p) swaps subject and filler.
* transitive: TransitiveProperty(p) joins p-assertions end to end.
* reflexive: ReflexiveProperty(p) relates every named individual to
  itself.
* chain: SubPropertyChain(r, p1, p2) composes a p1-assertion with a
  p2-assertion into an r-assertion.
* same-individual sharing: equivalent individuals exchange both subject
  and filler positions.
* irreflexive suppression: no rule may derive a self-assertion on an
  IrreflexiveProperty (asserted self-assertions are left alone).

Membership rules (phase three, iterated over full snapshots of the
membership set until stable, so the outcome is independent of rule
order):

* every named individual is an instance of THING.
* inheritance: an instance of a class is an instance of its entailed
  superclasses.
* domain and range: a property assertion types its subject with every
  declared domain and its (non-literal) filler with every declared range.
* same-individual sharing of memberships.
* definition recognition: DefineClass(c, body) makes an instance of the
  body an instance of c.  Satisfaction is local closed-world over the
  phase-two fillers: Some needs one filler in the filler class, Only
  needs every filler in it, Min/Max count fillers in it that are
  pairwise distinct (two fillers are the same only when SameIndividual
  relates them).  And/Or are conjunction and disjunction.

Consistency checks (reported as violations, never derived from):

* an instance of two DisjointClasses classes;
* a subject-filler pair carried by both DisjointProperties properties;
* a FunctionalProperty subject with two fillers not related by
  SameIndividual;
* a SameIndividual pair also related by DifferentIndividuals.

Carried state
-------------
A run is four phases over one saturation state: _schema (phase one and
the rule tables), _property_assertions, _memberships and _violations.
The state is what the installed Closure holds: the links map and its
filler -> property -> subjects mirror (`back`), every membership with
the snapshot round in which it entered (its stamp), the individuals
that entered a class in each round, and the violations per individual.
A run takes that state over and changes it in place, fed by the journal
the Ontology keeps of the net ClassAssertion and PropertyAssertion
asserts and retracts since that Closure's generation:

* phase two is maintained by DRed (Gupta, Mumick, Subrahmanian,
  *Maintaining Views Incrementally*, SIGMOD 1993): every fact with a
  derivation through a retracted one is deleted; those still asserted,
  the reflexive self-links and those the rules derive from the facts
  left to the deleted facts' subjects are put back; and the worklist
  runs on them and on the inserted facts.  The subjects' facts are
  enough: a one-way rule (super-property, transitive, chain) derives a
  fact from a premise with the same subject, and a two-way rule's
  premise (inverse, symmetric, identity sharing) was deleted with the
  fact, so the worklist derives the fact again if the premise comes back.
* phase three replays the rounds.  An individual is re-evaluated from
  the first round in which its snapshot can differ from the last
  run's: its initial types changed (a ClassAssertion edit, or a changed
  link through a property with a declared domain or range), its links
  through a property some definition restricts changed, or a snapshot
  it reads differs from the last run's.  A reader wakes when a class it tests through that link
  changed, or on any change in an identity-group mate: it reads every
  class of its SameIndividual group's snapshots, and of a filler's only
  the classes that some definition tests on that property's fillers
  (the schema's filler_reads).  Every other individual keeps its
  stamps, which give its snapshot in every round, so the outcome is
  exactly that of the rounds run from scratch, under Only and Max too.
  A re-evaluated individual gets a new stamp map; the one it replaces
  is the "before" its later snapshots are compared with.
* violations are recomputed for the individuals whose memberships
  changed and the subjects whose links changed.
* descriptor reads are kept but for those the run's Changes make stale
  (see Closure.changes and descriptor.stale_reads).

Reset rule: any other edit (TBox, RBox, SameIndividual,
DifferentIndividuals, a new declaration) drops the journal, and the next
run starts from an empty state.  A first run is the same engine on the
empty state, with every fact inserted and every individual affected.
A run takes the journal when it starts and the store gets a new one
only when the run installs its Closure, so a run that raises part way
leaves the next run to start afresh.  The Closure a run supersedes is
stale (its generation is behind the store's) and refuses every read but
`consistent` and `violations`, which it stores.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .model import (
    DATATYPES,
    NOTHING,
    THING,
    And,
    Axiom,
    AxiomTag,
    Entity,
    Kind,
    Max,
    Min,
    Named,
    Only,
    Ontology,
    Or,
    Some,
    StaleClosure,
    canonical,
    class_assertion,
    property_assertion,
    same_individual,
    tautological,
)
from .descriptor import stale_reads

_EMPTY: dict = {}  # stands in for a missing map entry; never written
_NONE: frozenset = frozenset()


@dataclass(frozen=True)
class Violation:
    rule: str
    axioms: frozenset


@dataclass(frozen=True)
class Changes:
    """What a resumed run changed against the Closure it resumed from: the
    (subject, property, filler) facts that entered or left the links,
    individual -> (classes gained, classes lost) for each individual whose
    memberships changed, and the journal it took (axiom -> asserted)."""

    links: set
    memberships: dict
    edits: dict

    @property
    def relinked(self) -> set:
        """The subjects whose forward links changed."""
        return {s for s, _, _ in self.links}

    def facts(self):
        """(axiom tag, arguments) of each fact that changed or was edited."""
        for axiom in self.edits:
            yield axiom.tag, axiom.args
        for args in self.links:
            yield AxiomTag.PROPERTY_ASSERTION, args
        for ind, (gained, lost) in self.memberships.items():
            for cls in gained | lost:
                yield AxiomTag.CLASS_ASSERTION, (ind, cls)


@dataclass
class Closure:
    """Entailment interface over one saturation run.

    All query methods, `inferred` and `inferred_groups` included,
    re-check that the underlying ontology has not been mutated since the
    run; if it has, they raise StaleClosure.  The next run takes these
    maps over and changes them in place, so a superseded Closure has
    nothing left to answer from; only `consistent` and `violations` are
    stored values and stay readable.

    Every query is a lookup in the maps the run left:
    `fillers` and `links_of` read the subject -> property -> fillers map,
    `subjects` its mirror, `types_of` the membership map,
    `super_properties` the property reach and `same_individuals` the
    identity groups.  `instances_of` and the two `direct_*` taxonomy
    queries read indexes derived from those maps: the class -> instances
    inversion and the transitive reduction of the subsumption reach.
    Descriptor reads are answered by these queries, and `_reads` keeps
    each answer - the items and add intents of one (tag, ground) pair -
    the first time it is read (see DescriptorState.read).  Indexes and
    `_reads` entries are built on the first query that needs them.  The
    maps change only in a later run, after a mutation (declare,
    assert_axiom, retract_axiom) made this Closure stale; a resumed run
    keeps the `_reads` entries its `changes()` leave true.
    `inferred_groups` lists the derived facts not asserted, grouped by
    the map that holds them, and is what the entailed text and the
    `reason` counts read.  `inferred`, the store's inferred partition as
    a set of axioms, is built from the same groups on first read, by the
    entailed view's readers only.

    The store holds its installed Closure, and the Closure holds the
    store only weakly, so a dropped store is freed by reference counting
    rather than left to the cycle collector.  A Closure whose store is
    gone stays fresh, since nothing can edit that store any more, and
    reads the store's asserted set through its own reference to it.
    """

    _store: weakref.ref
    generation: int
    consistent: bool = True
    violations: tuple = ()
    _schema: _Schema | None = field(default=None, repr=False)
    _links: dict = field(default_factory=dict, repr=False)
    _back: dict = field(default_factory=dict, repr=False)
    _types: dict = field(default_factory=dict, repr=False)  # individual -> class -> round
    _entered: list = field(default_factory=list, repr=False)  # round -> individuals
    _violations_by: dict = field(default_factory=dict, repr=False)
    _reads: dict = field(default_factory=dict, repr=False)  # (tag, ground) -> (items, add intents)
    _asserted: set = field(default_factory=set, repr=False)  # the store's live asserted set
    _changes: Changes | None = field(default=None, repr=False)

    @property
    def ontology(self) -> Ontology | None:
        """The store this Closure was computed over, or None once it is freed."""
        return self._store()

    # -- guards

    def _check_fresh(self):
        onto = self._store()
        if onto is not None and onto.generation != self.generation:
            raise StaleClosure("the ontology changed after this closure was computed")

    def changes(self) -> Changes | None:
        """What this run changed against the Closure it resumed from; None after a full run."""
        self._check_fresh()
        return self._changes

    @property
    def inferred(self) -> frozenset:
        """The run's derived axioms minus the asserted ones."""
        self._check_fresh()
        return self._inferred

    @cached_property
    def _inferred(self) -> frozenset:
        # Arguments come from checked asserted axioms and each rule keeps
        # its kinds, so the factories' checks are skipped (a test holds
        # every inferred axiom to its factory).
        return frozenset(
            Axiom(tag, (*head, tail))
            for tag, head, tails in self.inferred_groups()
            for tail in tails
        )

    def inferred_groups(self):
        """The inferred axioms, grouped by the map that holds them.

        Yields (tag, head, tails): one inferred Axiom(tag, (*head, tail))
        per tail, where head holds the fixed leading arguments and tails
        the values the last argument ranges over.  This is the one place
        that knows which map holds which axiom shape:

        * class_reach: SubClassOf(cls ·)
        * prop_reach: SubPropertyOf(prop ·)
        * identity groups: SameIndividual(a ·), each pair once, in
          canonical (IRI) order
        * links: PropertyAssertion(s p ·)
        * memberships: ClassAssertion(ind ·)

        Asserted axioms are skipped by argument equality against the
        store's asserted set, which is Axiom equality: Literal(0.0) and
        Literal(-0.0) are one filler, though they render apart.  Groups
        come in map order, not sorted, and no group is empty.  Tails may
        be the maps' own collections and must not be mutated.  A stale
        Closure raises StaleClosure on the first step.
        """
        self._check_fresh()
        schema = self._schema
        identity = [sorted(g, key=lambda e: e.iri) for g in schema.groups.values()]
        shapes = (
            (AxiomTag.SUB_CLASS, (((c,), sups) for c, sups in schema.class_reach.items())),
            (AxiomTag.SUB_PROPERTY, (((p,), sups) for p, sups in schema.prop_reach.items())),
            (
                AxiomTag.SAME_INDIVIDUAL,
                (((g[i],), g[i + 1 :]) for g in identity for i in range(len(g) - 1)),
            ),
            (
                AxiomTag.PROPERTY_ASSERTION,
                (((s, p), fs) for s, by_prop in self._links.items() for p, fs in by_prop.items()),
            ),
            (AxiomTag.CLASS_ASSERTION, (((ind,), types) for ind, types in self._types.items())),
        )
        asserted: dict = {}  # tag -> leading arguments -> last arguments
        for a in self._asserted:
            asserted.setdefault(a.tag, {}).setdefault(a.args[:-1], set()).add(a.args[-1])
        for tag, groups in shapes:
            held_by_head = asserted.get(tag, _EMPTY)
            for head, tails in groups:
                held = held_by_head.get(head)
                if held:
                    tails = [t for t in tails if t not in held]
                if tails:
                    yield tag, head, tails

    # -- entailment

    def is_entailed(self, axiom: Axiom) -> bool:
        self._check_fresh()
        axiom = canonical(axiom)
        if axiom in self._asserted or axiom in self._inferred:
            return True
        # tautologies hold everywhere; the reflexive ones are never
        # materialised, nor are the bounds of entities not declared here
        return tautological(axiom)

    def subsumed_by(self, sub: Entity, sup: Entity) -> bool:
        """Entailed class subsumption, reflexivity included."""
        self._check_fresh()
        return sub == sup or sup in self._schema.class_reach.get(sub, ())

    def equivalent(self, a: Entity, b: Entity) -> bool:
        return self.subsumed_by(a, b) and self.subsumed_by(b, a)

    # -- taxonomy

    def direct_subclasses(self, cls: Entity) -> set[Entity]:
        """Named strict subclasses with nothing strictly in between.

        A class with no named strict subclass reports {NOTHING}; NOTHING
        itself reports the empty set.  Classes equivalent to `cls` are
        not strictly below it, and equivalent classes below it are all
        reported.
        """
        self._check_fresh()
        _, below = self._taxonomy
        return set(below.get(cls, ()))

    def direct_superclasses(self, cls: Entity) -> set[Entity]:
        self._check_fresh()
        above, _ = self._taxonomy
        return set(above.get(cls, ()))

    @cached_property
    def _taxonomy(self) -> tuple[dict, dict]:
        """The transitive reduction of the strict subsumption order.

        Returns (above, below): each class's direct superclasses and
        direct subclasses.  hi is strictly above lo when it is in lo's
        reach and lo is not in hi's (which excludes equivalents); a
        strict superclass is direct when no other strict superclass of
        lo lies strictly below it.
        """
        reach = self._schema.class_reach
        strictly_above = {
            lo: {hi for hi in his if lo not in reach[hi]} for lo, his in reach.items()
        }
        above = {}
        below = {}
        for lo, his in strictly_above.items():
            between = set().union(*(strictly_above[m] for m in his))
            direct = his - between
            above[lo] = direct
            for hi in direct:
                below.setdefault(hi, set()).add(lo)
        return above, below

    # -- individuals

    def types_of(self, individual: Entity, most_specific_only: bool = False) -> set[Entity]:
        self._check_fresh()
        types = set(self._types.get(individual, ()))
        if not most_specific_only:
            return types
        return {
            t
            for t in types
            if not any(
                o != t and self.subsumed_by(o, t) and not self.equivalent(o, t)
                for o in types
            )
        }

    def instances_of(self, cls: Entity) -> set[Entity]:
        self._check_fresh()
        return set(self._instances.get(cls, ()))

    @cached_property
    def _instances(self) -> dict:
        """class -> its instances, the inversion of the membership map."""
        instances = {}
        for ind, types in self._types.items():
            for cls in types:
                instances.setdefault(cls, set()).add(ind)
        return instances

    def fillers(self, individual: Entity, prop: Entity) -> set:
        self._check_fresh()
        return set(self._links.get(individual, _EMPTY).get(prop, ()))

    def subjects(self, filler: Entity, prop: Entity) -> set[Entity]:
        """The individuals that have `filler` as a `prop` filler."""
        self._check_fresh()
        return set(self._back.get(filler, _EMPTY).get(prop, ()))

    def links_of(self, individual: Entity) -> set:
        self._check_fresh()
        return {
            (p, f) for p, fs in self._links.get(individual, _EMPTY).items() for f in fs
        }

    def same_as(self, a: Entity, b: Entity) -> bool:
        self._check_fresh()
        rep = self._schema.rep
        return a == b or rep.get(a, a) == rep.get(b, b)

    def same_individuals(self, individual: Entity) -> set[Entity]:
        """The other individuals SameIndividual relates `individual` to."""
        self._check_fresh()
        schema = self._schema
        group = schema.groups.get(schema.rep.get(individual, individual), ())
        return {other for other in group if other != individual}

    def super_properties(self, prop: Entity) -> set[Entity]:
        """Strict entailed super-properties, equivalents included."""
        self._check_fresh()
        return set(self._schema.prop_reach.get(prop, ()))


# ---------------------------------------------------------------------------
# phase one: the schema


@dataclass(frozen=True)
class _Schema:
    """Phase one's closures and the rule tables the later phases read.

    It holds what the TBox, RBox and identity axioms name, plus each
    declared class's THING and NOTHING bounds, so every run shares it
    until one of those changes.
    """

    class_reach: dict
    prop_reach: dict
    rep: dict
    groups: dict
    inverses: dict
    symmetric: frozenset
    transitive: frozenset
    reflexive: frozenset
    irreflexive: frozenset
    chains: list
    domains: dict
    ranges: dict
    definitions: list
    filler_reads: dict  # property -> the filler classes definition bodies restrict it to
    disjoint_classes: list
    disjoint_properties: list
    functional: list
    violations: frozenset  # same-and-different: no ABox fact bears on them


def _reach_map(nodes, edges) -> dict:
    """Strict reachability, self excluded, from each node and each edge's source."""
    adjacency = {n: set() for n in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    reach = {}
    for start in adjacency:
        seen = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        seen.discard(start)
        reach[start] = seen
    return reach


def _definition_conjuncts(expr):
    return expr.members if isinstance(expr, And) else (expr,)


def _add_filler_reads(expr, reads: dict) -> None:
    """Add the filler class of each restriction in expr, at any depth under
    And and Or, to reads[its property]."""
    if isinstance(expr, (And, Or)):
        for member in expr.members:
            _add_filler_reads(member, reads)
    elif not isinstance(expr, Named):
        reads.setdefault(expr.prop, set()).add(expr.filler)


def _union_find(pairs):
    rep = {i: i for pair in pairs for i in pair}

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the lexicographically smaller representative for determinism
            if rb.iri < ra.iri:
                ra, rb = rb, ra
            rep[rb] = ra
    return {i: find(i) for i in rep}


def _schema(onto: Ontology, by_tag: dict) -> _Schema:
    def tagged(tag):
        return by_tag.get(tag, [])

    def unary(tag):
        return frozenset(a.args[0] for a in tagged(tag))

    classes = [c for c in onto.entities_of_kind(Kind.CLASS) if c not in DATATYPES]

    class_edges = [tuple(a.args) for a in tagged(AxiomTag.SUB_CLASS)]
    for a in tagged(AxiomTag.EQUIVALENT_CLASSES):
        x, y = a.args
        class_edges += [(x, y), (y, x)]
    for a in tagged(AxiomTag.CLASS_DEFINITION):
        cls, expr = a.args
        for conjunct in _definition_conjuncts(expr):
            if isinstance(conjunct, Named):
                class_edges.append((cls, conjunct.cls))
    for c in classes:
        if c != THING:
            class_edges.append((c, THING))
        if c != NOTHING:
            class_edges.append((NOTHING, c))

    prop_edges = [tuple(a.args) for a in tagged(AxiomTag.SUB_PROPERTY)]
    for a in tagged(AxiomTag.EQUIVALENT_PROPERTIES):
        x, y = a.args
        prop_edges += [(x, y), (y, x)]

    rep = _union_find([tuple(a.args) for a in tagged(AxiomTag.SAME_INDIVIDUAL)])
    groups: dict[Entity, list[Entity]] = {}
    for ind, r in rep.items():
        groups.setdefault(r, []).append(ind)

    inverses: dict[Entity, set[Entity]] = {}
    for a in tagged(AxiomTag.INVERSE_PROPERTIES):
        p, r = a.args
        inverses.setdefault(p, set()).add(r)
        inverses.setdefault(r, set()).add(p)
    domains: dict[Entity, set[Entity]] = {}
    for a in tagged(AxiomTag.PROPERTY_DOMAIN):
        p, c = a.args
        domains.setdefault(p, set()).add(c)
    ranges: dict[Entity, set[Entity]] = {}
    for a in tagged(AxiomTag.PROPERTY_RANGE):
        p, c = a.args
        if c not in DATATYPES:
            ranges.setdefault(p, set()).add(c)
    definitions = [tuple(a.args) for a in tagged(AxiomTag.CLASS_DEFINITION)]
    filler_reads: dict[Entity, set[Entity]] = {}
    for _, expr in definitions:
        _add_filler_reads(expr, filler_reads)

    violations = set()
    for a in tagged(AxiomTag.DIFFERENT_INDIVIDUALS):
        x, y = a.args
        if rep.get(x, x) == rep.get(y, y):
            violations.add(Violation("same-and-different", frozenset({a, same_individual(x, y)})))

    return _Schema(
        class_reach=_reach_map(classes, class_edges),
        prop_reach=_reach_map((), prop_edges),
        rep=rep,
        groups=groups,
        inverses=inverses,
        symmetric=unary(AxiomTag.SYMMETRIC_PROPERTY),
        transitive=unary(AxiomTag.TRANSITIVE_PROPERTY),
        reflexive=unary(AxiomTag.REFLEXIVE_PROPERTY),
        irreflexive=unary(AxiomTag.IRREFLEXIVE_PROPERTY),
        chains=[tuple(a.args) for a in tagged(AxiomTag.PROPERTY_CHAIN)],
        domains=domains,
        ranges=ranges,
        definitions=definitions,
        filler_reads=filler_reads,
        disjoint_classes=tagged(AxiomTag.DISJOINT_CLASSES),
        disjoint_properties=tagged(AxiomTag.DISJOINT_PROPERTIES),
        functional=tagged(AxiomTag.FUNCTIONAL_PROPERTY),
        violations=frozenset(violations),
    )


# ---------------------------------------------------------------------------
# phase two: property assertions


def _discard(nested: dict, key, prop, value) -> None:
    """Remove value from nested[key][prop], dropping emptied entries."""
    entry = nested[key]
    values = entry[prop]
    values.discard(value)
    if not values:
        del entry[prop]
        if not entry:
            del nested[key]


def _property_assertions(schema: _Schema, links: dict, back: dict, edits, asserted, seeds):
    """Phase two: bring the links and their mirror up to date with the edits.

    Both key -> property -> set maps are changed in place.  `edits` maps
    PropertyAssertion axioms to True (asserted) or False (retracted);
    `seeds` are premise-free facts to insert.  Returns the facts that
    entered or left the maps.  `consequences` is the one encoding of the
    rules, and all three DRed steps (see the module docstring) run it.
    """
    prop_reach, inverses, chains = schema.prop_reach, schema.inverses, schema.chains
    symmetric, transitive, irreflexive = schema.symmetric, schema.transitive, schema.irreflexive
    rep, groups = schema.rep, schema.groups

    def consequences(s, p, f, emit):
        # emit every fact one rule derives from (s, p, f) and the maps
        for sup in prop_reach.get(p, ()):
            emit(s, sup, f)
        if isinstance(f, Entity):
            for inv in inverses.get(p, ()):
                emit(f, inv, s)
            if p in symmetric:
                emit(f, p, s)
            if p in transitive:
                for f2 in links.get(f, _EMPTY).get(p, ()):
                    emit(s, p, f2)
                for s0 in back.get(s, _EMPTY).get(p, ()):
                    emit(s0, p, f)
            for sup, p1, p2 in chains:
                if p == p1:
                    for f2 in links.get(f, _EMPTY).get(p2, ()):
                        emit(s, sup, f2)
                if p == p2:
                    for s0 in back.get(s, _EMPTY).get(p1, ()):
                        emit(s0, sup, f)
            for other in groups.get(rep.get(f, f), ()):
                if other is not f:
                    emit(s, p, other)
        for other in groups.get(rep.get(s, s), ()):
            if other is not s:
                emit(other, p, f)

    # DRed, first step: overdelete every fact with a derivation through a
    # retracted one, joining against the maps as they were
    gone: set[tuple] = set()
    stack: list[tuple] = []

    def overdelete(s, p, f):
        fact = (s, p, f)
        if fact not in gone and f in links.get(s, _EMPTY).get(p, ()):
            gone.add(fact)
            stack.append(fact)

    for axiom, added in edits.items():
        if not added:
            overdelete(*axiom.args)
    while stack:
        consequences(*stack.pop(), overdelete)
    for s, p, f in gone:
        _discard(links, s, p, f)
        if isinstance(f, Entity):
            _discard(back, f, p, s)

    pending: list[tuple] = []
    put_facts: list[tuple] = []

    def put(s, p, f):
        # a fact is pending once, when it enters both maps
        if f in links.get(s, _EMPTY).get(p, ()):
            return
        links.setdefault(s, {}).setdefault(p, set()).add(f)
        if isinstance(f, Entity):
            back.setdefault(f, {}).setdefault(p, set()).add(s)
        fact = (s, p, f)
        pending.append(fact)
        put_facts.append(fact)

    def derive(s, p, f):
        if not (p in irreflexive and s is f):
            put(s, p, f)

    # second step: put back what is asserted, a reflexive self-link, and
    # what a rule derives from the facts the gone facts' subjects kept ...
    subjects = set()
    for s, p, f in gone:
        if Axiom(AxiomTag.PROPERTY_ASSERTION, (s, p, f)) in asserted:
            put(s, p, f)
        elif s is f and p in schema.reflexive:
            derive(s, p, f)
        else:
            subjects.add(s)

    def restore(s, p, f):
        if (s, p, f) in gone:
            derive(s, p, f)

    # a snapshot, since restore() grows these subjects' maps
    kept = [(s, p, f) for s in subjects for p, fs in links.get(s, _EMPTY).items() for f in fs]
    for fact in kept:
        consequences(*fact, restore)
    # ... third: insert, asserted facts even on an irreflexive property,
    # and run the worklist to fixpoint
    for axiom, added in edits.items():
        if added:
            put(*axiom.args)
    for fact in seeds:
        derive(*fact)
    # The joins iterate live sets.  derive() grows only links[subject][prop]
    # and back[filler][prop]; a join derives into the set it iterates only
    # from a self-loop (s is f), and then a fact that set already holds
    # (the maps mirror each other), so none grows.
    while pending:
        consequences(*pending.pop(), derive)
    return gone.symmetric_difference(put_facts)


# ---------------------------------------------------------------------------
# phase three: memberships in snapshot rounds


def _satisfies(expr, ind, types, links, rep, r) -> bool:
    """Whether `ind` is an instance of `expr` in the snapshot before round r."""
    if isinstance(expr, Named):
        return types[ind].get(expr.cls, r) < r
    if isinstance(expr, And):
        for member in expr.members:
            if not _satisfies(member, ind, types, links, rep, r):
                return False
        return True
    if isinstance(expr, Or):
        for member in expr.members:
            if _satisfies(member, ind, types, links, rep, r):
                return True
        return False
    fillers = links.get(ind, _EMPTY).get(expr.prop, ())
    named = [f for f in fillers if isinstance(f, Entity)]
    if isinstance(expr, Some):
        return any(types[f].get(expr.filler, r) < r for f in named)
    if isinstance(expr, Only):
        return all(types[f].get(expr.filler, r) < r for f in named)
    matching = {rep.get(f, f) for f in named if types[f].get(expr.filler, r) < r}
    if isinstance(expr, Min):
        return len(matching) >= expr.count
    return len(matching) <= expr.count  # Max


def _delta(now, before: dict | None, r: int) -> set:
    """The classes in which the set `now` differs from the snapshot the
    stamp map `before` gives after round r: all of `now` for a new
    individual (before is None), which is every one in a first run."""
    if before is None:
        return now
    return now ^ {c for c, stamp in before.items() if stamp <= r}


def _readers(schema: _Schema, back, ind, delta) -> set:
    """The individuals whose next snapshot can differ once `ind`'s
    memberships of the classes in `delta` changed: its whole identity
    group, since sharing copies every class, and each subject linked to
    it through a property p with a definition testing p's fillers for a
    class in `delta`."""
    found = {ind, *schema.groups.get(schema.rep.get(ind, ind), ())}
    into = back.get(ind, _EMPTY)
    for p, reads in schema.filler_reads.items():
        if not reads.isdisjoint(delta):
            found.update(into.get(p, ()))
    return found


def _memberships(schema, onto, links, back, types, entered, touched, relinked):
    """Phase three: replay the snapshot rounds from the last run's stamps.

    `types` is the last run's individual -> class -> round map and
    entered[r] holds the individuals that entered a class in round r
    (r >= 1); both are changed in place.  `touched` individuals get
    their initial types recomputed; `relinked` ones changed links that a
    definition reads.  Returns individual -> (classes gained, classes
    lost) for each individual whose memberships changed (all, at first).

    Within one run the rounds are semi-naive: inheritance and sharing
    need only the classes that entered in the round before (earlier ones
    were propagated already), and an individual's definitions can give
    something new only in round 1 or after a snapshot they read (its own
    or a filler's) changed in the round before.
    """
    class_reach, rep, groups = schema.class_reach, schema.rep, schema.groups
    definitions, read = schema.definitions, schema.filler_reads
    last = len(entered) - 1  # the last run's last round that added a membership
    if not entered:
        entered.append(set())  # round 0 is every individual's; not tracked
    owned: dict = {}  # individual -> the last run's stamp map, None for a new one

    def own(ind, r):
        # ind's stamps before round r are the last run's; later ones are recomputed
        before = owned[ind] = types.get(ind)
        kept = {}
        for cls, stamp in (before or _EMPTY).items():
            if stamp < r:
                kept[cls] = stamp
            elif stamp:
                entered[stamp].discard(ind)
        types[ind] = kept
        return kept

    differs = {}  # individual -> the classes its snapshot changed in, against the last run's
    for ind in touched:
        start = {THING}
        start.update(a.args[1] for a in onto.axioms_about(AxiomTag.CLASS_ASSERTION, ind))
        for p in links.get(ind, _EMPTY):
            start.update(schema.domains.get(p, ()))
        for p in back.get(ind, _EMPTY):
            start.update(schema.ranges.get(p, ()))
        delta = _delta(start, types.get(ind), 0)
        if delta:
            own(ind, 0).update(dict.fromkeys(start, 0))
            differs[ind] = delta

    dirty = owned.keys() | relinked
    r = 0
    while dirty:
        r += 1
        # in a first run every individual is dirty from round 0 on
        if len(dirty) < len(types):
            for ind, delta in differs.items():
                dirty |= _readers(schema, back, ind, delta)
        for ind in dirty - owned.keys():
            own(ind, r)
        prior = r - 1
        moved = entered[prior] if 1 < r <= len(entered) else None
        grew = False
        for ind in dirty:
            ts = types[ind]
            gained = set()
            for cls, stamp in ts.items():
                if stamp == prior:
                    gained.update(class_reach.get(cls, ()))
            for other in groups.get(rep.get(ind, ind), ()):
                gained.update(c for c, stamp in types[other].items() if stamp == prior)
            gained.difference_update(ts)
            evaluate = moved is None or ind in moved
            if not evaluate:
                by_prop = links.get(ind, _EMPTY)
                evaluate = any(not moved.isdisjoint(by_prop.get(p, ())) for p in read)
            if evaluate:
                for cls, expr in definitions:
                    if cls not in ts and cls not in gained and _satisfies(expr, ind, types, links, rep, r):
                        gained.add(cls)
            if gained:
                ts.update(dict.fromkeys(gained, r))
                if r == len(entered):
                    entered.append(set())
                entered[r].add(ind)
                grew = True
        if r > last and not grew:
            break
        if len(dirty) < len(types):
            differs = {
                ind: delta for ind in dirty if (delta := _delta(types[ind].keys(), owned[ind], r))
            }
    while len(entered) > 1 and not entered[-1]:
        entered.pop()
    changed = {}
    for ind, before in owned.items():
        now, was = types[ind].keys(), (before or _EMPTY).keys()
        if now != was:
            changed[ind] = (now - was, was - now)
    return changed


# ---------------------------------------------------------------------------
# violations


def _violations(schema: _Schema, types, links, violations_by: dict, checked) -> tuple:
    """Recheck the `checked` individuals; returns every violation, sorted.

    violations_by maps an individual to the violations about it and is
    changed in place.
    """
    for ind in checked:
        violations_by.pop(ind, None)

    def found(ind, rule, axioms):
        violations_by.setdefault(ind, set()).add(Violation(rule, frozenset(axioms)))

    for a in schema.disjoint_classes:
        x, y = a.args
        for ind in checked:
            ts = types[ind]
            if x in ts and y in ts:
                found(ind, "disjoint-classes", {a, class_assertion(ind, x), class_assertion(ind, y)})
    for a in schema.disjoint_properties:
        p, r = a.args
        for ind in checked:
            by_prop = links.get(ind, _EMPTY)
            for f in by_prop.get(p, _NONE) & by_prop.get(r, _NONE):
                found(ind, "disjoint-properties", {a, property_assertion(ind, p, f), property_assertion(ind, r, f)})
    rep = schema.rep
    for a in schema.functional:
        p = a.args[0]
        for ind in checked:
            # a literal is its own representative
            for f1, f2 in combinations(links.get(ind, _EMPTY).get(p, ()), 2):
                if rep.get(f1, f1) != rep.get(f2, f2):
                    found(
                        ind,
                        "functional-property",
                        {a, property_assertion(ind, p, f1), property_assertion(ind, p, f2)},
                    )
    every = set(schema.violations).union(*violations_by.values())
    return tuple(sorted(every, key=_violation_key))


def _violation_key(v: Violation):
    return (v.rule, sorted(repr(a) for a in v.axioms))


# ---------------------------------------------------------------------------
# a run


def reason(onto: Ontology) -> Closure:
    """Saturate the store, resuming from its installed Closure when the
    journal carries every edit since (see the module docstring)."""
    previous, edits = onto._take_journal()
    asserted = onto._asserted
    resumed = previous is not None
    if not resumed:
        # an empty state, with every fact inserted and every individual affected
        by_tag: dict[AxiomTag, list[Axiom]] = {}
        for a in asserted:
            by_tag.setdefault(a.tag, []).append(a)
        schema = _schema(onto, by_tag)
        previous = Closure(weakref.ref(onto), generation=-1, _schema=schema)
        edits = dict.fromkeys(
            by_tag.get(AxiomTag.CLASS_ASSERTION, []) + by_tag.get(AxiomTag.PROPERTY_ASSERTION, []),
            True,
        )
        individuals = onto.individuals()
        seeds = [(ind, p, ind) for p in schema.reflexive for ind in individuals]
        touched = set(individuals)
    else:
        schema = previous._schema
        seeds = ()
        touched = {a.args[0] for a in edits if a.tag is AxiomTag.CLASS_ASSERTION}

    links, back = previous._links, previous._back
    link_edits = {a: added for a, added in edits.items() if a.tag is AxiomTag.PROPERTY_ASSERTION}
    changed = _property_assertions(schema, links, back, link_edits, asserted, seeds)
    relinked = set()
    for s, p, f in changed:  # a link sets initial types through a domain or range only
        if p in schema.domains:
            touched.add(s)
        if p in schema.ranges and isinstance(f, Entity):
            touched.add(f)
        if p in schema.filler_reads:
            relinked.add(s)

    types, entered = previous._types, previous._entered
    memberships = _memberships(schema, onto, links, back, types, entered, touched, relinked)
    violations_by = previous._violations_by
    changes = Changes(changed, memberships, edits)
    violations = _violations(schema, types, links, violations_by, memberships.keys() | changes.relinked)
    if resumed:  # a full run starts with no reads
        for key in stale_reads(changes):
            previous._reads.pop(key, None)

    closure = Closure(
        weakref.ref(onto),
        generation=onto.generation,
        consistent=not violations,
        violations=violations,
        _schema=schema,
        _links=links,
        _back=back,
        _types=types,
        _entered=entered,
        _violations_by=violations_by,
        _reads=previous._reads,
        _asserted=asserted,
        _changes=changes if resumed else None,
    )
    onto._install_closure(closure)
    return closure
