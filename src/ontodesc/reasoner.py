"""Forward-chaining saturation reasoner.

reason() computes the deductive closure of the asserted axioms and keeps
each derived fact once, in the maps of the Closure it installs and
returns.  Closure.inferred_groups lists the derived facts from those
maps, and Closure.is_entailed looks one axiom up in them.
Derived axioms never repeat asserted ones and the asserted set is never
touched.

Rule set
--------
Schema rules (phase one):

* class subsumption is closed reflexively and transitively over asserted
  SubClassOf edges, the two directions of every EquivalentClasses axiom,
  and, for a DefineClass body of one conjunction (an And or a single
  atom), one edge to each named class in it; every class is below THING
  and above NOTHING.  Self-subsumptions are entailed but not
  materialized as stored axioms.
* property subsumption is closed the same way over SubPropertyOf and
  EquivalentProperties; there is no builtin top property.
* SameIndividual is closed as an equivalence relation.

The three closures share one depth-first walk, `_reach`: the two reaches
run it from every class or property, and identity from one member of
each group, over its pairs taken both ways round.

The schema holds what the TBox, RBox and identity axioms name, plus each
declared class's THING and NOTHING bounds; a missing identity group or
property reach reads as empty, so no other declaration changes it.

Property-assertion rules (phase two, run to fixpoint over the links map
and its filler-keyed mirror in semi-naive rounds, set at a time: a round
passes the facts the round before added to one rule function,
`_consequences`, in one batch per property, which makes each
property-level lookup once for the batch and inserts nothing; the
round then inserts what is new, grouped by property into the next
round's batches.  A batch whose property only identity sharing reads
(it is outside `_Schema.ruled`) would derive nothing while no
SameIndividual group exists, and is then not passed):

* super-property: a filler of p is a filler of every super-property of p.
* inverse: InverseProperties(p, r) swaps subject and filler, in both
  directions of the declaration.
* symmetric: SymmetricProperty(p) swaps subject and filler.
* transitive: TransitiveProperty(p) joins p-assertions end to end; it
  is the chain (p, p, p).
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
order; each round works class by class, on per-class sets):

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
  relates them).  And/Or are conjunction and disjunction.  A body is a
  union of intersections of atoms (model._MEMBERS), and phase one
  compiles it into the tuple of its conjunctions, each its named classes
  and its restrictions.  A definition is tested only on its candidates,
  the individuals that hold every named class of one of its conjunctions.

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
A resumed run takes that state over and changes it in place, fed by
the journal: the store's record of each axiom edit not undone since that
Closure was installed and of each entity declared since.  Of those, the
run reads the ClassAssertion and PropertyAssertion edits and the
declared individuals:

* a declared individual enters as every individual enters a first run:
  it is touched with an empty stamp map, and phase two seeds its
  reflexive self-links.  So its memberships, THING among them, and its
  self-links are changes like any other, and the read of THING's
  instances is dropped by the slot rule below.
* phase two is maintained by DRed (Gupta, Mumick, Subrahmanian,
  *Maintaining Views Incrementally*, SIGMOD 1993): every fact with a
  derivation through a retracted one is deleted; those still asserted,
  the reflexive self-links and those the rules derive from the facts
  left to the deleted facts' subjects are put back, in rounds that take
  in only deleted facts (a consequence of a fact the last run held was
  held too, so a missing one was deleted); and the rounds run on the
  inserted facts.  Each step runs the rules in the same rounds of
  per-property batches.  The subjects' facts are
  enough: a one-way rule (super-property, transitive, chain) derives a
  fact from a premise with the same subject, and a two-way rule's
  premise (inverse, symmetric, identity sharing) was deleted with the
  fact, so the rounds derive the fact again if the premise comes back.
* phase three replays the rounds.  An individual is re-evaluated from
  the first round in which its snapshot can differ from the last
  run's: its initial types changed (a ClassAssertion edit, or a changed
  link through a property with a declared domain or range), its links
  through a property some definition restricts changed, or a snapshot
  it reads differs from the last run's.  A reader wakes when a class it tests through that link
  changed, or on any change in an identity-group mate: it reads every
  class of its SameIndividual group's snapshots, and of a filler's only
  the classes that some definition tests on that property's fillers
  (filler_reads, read off the compiled bodies' restrictions).  Every other
  individual keeps its stamps, which give its snapshot in every round,
  so the outcome is exactly that of the rounds run from scratch, under
  Only and Max too.  A re-evaluated individual gets a new stamp map; the
  one it replaces is the "before" its later snapshots are compared with.
* violations are recomputed for the individuals whose memberships
  changed and the subjects whose links changed.
* descriptor reads are kept but for those the run's Changes make stale:
  a read is keyed by the fact slot it lists, (axiom tag, position,
  ground), and each changed or edited fact drops the reads of its slots.

Resume rule: a run resumes across ClassAssertion and PropertyAssertion
edits and across declarations of individuals and properties, which no
schema map names.  It starts from an empty state on a class declaration
(the schema holds each class's THING and NOTHING bounds) and on any
TBox, RBox or identity (SameIndividual, DifferentIndividuals) edit, which
the schema reads.  An edit undone before the run leaves no journal
entry.  reason() states the rule, in one pass over the journal; the
store records every change and decides nothing.

A first run is the same engine on the empty state, with every fact
inserted and every individual typed afresh from one grouping of the
asserted axioms by tag, but it keeps no change record: phase two returns
no changed facts, phase three types every individual in round 0 with
the initial-type rule class by class (`_initial`, which a resumed run
applies to its touched individuals only) and sets the round-0 stamps
directly, and, after round 1, finds through the mirror the subjects whose fillers
entered a class they read, and shares only into the mates of the
individuals that entered a class (a resumed run checks its own
individuals instead), and the violation check reads every individual.
A run takes the journal when it starts, which uninstalls the Closure,
and the store gets a new one only when the run installs its Closure, so
a run that raises part way leaves no current Closure and the next run
to start afresh.  The Closure a run supersedes is stale (it is no longer
the installed one), even when no edit came between the runs, and
refuses every read but `consistent` and `violations`, which it stores.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import combinations

from .model import (
    DATATYPES,
    NOTHING,
    SHAPES,
    THING,
    Axiom,
    AxiomTag,
    Entity,
    Kind,
    Min,
    Named,
    Only,
    Ontology,
    Some,
    StaleClosure,
    Value,
    canonical,
    class_assertion,
    conjunctions,
    property_assertion,
    same_individual,
    tautological,
)

_EMPTY: dict = {}  # stands in for a missing map entry; never written
_NONE: frozenset = frozenset()


class Violation(Value):
    """Violation(rule, axioms): the rule's name and the frozenset of the
    axioms that break it."""

    __slots__ = ("rule", "axioms")


class Changes(Value):
    """What a resumed run changed against the Closure it resumed from,
    Changes(links, memberships, edits): the set of (subject, property,
    filler) facts that entered or left the links, individual -> (classes
    gained, classes lost) for each individual whose memberships changed,
    and the axiom edits of the journal it took (axiom -> asserted).  A
    declared individual shows as the classes it gained, THING among
    them, and its self-links; a declaration is not an edit."""

    __slots__ = ("links", "memberships", "edits")

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


class Closure:
    """Entailment interface over one saturation run.

    All query methods, `inferred` and `inferred_groups` included,
    re-check the store's one freshness rule (Ontology._is_current): this
    Closure is the installed one and the store has journaled no change
    since; otherwise they raise StaleClosure.  The next run takes these
    maps over and changes them in place, so a superseded Closure has
    nothing left to answer from; only `consistent` and `violations` are
    stored values and stay readable.  That run cuts it from its store
    for good, so it stays refused after the store is freed.

    Every query is a lookup in the maps the run left:
    `fillers` and `links_of` read the subject -> property -> fillers map,
    `subjects` its mirror, `types_of` the membership map,
    `super_properties` the property reach and `same_individuals` the
    identity map.  `instances_of` and the two `direct_*` taxonomy
    queries read indexes derived from those maps: the class -> instances
    inversion and the transitive reduction of the subsumption reach.
    Descriptor reads are answered by these queries, and `_reads` keeps
    each answer - the items and add intents of one read, keyed by the
    fact slot it lists (axiom tag, position, ground) - the first time it
    is read (see DescriptorState.read).  Indexes and `_reads` entries
    are built on the first query that needs them.  The maps change only
    in a later run, which supersedes this Closure and so makes it stale;
    a resumed run drops the `_reads` entries of the slots its
    `changes()` facts fill.
    `inferred_groups` lists the derived facts not asserted, grouped by
    the map that holds them, and is what the entailed text and the
    `reason` counts read; `is_entailed` looks one axiom up in the same
    maps.  `inferred`, the derived facts not asserted as a set of
    axioms, is built from the same groups on first read; no module of
    the package reads it, only the benchmark and the tests do.

    The store holds its installed Closure, and the Closure holds the
    store only weakly, so a dropped store is freed by reference counting
    rather than left to the cycle collector.  A Closure whose store is
    gone and that no run superseded stays fresh, since nothing can edit
    that store any more, and reads the store's asserted set through its
    own reference to it.

    Closure(onto, schema, previous=None) is built once per run, as the
    run starts: it takes over `previous`'s saturation state (links,
    mirror, stamps, entered rounds, violations per individual and read
    memo), or starts empty maps on `schema`, and the run sets
    `violations`, `consistent` and `_changes` on it as it ends.  A
    Closure equals only itself, and its cached indexes live in its
    instance dict.
    """

    def __init__(self, onto: Ontology, schema: _Schema, previous: Closure | None = None):
        self._store = weakref.ref(onto)  # None once a later run superseded this Closure
        self._schema, self._asserted = schema, onto._asserted  # the store's live asserted set
        # _types: individual -> class -> round; _entered: round -> individuals;
        # _reads: (axiom tag, at, ground) -> (items, add intents)
        if previous is None:
            self._links, self._back, self._types, self._entered = {}, {}, {}, []
            self._violations_by, self._reads = {}, {}
        else:
            self._links, self._back, self._types = previous._links, previous._back, previous._types
            self._entered, self._violations_by, self._reads = previous._entered, previous._violations_by, previous._reads

    @property
    def ontology(self) -> Ontology | None:
        """The store this Closure was computed over, or None once it is freed or superseded."""
        return None if self._store is None else self._store()

    # -- guards

    def _check_fresh(self):
        # superseded, or a live store on which this Closure is not current
        if self._store is None or (onto := self._store()) is not None and not onto._is_current(self):
            raise StaleClosure("the ontology changed or was reasoned again after this closure was computed")

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
        the values the last argument ranges over.  This and _HOLDS, the
        same table as lookups for is_entailed, are the one place that
        knows which map holds which axiom shape:

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
        identity = [sorted(g, key=lambda e: e.iri) for g in set(schema.same.values())]
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
        for a in self._asserted:  # get-then-create: setdefault builds a default per axiom
            if (by_head := asserted.get(a.tag)) is None:
                by_head = asserted[a.tag] = {}
            if (held := by_head.get(head := a.args[:-1])) is None:
                by_head[head] = {a.args[-1]}
            else:
                held.add(a.args[-1])
        for tag, groups in shapes:
            held_by_head = asserted.get(tag, _EMPTY)
            for head, tails in groups:
                held = held_by_head.get(head)
                if held:
                    tails = [t for t in tails if t not in held]
                if tails:
                    yield tag, head, tails

    # -- entailment

    # inferred_groups' table as a lookup: whether the map that holds a shape holds one axiom's arguments
    _HOLDS = {
        AxiomTag.SUB_CLASS: lambda c, sub, sup: sup in c._schema.class_reach.get(sub, ()),
        AxiomTag.SUB_PROPERTY: lambda c, sub, sup: sup in c._schema.prop_reach.get(sub, ()),
        AxiomTag.SAME_INDIVIDUAL: lambda c, a, b: b in c._schema.same.get(a, ()),
        AxiomTag.PROPERTY_ASSERTION: lambda c, s, p, f: f in c._links.get(s, _EMPTY).get(p, ()),
        AxiomTag.CLASS_ASSERTION: lambda c, ind, cls: cls in c._types.get(ind, ()),
    }

    def is_entailed(self, axiom: Axiom) -> bool:
        """Whether the axiom is asserted, held by the map that holds its
        shape (_HOLDS), or a tautology.  It builds no axiom.  An axiom of
        any other tag, EquivalentClasses and DifferentIndividuals among
        them, is entailed only when asserted or tautological."""
        self._check_fresh()
        axiom = canonical(axiom)
        holds = self._HOLDS.get(axiom.tag)
        # tautologies hold everywhere; the reflexive ones are never
        # materialised, nor are the bounds of entities not declared here
        return axiom in self._asserted or holds is not None and holds(self, *axiom.args) or tautological(axiom)

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
        above = {
            lo: his - set().union(*(strictly_above[m] for m in his))
            for lo, his in strictly_above.items()
        }
        return above, _multimap((hi, lo) for lo, his in above.items() for hi in his)

    # -- individuals

    def types_of(self, individual: Entity, most_specific_only: bool = False) -> set[Entity]:
        self._check_fresh()
        types = set(self._types.get(individual, ()))
        if not most_specific_only:
            return types
        # types are closed upward, so a strict subclass among them puts a
        # direct one there too
        _, below = self._taxonomy
        return {t for t in types if below.get(t, _NONE).isdisjoint(types)}

    def instances_of(self, cls: Entity) -> set[Entity]:
        self._check_fresh()
        return set(self._instances.get(cls, ()))

    @cached_property
    def _instances(self) -> dict:
        """class -> its instances, the inversion of the membership map."""
        return _multimap((cls, ind) for ind, types in self._types.items() for cls in types)

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
        return a == b or b in self._schema.same.get(a, ())

    def same_individuals(self, individual: Entity) -> set[Entity]:
        """The other individuals SameIndividual relates `individual` to."""
        self._check_fresh()
        return {other for other in self._schema.same.get(individual, ()) if other != individual}

    def super_properties(self, prop: Entity) -> set[Entity]:
        """Strict entailed super-properties, equivalents included."""
        self._check_fresh()
        return set(self._schema.prop_reach.get(prop, ()))


# ---------------------------------------------------------------------------
# phase one: the schema


class _Schema(Value):
    """Phase one's closures and the rule tables the later phases read.

    It holds what the TBox, RBox and identity axioms name, plus each
    declared class's THING and NOTHING bounds, so every run shares it
    until one of those changes.

    `same` is the one identity map: every member of a SameIndividual
    group maps to one shared frozenset of them all, and an individual
    with no entry is alone.  `chain_starts` maps a property to the
    (head, second property) of each chain it starts, `chain_ends` to
    the (head, first property) of each chain it ends.  `ruled` holds
    the properties that prop_reach, inverses, symmetric or a chain table
    keys.  `definitions` lists (class, its body's conjunctions: (named
    classes, restrictions)); `filler_reads` maps a property to the
    filler classes definition bodies restrict it to, and `own_reads`
    holds the named classes of the bodies' conjunctions, tested on the
    individual itself.  `violations` are the same-and-different ones:
    no ABox fact bears on them.
    """

    __slots__ = (
        "class_reach", "prop_reach", "same", "inverses", "symmetric", "reflexive", "irreflexive",
        "chain_starts", "chain_ends", "ruled", "domains", "ranges", "definitions", "filler_reads",
        "own_reads", "disjoint_classes", "disjoint_properties", "functional", "violations",
    )


def _multimap(pairs) -> dict:
    """key -> the set of values paired with it, for each (key, value) pair."""
    out = {}
    for key, value in pairs:
        out.setdefault(key, set()).add(value)
    return out


def _reach(adjacency: dict, start) -> set:
    """The nodes a walk of one or more edges reaches from start; start
    itself only when a cycle leads back to it."""
    seen = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
    return seen


def _reach_map(nodes, edges) -> dict:
    """Strict reachability, self excluded, from each node and each edge's source."""
    adjacency = dict.fromkeys(nodes, _NONE) | _multimap(edges)
    return {start: _reach(adjacency, start) - {start} for start in adjacency}


def _compile(expr) -> tuple:
    """A body's conjunctions (model.conjunctions), each as (named classes,
    restrictions) in body order."""
    return tuple(
        (tuple(a.cls for a in atoms if type(a) is Named), tuple(a for a in atoms if type(a) is not Named))
        for atoms in conjunctions(expr)
    )


def _schema(onto: Ontology, by_tag: dict) -> _Schema:
    def tagged(tag):
        return by_tag.get(tag, [])

    def unary(tag):
        return frozenset(a.args[0] for a in tagged(tag))

    def edges(tag):
        # an unordered pair relates its arguments both ways round
        pairs = [a.args for a in tagged(tag)]
        if SHAPES[tag].pair:
            pairs += [(y, x) for x, y in pairs]
        return pairs

    classes = [c for c in onto.entities_of_kind(Kind.CLASS) if c not in DATATYPES]
    definitions = [(a.args[0], _compile(a.args[1])) for a in tagged(AxiomTag.CLASS_DEFINITION)]

    class_edges = edges(AxiomTag.SUB_CLASS) + edges(AxiomTag.EQUIVALENT_CLASSES)
    # a class whose body is one conjunction is below each named class in it
    class_edges += [(cls, named) for cls, body in definitions if len(body) == 1 for named in body[0][0]]
    for c in classes:
        if c != THING:
            class_edges.append((c, THING))
        if c != NOTHING:
            class_edges.append((NOTHING, c))

    # one walk per identity group, whose members all share its frozenset
    same: dict[Entity, frozenset] = {}
    identity = _multimap(edges(AxiomTag.SAME_INDIVIDUAL))
    for ind in identity:
        if ind not in same:
            group = frozenset(_reach(identity, ind))
            same.update(dict.fromkeys(group, group))

    # the phase-two rule tables; TransitiveProperty(p) is the chain p p -> p
    prop_reach = _reach_map((), edges(AxiomTag.SUB_PROPERTY) + edges(AxiomTag.EQUIVALENT_PROPERTIES))
    inverses, symmetric = _multimap(edges(AxiomTag.INVERSE_PROPERTIES)), unary(AxiomTag.SYMMETRIC_PROPERTY)
    chains = {(p, p, p) for p in unary(AxiomTag.TRANSITIVE_PROPERTY)}
    chains.update(tuple(a.args) for a in tagged(AxiomTag.PROPERTY_CHAIN))

    violations = set()
    for a in tagged(AxiomTag.DIFFERENT_INDIVIDUALS):
        x, y = a.args
        if x is y or y in same.get(x, ()):
            violations.add(Violation("same-and-different", frozenset({a, same_individual(x, y)})))

    return _Schema(
        class_reach=_reach_map(classes, class_edges),
        prop_reach=prop_reach,
        same=same,
        inverses=inverses,
        symmetric=symmetric,
        reflexive=unary(AxiomTag.REFLEXIVE_PROPERTY),
        irreflexive=unary(AxiomTag.IRREFLEXIVE_PROPERTY),
        chain_starts=_multimap((first, (head, second)) for head, first, second in chains),
        chain_ends=_multimap((second, (head, first)) for head, first, second in chains),
        ruled=frozenset(prop_reach).union(inverses, symmetric, *(chain[1:] for chain in chains)),
        domains=_multimap(edges(AxiomTag.PROPERTY_DOMAIN)),
        ranges=_multimap((p, c) for p, c in edges(AxiomTag.PROPERTY_RANGE) if c not in DATATYPES),
        definitions=definitions,
        filler_reads=_multimap((t.prop, t.filler) for _, body in definitions for _, atoms in body for t in atoms),
        own_reads=frozenset(c for _, body in definitions for named, _ in body for c in named),
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


def _consequences(schema: _Schema, links: dict, back: dict, p, pairs) -> list:
    """The facts the rules derive from the facts (s, p, f), one for each
    (s, f) of `pairs`, and the maps: the one encoding of the phase-two
    rules.  Each property-level lookup is made once for the batch.
    Returns the derived facts, repeats included, and inserts none, so no
    join iterates a set that grows."""
    out = []
    for sup in schema.prop_reach.get(p, ()):
        out += [(s, sup, f) for s, f in pairs]
    # the rules below hold for object properties only (model.SHAPES), whose
    # fillers are individuals (model.FILLER); a literal is in no group
    for inv in schema.inverses.get(p, ()):
        out += [(f, inv, s) for s, f in pairs]
    if p in schema.symmetric:
        out += [(f, p, s) for s, f in pairs]
    for head, second in schema.chain_starts.get(p, ()):
        out += [(s, head, f2) for s, f in pairs for f2 in links.get(f, _EMPTY).get(second, ())]
    for head, first in schema.chain_ends.get(p, ()):
        out += [(s0, head, f) for s, f in pairs for s0 in back.get(s, _EMPTY).get(first, ())]
    if same := schema.same:
        out += [(other, p, f) for s, f in pairs for other in same.get(s, ()) if other is not s]
        out += [(s, p, other) for s, f in pairs for other in same.get(f, ()) if other is not f]
    return out


def _property_assertions(schema: _Schema, links: dict, back: dict, edits, asserted, seeds, record):
    """Phase two: bring the links and their mirror up to date with the edits.

    Both key -> property -> set maps are changed in place.  `edits` maps
    PropertyAssertion axioms to True (asserted) or False (retracted);
    `seeds` are premise-free facts to insert.  With `record` set (a
    resumed run), returns the facts that entered or left the maps; a
    first run fills empty maps and returns None.

    All three DRed steps (see the module docstring) run the rules in
    semi-naive rounds, set at a time (Bancilhon & Ramakrishnan, SIGMOD
    1986): a round passes the facts the round before took in to
    `_consequences`, one batch per property, and takes in what that
    returns, filing each new fact into the next round's batch of its
    property.  No join reads a set while a fact enters it, since
    `_consequences` returns its facts before any is taken in.  A batch
    of a property outside `_Schema.ruled` is passed only when identity
    groups exist: nothing else derives from it.
    """
    pending: dict = {}  # property -> the (subject, filler) pairs of the next round's batch

    def rounds(take):
        nonlocal pending
        while pending:
            batches, pending = pending, {}
            for p, pairs in batches.items():
                if p in schema.ruled or schema.same:
                    take(_consequences(schema, links, back, p, pairs))

    retracted, inserted = [], []
    for axiom, added in edits.items():
        (inserted if added else retracted).append(axiom.args)

    # DRed, first step: overdelete every fact with a derivation through a
    # retracted one, joining against the maps as they were
    gone: set[tuple] = set()

    def overdelete(facts):
        for fact in facts:
            s, p, f = fact
            if fact not in gone and f in links.get(s, _EMPTY).get(p, ()):
                gone.add(fact)
                pending.setdefault(p, []).append((s, f))

    overdelete(retracted)
    rounds(overdelete)
    for s, p, f in gone:
        _discard(links, s, p, f)
        if isinstance(f, Entity):
            _discard(back, f, p, s)

    put_facts: list[tuple] = []

    def put(facts, derived=True):
        # a fact enters both maps and the next round's batch once; a rule
        # derives no self-assertion on an irreflexive property
        irreflexive = schema.irreflexive if derived else _NONE
        for s, p, f in facts:
            if s is f and p in irreflexive:
                continue
            if (by_prop := links.get(s)) is None:
                by_prop = links[s] = {}
            if (fs := by_prop.get(p)) is None:
                fs = by_prop[p] = set()
            elif f in fs:
                continue
            fs.add(f)
            if isinstance(f, Entity):
                back.setdefault(f, {}).setdefault(p, set()).add(s)
            if (batch := pending.get(p)) is None:
                pending[p] = [(s, f)]
            else:
                batch.append((s, f))
            if record:
                put_facts.append((s, p, f))

    # second step: put back what is asserted, a reflexive self-link, and
    # what the rules derive from the facts the gone facts' subjects kept,
    # in rounds that take in only gone facts ...
    subjects = set()
    for fact in gone:
        if Axiom(AxiomTag.PROPERTY_ASSERTION, fact) in asserted:
            put([fact], derived=False)
        elif fact[0] is fact[2] and fact[1] in schema.reflexive:
            put([fact])
        else:
            subjects.add(fact[0])
    for s in subjects:
        for p, fs in links.get(s, _EMPTY).items():
            pending.setdefault(p, []).extend((s, f) for f in fs)
    rounds(lambda facts: put([fact for fact in facts if fact in gone]))
    # ... third: insert, asserted facts even on an irreflexive property,
    # and run the rounds to fixpoint
    put(inserted, derived=False)
    put(seeds)
    rounds(put)
    return gone.symmetric_difference(put_facts) if record else None


# ---------------------------------------------------------------------------
# phase three: memberships in snapshot rounds


def _holds(body, ind, types, links, same, r) -> bool:
    """Whether `ind` satisfies a conjunction of `body` in the snapshot
    before round r, its named classes tested before any restriction
    reads a filler.  A restriction's property is an object property: its
    fillers are individuals."""
    ts, by_prop = types[ind], links.get(ind, _EMPTY)
    for named, atoms in body:
        for c in named:
            if ts.get(c, r) >= r:
                break
        else:
            for atom in atoms:  # a `break` out of this loop is a restriction that fails
                fillers, filler, kind = by_prop.get(atom.prop, ()), atom.filler, type(atom)
                if kind is Some:
                    for f in fillers:
                        if types[f].get(filler, r) < r:
                            break
                    else:
                        break
                elif kind is Only:
                    for f in fillers:
                        if types[f].get(filler, r) >= r:
                            break
                    else:
                        continue
                    break
                else:  # Min and Max count distinct identity groups
                    count = len({same.get(f, f) for f in fillers if types[f].get(filler, r) < r})
                    if count < atom.count if kind is Min else count > atom.count:
                        break
            else:
                return True
    return False


def _delta(now, before: dict, r: int) -> set:
    """The classes in which the set `now` differs from the snapshot the
    stamp map `before` gives after round r."""
    return now ^ {c for c, stamp in before.items() if stamp <= r}


def _readers(schema: _Schema, back, ind, delta) -> set:
    """The individuals whose next snapshot can differ once `ind`'s
    memberships of the classes in `delta` changed: its whole identity
    group, since sharing copies every class, and each subject linked to
    it through a property p with a definition testing p's fillers for a
    class in `delta`."""
    found = {ind, *schema.same.get(ind, ())}
    into = back.get(ind, _EMPTY)
    for p, reads in schema.filler_reads.items():
        if not reads.isdisjoint(delta):
            found.update(into.get(p, ()))
    return found


def _initial(schema: _Schema, classed: dict, links: dict, back: dict, inds) -> dict:
    """The initial-type rule, class by class: class -> the individuals of
    `inds` that hold it in round 0.  Every one holds THING and the classes
    `classed` (class -> the individuals of `inds` asserted into it) gives
    it, a subject each domain of its properties (over `links`) and a
    filler each range of its properties (over `back`).  The map returned
    is `classed`, grown in place.  The loops are plain ones: a step's
    handful of individuals would pay more to set up comprehensions."""
    classed[THING] = set(inds)
    for ends, typing in ((links, schema.domains), (back, schema.ranges)):
        for p, classes in typing.items():
            holders = set()
            for ind in inds:
                if p in ends.get(ind, _EMPTY):
                    holders.add(ind)
            for cls in classes:
                classed.setdefault(cls, set()).update(holders)
    return classed


def _memberships(schema, classed, links, back, types, entered, touched, relinked):
    """Phase three: replay the snapshot rounds from the last run's stamps.

    `types` is the last run's individual -> class -> round map and
    entered[r] holds the individuals that entered a class in round r
    (r >= 1); both are changed in place, and both are empty before a
    first run.  `touched` individuals get their initial types
    recomputed (every individual, in a first run), and `classed` maps
    each class to the touched individuals asserted into it; `relinked`
    ones changed links that a definition reads.  A resumed run returns
    individual -> (classes gained, classes lost) for each individual
    whose memberships changed; a first run sets its stamps with no last
    run to compare them with, and returns an empty map.

    Round 0 is class-major too: `_initial` states the initial-type rule
    once, as class -> individuals over the touched individuals, and a
    first run takes its sets as the round's members; a resumed run
    re-evaluates each touched individual whose round-0 classes differ.
    A round after it works class by class on the individuals re-evaluated (every
    one in a first run, the owned ones in a resumed run).  The rounds are
    semi-naive: inheritance and sharing need only the classes that
    entered in the round before (sharing pulls a mate's into an
    individual re-evaluated), and a definition can give something new
    only in round 1 or to an individual woken by a change in a snapshot it
    reads, in the round before: its own, in a class of own_reads, or a
    filler's, through a property of filler_reads.  A definition is tested
    on the woken individuals that hold every named class of one of its
    conjunctions.
    """
    class_reach, same = schema.class_reach, schema.same
    definitions, read, own_reads = schema.definitions, schema.filler_reads, schema.own_reads
    last = len(entered) - 1  # the last run's last round that added a membership
    first = last < 0
    if first:
        entered.append(set())  # round 0 is every individual's; not tracked
    owned: dict = {}  # individual -> the last run's stamp map
    members: dict = {}  # class -> the individuals re-evaluated that hold it in the snapshot
    prev: dict = {}  # class -> those of them that entered it in the round before

    def own(ind, r, kept=None):
        # ind's stamps before round r are the last run's (for r = 0, `kept`:
        # its round-0 stamps); later ones are recomputed
        before = owned[ind] = types[ind]
        kept = types[ind] = {} if kept is None else kept
        for cls, stamp in before.items():
            if stamp < r:
                kept[cls] = stamp
            elif stamp:
                entered[stamp].discard(ind)
        for cls, stamp in kept.items():
            members.setdefault(cls, set()).add(ind)
            if stamp >= r - 1:
                prev.setdefault(cls, set()).add(ind)

    differs = {}  # individual -> the classes its snapshot changed in, against the last run's
    start = _initial(schema, classed, links, back, touched)
    if first:
        types.update((ind, {}) for ind in touched)
        for cls, inds in start.items():
            for ind in inds:
                types[ind][cls] = 0
        members = prev = start  # members grows only after round 1 has read prev
    else:
        for ind in touched:
            initial = {cls: 0 for cls, inds in start.items() if ind in inds}
            if delta := _delta(initial.keys(), types.setdefault(ind, {}), 0):  # a new individual has no stamps
                own(ind, 0, initial)
                differs[ind] = delta
    for ind in relinked - owned.keys():
        own(ind, 1)

    r = 0
    while True:
        r += 1
        prior = r - 1
        for ind, delta in differs.items():
            for reader in _readers(schema, back, ind, delta):
                if reader not in owned:
                    own(reader, r)
        everyone = members.get(THING, _NONE)
        if r == 1:
            woken = sharers = everyone
        else:
            woken = set()
            for cls, inds in prev.items():
                if cls in own_reads:
                    woken |= inds
            if first:
                for p, reads in read.items():
                    for cls in reads:
                        for f in prev.get(cls, ()):
                            woken.update(back.get(f, _EMPTY).get(p, ()))
                sharers = {mate for ind in entered[prior] for mate in same.get(ind, ())}
            else:  # the world's entrants would make a step's cost track the world
                moved = entered[prior]
                for p in read:
                    woken.update(i for i in owned if not moved.isdisjoint(links.get(i, _EMPTY).get(p, ())))
                sharers = everyone
        new = {}  # class -> the individuals that enter it in round r
        for cls, inds in prev.items():
            for sup in class_reach.get(cls, ()):
                if not inds <= members.get(sup, _NONE):
                    new.setdefault(sup, set()).update(inds - members.get(sup, _NONE))
        for ind in sharers:  # sharing pulls each mate's classes stamped r - 1
            if group := same.get(ind):
                shared = {c for other in group for c, stamp in types[other].items() if stamp == prior}
                for cls in shared - types[ind].keys():
                    new.setdefault(cls, set()).add(ind)
        if woken:
            for cls, body in definitions:
                candidates = _NONE
                for named, _ in body:
                    found = woken
                    for c in named:
                        found = found & members.get(c, _NONE)
                    candidates = candidates | found if candidates else found
                held, entering = members.get(cls, _NONE), new.get(cls, _NONE)
                for ind in candidates:
                    if not (ind in held or ind in entering) and _holds(body, ind, types, links, same, r):
                        new.setdefault(cls, set()).add(ind)
        grown = set()
        for cls, inds in new.items():
            members.setdefault(cls, set()).update(inds)
            for ind in inds:
                types[ind][cls] = r
            grown |= inds
        prev = new
        if grown:
            if r == len(entered):
                entered.append(set())
            entered[r] |= grown
        elif r > last:
            break
        if not first:
            differs = {i: delta for i, before in owned.items() if (delta := _delta(types[i].keys(), before, r))}
    while len(entered) > 1 and not entered[-1]:
        entered.pop()
    changed = {}
    for ind, before in owned.items():
        now, was = types[ind].keys(), before.keys()
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
    same = schema.same
    for a in schema.functional:
        p = a.args[0]
        for ind in checked:
            # a literal is in no group
            for f1, f2 in combinations(links.get(ind, _EMPTY).get(p, ()), 2):
                if f2 not in same.get(f1, ()):
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
    """Saturate the store, resuming from its installed Closure when every
    change the store's journal holds is one a run can resume across (see
    the module docstring)."""
    previous, journal = onto._take_journal()
    if previous is not None:  # superseded, even if this run raises: it may change the maps in place
        previous._store = None
    asserted = onto._asserted
    # The resume rule, in one pass over the journal (see the module docstring)
    resumed, link_edits, touched, declared = False, {}, set(), []
    for change, added in (journal or _EMPTY).items():
        if type(change) is Entity:
            if change.kind is Kind.CLASS:  # the schema holds each class's bounds
                break
            declared.append(change)  # an individual or a property: no schema map names it
        elif change.tag is AxiomTag.CLASS_ASSERTION:
            touched.add(change.args[0])
        elif change.tag is AxiomTag.PROPERTY_ASSERTION:
            link_edits[change] = added
        else:
            break
    else:
        resumed = previous is not None
    if resumed:  # a declared individual enters as every individual enters a first run
        closure = Closure(onto, previous._schema, previous)
        individuals = [e for e in declared if e.kind is Kind.INDIVIDUAL]
    else:
        # an empty state, with every fact inserted and every individual typed afresh
        by_tag: dict[AxiomTag, list[Axiom]] = {}
        for a in asserted:
            by_tag.setdefault(a.tag, []).append(a)
        closure = Closure(onto, _schema(onto, by_tag))
        link_edits = dict.fromkeys(by_tag.get(AxiomTag.PROPERTY_ASSERTION, ()), True)
        individuals = onto.individuals()
    schema = closure._schema
    seeds = [(ind, p, ind) for p in schema.reflexive for ind in individuals]

    links, back = closure._links, closure._back
    changed = _property_assertions(schema, links, back, link_edits, asserted, seeds, resumed)
    types, entered, violations_by = closure._types, closure._entered, closure._violations_by
    if resumed:
        touched.update(individuals)
        relinked = set()
        for s, p, f in changed:  # a link sets initial types through a domain or range only
            if p in schema.domains:
                touched.add(s)
            if p in schema.ranges and isinstance(f, Entity):
                touched.add(f)
            if p in schema.filler_reads:
                relinked.add(s)
        classed = _multimap(a.args[::-1] for ind in touched for a in onto.axioms_about(AxiomTag.CLASS_ASSERTION, ind))
        memberships = _memberships(schema, classed, links, back, types, entered, touched, relinked)
        edits = {a: added for a, added in journal.items() if type(a) is not Entity} if declared else journal
        changes = Changes(changed, memberships, edits)
        checked = memberships.keys() | changes.relinked
        for tag, args in changes.facts():
            for at, arg in enumerate(args):
                closure._reads.pop((tag, at, arg), None)
    else:  # a first run changes nothing it could report, and starts with no reads
        classed = _multimap(a.args[::-1] for a in by_tag.get(AxiomTag.CLASS_ASSERTION, ()))
        _memberships(schema, classed, links, back, types, entered, individuals, ())
        changes, checked = None, types
    violations = _violations(schema, types, links, violations_by, checked)
    closure.violations, closure.consistent, closure._changes = violations, not violations, changes
    onto._install_closure(closure)
    return closure
