"""Forward-chaining saturation reasoner.

reason() computes the deductive closure of the asserted axioms, keeps
each derived fact once, in the maps of the Closure it installs and
returns, and builds the inferred axioms from those maps on the first
read of Closure.inferred.  Derived axioms never repeat asserted ones and
the asserted set is never touched.

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
"""

from __future__ import annotations

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
    class_assertion,
    property_assertion,
    same_individual,
    tautological,
)


@dataclass(frozen=True)
class Violation:
    rule: str
    axioms: frozenset


@dataclass
class Closure:
    """Entailment interface over one saturation run.

    All query methods re-check that the underlying ontology has not been
    mutated since the run; if it has, they raise StaleClosure.

    Every query is a lookup in the maps the run built for itself:
    `fillers` and `links_of` read the subject -> property -> fillers map,
    `types_of` the membership map, `super_properties` the property reach
    and `same_individuals` the identity groups.  `instances_of` and the
    two `direct_*` taxonomy queries read indexes derived from those maps:
    the class -> instances inversion and the transitive reduction of the
    subsumption reach.  Each is built on the first query that needs it
    and kept for the life of the Closure; the run's data never changes,
    and a later mutation makes the whole Closure stale rather than its
    indexes.  Descriptor reads are answered by these queries; `inferred`,
    the store's inferred partition, is built from the same maps on first
    read.
    """

    ontology: Ontology
    generation: int
    consistent: bool = True
    violations: tuple = ()
    _class_reach: dict = field(default_factory=dict, repr=False)
    _prop_reach: dict = field(default_factory=dict, repr=False)
    _same_rep: dict = field(default_factory=dict, repr=False)
    _same_groups: dict = field(default_factory=dict, repr=False)
    _types: dict = field(default_factory=dict, repr=False)
    _links: dict = field(default_factory=dict, repr=False)
    _asserted: frozenset = field(default_factory=frozenset, repr=False)

    # -- guards

    def _check_fresh(self):
        if self.ontology.generation != self.generation:
            raise StaleClosure("the ontology changed after this closure was computed")

    @cached_property
    def inferred(self) -> frozenset:
        """The run's derived axioms minus its asserted snapshot.

        Arguments come from checked asserted axioms and each rule keeps
        its kinds, so the factories' checks are skipped (a test holds
        every inferred axiom to its factory).
        """
        derived: set[Axiom] = set()
        for cls, sups in self._class_reach.items():
            for sup in sups:
                derived.add(Axiom(AxiomTag.SUB_CLASS, (cls, sup)))
        for prop, sups in self._prop_reach.items():
            for sup in sups:
                derived.add(Axiom(AxiomTag.SUB_PROPERTY, (prop, sup)))
        for members in self._same_groups.values():
            for a, b in combinations(members, 2):
                derived.add(same_individual(a, b))
        for s, by_prop in self._links.items():
            for p, fillers in by_prop.items():
                for f in fillers:
                    derived.add(Axiom(AxiomTag.PROPERTY_ASSERTION, (s, p, f)))
        for ind, types in self._types.items():
            for cls in types:
                derived.add(Axiom(AxiomTag.CLASS_ASSERTION, (ind, cls)))
        return frozenset(derived - self._asserted)

    # -- entailment

    def is_entailed(self, axiom: Axiom) -> bool:
        self._check_fresh()
        if self.ontology.contains(axiom, "entailed"):
            return True
        # tautologies hold everywhere; the reflexive ones are never
        # materialised, nor are the bounds of entities not declared here
        return tautological(axiom)

    def subsumed_by(self, sub: Entity, sup: Entity) -> bool:
        """Entailed class subsumption, reflexivity included."""
        self._check_fresh()
        return sub == sup or sup in self._class_reach.get(sub, ())

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
        reach = self._class_reach
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
        return set(self._links.get(individual, {}).get(prop, ()))

    def links_of(self, individual: Entity) -> set:
        self._check_fresh()
        return {
            (p, f) for p, fs in self._links.get(individual, {}).items() for f in fs
        }

    def same_as(self, a: Entity, b: Entity) -> bool:
        self._check_fresh()
        return a == b or self._same_rep.get(a, a) == self._same_rep.get(b, b)

    def same_individuals(self, individual: Entity) -> set[Entity]:
        """The other individuals SameIndividual relates `individual` to."""
        self._check_fresh()
        group = self._same_groups.get(self._same_rep.get(individual, individual), ())
        return {other for other in group if other != individual}

    def super_properties(self, prop: Entity) -> set[Entity]:
        """Strict entailed super-properties, equivalents included."""
        self._check_fresh()
        return set(self._prop_reach.get(prop, ()))


# ---------------------------------------------------------------------------
# saturation


def _reach_map(nodes, edges) -> dict:
    """Strict reachability per node over an edge dict, self excluded."""
    adjacency = {n: set() for n in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set())
    reach = {}
    for start in adjacency:
        seen = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node])
        seen.discard(start)
        reach[start] = seen
    return reach


def _definition_conjuncts(expr):
    return expr.members if isinstance(expr, And) else (expr,)


def _union_find(pairs, items):
    rep = {i: i for i in items}

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
    return {i: find(i) for i in items}


def _satisfies(expr, ind, types, links, rep) -> bool:
    if isinstance(expr, Named):
        return expr.cls in types.get(ind, ())
    if isinstance(expr, And):
        return all(_satisfies(m, ind, types, links, rep) for m in expr.members)
    if isinstance(expr, Or):
        return any(_satisfies(m, ind, types, links, rep) for m in expr.members)
    fillers = links.get(ind, {}).get(expr.prop, ())
    named = [f for f in fillers if isinstance(f, Entity)]
    if isinstance(expr, Some):
        return any(expr.filler in types.get(f, ()) for f in named)
    if isinstance(expr, Only):
        return all(expr.filler in types.get(f, ()) for f in named)
    matching = {rep.get(f, f) for f in named if expr.filler in types.get(f, ())}
    if isinstance(expr, Min):
        return len(matching) >= expr.count
    return len(matching) <= expr.count  # Max


def reason(onto: Ontology) -> Closure:
    asserted = onto.axioms("asserted")
    by_tag: dict[AxiomTag, list[Axiom]] = {}
    for a in asserted:
        by_tag.setdefault(a.tag, []).append(a)

    def tagged(tag):
        return by_tag.get(tag, [])

    classes = [c for c in onto.entities_of_kind(Kind.CLASS) if c not in DATATYPES]
    individuals = onto.individuals()
    properties = onto.entities_of_kind(Kind.OBJECT_PROPERTY) + onto.entities_of_kind(
        Kind.DATA_PROPERTY
    )

    # phase one: schema closures -------------------------------------------
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
    class_reach = _reach_map(classes, class_edges)

    prop_edges = [tuple(a.args) for a in tagged(AxiomTag.SUB_PROPERTY)]
    for a in tagged(AxiomTag.EQUIVALENT_PROPERTIES):
        x, y = a.args
        prop_edges += [(x, y), (y, x)]
    prop_reach = _reach_map(properties, prop_edges)

    same_pairs = [tuple(a.args) for a in tagged(AxiomTag.SAME_INDIVIDUAL)]
    rep = _union_find(same_pairs, individuals)
    groups: dict[Entity, list[Entity]] = {}
    for ind in individuals:
        groups.setdefault(rep[ind], []).append(ind)

    # phase two: property assertions ----------------------------------------
    inverses: dict[Entity, set[Entity]] = {}
    for a in tagged(AxiomTag.INVERSE_PROPERTIES):
        p, r = a.args
        inverses.setdefault(p, set()).add(r)
        inverses.setdefault(r, set()).add(p)
    symmetric_props = {a.args[0] for a in tagged(AxiomTag.SYMMETRIC_PROPERTY)}
    transitive_props = {a.args[0] for a in tagged(AxiomTag.TRANSITIVE_PROPERTY)}
    reflexive_props = {a.args[0] for a in tagged(AxiomTag.REFLEXIVE_PROPERTY)}
    irreflexive_props = {a.args[0] for a in tagged(AxiomTag.IRREFLEXIVE_PROPERTY)}
    chains = [tuple(a.args) for a in tagged(AxiomTag.PROPERTY_CHAIN)]

    # subject -> property -> fillers (kept by the Closure) and its mirror,
    # filler -> property -> subjects, over named fillers only
    links: dict[Entity, dict[Entity, set]] = {}
    back: dict[Entity, dict[Entity, set]] = {}
    pending: list[tuple] = []

    def put(subject, prop, filler):
        # a fact is pending once, when it enters both maps
        fillers = links.setdefault(subject, {}).setdefault(prop, set())
        if filler not in fillers:
            fillers.add(filler)
            if isinstance(filler, Entity):
                back.setdefault(filler, {}).setdefault(prop, set()).add(subject)
            pending.append((subject, prop, filler))

    def derive(subject, prop, filler):
        if not (prop in irreflexive_props and subject == filler):
            put(subject, prop, filler)

    # asserted facts are kept even on an irreflexive property
    for a in tagged(AxiomTag.PROPERTY_ASSERTION):
        put(*a.args)
    for p in reflexive_props:
        for ind in individuals:
            derive(ind, p, ind)

    # The joins below iterate live sets.  derive() grows only
    # links[subject][prop] and back[filler][prop]; a join derives into the
    # set it iterates only from a self-loop (s == f), and then a fact that
    # set already holds (the maps mirror each other), so none grows.
    while pending:
        s, p, f = pending.pop()
        for sup in prop_reach.get(p, ()):
            derive(s, sup, f)
        if isinstance(f, Entity):
            for inv in inverses.get(p, ()):
                derive(f, inv, s)
            if p in symmetric_props:
                derive(f, p, s)
            if p in transitive_props:
                for f2 in links.get(f, {}).get(p, ()):
                    derive(s, p, f2)
                for s0 in back.get(s, {}).get(p, ()):
                    derive(s0, p, f)
            for sup, p1, p2 in chains:
                if p == p1:
                    for f2 in links.get(f, {}).get(p2, ()):
                        derive(s, sup, f2)
                if p == p2:
                    for s0 in back.get(s, {}).get(p1, ()):
                        derive(s0, sup, f)
        for other in groups.get(rep.get(s), ()):
            if other != s:
                derive(other, p, f)
        if isinstance(f, Entity):
            for other in groups.get(rep.get(f), ()):
                if other != f:
                    derive(s, p, other)

    # phase three: memberships in snapshot rounds ----------------------------
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

    types: dict[Entity, set[Entity]] = {ind: {THING} for ind in individuals}
    for a in tagged(AxiomTag.CLASS_ASSERTION):
        ind, cls = a.args
        types[ind].add(cls)
    for s, by_prop in links.items():
        for p in by_prop:
            types[s].update(domains.get(p, ()))
    for f, by_prop in back.items():
        for p in by_prop:
            types[f].update(ranges.get(p, ()))

    while True:
        fresh: list[tuple] = []
        for ind, ts in types.items():
            for cls in ts:
                for sup in class_reach.get(cls, ()):
                    if sup not in ts:
                        fresh.append((ind, sup))
            for other in groups.get(rep.get(ind), ()):
                others = types[other]
                for cls in ts:
                    if cls not in others:
                        fresh.append((other, cls))
        for cls, expr in definitions:
            for ind in individuals:
                if cls not in types[ind] and _satisfies(expr, ind, types, links, rep):
                    fresh.append((ind, cls))
        if not fresh:
            break
        for ind, cls in fresh:
            types[ind].add(cls)

    # violations -------------------------------------------------------------
    violations: set[Violation] = set()
    for a in tagged(AxiomTag.DISJOINT_CLASSES):
        x, y = a.args
        for ind, ts in types.items():
            if x in ts and y in ts:
                violations.add(
                    Violation(
                        "disjoint-classes",
                        frozenset({a, class_assertion(ind, x), class_assertion(ind, y)}),
                    )
                )
    for a in tagged(AxiomTag.DISJOINT_PROPERTIES):
        p, r = a.args
        for s, by_prop in links.items():
            for f in by_prop.get(p, set()) & by_prop.get(r, set()):
                violations.add(
                    Violation(
                        "disjoint-properties",
                        frozenset({a, property_assertion(s, p, f), property_assertion(s, r, f)}),
                    )
                )
    for a in tagged(AxiomTag.FUNCTIONAL_PROPERTY):
        p = a.args[0]
        for s, by_prop in links.items():
            # a literal is its own representative
            for f1, f2 in combinations(by_prop.get(p, ()), 2):
                if rep.get(f1, f1) != rep.get(f2, f2):
                    violations.add(
                        Violation(
                            "functional-property",
                            frozenset({a, property_assertion(s, p, f1), property_assertion(s, p, f2)}),
                        )
                    )
    for a in tagged(AxiomTag.DIFFERENT_INDIVIDUALS):
        x, y = a.args
        if rep.get(x, x) == rep.get(y, y):
            violations.add(Violation("same-and-different", frozenset({a, same_individual(x, y)})))

    closure = Closure(
        ontology=onto,
        generation=onto.generation,
        consistent=not violations,
        violations=tuple(sorted(violations, key=_violation_key)),
        _class_reach=class_reach,
        _prop_reach=prop_reach,
        _same_rep=rep,
        _same_groups=groups,
        _types=types,
        _links=links,
        _asserted=asserted,
    )
    onto._install_closure(closure)
    return closure


def _violation_key(v: Violation):
    return (v.rule, sorted(repr(a) for a in v.axioms))
