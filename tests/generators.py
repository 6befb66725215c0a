"""Seeded random builders for ontologies, descriptor triples, documents.

Everything draws from a caller-supplied random.Random, so a test seed
pins the whole artifact.  Sizes stay small on purpose: the oracle suite
rechecks each world with a brute-force reasoner.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from ontodesc import model
from ontodesc.descriptor import (
    Connective,
    DescriptorTag,
    Link,
    Partition,
    Ref,
    Restriction,
    Void,
)
from ontodesc.model import And, AxiomTag, Entity, Kind, Literal, Max, Min, Named, Ontology, Only, Or, Some


def vocabulary(
    rng: random.Random,
    classes: int = 8,
    object_props: int = 3,
    data_props: int = 1,
    individuals: int = 8,
) -> Ontology:
    onto = Ontology()
    for i in range(rng.randint(2, classes)):
        onto.declare(Kind.CLASS, f"C{i}")
    for i in range(rng.randint(1, object_props)):
        onto.declare(Kind.OBJECT_PROPERTY, f"p{i}")
    for i in range(rng.randint(0, data_props)):
        onto.declare(Kind.DATA_PROPERTY, f"d{i}")
    for i in range(rng.randint(2, individuals)):
        onto.declare(Kind.INDIVIDUAL, f"a{i}")
    return onto


def _classes(onto):
    return [c for c in onto.entities_of_kind(Kind.CLASS) if c not in model.DATATYPES]


def _object_props(onto):
    return onto.entities_of_kind(Kind.OBJECT_PROPERTY)


def _data_props(onto):
    return onto.entities_of_kind(Kind.DATA_PROPERTY)


def random_literal(rng: random.Random) -> Literal:
    pick = rng.randrange(4)
    if pick == 0:
        return Literal(rng.choice(["red", "green", "a b", 'q"q', "x\\y", ""]))
    if pick == 1:
        return Literal(rng.randint(-99, 99))
    if pick == 2:
        return Literal(rng.random() < 0.5)
    return Literal(round(rng.uniform(-5, 5), 3))


def random_atom(rng: random.Random, onto: Ontology, monotone: bool):
    classes = _classes(onto)
    props = _object_props(onto)
    forms = ["named", "some", "min"] if monotone else ["named", "some", "only", "min", "max"]
    form = rng.choice(forms)
    if form == "named" or not props:
        return Named(rng.choice(classes))
    prop = rng.choice(props)
    filler = rng.choice(classes)
    if form == "some":
        return Some(prop, filler)
    if form == "only":
        return Only(prop, filler)
    if form == "min":
        return Min(rng.randint(1, 2), prop, filler)
    return Max(rng.randint(0, 2), prop, filler)


def random_expression(rng: random.Random, onto: Ontology, monotone: bool = False):
    groups = []
    for _ in range(rng.randint(1, 2)):
        atoms = [random_atom(rng, onto, monotone) for _ in range(rng.randint(1, 3))]
        groups.append(atoms[0] if len(atoms) == 1 else And(tuple(atoms)))
    return groups[0] if len(groups) == 1 else Or(tuple(groups))


def random_axiom(rng: random.Random, onto: Ontology, monotone: bool = False):
    classes = _classes(onto)
    oprops = _object_props(onto)
    dprops = _data_props(onto)
    inds = onto.individuals()
    build = model.AXIOM_FACTORIES
    choices = [
        "sub_class", "equivalent_classes", "disjoint_classes", "definition",
        "sub_property", "equivalent_properties", "inverse", "domain", "range",
        "functional", "reflexive", "symmetric", "transitive", "irreflexive",
        "chain", "class_assertion", "link", "link", "link", "same", "different",
    ]
    if not monotone:
        choices.append("disjoint_properties")
    kind = rng.choice(choices)
    if kind == "sub_class":
        return model.sub_class(rng.choice(classes), rng.choice(classes))
    if kind == "equivalent_classes":
        return build[AxiomTag.EQUIVALENT_CLASSES](rng.choice(classes), rng.choice(classes))
    if kind == "disjoint_classes" and not monotone:
        return model.disjoint_classes(rng.choice(classes), rng.choice(classes))
    if kind == "definition":
        return model.class_definition(rng.choice(classes), random_expression(rng, onto, monotone))
    if kind == "sub_property":
        return build[AxiomTag.SUB_PROPERTY](rng.choice(oprops), rng.choice(oprops))
    if kind == "equivalent_properties":
        return build[AxiomTag.EQUIVALENT_PROPERTIES](rng.choice(oprops), rng.choice(oprops))
    if kind == "disjoint_properties":
        return model.disjoint_properties(rng.choice(oprops), rng.choice(oprops))
    if kind == "inverse" and len(oprops) > 1:
        return build[AxiomTag.INVERSE_PROPERTIES](*rng.sample(oprops, 2))
    if kind == "domain":
        return build[AxiomTag.PROPERTY_DOMAIN](rng.choice(oprops), rng.choice(classes))
    if kind == "range":
        if dprops and rng.random() < 0.3:
            datatypes = sorted(model.DATATYPES, key=lambda e: e.iri)
            return build[AxiomTag.PROPERTY_RANGE](rng.choice(dprops), rng.choice(datatypes))
        return build[AxiomTag.PROPERTY_RANGE](rng.choice(oprops), rng.choice(classes))
    if kind == "functional" and not monotone:
        return model.functional(rng.choice(oprops))
    if kind == "reflexive":
        return model.reflexive(rng.choice(oprops))
    if kind == "symmetric":
        return model.symmetric(rng.choice(oprops))
    if kind == "transitive":
        return model.transitive(rng.choice(oprops))
    if kind == "irreflexive" and not monotone:
        return model.irreflexive(rng.choice(oprops))
    if kind == "chain":
        return build[AxiomTag.PROPERTY_CHAIN](*(rng.choice(oprops) for _ in range(3)))
    if kind == "class_assertion":
        return model.class_assertion(rng.choice(inds), rng.choice(classes))
    if kind == "same" and not monotone:  # merging two fillers can drop a Min count
        return model.same_individual(rng.choice(inds), rng.choice(inds))
    if kind == "different" and not monotone:
        return build[AxiomTag.DIFFERENT_INDIVIDUALS](rng.choice(inds), rng.choice(inds))
    if dprops and rng.random() < 0.25:
        return model.property_assertion(rng.choice(inds), rng.choice(dprops), random_literal(rng))
    return model.property_assertion(rng.choice(inds), rng.choice(oprops), rng.choice(inds))


def random_ontology(rng: random.Random, axioms: int | None = None, monotone: bool = False) -> Ontology:
    """A small world: bounded vocabulary plus a random axiom soup.

    monotone=True avoids the constructs that can retract satisfaction
    (Only/Max definitions, and SameIndividual, which can merge two fillers
    a Min counted apart) and anything that only matters for violation
    reporting, so entailment growth is monotone in the axiom set.  It
    also keeps descriptor semantics total and lossless: one definition
    per class, and no subsumption cycles (a cycle edge cannot survive a
    direct-neighbour read-then-write, because equivalents are not
    subclass items).
    """
    onto = vocabulary(rng)
    count = axioms if axioms is not None else rng.randint(3, 18)
    _add_random_axioms(rng, onto, count, monotone)
    return onto


def chained_ontology(rng: random.Random, depth: int | None = None, monotone: bool = False) -> Ontology:
    """A world whose definitions chain through fillers, so memberships
    still grow after round 1.

    Individuals stand in levels 0..depth, one or two to a level, and each
    has a p0 link to one or both of the next level's; the last level's
    hold C0.  C(k+1) is defined by Some(p0 Ck) or, from C3 on, sometimes
    by Min(m p0 Ck) with m 1 or 2, so level depth-k enters Ck in round k
    at the earliest and the Some links make rounds 1 and 2 always add a
    membership.  A few random axioms over the same vocabulary follow, as
    random_ontology adds them (monotone likewise).
    """
    onto = Ontology()
    depth = depth if depth is not None else rng.randint(3, 6)
    p = onto.declare(Kind.OBJECT_PROPERTY, "p0")
    onto.declare(Kind.OBJECT_PROPERTY, "p1")
    classes = [onto.declare(Kind.CLASS, f"C{k}") for k in range(depth + 1)]
    names = itertools.count()
    levels = [
        [onto.declare(Kind.INDIVIDUAL, f"a{next(names)}") for _ in range(rng.randint(1, 2))]
        for _ in range(depth + 1)
    ]
    for here, there in zip(levels, levels[1:]):
        for ind in here:
            for filler in there if rng.random() < 0.7 else [rng.choice(there)]:
                onto.assert_axiom(model.property_assertion(ind, p, filler))
    for ind in levels[-1]:
        onto.assert_axiom(model.class_assertion(ind, classes[0]))
    for k, (below, cls) in enumerate(zip(classes, classes[1:])):
        if k < 2 or rng.random() < 0.5:
            body = Some(p, below)
        else:
            body = Min(rng.randint(1, 2), p, below)
        onto.assert_axiom(model.class_definition(cls, body))
    _add_random_axioms(rng, onto, rng.randint(0, 6), monotone, defined=classes[1:])
    return onto


def _add_random_axioms(rng: random.Random, onto: Ontology, count: int, monotone: bool, defined=()) -> None:
    """Assert `count` random axioms; monotone ones keep the taxonomy acyclic
    and define no class twice (`defined` classes have a definition)."""
    defined = set(defined)
    taxonomy = nx.DiGraph()
    for cls in _classes(onto):
        taxonomy.add_node(cls)
        if cls != model.THING:
            taxonomy.add_edge(cls, model.THING)
        if cls != model.NOTHING:
            taxonomy.add_edge(model.NOTHING, cls)
    for _ in range(count):
        axiom = random_axiom(rng, onto, monotone)
        if monotone and not _keeps_taxonomy_acyclic(taxonomy, defined, axiom):
            continue
        onto.assert_axiom(axiom)


def _keeps_taxonomy_acyclic(taxonomy: nx.DiGraph, defined: set, axiom) -> bool:
    """Track subsumption edges; refuse axioms that would close a cycle."""
    tag = axiom.tag
    if tag is model.AxiomTag.SUB_CLASS:
        sub, sup = axiom.args
        if nx.has_path(taxonomy, sup, sub):
            return False
        taxonomy.add_edge(sub, sup)
        return True
    if tag is model.AxiomTag.EQUIVALENT_CLASSES:
        a, b = axiom.args
        if nx.has_path(taxonomy, a, b) or nx.has_path(taxonomy, b, a):
            return False
        taxonomy.add_edge(a, b)
        taxonomy.add_edge(b, a)
        return True
    if tag is model.AxiomTag.CLASS_DEFINITION:
        subject, expr = axiom.args
        if subject in defined:
            return False
        conjuncts = expr.members if isinstance(expr, model.And) else (expr,)
        named = [m.cls for m in conjuncts if isinstance(m, model.Named)]
        if any(nx.has_path(taxonomy, cls, subject) for cls in named):
            return False
        defined.add(subject)
        for cls in named:
            taxonomy.add_edge(subject, cls)
        return True
    return True


# ---------------------------------------------------------------------------
# descriptor triples


def random_restriction(rng: random.Random, onto: Ontology, connective: Connective) -> Restriction:
    classes = _classes(onto)
    props = _object_props(onto)
    atom = rng.choice(model.ATOMS) if props else Named
    if atom is Named:
        return Restriction(connective, Named(rng.choice(classes)))
    prop, filler = rng.choice(props), rng.choice(classes)
    if atom in (Some, Only):
        return Restriction(connective, atom(prop, filler))
    count = rng.randint(1, 3) if atom is Min else rng.randint(0, 3)
    return Restriction(connective, atom(count, prop, filler))


def pick_ground(rng: random.Random, onto: Ontology, tag: DescriptorTag) -> Entity:
    """A ground for a descriptor of `tag`: an object property, a class
    that is not a datatype or an individual, by the tag's partition.
    Object properties ground every property tag, the characteristics
    included."""
    if tag.partition is Partition.PROPERTY:
        return rng.choice(_object_props(onto))
    if tag.partition is Partition.CLASS:
        return rng.choice(_classes(onto))
    return rng.choice(onto.individuals())


def random_triple(rng: random.Random, onto: Ontology):
    """A legal (tag, ground, item-or-items) triple for the mapping laws."""
    tag = rng.choice(list(DescriptorTag))
    classes = _classes(onto)
    oprops = _object_props(onto)
    dprops = _data_props(onto)
    inds = onto.individuals()

    if tag in (DescriptorTag.INVERSE_PROPERTIES, DescriptorTag.REFLEXIVE,
               DescriptorTag.SYMMETRIC, DescriptorTag.TRANSITIVE):
        ground = rng.choice(oprops)
    elif tag.partition.value == "property":
        pool = oprops + dprops
        ground = rng.choice(pool)
    elif tag.partition.value == "class":
        ground = rng.choice(classes)
    else:
        ground = rng.choice(inds)

    if tag in (DescriptorTag.FUNCTIONAL, DescriptorTag.REFLEXIVE,
               DescriptorTag.SYMMETRIC, DescriptorTag.TRANSITIVE):
        return tag, ground, Void()
    if tag in (DescriptorTag.SUPER_PROPERTIES, DescriptorTag.EQUIVALENT_PROPERTIES,
               DescriptorTag.DISJOINT_PROPERTIES):
        same_kind = oprops if ground.kind is Kind.OBJECT_PROPERTY else dprops
        return tag, ground, Ref(rng.choice(same_kind))
    if tag is DescriptorTag.INVERSE_PROPERTIES:
        return tag, ground, Ref(rng.choice(oprops))
    if tag in (DescriptorTag.DOMAIN, DescriptorTag.RANGE):
        if tag is DescriptorTag.RANGE and ground.kind is Kind.DATA_PROPERTY:
            datatype = rng.choice(sorted(model.DATATYPES, key=lambda e: e.iri))
            return tag, ground, Ref(datatype)
        return tag, ground, Ref(rng.choice(classes))
    if tag is DescriptorTag.DEFINITION:
        items = []
        size = rng.randint(1, 4)
        for i in range(size):
            last = i == size - 1
            connective = Connective.END if last else rng.choice(
                [Connective.INTERSECT, Connective.UNION]
            )
            items.append(random_restriction(rng, onto, connective))
        return tag, ground, items
    if tag in (DescriptorTag.SUB_CLASSES, DescriptorTag.SUPER_CLASSES,
               DescriptorTag.EQUIVALENT_CLASSES, DescriptorTag.DISJOINT_CLASSES):
        return tag, ground, Ref(rng.choice(classes))
    if tag is DescriptorTag.INSTANCES:
        return tag, ground, Ref(rng.choice(inds))
    if tag is DescriptorTag.TYPES:
        return tag, ground, Ref(rng.choice(classes))
    if tag is DescriptorTag.LINKS:
        if dprops and rng.random() < 0.3:
            return tag, ground, Link(rng.choice(dprops), random_literal(rng))
        return tag, ground, Link(rng.choice(oprops), rng.choice(inds))
    return tag, ground, Ref(rng.choice(inds))  # SAME_AS / DIFFERENT_FROM


# ---------------------------------------------------------------------------
# documents


def random_document(rng: random.Random) -> str:
    """Canonical text of a random world (used for parser laws)."""
    from ontodesc.syntax import serialize

    return serialize(random_ontology(rng))


# Names the parser reads as one name, none of them in the ASCII-initial
# form that vocabulary() makes: non-ASCII letters first, an underscore
# first, punctuation inside, a boolean's prefix, statement and expression
# heads used as plain names.
IRREGULAR_NAMES = (
    "Ärger", "ñ", "ℕ1", "Ω.ω", "ǅx", "_x", "_", "a!b", "x+y", "é-1",
    "trueish", "falsey", "Class", "Individual", "SubClassOf", "Some", "And",
)


def _renamed(term, names: dict):
    """An entity, class expression, literal or count with each entity
    renamed through names (entity -> IRI)."""
    if isinstance(term, Entity):
        return Entity(term.kind, names.get(term, term.iri))
    if isinstance(term, (And, Or)):
        return type(term)(tuple(_renamed(m, names) for m in term.members))
    if isinstance(term, model.EXPRESSION_CLASSES):
        return type(term)(*[_renamed(getattr(term, name), names) for name in term.__slots__])
    return term


def irregular_document(rng: random.Random) -> str:
    """Canonical text of a random world in which a random subset of the
    declared IRIs is renamed to IRREGULAR_NAMES."""
    from ontodesc.syntax import serialize

    onto = random_ontology(rng)
    declared = [e for e in onto.vocabulary() if e not in model.BUILTINS]
    picked = rng.sample(declared, rng.randint(1, min(len(declared), len(IRREGULAR_NAMES))))
    names = dict(zip(picked, rng.sample(IRREGULAR_NAMES, len(picked))))
    renamed = Ontology()
    for entity in declared:
        renamed.declare(entity.kind, names.get(entity, entity.iri))
    for axiom in onto.axioms():
        renamed.assert_axiom(model.Axiom(axiom.tag, tuple(_renamed(a, names) for a in axiom.args)))
    return serialize(renamed)


def defined_world(rng: random.Random, text: str, count: int = 16) -> Ontology:
    """A parsed world text of perfbench's load shape (rooms asserted into
    classes K0.., doors, robots) plus `count` defined classes Y0.., so that
    phase three's candidate sets are exercised with many definitions.

    The first three bodies are fixed shapes: two named conjuncts, a union
    whose conjunctions name different classes, and no named class.  The
    rest are random conjunctions or unions of two, whose named classes
    come from the world's classes and the earlier Y classes and whose
    restrictions (Some, Only, Min, Max) run over the object properties
    with any class, a later Y included, as filler.
    """
    from ontodesc.syntax import parse

    onto = parse(text)
    props = _object_props(onto)
    known = [c for c in _classes(onto) if c not in (model.THING, model.NOTHING)]
    ks = [c for c in known if c.iri.startswith("K")]
    defined = [onto.declare(Kind.CLASS, f"Y{i}") for i in range(count)]
    door, has_door = onto.lookup("DOOR"), onto.lookup("hasDoor")

    def restriction():
        prop, filler = rng.choice(props), rng.choice(known + defined)
        kind = rng.choice((Some, Only, Min, Max))
        return kind(rng.randint(kind is Min, 2), prop, filler) if kind in (Min, Max) else kind(prop, filler)

    def conjunction(named):
        atoms = [Named(c) for c in named] + [restriction() for _ in range(rng.randint(0 if named else 1, 2))]
        return atoms[0] if len(atoms) == 1 else And(tuple(atoms))

    bodies = [
        And((Named(rng.choice(ks)), Named(rng.choice(ks)), Some(has_door, door))),
        Or((And((Named(ks[0]), Some(has_door, door))), And((Named(ks[-1]), Max(1, has_door, door))))),
        Min(2, has_door, door),
    ]
    for i in range(len(bodies), count):
        pool = known + defined[:i]
        parts = [conjunction(rng.sample(pool, rng.randint(0, 2))) for _ in range(rng.choice((1, 1, 2)))]
        bodies.append(parts[0] if len(parts) == 1 else Or(tuple(parts)))
    for cls, body in zip(defined, bodies):
        onto.assert_axiom(model.class_definition(cls, body))
    return onto
