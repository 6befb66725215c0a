"""Core ontology data model.

Entities (classes, properties, individuals), typed literals, class
expressions, axioms, and the in-memory axiom store.  The store keeps a
vocabulary (IRI -> entity), an asserted axiom set partitioned into RBox,
TBox and ABox, and the reasoner's last Closure, which holds the inferred
partition.  Any mutation bumps a generation counter; entailed-view reads
made against an outdated closure raise StaleClosure.

Entities are interned: one live object per (kind, IRI) in the process, so
equality is identity and hashing is the C-level object hash.  The
reasoner spends most of its time probing sets and dicts keyed by
entities, and an identity hash runs no Python code on those probes.
The Kind and AxiomTag enums hash by identity for the same reason.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# errors


class OntologyError(Exception):
    """Base class for errors raised by this package."""


class KindClash(OntologyError):
    """An IRI is already declared with a different entity kind."""


class KindMismatch(OntologyError):
    """An axiom or expression received an entity of the wrong kind."""


class UnknownEntity(OntologyError):
    """A referenced IRI is not present in the vocabulary."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


class StaleClosure(OntologyError):
    """The entailed view was requested after mutations without re-reasoning."""


# ---------------------------------------------------------------------------
# entities


class Kind(Enum):
    CLASS = "class"
    OBJECT_PROPERTY = "object-property"
    DATA_PROPERTY = "data-property"
    INDIVIDUAL = "individual"
    LITERAL = "literal"

    # members are singletons compared by identity; Enum.__hash__ is Python
    __hash__ = object.__hash__


# (kind, iri) -> the live Entity; the lock makes a miss create one object
_ENTITIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_ENTITIES_LOCK = threading.Lock()


class Entity:
    """A named term of the vocabulary.  IRIs compare byte-for-byte.

    Interned: Entity(kind, iri) returns the one live object for that
    (kind, iri), and copy and pickle give it back too.  Equality is
    therefore identity and the hash is object.__hash__, so set and dict
    probes run no Python code.  Entities are immutable; an entity that
    nothing references is freed.
    """

    __slots__ = ("kind", "iri", "__weakref__")

    def __new__(cls, kind: Kind, iri: str):
        if kind is Kind.LITERAL:
            raise KindMismatch("literals carry a value, not an IRI; use Literal")
        if not isinstance(iri, str) or not iri:
            raise OntologyError("IRI must be a non-empty string")
        key = (kind, iri)
        entity = _ENTITIES.get(key)
        if entity is not None:
            return entity
        if iri.split() != [iri]:  # str.split() splits where str.isspace() holds
            raise OntologyError(f"IRI may not contain whitespace: {iri!r}")
        with _ENTITIES_LOCK:
            entity = _ENTITIES.get(key)
            if entity is None:
                entity = object.__new__(cls)
                object.__setattr__(entity, "kind", kind)
                object.__setattr__(entity, "iri", iri)
                _ENTITIES[key] = entity
        return entity

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: entities are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: entities are immutable")

    def __reduce__(self):
        return (Entity, (self.kind, self.iri))

    def __repr__(self):
        return f"{self.kind.value}:{self.iri}"


class Literal:
    """A typed literal value: string, integer, boolean or double.

    Equality is by exact type and value, so Literal(1), Literal(True) and
    Literal(1.0) are three distinct literals.
    """

    __slots__ = ("value",)
    _TYPES = (str, bool, int, float)

    def __init__(self, value: str | int | bool | float):
        if not isinstance(value, self._TYPES):
            raise KindMismatch(f"unsupported literal value: {value!r}")
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            raise OntologyError("non-finite doubles are not supported")
        self.value = value

    @property
    def kind(self) -> Kind:
        return Kind.LITERAL

    def _key(self):
        return (type(self.value).__name__, self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"literal:{self.value!r}"


Term = Union[Entity, Literal]

# Builtin vocabulary: the universal and empty classes plus the four literal
# datatypes.  Datatypes are class-kind entities with reserved names so that
# the range of a data property can be stated with the same axiom shape.
THING = Entity(Kind.CLASS, "THING")
NOTHING = Entity(Kind.CLASS, "NOTHING")
DT_STRING = Entity(Kind.CLASS, "string")
DT_INTEGER = Entity(Kind.CLASS, "integer")
DT_BOOLEAN = Entity(Kind.CLASS, "boolean")
DT_DOUBLE = Entity(Kind.CLASS, "double")
DATATYPES = frozenset({DT_STRING, DT_INTEGER, DT_BOOLEAN, DT_DOUBLE})
BUILTINS = (THING, NOTHING, DT_STRING, DT_INTEGER, DT_BOOLEAN, DT_DOUBLE)


def _require(entity, kind: Kind, role: str) -> None:
    if not isinstance(entity, Entity) or entity.kind is not kind:
        raise KindMismatch(f"{role} must be a {kind.value}, got {entity!r}")


def _require_class(entity, role: str) -> None:
    # datatype builtins are range markers, not members of the class taxonomy
    _require(entity, Kind.CLASS, role)
    if entity in DATATYPES:
        raise KindMismatch(f"{role} may not be a datatype: {entity.iri}")


def _require_property(entity, role: str) -> None:
    if not isinstance(entity, Entity) or entity.kind not in (
        Kind.OBJECT_PROPERTY,
        Kind.DATA_PROPERTY,
    ):
        raise KindMismatch(f"{role} must be a property, got {entity!r}")


# ---------------------------------------------------------------------------
# class expressions


@dataclass(frozen=True)
class Named:
    cls: Entity

    def __post_init__(self):
        _require_class(self.cls, "named expression")


@dataclass(frozen=True)
class And:
    members: tuple

    def __post_init__(self):
        _check_members(self.members, "And")


@dataclass(frozen=True)
class Or:
    members: tuple

    def __post_init__(self):
        _check_members(self.members, "Or")


@dataclass(frozen=True)
class Some:
    prop: Entity
    filler: Entity

    def __post_init__(self):
        _check_quantifier(self.prop, self.filler)


@dataclass(frozen=True)
class Only:
    prop: Entity
    filler: Entity

    def __post_init__(self):
        _check_quantifier(self.prop, self.filler)


@dataclass(frozen=True)
class Min:
    count: int
    prop: Entity
    filler: Entity

    def __post_init__(self):
        _check_quantifier(self.prop, self.filler)
        if not isinstance(self.count, int) or self.count < 1:
            raise OntologyError("Min cardinality must be an integer >= 1")


@dataclass(frozen=True)
class Max:
    count: int
    prop: Entity
    filler: Entity

    def __post_init__(self):
        _check_quantifier(self.prop, self.filler)
        if not isinstance(self.count, int) or self.count < 0:
            raise OntologyError("Max cardinality must be an integer >= 0")


ClassExpression = Union[Named, And, Or, Some, Only, Min, Max]


def _check_members(members, label: str) -> None:
    if not isinstance(members, tuple) or len(members) < 2:
        raise OntologyError(f"{label} needs a tuple of at least two members")
    for m in members:
        if not isinstance(m, (Named, And, Or, Some, Only, Min, Max)):
            raise KindMismatch(f"{label} member is not a class expression: {m!r}")


def _check_quantifier(prop, filler) -> None:
    # quantified restrictions range over object properties and named fillers
    _require(prop, Kind.OBJECT_PROPERTY, "restriction property")
    _require_class(filler, "restriction filler")


def expression_entities(expr: ClassExpression) -> Iterator[Entity]:
    if isinstance(expr, Named):
        yield expr.cls
    elif isinstance(expr, (And, Or)):
        for m in expr.members:
            yield from expression_entities(m)
    else:
        yield expr.prop
        yield expr.filler


# ---------------------------------------------------------------------------
# axioms


class Box(Enum):
    RBOX = "rbox"
    TBOX = "tbox"
    ABOX = "abox"


class AxiomTag(Enum):
    SUB_PROPERTY = "SubPropertyOf"
    EQUIVALENT_PROPERTIES = "EquivalentProperties"
    DISJOINT_PROPERTIES = "DisjointProperties"
    INVERSE_PROPERTIES = "InverseProperties"
    PROPERTY_DOMAIN = "PropertyDomain"
    PROPERTY_RANGE = "PropertyRange"
    FUNCTIONAL_PROPERTY = "FunctionalProperty"
    REFLEXIVE_PROPERTY = "ReflexiveProperty"
    SYMMETRIC_PROPERTY = "SymmetricProperty"
    TRANSITIVE_PROPERTY = "TransitiveProperty"
    IRREFLEXIVE_PROPERTY = "IrreflexiveProperty"
    PROPERTY_CHAIN = "SubPropertyChain"
    SUB_CLASS = "SubClassOf"
    EQUIVALENT_CLASSES = "EquivalentClasses"
    DISJOINT_CLASSES = "DisjointClasses"
    CLASS_DEFINITION = "DefineClass"
    CLASS_ASSERTION = "ClassAssertion"
    PROPERTY_ASSERTION = "PropertyAssertion"
    SAME_INDIVIDUAL = "SameIndividual"
    DIFFERENT_INDIVIDUALS = "DifferentIndividuals"

    # hashed inside every Axiom hash; see Kind
    __hash__ = object.__hash__

    @property
    def box(self) -> Box:
        return _BOX_OF[self]


_RBOX_TAGS = {
    AxiomTag.SUB_PROPERTY,
    AxiomTag.EQUIVALENT_PROPERTIES,
    AxiomTag.DISJOINT_PROPERTIES,
    AxiomTag.INVERSE_PROPERTIES,
    AxiomTag.PROPERTY_DOMAIN,
    AxiomTag.PROPERTY_RANGE,
    AxiomTag.FUNCTIONAL_PROPERTY,
    AxiomTag.REFLEXIVE_PROPERTY,
    AxiomTag.SYMMETRIC_PROPERTY,
    AxiomTag.TRANSITIVE_PROPERTY,
    AxiomTag.IRREFLEXIVE_PROPERTY,
    AxiomTag.PROPERTY_CHAIN,
}
_TBOX_TAGS = {
    AxiomTag.SUB_CLASS,
    AxiomTag.EQUIVALENT_CLASSES,
    AxiomTag.DISJOINT_CLASSES,
    AxiomTag.CLASS_DEFINITION,
}
_BOX_OF = {}
for _tag in AxiomTag:
    if _tag in _RBOX_TAGS:
        _BOX_OF[_tag] = Box.RBOX
    elif _tag in _TBOX_TAGS:
        _BOX_OF[_tag] = Box.TBOX
    else:
        _BOX_OF[_tag] = Box.ABOX

# Tags whose two arguments form an unordered pair: the axiom with swapped
# arguments is the same axiom.  Canonicalised at construction time.
ORDERLESS_TAGS = frozenset(
    {
        AxiomTag.EQUIVALENT_PROPERTIES,
        AxiomTag.DISJOINT_PROPERTIES,
        AxiomTag.INVERSE_PROPERTIES,
        AxiomTag.EQUIVALENT_CLASSES,
        AxiomTag.DISJOINT_CLASSES,
        AxiomTag.SAME_INDIVIDUAL,
        AxiomTag.DIFFERENT_INDIVIDUALS,
    }
)


@dataclass(frozen=True, slots=True)
class Axiom:
    tag: AxiomTag
    args: tuple

    def __repr__(self):
        inner = " ".join(repr(a) for a in self.args)
        return f"{self.tag.value}({inner})"


def _pair(tag: AxiomTag, a: Entity, b: Entity) -> Axiom:
    return canonical(Axiom(tag, (a, b)))


def _same_property_kind(a: Entity, b: Entity, label: str) -> None:
    _require_property(a, label)
    _require_property(b, label)
    if a.kind is not b.kind:
        raise KindMismatch(f"{label} may not mix object and data properties")


def sub_property(sub: Entity, sup: Entity) -> Axiom:
    _same_property_kind(sub, sup, "SubPropertyOf")
    return Axiom(AxiomTag.SUB_PROPERTY, (sub, sup))


def equivalent_properties(a: Entity, b: Entity) -> Axiom:
    _same_property_kind(a, b, "EquivalentProperties")
    return _pair(AxiomTag.EQUIVALENT_PROPERTIES, a, b)


def disjoint_properties(a: Entity, b: Entity) -> Axiom:
    _same_property_kind(a, b, "DisjointProperties")
    return _pair(AxiomTag.DISJOINT_PROPERTIES, a, b)


def inverse_properties(a: Entity, b: Entity) -> Axiom:
    _require(a, Kind.OBJECT_PROPERTY, "InverseProperties argument")
    _require(b, Kind.OBJECT_PROPERTY, "InverseProperties argument")
    return _pair(AxiomTag.INVERSE_PROPERTIES, a, b)


def property_domain(prop: Entity, cls: Entity) -> Axiom:
    _require_property(prop, "PropertyDomain property")
    _require_class(cls, "PropertyDomain class")
    return Axiom(AxiomTag.PROPERTY_DOMAIN, (prop, cls))


def property_range(prop: Entity, cls: Entity) -> Axiom:
    _require_property(prop, "PropertyRange property")
    _require(cls, Kind.CLASS, "PropertyRange class")
    if prop.kind is Kind.DATA_PROPERTY and cls not in DATATYPES:
        raise KindMismatch("the range of a data property must be a datatype")
    if prop.kind is Kind.OBJECT_PROPERTY and cls in DATATYPES:
        raise KindMismatch("the range of an object property must be a class")
    return Axiom(AxiomTag.PROPERTY_RANGE, (prop, cls))


def functional(prop: Entity) -> Axiom:
    _require_property(prop, "FunctionalProperty argument")
    return Axiom(AxiomTag.FUNCTIONAL_PROPERTY, (prop,))


def _object_unary(tag: AxiomTag, prop: Entity) -> Axiom:
    _require(prop, Kind.OBJECT_PROPERTY, f"{tag.value} argument")
    return Axiom(tag, (prop,))


def reflexive(prop: Entity) -> Axiom:
    return _object_unary(AxiomTag.REFLEXIVE_PROPERTY, prop)


def symmetric(prop: Entity) -> Axiom:
    return _object_unary(AxiomTag.SYMMETRIC_PROPERTY, prop)


def transitive(prop: Entity) -> Axiom:
    return _object_unary(AxiomTag.TRANSITIVE_PROPERTY, prop)


def irreflexive(prop: Entity) -> Axiom:
    return _object_unary(AxiomTag.IRREFLEXIVE_PROPERTY, prop)


def property_chain(sup: Entity, first: Entity, second: Entity) -> Axiom:
    for e in (sup, first, second):
        _require(e, Kind.OBJECT_PROPERTY, "SubPropertyChain argument")
    return Axiom(AxiomTag.PROPERTY_CHAIN, (sup, first, second))


def sub_class(sub: Entity, sup: Entity) -> Axiom:
    _require_class(sub, "SubClassOf argument")
    _require_class(sup, "SubClassOf argument")
    return Axiom(AxiomTag.SUB_CLASS, (sub, sup))


def equivalent_classes(a: Entity, b: Entity) -> Axiom:
    _require_class(a, "EquivalentClasses argument")
    _require_class(b, "EquivalentClasses argument")
    return _pair(AxiomTag.EQUIVALENT_CLASSES, a, b)


def disjoint_classes(a: Entity, b: Entity) -> Axiom:
    _require_class(a, "DisjointClasses argument")
    _require_class(b, "DisjointClasses argument")
    return _pair(AxiomTag.DISJOINT_CLASSES, a, b)


def class_definition(cls: Entity, expr: ClassExpression) -> Axiom:
    _require_class(cls, "DefineClass subject")
    if not isinstance(expr, (Named, And, Or, Some, Only, Min, Max)):
        raise KindMismatch(f"DefineClass body is not a class expression: {expr!r}")
    return Axiom(AxiomTag.CLASS_DEFINITION, (cls, expr))


def class_assertion(individual: Entity, cls: Entity) -> Axiom:
    _require(individual, Kind.INDIVIDUAL, "ClassAssertion individual")
    _require_class(cls, "ClassAssertion class")
    return Axiom(AxiomTag.CLASS_ASSERTION, (individual, cls))


def property_assertion(subject: Entity, prop: Entity, filler: Term) -> Axiom:
    _require(subject, Kind.INDIVIDUAL, "PropertyAssertion subject")
    _require_property(prop, "PropertyAssertion property")
    if prop.kind is Kind.OBJECT_PROPERTY:
        _require(filler, Kind.INDIVIDUAL, "object property filler")
    elif not isinstance(filler, Literal):
        raise KindMismatch(f"data property filler must be a literal, got {filler!r}")
    return Axiom(AxiomTag.PROPERTY_ASSERTION, (subject, prop, filler))


def same_individual(a: Entity, b: Entity) -> Axiom:
    _require(a, Kind.INDIVIDUAL, "SameIndividual argument")
    _require(b, Kind.INDIVIDUAL, "SameIndividual argument")
    return _pair(AxiomTag.SAME_INDIVIDUAL, a, b)


def different_individuals(a: Entity, b: Entity) -> Axiom:
    _require(a, Kind.INDIVIDUAL, "DifferentIndividuals argument")
    _require(b, Kind.INDIVIDUAL, "DifferentIndividuals argument")
    return _pair(AxiomTag.DIFFERENT_INDIVIDUALS, a, b)


# The one constructor per tag.  They are the only kind checks on axiom
# arguments; the parser and the descriptor mapping both build through them.
# The reasoner builds its derived axioms as plain Axiom(tag, args) from the
# arguments of checked asserted axioms, so they pass these checks too.
AXIOM_FACTORIES = {
    AxiomTag.SUB_PROPERTY: sub_property,
    AxiomTag.EQUIVALENT_PROPERTIES: equivalent_properties,
    AxiomTag.DISJOINT_PROPERTIES: disjoint_properties,
    AxiomTag.INVERSE_PROPERTIES: inverse_properties,
    AxiomTag.PROPERTY_DOMAIN: property_domain,
    AxiomTag.PROPERTY_RANGE: property_range,
    AxiomTag.FUNCTIONAL_PROPERTY: functional,
    AxiomTag.REFLEXIVE_PROPERTY: reflexive,
    AxiomTag.SYMMETRIC_PROPERTY: symmetric,
    AxiomTag.TRANSITIVE_PROPERTY: transitive,
    AxiomTag.IRREFLEXIVE_PROPERTY: irreflexive,
    AxiomTag.PROPERTY_CHAIN: property_chain,
    AxiomTag.SUB_CLASS: sub_class,
    AxiomTag.EQUIVALENT_CLASSES: equivalent_classes,
    AxiomTag.DISJOINT_CLASSES: disjoint_classes,
    AxiomTag.CLASS_DEFINITION: class_definition,
    AxiomTag.CLASS_ASSERTION: class_assertion,
    AxiomTag.PROPERTY_ASSERTION: property_assertion,
    AxiomTag.SAME_INDIVIDUAL: same_individual,
    AxiomTag.DIFFERENT_INDIVIDUALS: different_individuals,
}


def axiom_entities(axiom: Axiom) -> Iterator[Entity]:
    """Every named entity mentioned by the axiom (literals are skipped)."""
    for arg in axiom.args:
        if isinstance(arg, Entity):
            yield arg
        elif isinstance(arg, (Named, And, Or, Some, Only, Min, Max)):
            yield from expression_entities(arg)


def canonical(axiom: Axiom) -> Axiom:
    """Normalise an unordered pair's argument order; others pass through.

    Factory-built axioms are already canonical; this guards hand-built
    ones so the store answers the same for either argument order.
    """
    if axiom.tag in ORDERLESS_TAGS:
        a, b = axiom.args
        if b.iri < a.iri:
            return Axiom(axiom.tag, (b, a))
    return axiom


def tautological(axiom: Axiom) -> bool:
    """True for axioms that hold in every world.

    Reflexive subsumptions, equivalences and self-identity, the class
    lattice bounds (NOTHING below, THING above) and THING membership.
    The reasoner materializes all but the reflexive ones (for declared
    entities), and Closure.is_entailed holds every one true, so asserting
    or retracting one never changes what is entailed.
    """
    tag = axiom.tag
    if tag is AxiomTag.SUB_CLASS:
        sub, sup = axiom.args
        return sub == sup or sub == NOTHING or sup == THING
    if tag in (
        AxiomTag.SUB_PROPERTY,
        AxiomTag.EQUIVALENT_PROPERTIES,
        AxiomTag.EQUIVALENT_CLASSES,
        AxiomTag.SAME_INDIVIDUAL,
    ):
        return axiom.args[0] == axiom.args[1]
    if tag is AxiomTag.CLASS_ASSERTION:
        return axiom.args[1] == THING
    return False


def mentions_at_ground(axiom: Axiom, ground: Entity, at: int = 0) -> bool:
    """True when `ground` sits in the axiom's ground position.

    The ground position is argument `at`; for unordered pair tags either
    argument counts.
    """
    if axiom.tag in ORDERLESS_TAGS:
        return ground in axiom.args[:2]
    return axiom.args[at] == ground


# the tags whose edits the journal carries; any other edit drops it
_JOURNALED_TAGS = frozenset({AxiomTag.CLASS_ASSERTION, AxiomTag.PROPERTY_ASSERTION})


class _GroundIndex:
    """The asserted axioms by (tag, ground position, entity).

    A slot per (tag, position) maps each entity to the axioms holding it
    there; unordered pair tags have one slot, holding each axiom under
    both arguments.  A slot is built by one pass over the axioms on its
    first lookup, and add/remove keep the built slots current.
    """

    def __init__(self, axioms):
        self._axioms = axioms
        self._slots: dict[AxiomTag, dict] = {}  # tag -> position -> entity -> axioms

    @staticmethod
    def _grounds(axiom: Axiom, at):
        return axiom.args if at is None else (axiom.args[at],)

    def lookup(self, tag: AxiomTag, ground, at: int):
        if tag in ORDERLESS_TAGS:
            at = None
        slot = self._slots.get(tag, {}).get(at)
        if slot is None:
            slot = {}
            for axiom in self._axioms:
                if axiom.tag is tag:
                    for g in self._grounds(axiom, at):
                        slot.setdefault(g, set()).add(axiom)
            self._slots.setdefault(tag, {})[at] = slot
        return slot.get(ground, ())

    def _built_slots(self, axiom: Axiom):
        # no slot is built on the bulk load path; skip even the tag lookup
        return self._slots.get(axiom.tag, {}).items() if self._slots else ()

    def add(self, axiom: Axiom) -> None:
        for at, slot in self._built_slots(axiom):
            for g in self._grounds(axiom, at):
                slot.setdefault(g, set()).add(axiom)

    def remove(self, axiom: Axiom) -> None:
        for at, slot in self._built_slots(axiom):
            for g in self._grounds(axiom, at):
                bucket = slot.get(g)  # a pair of equal arguments empties it once
                if bucket is not None:
                    bucket.discard(axiom)
                    if not bucket:
                        del slot[g]


# ---------------------------------------------------------------------------
# the store


class Ontology:
    """Vocabulary plus asserted axioms, and the reasoner's last Closure.

    The asserted set is only changed through assert_axiom / retract_axiom.
    The inferred partition is the installed Closure's `inferred`, which
    the Closure builds from its maps on first read; it is read through
    the "entailed" view, which is the union of both partitions and is
    guarded by a staleness check.

    The store also keeps a journal for the reasoner: the net
    ClassAssertion and PropertyAssertion asserts and retracts since the
    installed Closure's generation.  reason() resumes from that Closure
    by changing its maps in place, and reads this store's asserted set
    rather than a copy; the Closure it supersedes is stale and refuses
    reads.  Any other change (another tag, a new declaration) drops the
    journal, and the next run starts afresh.

    axioms() copies a whole view and is meant for bulk work
    (serializing).  contains() and axioms_about() are lookups.
    axioms_about() reads the asserted partition's ground index, keyed by
    (tag, argument position, entity) - or (tag, entity) for unordered
    pair tags.  Each (tag, position) slot is built on the first query
    that needs it (reason() reads the ClassAssertion one), and
    assert_axiom / retract_axiom keep built slots current.  Entailed
    facts about one entity are Closure queries.
    """

    def __init__(self):
        self._vocab: dict[str, Entity] = {e.iri: e for e in BUILTINS}
        self._asserted: set[Axiom] = set()
        self._asserted_index = _GroundIndex(self._asserted)
        self._generation = 0
        self._closure = None
        self._journal: dict[Axiom, bool] | None = None  # axiom -> asserted since _closure

    # -- vocabulary

    def lookup(self, iri: str) -> Entity:
        try:
            return self._vocab[iri]
        except KeyError:
            raise UnknownEntity(f"{iri!r} is not declared") from None

    def maybe_lookup(self, iri: str) -> Entity | None:
        return self._vocab.get(iri)

    def declare(self, kind: Kind, iri: str) -> Entity:
        if kind is Kind.LITERAL:
            raise KindMismatch("literals are values and are never declared")
        existing = self._vocab.get(iri)
        if existing is not None:
            if existing.kind is not kind:
                raise KindClash(
                    f"{iri!r} is already a {existing.kind.value}, cannot redeclare as {kind.value}"
                )
            return existing
        entity = Entity(kind, iri)
        self._vocab[iri] = entity
        self._generation += 1
        self._journal = None
        return entity

    def ensure(self, entity: Entity) -> Entity:
        """Declare the entity's IRI with its kind if not present."""
        return self.declare(entity.kind, entity.iri)

    def vocabulary(self) -> Iterator[Entity]:
        return iter(self._vocab.values())

    def entities_of_kind(self, kind: Kind) -> list[Entity]:
        return [e for e in self._vocab.values() if e.kind is kind]

    def individuals(self) -> list[Entity]:
        return self.entities_of_kind(Kind.INDIVIDUAL)

    # -- axioms

    def _check_vocabulary(self, axiom: Axiom) -> None:
        for entity in axiom_entities(axiom):
            known = self._vocab.get(entity.iri)
            if known is None:
                raise UnknownEntity(f"axiom mentions undeclared entity: {entity.iri!r}")
            if known != entity:
                raise KindClash(
                    f"{entity.iri!r} is declared as {known.kind.value}, axiom uses {entity.kind.value}"
                )

    def assert_axiom(self, axiom: Axiom) -> bool:
        """Add to the asserted set.  Returns True when the set changed."""
        if not isinstance(axiom, Axiom):
            raise OntologyError(f"not an axiom: {axiom!r}")
        axiom = canonical(axiom)
        self._check_vocabulary(axiom)
        if axiom in self._asserted:
            return False
        self._asserted.add(axiom)
        self._asserted_index.add(axiom)
        self._generation += 1
        self._note(axiom, True)
        return True

    def retract_axiom(self, axiom: Axiom) -> bool:
        """Remove from the asserted set.  Returns True when the set changed."""
        axiom = canonical(axiom)
        if axiom not in self._asserted:
            return False
        self._asserted.remove(axiom)
        self._asserted_index.remove(axiom)
        self._generation += 1
        self._note(axiom, False)
        return True

    def _note(self, axiom: Axiom, asserted: bool) -> None:
        journal = self._journal
        if journal is None:
            return
        if axiom.tag not in _JOURNALED_TAGS:
            self._journal = None
        elif journal.pop(axiom, None) is None:  # an edit undone leaves no entry
            journal[axiom] = asserted

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def stale(self) -> bool:
        return self._closure is None or self._closure.generation != self._generation

    def _install_closure(self, closure) -> None:
        # called by the reasoner only
        self._closure = closure
        self._journal = {}

    def _take_journal(self):
        """(installed Closure, journal), or (None, None) when a run must start afresh.

        Called by the reasoner as a run starts; the journal stays dropped
        until the run installs its Closure, so a run that raises part way
        leaves the next one to start afresh.
        """
        journal, self._journal = self._journal, None
        if journal is None:
            return None, None
        return self._closure, journal

    def current_closure(self):
        if self.stale:
            raise StaleClosure("reason() must run before entailed reads")
        return self._closure

    def _entailed_view(self, view: str) -> bool:
        """True for the entailed view, False for the asserted one.

        Raises StaleClosure for an entailed view the reasoner has not
        caught up with, and ValueError for any other view name.
        """
        if view == "asserted":
            return False
        if view == "entailed":
            self.current_closure()  # raises StaleClosure
            return True
        raise ValueError(f"view must be 'asserted' or 'entailed', got {view!r}")

    def axioms(self, view: str = "asserted") -> frozenset[Axiom]:
        if self._entailed_view(view):
            return frozenset(self._asserted) | self._closure.inferred
        return frozenset(self._asserted)

    def inferred_axioms(self) -> frozenset[Axiom]:
        return self.current_closure().inferred

    def axioms_about(self, tag: AxiomTag, ground: Entity, *, at: int = 0) -> set[Axiom]:
        """The asserted `tag` axioms with `ground` in ground position `at`.

        A fresh set, looked up in the ground index (see the class
        docstring); `at` is ignored for unordered pair tags.
        """
        return set(self._asserted_index.lookup(tag, ground, at))

    def contains(self, axiom: Axiom, view: str = "asserted") -> bool:
        axiom = canonical(axiom)
        if self._entailed_view(view):
            return axiom in self._asserted or axiom in self._closure.inferred
        return axiom in self._asserted
