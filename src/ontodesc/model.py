"""Core ontology data model.

Entities (classes, properties, individuals), typed literals, class
expressions, axioms, and the in-memory axiom store.  SHAPES, one row per
axiom tag, is the one statement of each tag's box, argument kinds and
unordered pair; the axiom factories are built from it.  _MEMBERS is the
one statement of the class-expression grammar: And takes ATOMS (Named
and the restrictions) and Or takes atoms and Ands, so every expression
is a union of intersections of atoms, the shape that the .onto text and
the DEFINITION descriptor hold; any other nesting is a KindMismatch at
construction, and conjunctions() reads a body's shape.  The store keeps a
vocabulary (IRI -> entity), an asserted axiom set partitioned into RBox,
TBox and ABox, the reasoner's last Closure, and a journal of every
change since that Closure.  The store answers for the asserted set only;
what is entailed is the Closure's to answer.  A Closure is current
exactly while it is installed and the journal is empty, and
current_closure() raises StaleClosure for any other.

Entities are interned: one live object per (kind, IRI) in the process, so
equality is identity and hashing is the C-level object hash.  The
reasoner spends most of its time probing sets and dicts keyed by
entities, and an identity hash runs no Python code on those probes.
The Kind and AxiomTag enums hash by identity for the same reason.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from enum import Enum
from typing import Iterator, NamedTuple, Union


# ---------------------------------------------------------------------------
# errors


class OntologyError(Exception):
    """Base class for errors raised by this package."""


class KindClash(OntologyError):
    """An IRI is already declared with a different entity kind."""


def redeclared(iri: str, was: Kind, kind: Kind) -> KindClash:
    """The error for declaring `iri`, already a `was`, as a `kind`."""
    return KindClash(f"{iri!r} is already a {was.value}, cannot redeclare as {kind.value}")


class KindMismatch(OntologyError):
    """An axiom or expression received an entity of the wrong kind."""


class UnknownEntity(OntologyError):
    """A referenced IRI is not present in the vocabulary."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


class StaleClosure(OntologyError):
    """An entailed read was made against a Closure that is not current:
    the store changed since its run, or a later run superseded it."""


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


# (kind, iri) -> a _Ref to the live Entity; the lock makes a miss create
# one object.  A plain dict of weak references keeps lookups and inserts
# in C, where a WeakValueDictionary runs Python code for each.  Every
# _Ref carries its key and has the one callback _drop, which drops a dead
# entry: it takes no lock, since it can run while the lock is held, and
# removes the entry only if it is still dead.
_ENTITIES: dict = {}
_ENTITIES_LOCK = threading.Lock()


class _Ref(weakref.ref):
    """A weak reference to an interned Entity, keyed by its _ENTITIES key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    _remove_dead_weakref(_ENTITIES, ref.key)


def _intern(kind: Kind, iri: str) -> Entity:
    """The live Entity for (kind, iri), made on a miss; the caller holds
    _ENTITIES_LOCK and has checked that `kind` is not LITERAL and that
    `iri` is a non-empty string."""
    key = (kind, iri)
    ref = _ENTITIES.get(key)
    entity = None if ref is None else ref()
    if entity is None:
        if iri.split() != [iri]:  # str.split() splits where str.isspace() holds
            raise OntologyError(f"IRI may not contain whitespace: {iri!r}")
        if not iri.isascii():  # a lone surrogate, as argv decodes a byte that is not UTF-8, has no encoding
            try:
                iri.encode()
            except UnicodeEncodeError:
                raise OntologyError(f"IRI is not UTF-8 text: {iri!r}") from None
        entity = object.__new__(Entity)
        object.__setattr__(entity, "kind", kind)
        object.__setattr__(entity, "iri", iri)
        _ENTITIES[key] = ref = _Ref(entity, _drop)
        ref.key = key
    return entity


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
        ref = _ENTITIES.get((kind, iri))
        entity = None if ref is None else ref()
        if entity is not None:
            return entity
        with _ENTITIES_LOCK:
            return _intern(kind, iri)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: entities are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: entities are immutable")

    def __reduce__(self):
        return (Entity, (self.kind, self.iri))

    def __repr__(self):
        return f"{self.kind.value}:{self.iri}"


class Record:
    """A record whose fields are the names in its `__slots__`, in order.

    Record(*values, **named) sets each field from a positional argument
    or, after those, from the keyword of its name; a record that checks
    its arguments or has a default writes its own __init__, which sets
    the fields through _init.  A record equals one of its own class with
    equal fields, returns NotImplemented for any other type, shows as
    Name(field=value, ...) and is mutable and unhashable; see Value.
    _values() gives the fields compared and shown: a record that keeps
    a field of its own past them returns a prefix of its slots.

    The package's records are written out this way rather than made by
    a class decorator, which builds each class's methods from source
    text at import: every command is a new process that would pay it.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:  # the keywords name the fields after the positional ones
            values += tuple([named.pop(name) for name in names[len(values) :] if name in named])
        if named or len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(names)}")
        self._init(*values)

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({shown})"


class Value(Record):
    """An immutable Record: hashed as the tuple of its fields, refusing
    assignment and deletion, and copied and pickled by calling its class
    with its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} values are immutable")

    def __reduce__(self):
        return (type(self), self._values())


class Literal(Value):
    """A typed literal value: string, integer, boolean or double.

    Equality is by exact type and value, so Literal(1), Literal(True) and
    Literal(1.0) are three distinct literals.  Literals are immutable, so
    one in a set or a store keeps its hash.
    """

    __slots__ = ("value",)
    _TYPES = (str, bool, int, float)

    def __init__(self, value: str | int | bool | float):
        if not isinstance(value, self._TYPES):
            raise KindMismatch(f"unsupported literal value: {value!r}")
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            raise OntologyError("non-finite doubles are not supported")
        self._init(value)

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


_OP, _DP = Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY


class Role(Value):
    """What one argument of an axiom or class expression may be: Role(noun,
    kinds, fits).

    `kinds` are the kinds it may have; a datatype is a class-kind entity,
    so they alone do not tell a class from a datatype.  `fits(arg, before)`
    is the whole test; `before` is the argument ahead of this one, which
    the roles that depend on an earlier argument read.
    """

    __slots__ = ("noun", "kinds", "fits")

    def check(self, arg, before, label: str) -> None:
        if not self.fits(arg, before):
            raise KindMismatch(f"{label} must be {self.noun}, got {arg!r}")


def _entity_role(noun: str, *kinds: Kind, also=None) -> Role:
    if also is None:
        return Role(noun, kinds, lambda a, _: isinstance(a, Entity) and a.kind in kinds)
    return Role(noun, kinds, lambda a, b: isinstance(a, Entity) and a.kind in kinds and also(a, b))


# datatype builtins are range markers, not members of the class taxonomy
CLASS = _entity_role("a class, not a datatype", Kind.CLASS, also=lambda a, _: a not in DATATYPES)
PROPERTY = _entity_role("a property", _OP, _DP)
OBJECT_PROPERTY = _entity_role("an object property", _OP)
INDIVIDUAL = _entity_role("an individual", Kind.INDIVIDUAL)
# the three roles that read the argument before them, a checked property
LIKE_PROPERTY = _entity_role("a property of the first one's kind", _OP, _DP, also=lambda a, b: a.kind is b.kind)
RANGE = _entity_role(
    "a datatype for a data property, a class for an object property",
    Kind.CLASS,
    also=lambda a, b: (a in DATATYPES) is (b.kind is _DP),
)
FILLER = Role(
    "an individual for an object property, a literal for a data property",
    (Kind.INDIVIDUAL, Kind.LITERAL),
    lambda a, b: isinstance(a, Literal) if b.kind is _DP else isinstance(a, Entity) and a.kind is Kind.INDIVIDUAL,
)


# ---------------------------------------------------------------------------
# class expressions


class Named(Value):
    __slots__ = ("cls",)

    def __init__(self, cls: Entity):
        CLASS.check(cls, None, "named expression")
        self._init(cls)


class And(Value):
    __slots__ = ("members",)

    def __init__(self, members: tuple):
        _check_members(members, And)
        self._init(members)


class Or(Value):
    __slots__ = ("members",)

    def __init__(self, members: tuple):
        _check_members(members, Or)
        self._init(members)


class Some(Value):
    __slots__ = ("prop", "filler")

    def __init__(self, prop: Entity, filler: Entity):
        _check_quantifier(prop, filler)
        self._init(prop, filler)


class Only(Value):
    __slots__ = ("prop", "filler")

    def __init__(self, prop: Entity, filler: Entity):
        _check_quantifier(prop, filler)
        self._init(prop, filler)


class Min(Value):
    __slots__ = ("count", "prop", "filler")

    def __init__(self, count: int, prop: Entity, filler: Entity):
        _check_quantifier(prop, filler)
        if not isinstance(count, int) or count < 1:
            raise OntologyError("Min cardinality must be an integer >= 1")
        self._init(count, prop, filler)


class Max(Value):
    __slots__ = ("count", "prop", "filler")

    def __init__(self, count: int, prop: Entity, filler: Entity):
        _check_quantifier(prop, filler)
        if not isinstance(count, int) or count < 0:
            raise OntologyError("Max cardinality must be an integer >= 0")
        self._init(count, prop, filler)


EXPRESSION_CLASSES = (Named, And, Or, Some, Only, Min, Max)
ClassExpression = Union[EXPRESSION_CLASSES]
EXPRESSION = Role("a class expression", (), lambda a, _: isinstance(a, EXPRESSION_CLASSES))


# The one statement of the class-expression grammar, a union of
# intersections of atoms: the classes each connective's members may be.
ATOMS = (Named, Some, Only, Min, Max)
_MEMBERS = {And: ATOMS, Or: (*ATOMS, And)}


def _check_members(members, connective) -> None:
    label = connective.__name__
    if not isinstance(members, tuple) or len(members) < 2:
        raise OntologyError(f"{label} needs a tuple of at least two members")
    for m in members:
        if not isinstance(m, _MEMBERS[connective]):
            raise KindMismatch(f"{label} members must be atoms{'' if connective is And else ' or Ands'}, got {m!r}")


def conjunctions(expr: ClassExpression) -> tuple:
    """A body's conjunctions in body order, each the tuple of its atoms."""
    return tuple(m.members if isinstance(m, And) else (m,) for m in (expr.members if isinstance(expr, Or) else (expr,)))


def _check_quantifier(prop, filler) -> None:
    OBJECT_PROPERTY.check(prop, None, "restriction property")
    CLASS.check(filler, None, "restriction filler")


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
        return SHAPES[self].box


class Shape(NamedTuple):
    box: Box
    roles: tuple  # the Role of each argument, in order
    # the two arguments form an unordered pair: the axiom with swapped
    # arguments is the same axiom, canonicalised at construction time
    pair: bool = False


# The one statement of each tag's box, argument kinds and pair: the
# factories check against it, and AxiomTag.box, ORDERLESS_TAGS, the
# parser's arities and the descriptors' ground kinds are read from it.
SHAPES = {
    AxiomTag.SUB_PROPERTY: Shape(Box.RBOX, (PROPERTY, LIKE_PROPERTY)),
    AxiomTag.EQUIVALENT_PROPERTIES: Shape(Box.RBOX, (PROPERTY, LIKE_PROPERTY), pair=True),
    AxiomTag.DISJOINT_PROPERTIES: Shape(Box.RBOX, (PROPERTY, LIKE_PROPERTY), pair=True),
    AxiomTag.INVERSE_PROPERTIES: Shape(Box.RBOX, (OBJECT_PROPERTY, OBJECT_PROPERTY), pair=True),
    AxiomTag.PROPERTY_DOMAIN: Shape(Box.RBOX, (PROPERTY, CLASS)),
    AxiomTag.PROPERTY_RANGE: Shape(Box.RBOX, (PROPERTY, RANGE)),
    AxiomTag.FUNCTIONAL_PROPERTY: Shape(Box.RBOX, (PROPERTY,)),
    AxiomTag.REFLEXIVE_PROPERTY: Shape(Box.RBOX, (OBJECT_PROPERTY,)),
    AxiomTag.SYMMETRIC_PROPERTY: Shape(Box.RBOX, (OBJECT_PROPERTY,)),
    AxiomTag.TRANSITIVE_PROPERTY: Shape(Box.RBOX, (OBJECT_PROPERTY,)),
    AxiomTag.IRREFLEXIVE_PROPERTY: Shape(Box.RBOX, (OBJECT_PROPERTY,)),
    AxiomTag.PROPERTY_CHAIN: Shape(Box.RBOX, (OBJECT_PROPERTY, OBJECT_PROPERTY, OBJECT_PROPERTY)),
    AxiomTag.SUB_CLASS: Shape(Box.TBOX, (CLASS, CLASS)),
    AxiomTag.EQUIVALENT_CLASSES: Shape(Box.TBOX, (CLASS, CLASS), pair=True),
    AxiomTag.DISJOINT_CLASSES: Shape(Box.TBOX, (CLASS, CLASS), pair=True),
    AxiomTag.CLASS_DEFINITION: Shape(Box.TBOX, (CLASS, EXPRESSION)),
    AxiomTag.CLASS_ASSERTION: Shape(Box.ABOX, (INDIVIDUAL, CLASS)),
    AxiomTag.PROPERTY_ASSERTION: Shape(Box.ABOX, (INDIVIDUAL, PROPERTY, FILLER)),
    AxiomTag.SAME_INDIVIDUAL: Shape(Box.ABOX, (INDIVIDUAL, INDIVIDUAL), pair=True),
    AxiomTag.DIFFERENT_INDIVIDUALS: Shape(Box.ABOX, (INDIVIDUAL, INDIVIDUAL), pair=True),
}

ORDERLESS_TAGS = frozenset(tag for tag, shape in SHAPES.items() if shape.pair)


class Axiom(Value):
    # Built for every parsed, derived and written axiom and hashed on
    # every store probe: __init__ sets the slots through their member
    # descriptors, and __eq__ and __hash__ skip Value's loop over them.
    __slots__ = ("tag", "args")

    def __init__(self, tag: AxiomTag, args: tuple):
        _set_tag(self, tag)
        _set_args(self, args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tag, self.args) == (other.tag, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.tag, self.args))

    def __repr__(self):
        inner = " ".join(repr(a) for a in self.args)
        return f"{self.tag.value}({inner})"


_set_tag, _set_args = Axiom.tag.__set__, Axiom.args.__set__


def _factory(tag: AxiomTag):
    """The constructor of `tag` axioms, its roles' tests compiled once: an
    accepted call tests each argument once, a rejected one runs the checks."""
    _, roles, pair = SHAPES[tag]
    n, label = len(roles), f"{tag.value} argument"
    f0, f1, f2 = [role.fits for role in roles] + [None] * (3 - n)

    def build(*args) -> Axiom:
        if len(args) != n:
            raise TypeError(f"{tag.value} takes {n} arguments, got {len(args)}")
        if f0(args[0], None) and (n < 2 or f1(args[1], args[0])) and (n < 3 or f2(args[2], args[1])):
            return canonical(Axiom(tag, args)) if pair else Axiom(tag, args)
        for role, arg, before in zip(roles, args, (None, *args)):
            role.check(arg, before, label)  # raises at the first argument rejected above

    return build


# The one constructor per tag.  They are the only kind checks on axiom
# arguments; the parser (which inserts what they build unchecked) and the
# descriptor mapping build through them.  The reasoner builds its derived
# axioms as plain Axiom(tag, args) from checked asserted axioms' arguments.
AXIOM_FACTORIES = {tag: _factory(tag) for tag in AxiomTag}
disjoint_properties = AXIOM_FACTORIES[AxiomTag.DISJOINT_PROPERTIES]
functional = AXIOM_FACTORIES[AxiomTag.FUNCTIONAL_PROPERTY]
reflexive = AXIOM_FACTORIES[AxiomTag.REFLEXIVE_PROPERTY]
symmetric = AXIOM_FACTORIES[AxiomTag.SYMMETRIC_PROPERTY]
transitive = AXIOM_FACTORIES[AxiomTag.TRANSITIVE_PROPERTY]
irreflexive = AXIOM_FACTORIES[AxiomTag.IRREFLEXIVE_PROPERTY]
sub_class = AXIOM_FACTORIES[AxiomTag.SUB_CLASS]
disjoint_classes = AXIOM_FACTORIES[AxiomTag.DISJOINT_CLASSES]
class_definition = AXIOM_FACTORIES[AxiomTag.CLASS_DEFINITION]
class_assertion = AXIOM_FACTORIES[AxiomTag.CLASS_ASSERTION]
property_assertion = AXIOM_FACTORIES[AxiomTag.PROPERTY_ASSERTION]
same_individual = AXIOM_FACTORIES[AxiomTag.SAME_INDIVIDUAL]


def axiom_entities(axiom: Axiom) -> Iterator[Entity]:
    """Every named entity mentioned by the axiom (literals are skipped)."""
    for arg in axiom.args:
        if isinstance(arg, Entity):
            yield arg
        elif isinstance(arg, EXPRESSION_CLASSES):
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


def _ground_position(tag: AxiomTag, at: int) -> int | None:
    """The pair rule: the ground of an unordered pair tag is either
    argument (None); that of any other tag is argument `at`."""
    return None if tag in ORDERLESS_TAGS else at


def _grounds(axiom: Axiom, position: int | None) -> tuple:
    """The arguments in a _ground_position."""
    return axiom.args if position is None else (axiom.args[position],)


def mentions_at_ground(axiom: Axiom, ground: Entity, at: int = 0) -> bool:
    """True when `ground` sits in the axiom's ground position: argument
    `at`, or either argument of an unordered pair tag."""
    return ground in _grounds(axiom, _ground_position(axiom.tag, at))


_NO_AXIOMS = frozenset()


class _GroundIndex:
    """The asserted axioms by (tag, ground position, entity).

    A slot per (tag, position) maps each entity to the axioms holding it
    there; unordered pair tags have one slot, holding each axiom under
    both arguments.  A slot is built by one pass over the axioms on its
    first lookup, and add/remove keep the built slots current.  lookup
    hands out the live bucket, which its callers read and never change.
    """

    def __init__(self, axioms):
        self._axioms = axioms
        self._slots: dict[AxiomTag, dict] = {}  # tag -> position -> entity -> axioms

    def lookup(self, tag: AxiomTag, ground, at: int):
        at = _ground_position(tag, at)
        slot = self._slots.get(tag, {}).get(at)
        if slot is None:
            if at is not None and at not in range(len(SHAPES[tag].roles)):
                raise ValueError(f"{tag.value} has no argument position {at!r}")
            slot = {}
            for axiom in self._axioms:
                if axiom.tag is tag:
                    for g in _grounds(axiom, at):
                        slot.setdefault(g, set()).add(axiom)
            self._slots.setdefault(tag, {})[at] = slot
        return slot.get(ground, _NO_AXIOMS)

    def _built_slots(self, axiom: Axiom):
        # no slot is built on the bulk load path; skip even the tag lookup
        return self._slots.get(axiom.tag, {}).items() if self._slots else ()

    def add(self, axiom: Axiom) -> None:
        for at, slot in self._built_slots(axiom):
            for g in _grounds(axiom, at):
                slot.setdefault(g, set()).add(axiom)

    def remove(self, axiom: Axiom) -> None:
        for at, slot in self._built_slots(axiom):
            for g in _grounds(axiom, at):
                bucket = slot.get(g)  # a pair of equal arguments empties it once
                if bucket is not None:
                    bucket.discard(axiom)
                    if not bucket:
                        del slot[g]


# ---------------------------------------------------------------------------
# the store


class Ontology:
    """Vocabulary plus asserted axioms, and the reasoner's last Closure.

    The asserted set is only changed through assert_axiom / retract_axiom,
    by the parser's batch, and by descriptor writes.  assert_axiom checks
    an axiom against this store's vocabulary and orders an unordered pair,
    then _insert updates the set, the ground index and the journal.  A
    descriptor write calls _insert itself: each axiom it adds is already
    canonical, built by a factory or from a read, and the write has just
    checked and declared its entities.  The parser fills a fresh
    store in two batch calls: _declare_all declares the names it has
    checked, interning them under one hold of the intern lock, and
    _insert_all adds its factory-built axioms, which hold only entities
    it looked up, with one set.update.  Besides the vocabulary and the
    set, declare and _insert keep the journal and the built ground-index
    slots current, so each batch checks that the store has no journal
    (and the insert, no built slot) and raises otherwise.

    The store answers for the asserted set alone.  What the installed
    Closure entails is that Closure's to answer (Closure.is_entailed);
    the store holds it only to tell whether it is current, and reads
    none of its attributes.

    The journal is the one record of change: every change since the
    installed Closure, each axiom asserted or retracted, of any tag,
    that the edits since have not undone (axiom -> asserted), and each
    entity declared (entity -> True).  _is_current states the one
    freshness rule on it: a Closure is current exactly when it is the
    installed one and the journal is empty, so an edit undone before
    the next run leaves the Closure current.  reason() alone decides
    which changes it can resume across (see the reasoner's module
    docstring); it takes the journal and the Closure together as it
    starts and installs its own Closure with an empty journal, so the
    Closure it supersedes is stale and refuses reads.  There is no
    journal while no Closure is installed: before the first run, and
    after a run that raised part way, which leaves the next run to
    start afresh.

    axioms() copies the whole asserted set.  contains() and
    axioms_about() are lookups.
    axioms_about() reads the asserted partition's ground index, keyed by
    (tag, argument position, entity) - or (tag, entity) for unordered
    pair tags.  Each (tag, position) slot is built on the first query
    that needs it (a resumed reason() reads the ClassAssertion one; a
    from-scratch run reads none), and assert_axiom / retract_axiom keep
    built slots current.  Descriptors and the flows read a slot's live
    bucket in place, through the index's lookup, where they only compare
    it.  Entailed facts about one entity are Closure queries.
    """

    def __init__(self):
        self._vocab: dict[str, Entity] = {e.iri: e for e in BUILTINS}
        self._asserted: set[Axiom] = set()
        self._asserted_index = _GroundIndex(self._asserted)
        self._closure = None
        self._journal: dict | None = None  # axiom -> asserted, entity -> True, since _closure

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
                raise redeclared(iri, existing.kind, kind)
            return existing
        entity = Entity(kind, iri)
        self._vocab[iri] = entity
        self._note(entity, True)
        return entity

    def _declare_all(self, names: dict[str, Kind]) -> None:
        """declare() for each IRI -> kind of `names`, in order, where each
        IRI is a non-empty string not declared yet and each kind is not
        LITERAL, into a store with no journal: one hold of the intern lock
        for all of them."""
        vocab = self._vocab
        if self._journal is not None or not vocab.keys().isdisjoint(names):
            raise OntologyError("a batch declaration needs a store with no journal, and undeclared IRIs")
        with _ENTITIES_LOCK:
            for iri, kind in names.items():
                vocab[iri] = _intern(kind, iri)

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
        return self._insert(axiom)

    def _insert(self, axiom: Axiom) -> bool:
        """assert_axiom past its checks, for a canonical axiom over this store's entities."""
        if axiom in self._asserted:
            return False
        self._asserted.add(axiom)
        self._asserted_index.add(axiom)
        self._note(axiom, True)
        return True

    def _insert_all(self, axioms: list[Axiom]) -> None:
        """_insert for each canonical axiom over this store's entities, into
        a store with no journal and no built ground-index slot, so that
        one set.update is the whole change."""
        if self._journal is not None or self._asserted_index._slots:
            raise OntologyError("a batch insert needs a store with no journal and no built index slot")
        self._asserted.update(axioms)

    def retract_axiom(self, axiom: Axiom) -> bool:
        """Remove from the asserted set.  Returns True when the set changed."""
        axiom = canonical(axiom)
        if axiom not in self._asserted:
            return False
        self._asserted.remove(axiom)
        self._asserted_index.remove(axiom)
        self._note(axiom, False)
        return True

    def _note(self, change: Axiom | Entity, asserted: bool) -> None:
        journal = self._journal
        if journal is not None and journal.pop(change, None) is None:  # an edit undone leaves no entry
            journal[change] = asserted

    def _is_current(self, closure) -> bool:
        """The one freshness rule: a Closure is current exactly when it is
        the installed one and the journal holds no change since it."""
        return closure is not None and closure is self._closure and not self._journal

    @property
    def stale(self) -> bool:
        return not self._is_current(self._closure)

    def _install_closure(self, closure) -> None:
        # called by the reasoner only
        self._closure = closure
        self._journal = {}

    def _take_journal(self):
        """(installed Closure, journal), or (None, None) when there is none.

        Called by the reasoner as a run starts; it uninstalls the Closure,
        and the store has neither again until the run installs its own,
        so a run that raises part way leaves no current Closure and the
        next run to start afresh.
        """
        taken = self._closure, self._journal
        self._closure = self._journal = None
        return taken

    def current_closure(self):
        closure = self._closure
        if not self._is_current(closure):
            raise StaleClosure("reason() must run before entailed reads")
        return closure

    def axioms(self) -> frozenset[Axiom]:
        return frozenset(self._asserted)

    def axioms_about(self, tag: AxiomTag, ground: Entity, *, at: int = 0) -> set[Axiom]:
        """The asserted `tag` axioms with `ground` in ground position `at`.

        A fresh set, looked up in the ground index (see the class
        docstring); `at` is ignored for unordered pair tags, and any other
        tag's `at` outside its argument positions raises ValueError.
        """
        return set(self._asserted_index.lookup(tag, ground, at))

    def contains(self, axiom: Axiom) -> bool:
        return canonical(axiom) in self._asserted
