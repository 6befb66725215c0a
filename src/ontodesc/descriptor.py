"""Object-like descriptors over the axiom store.

A descriptor is a triple of a tag, a ground entity x and an ordered,
duplicate-free item list Y (a DEFINITION list spells one expression, so
it keeps a repeated atom).  The tag fixes which axiom shape the items
map to; the ground is the entity the axioms are about.  TAG_SPECS holds
one TagSpec row per tag: the axiom tag, the argument that holds the
ground, the item type and the partition; the legal ground kinds are
that argument's kinds in model.SHAPES, and the axiom tag's entry in
model.AXIOM_FACTORIES builds the axioms.  The items each tag holds:

* Void for the four property characteristics (FUNCTIONAL, REFLEXIVE,
  SYMMETRIC, TRANSITIVE), which name nothing but the ground,
* Link, a (property, filler) pair, for LINKS,
* Restriction, a connective plus one model atom (an instance of
  model.ATOMS: Named, Some, Only, Min or Max), for DEFINITION only,
* Ref, one entity, for every other tag, DOMAIN and RANGE included.

Each item type states what it means, and nothing else branches on it:

* axiom_args() - the axiom arguments it carries besides the ground, in
  the order of its constructor, which rebuilds the item from them
  (Void none, Ref its entity, Link property then filler, Restriction
  its atom),
* sort_key()   - the order of a read's items (a definition keeps its
  body order, so Restriction has none),
* named_entity() - the entity build() grounds on: a Ref's entity, a
  Link's filler (None for a literal), a Named atom's class; a Void and
  a quantified atom raise UndefinedBuild.

Mapping is driven by that table and axiom_args alone, and is
bidirectional and lossless:

* to_axioms(tag, x, Y) renders the items as axioms,
* from_axiom(tag, x, a) recovers the item encoded by one axiom,

and the two are exact inverses on legal descriptors.  The DEFINITION tag
is special: its whole item list encodes the single class-definition
axiom, each item an atom of the body and the connective to its successor
(intersection binds tighter than union; the last connective is END).

Operations:

* read    - replace Y with the entailed items of (tag, x) (see TagSpec),
* write   - make the asserted axioms for (tag, x) exactly to_axioms(Y),
            reusing the last read's axiom for each item that read found;
            it compares them with the store's live ground-index bucket in
            place, so a write that changes nothing copies nothing,
* build   - for each distinct entity the items name, in item order,
            create a descriptor grounded on it via a factory and read
            it; items naming none are skipped, and build raises
            UndefinedBuild if any item's named_entity() does.

read and write return Intent records, one per changed element; they give
the operation's observable effect and are never rolled back.  write only
touches the asserted partition and leaves the closure stale; read
requires a current closure, which keeps each answer from its first read
on under the fact slot the read lists, (axiom tag, ground_at, x), and a
resumed run carries it unless a fact the run changed fills that slot.

Reading SUB_CLASSES / SUPER_CLASSES lists the direct taxonomy neighbours
(so a leaf class reads {NOTHING} and a root reads {THING}); TYPES,
INSTANCES and LINKS list everything entailed.  Those five tags read the
Closure alone (TagSpec.closure_only).  Every other tag still reads the
store's asserted items: SUPER_PROPERTIES and SAME_AS add them to a
Closure query, and the rest list them alone.
"""

from __future__ import annotations

from enum import Enum
from itertools import starmap
from typing import Callable, Union

from . import model
from .model import (
    And,
    Axiom,
    AxiomTag,
    ClassExpression,
    Entity,
    Named,
    Ontology,
    OntologyError,
    Or,
    Record,
    Term,
    Value,
)


class MappingError(OntologyError):
    """A descriptor state that cannot be mapped to or from axioms."""


class IllegalItem(MappingError):
    """An item variant the descriptor's tag does not accept."""


class UnsupportedRestriction(MappingError):
    """A restriction whose atom is not one of model.ATOMS."""


class GroundMismatch(MappingError):
    """The axiom is not about the descriptor's ground."""


class TagMismatch(MappingError):
    """The axiom's tag differs from the descriptor's axiom tag."""


class UndefinedBuild(OntologyError):
    """build() has no meaning for this tag or item."""


# ---------------------------------------------------------------------------
# items


class Void(Value):
    """Marker item for unary property characteristics."""

    __slots__ = ()

    def axiom_args(self) -> list:
        return []

    def sort_key(self):
        return ()

    def named_entity(self):
        raise UndefinedBuild("build is undefined for property characteristics")


class Ref(Value):
    # Ref, Link and Intent are built and compared on every read: see model.Axiom
    __slots__ = ("entity",)

    def __init__(self, entity: Entity):
        _set_entity(self, entity)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.entity,) == (other.entity,)
        return NotImplemented

    def __hash__(self):
        return hash((self.entity,))

    def axiom_args(self) -> list:
        return [self.entity]

    def sort_key(self):
        return self.entity.iri

    def named_entity(self) -> Entity:
        return self.entity

    @classmethod
    def from_closure(cls, found):
        """The items of a Closure answer (see TagSpec): entities."""
        return map(cls, found)


_set_entity = Ref.entity.__set__


class Connective(Enum):
    INTERSECT = "intersect"
    UNION = "union"
    END = "end"

    __hash__ = object.__hash__  # hashed in every Restriction; see model.Kind


class Restriction(Value):
    """One atom of a definition body and the connective to the next atom."""

    __slots__ = ("connective", "atom")

    def __init__(self, connective: Connective, atom: ClassExpression):
        """The connective is a member and the atom is an instance of one
        of model.ATOMS, whose own constructor checked its arguments."""
        if not isinstance(connective, Connective):
            raise MappingError(f"not a connective: {connective!r}")
        if not isinstance(atom, model.ATOMS):
            raise UnsupportedRestriction(f"not an atomic restriction: {atom!r}")
        self._init(connective, atom)

    def axiom_args(self) -> list:
        return [self.atom]

    def named_entity(self) -> Entity:
        if type(self.atom) is not Named:
            raise UndefinedBuild("build is undefined for quantified restrictions")
        return self.atom.cls


class Link(Value):
    __slots__ = ("prop", "filler")

    def __init__(self, prop: Entity, filler: Term):
        _set_prop(self, prop)
        _set_filler(self, filler)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prop, self.filler) == (other.prop, other.filler)
        return NotImplemented

    def __hash__(self):
        return hash((self.prop, self.filler))

    def axiom_args(self) -> list:
        return [self.prop, self.filler]

    def sort_key(self):
        filler = self.filler
        if isinstance(filler, Entity):
            return self.prop.iri, "e:" + filler.iri
        return self.prop.iri, f"l:{type(filler.value).__name__}:{filler.value!r}"

    def named_entity(self) -> Entity | None:
        return self.filler if isinstance(self.filler, Entity) else None

    @classmethod
    def from_closure(cls, found):
        """The items of a Closure answer (see TagSpec): (property, filler) pairs."""
        return starmap(cls, found)


_set_prop, _set_filler = Link.prop.__set__, Link.filler.__set__

Item = Union[Void, Ref, Restriction, Link]


# ---------------------------------------------------------------------------
# tags

class Partition(Enum):
    PROPERTY = "property"
    CLASS = "class"
    INDIVIDUAL = "individual"

    __hash__ = object.__hash__


class DescriptorTag(Enum):
    SUPER_PROPERTIES = "SuperProperties"
    DISJOINT_PROPERTIES = "DisjointProperties"
    EQUIVALENT_PROPERTIES = "EquivalentProperties"
    INVERSE_PROPERTIES = "InverseProperties"
    DOMAIN = "Domain"
    RANGE = "Range"
    FUNCTIONAL = "Functional"
    REFLEXIVE = "Reflexive"
    SYMMETRIC = "Symmetric"
    TRANSITIVE = "Transitive"
    SUB_CLASSES = "SubClasses"
    SUPER_CLASSES = "SuperClasses"
    EQUIVALENT_CLASSES = "EquivalentClasses"
    DISJOINT_CLASSES = "DisjointClasses"
    DEFINITION = "Definition"
    INSTANCES = "Instances"
    TYPES = "Types"
    LINKS = "Links"
    SAME_AS = "SameAs"
    DIFFERENT_FROM = "DifferentFrom"

    __hash__ = object.__hash__  # TAG_SPECS is probed per item; see model.Kind

    @property
    def partition(self) -> Partition:
        return TAG_SPECS[self].partition


class TagSpec(Value):
    """What one descriptor tag maps to.

    The tag's items become `axiom_tag` axioms, built by that tag's
    model.AXIOM_FACTORIES entry, whose argument `ground_at` holds the
    ground and whose remaining arguments are the item's payload.  For
    unordered pair tags (model.ORDERLESS_TAGS) the ground may sit in
    either argument.

    A read lists the asserted items, recovered by from_axiom, plus what
    the Closure query named `derived` returns about the ground, which
    the item type's from_closure turns into items.  For `closure_only`
    tags that query alone is the answer, and the read does not touch
    the store: SUB_CLASSES and SUPER_CLASSES list the direct taxonomy
    neighbours, and the TYPES, LINKS and INSTANCES answers already hold
    every asserted item of the slot (phase two inserts every asserted
    PropertyAssertion, even on an irreflexive property, and round 0 of
    phase three every asserted ClassAssertion).  SUPER_PROPERTIES and
    SAME_AS keep the asserted union: the property reach and the identity
    groups leave out SubPropertyOf(p p) and SameIndividual(a a).  Tags
    with no `derived` query read the asserted items alone.

    `ground_kinds` are the kinds of the role at `ground_at` in the axiom
    tag's model.SHAPES row, a field that is not an argument.  No two rows
    share (axiom_tag, ground_at).
    """

    __slots__ = ("partition", "axiom_tag", "item_type", "ground_at", "derived", "closure_only", "ground_kinds")

    def __init__(self, partition: Partition, axiom_tag: AxiomTag, item_type: type, ground_at: int = 0,
                 derived: str | None = None, closure_only: bool = False):
        kinds = model.SHAPES[axiom_tag].roles[ground_at].kinds
        self._init(partition, axiom_tag, item_type, ground_at, derived, closure_only, kinds)

    def __reduce__(self):
        return (TagSpec, self._values()[:-1])


_P, _C, _I = Partition.PROPERTY, Partition.CLASS, Partition.INDIVIDUAL

# One row per tag, each partition's rows in compound part order.
TAG_SPECS = {
    DescriptorTag.SUPER_PROPERTIES: TagSpec(_P, AxiomTag.SUB_PROPERTY, Ref, derived="super_properties"),
    DescriptorTag.EQUIVALENT_PROPERTIES: TagSpec(_P, AxiomTag.EQUIVALENT_PROPERTIES, Ref),
    DescriptorTag.DISJOINT_PROPERTIES: TagSpec(_P, AxiomTag.DISJOINT_PROPERTIES, Ref),
    DescriptorTag.INVERSE_PROPERTIES: TagSpec(_P, AxiomTag.INVERSE_PROPERTIES, Ref),
    DescriptorTag.DOMAIN: TagSpec(_P, AxiomTag.PROPERTY_DOMAIN, Ref),
    DescriptorTag.RANGE: TagSpec(_P, AxiomTag.PROPERTY_RANGE, Ref),
    DescriptorTag.FUNCTIONAL: TagSpec(_P, AxiomTag.FUNCTIONAL_PROPERTY, Void),
    DescriptorTag.REFLEXIVE: TagSpec(_P, AxiomTag.REFLEXIVE_PROPERTY, Void),
    DescriptorTag.SYMMETRIC: TagSpec(_P, AxiomTag.SYMMETRIC_PROPERTY, Void),
    DescriptorTag.TRANSITIVE: TagSpec(_P, AxiomTag.TRANSITIVE_PROPERTY, Void),
    DescriptorTag.DEFINITION: TagSpec(_C, AxiomTag.CLASS_DEFINITION, Restriction),
    DescriptorTag.SUB_CLASSES: TagSpec(
        _C, AxiomTag.SUB_CLASS, Ref, ground_at=1, derived="direct_subclasses", closure_only=True
    ),
    DescriptorTag.SUPER_CLASSES: TagSpec(
        _C, AxiomTag.SUB_CLASS, Ref, derived="direct_superclasses", closure_only=True
    ),
    DescriptorTag.EQUIVALENT_CLASSES: TagSpec(_C, AxiomTag.EQUIVALENT_CLASSES, Ref),
    DescriptorTag.DISJOINT_CLASSES: TagSpec(_C, AxiomTag.DISJOINT_CLASSES, Ref),
    DescriptorTag.INSTANCES: TagSpec(
        _C, AxiomTag.CLASS_ASSERTION, Ref, ground_at=1, derived="instances_of", closure_only=True
    ),
    DescriptorTag.TYPES: TagSpec(_I, AxiomTag.CLASS_ASSERTION, Ref, derived="types_of", closure_only=True),
    DescriptorTag.LINKS: TagSpec(_I, AxiomTag.PROPERTY_ASSERTION, Link, derived="links_of", closure_only=True),
    DescriptorTag.SAME_AS: TagSpec(_I, AxiomTag.SAME_INDIVIDUAL, Ref, derived="same_individuals"),
    DescriptorTag.DIFFERENT_FROM: TagSpec(_I, AxiomTag.DIFFERENT_INDIVIDUALS, Ref),
}

# partition -> its tags, in compound part order
PARTITION_TAGS = {p: tuple(t for t, s in TAG_SPECS.items() if s.partition is p) for p in Partition}


# ---------------------------------------------------------------------------
# item <-> axiom mapping


def _check_item(tag: DescriptorTag, item: Item) -> None:
    expected = TAG_SPECS[tag].item_type
    if not isinstance(item, expected):
        raise IllegalItem(
            f"{tag.value} holds {expected.__name__} items, got {type(item).__name__}"
        )


def restrictions_to_expression(items: list[Restriction]) -> ClassExpression:
    """Assemble the ordered restriction list into one class expression.

    Runs of INTERSECT-connected restrictions group into intersections;
    UNION joins the groups.  The last connective must be END.
    """
    for i, r in enumerate(items):
        if not isinstance(r, Restriction):
            raise IllegalItem(f"definition items must be restrictions, got {type(r).__name__}")
        last = i == len(items) - 1
        if last and r.connective is not Connective.END:
            raise MappingError("the last restriction must carry the END connective")
        if not last and r.connective is Connective.END:
            raise MappingError("only the last restriction may carry the END connective")
    groups: list[list[Restriction]] = [[]]
    for r in items:
        groups[-1].append(r)
        if r.connective is Connective.UNION:
            groups.append([])
    exprs = []
    for group in groups:
        atoms = tuple(r.atom for r in group)
        exprs.append(atoms[0] if len(atoms) == 1 else And(atoms))
    return exprs[0] if len(exprs) == 1 else Or(tuple(exprs))


def expression_to_restrictions(expr: ClassExpression) -> list[Restriction]:
    """Flatten a class expression back into an ordered restriction list:
    each conjunction's atoms (model.conjunctions) joined by INTERSECT, the
    conjunctions by UNION, and END last."""
    groups, items = model.conjunctions(expr), []
    for i, atoms in enumerate(groups, 1):
        last = Connective.END if i == len(groups) else Connective.UNION
        items += [Restriction(Connective.INTERSECT, a) for a in atoms[:-1]]
        items.append(Restriction(last, atoms[-1]))
    return items


def _args(tag: DescriptorTag, ground: Entity, item: Item) -> list:
    args = item.axiom_args()
    args.insert(TAG_SPECS[tag].ground_at, ground)
    return args


def to_axiom(tag: DescriptorTag, ground: Entity, item: Item) -> Axiom:
    """Render one item as the axiom it stands for.

    For DEFINITION this is the one-atom definition; to_axioms maps a
    whole definition list.
    """
    _check_item(tag, item)
    return model.AXIOM_FACTORIES[TAG_SPECS[tag].axiom_tag](*_args(tag, ground, item))


def _read_axiom(tag: DescriptorTag, ground: Entity, item: Item) -> Axiom:
    """to_axiom for an item a read found, built without the factory's checks.

    Read items come from checked asserted axioms or from Closure maps
    built out of them, so their kinds hold; unordered pairs are put in
    canonical order.
    """
    return model.canonical(Axiom(TAG_SPECS[tag].axiom_tag, tuple(_args(tag, ground, item))))


def to_axioms(tag: DescriptorTag, ground: Entity, items: list) -> list[Axiom]:
    """Render the whole item list; DEFINITION consumes it as one axiom."""
    if tag is DescriptorTag.DEFINITION:
        return [model.class_definition(ground, restrictions_to_expression(items))] if items else []
    return [to_axiom(tag, ground, item) for item in items]


def _payload_of(tag: DescriptorTag, ground: Entity, axiom: Axiom) -> list:
    """The axiom's arguments with the ground taken out, once checked."""
    spec = TAG_SPECS[tag]
    if axiom.tag is not spec.axiom_tag:
        raise TagMismatch(f"{tag.value} maps {spec.axiom_tag.value} axioms, got {axiom.tag.value}")
    if not model.mentions_at_ground(axiom, ground, spec.ground_at):
        raise GroundMismatch(f"{axiom!r} is not about {ground.iri} as {tag.value}")
    payload = list(axiom.args)
    # the first occurrence is the ground position, except in a pair,
    # where either occurrence leaves the same remainder
    payload.remove(ground)
    return payload


def from_axiom(tag: DescriptorTag, ground: Entity, axiom: Axiom) -> Item:
    """Recover the item one axiom encodes for a descriptor on `ground`."""
    payload = _payload_of(tag, ground, axiom)
    if tag is DescriptorTag.DEFINITION:
        raise MappingError("definitions map through from_definition, not from_axiom")
    return TAG_SPECS[tag].item_type(*payload)


def from_definition(ground: Entity, axiom: Axiom) -> list[Restriction]:
    [expr] = _payload_of(DescriptorTag.DEFINITION, ground, axiom)
    return expression_to_restrictions(expr)


# ---------------------------------------------------------------------------
# intents and descriptor state


class Intent(Value):
    """Intent(direction, change, axiom, target, succeeded=True): direction
    is "read" or "write", change "add" or "remove", target "descriptor"
    or "ontology"."""

    __slots__ = ("direction", "change", "axiom", "target", "succeeded")

    def __init__(self, direction: str, change: str, axiom: Axiom, target: str, succeeded: bool = True):
        _set_direction(self, direction)
        _set_change(self, change)
        _set_axiom(self, axiom)
        _set_target(self, target)
        _set_succeeded(self, succeeded)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.direction, self.change, self.axiom, self.target, self.succeeded) == (
                other.direction, other.change, other.axiom, other.target, other.succeeded
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.direction, self.change, self.axiom, self.target, self.succeeded))


_set_direction, _set_change, _set_axiom, _set_target, _set_succeeded = (
    getattr(Intent, name).__set__ for name in Intent.__slots__
)


class DescriptorState(Record):
    """DescriptorState(tag, ground, ontology, items=()): the descriptor's
    item list Y for (tag, ground) in one store.  It keeps the memo pair
    of its last read, which equality and repr leave out, and an instance
    dict, so a caller may set an attribute of its own on a state."""

    __slots__ = ("tag", "ground", "ontology", "items", "_read", "__dict__")

    def __init__(self, tag: DescriptorTag, ground: Entity, ontology: Ontology, items: list = ()):
        """Check the ground, then check and copy the items passed in, if any."""
        self.tag, self.ground, self.ontology, self.items, self._read = tag, ground, ontology, [], None
        self._check_ground(ground)
        if items:
            for item in items:
                _check_item(tag, item)
            self.items = list(items if tag is DescriptorTag.DEFINITION else dict.fromkeys(items))

    def _values(self) -> tuple:
        return self.tag, self.ground, self.ontology, self.items

    def _check_ground(self, entity: Entity) -> None:
        kinds = TAG_SPECS[self.tag].ground_kinds
        if not isinstance(entity, Entity) or entity.kind not in kinds:
            wanted = " or ".join(k.value for k in kinds)
            raise model.KindMismatch(f"{self.tag.value} descriptors ground on a {wanted}")

    def set_ground(self, entity: Entity) -> None:
        self._check_ground(entity)
        self.ground = entity
        self._read = None  # the last read was about the old ground

    # -- item edits

    def add(self, item: Item) -> bool:
        """Append the item unless Y holds it; a DEFINITION list may repeat one."""
        _check_item(self.tag, item)
        if item in self.items and self.tag is not DescriptorTag.DEFINITION:
            return False
        self.items.append(item)
        return True

    def remove(self, item: Item) -> bool:
        if item in self.items:
            self.items.remove(item)
            return True
        return False

    # -- the three operations

    def _asserted(self):
        """The live ground-index bucket of (tag, ground): compared and read, never changed."""
        spec = TAG_SPECS[self.tag]
        return self.ontology._asserted_index.lookup(spec.axiom_tag, self.ground, spec.ground_at)

    def _entailed_items(self, closure) -> list[Item]:
        """The derived items plus, unless the tag is closure_only, the asserted ones, sorted (see TagSpec)."""
        spec = TAG_SPECS[self.tag]
        asserted = () if spec.closure_only else self._asserted()
        if self.tag is DescriptorTag.DEFINITION:
            if len(asserted) > 1:
                raise MappingError(f"{self.ground.iri} has {len(asserted)} definitions; a descriptor holds one")
            return from_definition(self.ground, next(iter(asserted))) if asserted else []
        items = {from_axiom(self.tag, self.ground, a) for a in asserted}
        if spec.derived is not None:
            items.update(spec.item_type.from_closure(getattr(closure, spec.derived)(self.ground)))
        return sorted(items, key=spec.item_type.sort_key)

    def _memoized(self) -> tuple[list, list]:
        """The entailed items of (tag, ground) and the add intent of each.

        Kept in the current Closure's `_reads` on the first read, under
        the fact slot _asserted() projects: any mutation makes that
        Closure stale, so the answer cannot change while it is current; a
        resumed run carries it unless a fact it changed fills that slot.
        A read that raises stores nothing.  The lists are never handed
        out; read() copies them.
        """
        closure = self.ontology.current_closure()  # every tag reads a fresh one
        spec = TAG_SPECS[self.tag]
        key = (spec.axiom_tag, spec.ground_at, self.ground)
        memo = closure._reads.get(key)
        if memo is None:
            items = self._entailed_items(closure)
            adds = [
                Intent("read", "add", _read_axiom(self.tag, self.ground, i), "descriptor")
                for i in items
            ]
            memo = closure._reads[key] = (items, adds)
        return memo

    def read(self) -> list[Intent]:
        """Synchronise Y with the entailed items of (tag, ground).

        Items, axioms and intents are frozen and shared with the memo;
        Y and the returned list are new lists, so editing either leaves
        the memo as it was.
        """
        new_items, adds = self._read = self._memoized()
        if not self.items:
            self.items = list(new_items)
            return list(adds)
        old, new = set(self.items), set(new_items)
        intents = [
            Intent("read", "remove", to_axiom(self.tag, self.ground, i), "descriptor")
            for i in self.items
            if i not in new
        ]
        intents += [add for i, add in zip(new_items, adds) if i not in old]
        self.items = list(new_items)
        return intents

    def write(self) -> list[Intent]:
        """Make the asserted axioms for (tag, ground) exactly match Y.

        An item that is one the last read found, not merely equal to one,
        takes that read's axiom (set_ground forgets the read); any other,
        one appended straight to Y too, goes through the checked to_axiom.
        Y is rendered and compared with the slot's live ground-index
        bucket, so a Y that equals it returns [] and copies nothing;
        otherwise it is diffed and its new entities checked against the
        vocabulary before any is declared, so a raising write declares nothing.
        """
        read = {id(i): add.axiom for i, add in zip(*self._read)} if self._read else {}  # hashes no item
        target = (
            set(to_axioms(self.tag, self.ground, self.items)) if self.tag is DescriptorTag.DEFINITION
            else {read.get(id(i)) or to_axiom(self.tag, self.ground, i) for i in self.items}
        )
        current = self._asserted()
        if target == current:
            return []
        added, removed = target - current, current - target  # new sets: the store may change below
        added = sorted(added, key=repr) if len(added) > 1 else added  # intents in repr order; one needs no repr
        entities = [entity for axiom in added for entity in model.axiom_entities(axiom)]
        clashes = [entity for entity in entities if self.ontology.maybe_lookup(entity.iri) not in (None, entity)]
        for entity in clashes + entities:  # a clash raises KindClash before anything is declared
            self.ontology.ensure(entity)
        intents = []
        for axiom in added:  # canonical, with its entities just declared: assert_axiom's checks hold
            self.ontology._insert(axiom)
            intents.append(Intent("write", "add", axiom, "ontology"))
        for axiom in sorted(removed, key=repr) if len(removed) > 1 else removed:
            self.ontology.retract_axiom(axiom)
            intents.append(Intent("write", "remove", axiom, "ontology"))
        return intents

    # -- building

    def _build_each(self, grounds, factory: Callable | None) -> list:
        """One read-initialised descriptor per distinct ground, in order;
        None, an item that names no entity, builds nothing.  `grounds` is
        drained before the factory runs, so a raising item builds nothing."""
        if factory is None:
            from . import compound

            factory = compound.default_factory(self.ontology)
        built = [factory(ground) for ground in dict.fromkeys(grounds) if ground is not None]
        for descriptor in built:
            descriptor.read()
        return built

    def build(self, factory: Callable | None = None) -> list:
        """One read-initialised descriptor per distinct entity the items
        name (see named_entity on each item type)."""
        return self._build_each((item.named_entity() for item in self.items), factory)

    def build_property(self, factory: Callable | None = None) -> list:
        """For LINKS: one property descriptor per distinct link property."""
        if self.tag is not DescriptorTag.LINKS:
            raise TagMismatch("build_property applies to LINKS descriptors only")
        return self._build_each((item.prop for item in self.items), factory)

    def build_individuals_by_property(self, prop: Entity, factory: Callable | None = None) -> list:
        """For LINKS: descriptors for the fillers reached through `prop`."""
        if self.tag is not DescriptorTag.LINKS:
            raise TagMismatch("build_individuals_by_property applies to LINKS descriptors only")
        fillers = (item.named_entity() for item in self.items if item.prop == prop)
        return self._build_each(fillers, factory)

