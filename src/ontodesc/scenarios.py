"""Smart-environment flows over the packaged seed world.

The seed ontology (data/seed_world.onto) models an indoor map: two rooms
joined to a corridor by shared doors, and a robot standing in the
corridor.  Three flows run on top of it:

* categorize_new_location - attach a fresh location to the map through
  a shared door and report how the reasoner classifies it;
* reachable_leaf_places   - from the robot's position, list connected
  locations with their most specific (leaf) class;
* patrol                  - a seeded random walk: perceive door states,
  write them, cross an open door, re-reason, repeat.

Each flow builds descriptors from only the parts (tags) it reads or
writes, through the build(factory=...) hook: every part costs a read
and a memo entry in the Closure, so a part no flow looks at is waste.

All randomness comes from PatrolRng, a fixed 64-bit linear congruential
generator, so identical (seed, steps) always yield identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from importlib import resources

from .compound import CompoundDescriptor
from .descriptor import DescriptorState, DescriptorTag, Link, Ref
from .model import NOTHING, Entity, Kind, Ontology, OntologyError, disjoint_classes, sub_class
from .reasoner import Closure, reason
from .syntax import parse, parse_file


class ScenarioError(OntologyError):
    """A flow precondition does not hold in the current world."""


class NoFiller(ScenarioError):
    """An expected property filler (position, door) is missing."""


# seed-world names the flows rely on
DOOR_CLASS = "DOOR"
OPEN_CLASS = "OPEN"
CLOSE_CLASS = "CLOSE"
HAS_DOOR = "hasDoor"
IS_IN = "isIn"
IS_CONNECTED_TO = "isConnectedTo"
ROBOT = "Robot1"


def seed_path():
    return resources.files("ontodesc.data") / "seed_world.onto"


def load_seed() -> Ontology:
    return parse(seed_path().read_text(encoding="utf-8"))


def load_world(path: str | None) -> Ontology:
    """Parse the ontology at `path`, or the packaged seed when None."""
    if path is None:
        return load_seed()
    return parse_file(path)


# ---------------------------------------------------------------------------
# deterministic randomness

_MASK = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407


class PatrolRng:
    """64-bit linear congruential generator with fixed constants.

    state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64)

    Coin flips take the advanced state's top bit; bounded draws take the
    top 31 bits modulo the bound.  No platform-dependent machinery, so
    traces are byte-identical everywhere.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def _next(self) -> int:
        self._state = (self._state * _MUL + _INC) & _MASK
        return self._state

    def coin(self) -> bool:
        return bool(self._next() >> 63)

    def below(self, bound: int) -> int:
        return (self._next() >> 33) % bound


# ---------------------------------------------------------------------------
# example flows


def _fresh_closure(onto: Ontology) -> Closure:
    return reason(onto) if onto.stale else onto.current_closure()


def categorize_new_location(
    onto: Ontology, new_location: str, connected_location: str, shared_door: str
) -> list[str]:
    """Join a new location to a known one through a shared door.

    Both locations receive a hasDoor link to the door (the known one by
    read-edit-write, so its existing links survive), the reasoner runs,
    and the new location's entailed types come back sorted.  The known
    location is built with a LINKS part alone, the new one with TYPES
    and LINKS.
    """
    known = onto.lookup(connected_location)
    has_door = onto.lookup(HAS_DOOR)
    fresh = onto.declare(Kind.INDIVIDUAL, new_location)
    door = onto.declare(Kind.INDIVIDUAL, shared_door)

    _fresh_closure(onto)
    new_links = DescriptorState(DescriptorTag.LINKS, fresh, onto)
    here = CompoundDescriptor(onto, fresh, [DescriptorState(DescriptorTag.TYPES, fresh, onto), new_links])
    there = DescriptorState(DescriptorTag.LINKS, known, onto)
    here.read()
    there.read()
    new_links.add(Link(has_door, door))
    there.add(Link(has_door, door))
    new_links.write()
    there.write()

    closure = reason(onto)
    if not closure.consistent:
        raise ScenarioError("the extended world is inconsistent")
    here.read()
    return sorted(r.entity.iri for r in here.part(DescriptorTag.TYPES).items)


def reachable_leaf_places(onto: Ontology, robot: str = ROBOT) -> list[tuple[str, str]]:
    """Locations connected to the robot's own, tagged by leaf class.

    Follows the robot's isIn filler, builds descriptors for every
    isConnectedTo neighbour and a SUB_CLASSES one for each of its types,
    and keeps the (individual, class) pairs whose class has no subclass
    but NOTHING.  The robot and its position are bare LINKS descriptors
    and each neighbour a bare TYPES one, the only parts the walk reads.
    """
    robot_entity = onto.lookup(robot)
    is_in = onto.lookup(IS_IN)
    is_connected = onto.lookup(IS_CONNECTED_TO)

    closure = _fresh_closure(onto)
    if not closure.consistent:
        raise ScenarioError("the world is inconsistent")
    links = partial(DescriptorState, DescriptorTag.LINKS, ontology=onto)
    whoami = links(robot_entity)
    whoami.read()
    positions = whoami.build_individuals_by_property(is_in, factory=links)
    if not positions:
        raise NoFiller(f"{robot} has no {IS_IN} filler")
    here = positions[0]
    types = partial(DescriptorState, DescriptorTag.TYPES, ontology=onto)
    neighbours = here.build_individuals_by_property(is_connected, factory=types)
    pairs = []
    sub_classes = partial(DescriptorState, DescriptorTag.SUB_CLASSES, ontology=onto)
    leaf = [Ref(NOTHING)]
    for neighbour in neighbours:
        for cls in neighbour.build(sub_classes):
            if cls.items == leaf:
                pairs.append((neighbour.ground.iri, cls.ground.iri))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# patrol


class DoorDescriptor(DescriptorState):
    """TYPES descriptor specialised for doors: swaps the open or closed
    state class in its items (the caller writes)."""

    def set_state(self, state: Entity, alternatives: tuple[Entity, ...]):
        for alternative in alternatives:
            if alternative != state:
                self.remove(Ref(alternative))
        self.add(Ref(state))


def door_factory(onto: Ontology, door_class: Entity):
    """Build a TYPES descriptor, a DoorDescriptor for DOOR-typed grounds
    and a plain one otherwise (dispatch by entailed type)."""

    def make(entity: Entity) -> DescriptorState:
        door = door_class in onto.current_closure().types_of(entity)
        return (DoorDescriptor if door else DescriptorState)(DescriptorTag.TYPES, entity, onto)

    return make


def setup_door_state_classes(onto: Ontology) -> None:
    """Introduce OPEN and CLOSE as disjoint subclasses of DOOR.

    Three class descriptors write DOOR as the superclass of CLOSE and of
    OPEN, and CLOSE as the disjoint of OPEN.  Each write makes the
    asserted axioms of its (tag, ground) exactly its items, so when all
    three already match, as after an earlier call, the writes are
    skipped.  Reasons only when the writes (or earlier edits) changed
    the world: on a world set up before, the closure stands.
    """
    door = onto.lookup(DOOR_CLASS)
    close = onto.declare(Kind.CLASS, CLOSE_CLASS)
    opened = onto.declare(Kind.CLASS, OPEN_CLASS)

    written = (
        (DescriptorTag.SUPER_CLASSES, close, door, sub_class(close, door)),
        (DescriptorTag.SUPER_CLASSES, opened, door, sub_class(opened, door)),
        (DescriptorTag.DISJOINT_CLASSES, opened, close, disjoint_classes(opened, close)),
    )
    if any(onto.axioms_about(axiom.tag, ground) != {axiom} for _, ground, _, axiom in written):
        for tag, ground, cls, _ in written:
            DescriptorState(tag, ground, onto, [Ref(cls)]).write()
    _fresh_closure(onto)


@dataclass(frozen=True)
class PatrolStep:
    index: int
    location: str
    door_states: tuple[tuple[str, str], ...]  # (door, "open" | "closed")
    crossed: str
    destination: str
    consistent: bool
    position_count: int

    def line(self) -> str:
        states = " ".join(f"{door}={state}" for door, state in self.door_states)
        return (
            f"step={self.index} at={self.location} {states} "
            f"crossed={self.crossed} to={self.destination}"
        )


@dataclass(frozen=True)
class PatrolConfig:
    steps: int = 20
    seed: int = 7
    robot: str = ROBOT

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")


def patrol(onto: Ontology, config: PatrolConfig = PatrolConfig()) -> list[PatrolStep]:
    """Walk the robot for config.steps steps.

    Each step reads the robot, builds door descriptors for its location,
    draws every door's state from the RNG (redrawing the whole round
    until at least one door is open), writes the states, picks an open
    door uniformly, moves the robot to the lexicographically first other
    location at that door, and re-runs the reasoner.

    The robot and its position are LINKS descriptors (the robot's is
    also the one written to move it) and each door a TYPES one.
    """
    setup_door_state_classes(onto)
    door_class = onto.lookup(DOOR_CLASS)
    opened = onto.lookup(OPEN_CLASS)
    close = onto.lookup(CLOSE_CLASS)
    has_door = onto.lookup(HAS_DOOR)
    is_in = onto.lookup(IS_IN)
    robot = onto.lookup(config.robot)
    rng = PatrolRng(config.seed)
    make_door = door_factory(onto, door_class)
    links = partial(DescriptorState, DescriptorTag.LINKS, ontology=onto)

    trace: list[PatrolStep] = []
    for index in range(1, config.steps + 1):
        closure = _fresh_closure(onto)
        moving = links(robot)
        moving.read()
        positions = moving.build_individuals_by_property(is_in, factory=links)
        if not positions:
            raise NoFiller(f"{config.robot} has no {IS_IN} filler")
        here = positions[0]
        doors = here.build_individuals_by_property(has_door, factory=make_door)
        doors = sorted(
            (d for d in doors if isinstance(d, DoorDescriptor)),
            key=lambda d: d.ground.iri,
        )
        if not doors:
            raise NoFiller(f"no door at {here.ground.iri}")
        across = {
            door.ground: _across(closure, door.ground, here.ground, has_door) for door in doors
        }

        while True:
            drawn = [rng.coin() for _ in doors]
            if any(drawn):
                break
        for door, is_open in zip(doors, drawn):
            door.set_state(opened if is_open else close, (opened, close))
            door.write()

        open_doors = [door for door, is_open in zip(doors, drawn) if is_open]
        crossed = open_doors[rng.below(len(open_doors))]
        destination = across[crossed.ground]

        moving.remove(Link(is_in, here.ground))
        moving.add(Link(is_in, destination))
        moving.write()

        closure = reason(onto)
        states = tuple(
            (door.ground.iri, "open" if is_open else "closed")
            for door, is_open in zip(doors, drawn)
        )
        trace.append(
            PatrolStep(
                index=index,
                location=here.ground.iri,
                door_states=states,
                crossed=crossed.ground.iri,
                destination=destination.iri,
                consistent=closure.consistent,
                position_count=len(closure.fillers(robot, is_in)),
            )
        )
    return trace


def _across(closure: Closure, door: Entity, here: Entity, has_door: Entity) -> Entity:
    """The lexicographically first other location sharing the door."""
    holders = closure.subjects(door, has_door) - {here}
    if not holders:
        raise NoFiller(f"{door.iri} leads nowhere from {here.iri}")
    return min(holders, key=lambda ind: ind.iri)
