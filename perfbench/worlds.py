"""Seeded smart-environment worlds and their ground truth.

Standard library only: nothing here imports ontodesc, so the expected
answers are derived from the generator's own structure, not from the
system under test.

A world is a chain of ``n`` corridors ``C0..C(n-1)``.  Corridor ``C<i>``
has a room ``R<i>`` behind door ``RD<i>``; neighbouring corridors
``C<i>`` and ``C<i+1>`` share door ``D<i>``.  On top of that the
generator can add ``k`` classes ``K0..K(k-1)`` in a seeded tree under
ROOM, with every room asserted into one of them, and ``m`` robots
``Robot1..Robot<m>``: Robot1 stands in C0, the others at seeded
corridors.  The TBox and RBox are the packaged seed world's, so with
``k=0`` and ``m=1`` this is the scaled world of the ROADMAP baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SEED_WORLD = Path(__file__).resolve().parent.parent / "src" / "ontodesc" / "data" / "seed_world.onto"

# statement heads that belong to the seed world's ABox (replaced here)
_ABOX_HEADS = (
    "Individual(",
    "ClassAssertion(",
    "PropertyAssertion(",
    "SameIndividual(",
    "DifferentIndividuals(",
)


@dataclass(frozen=True)
class World:
    n: int
    k: int
    m: int
    seed: int
    text: str
    asserted: int  # axioms in `text`, declarations not counted
    door_map: dict  # door -> sorted locations holding it
    doors_at: dict  # location -> sorted doors it holds
    robots: dict  # robot -> starting location
    leaf_pairs: dict  # corridor -> sorted (individual, leaf class) pairs

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


def seed_schema(path: Path = SEED_WORLD) -> tuple[list[str], list[str]]:
    """Declarations and TBox/RBox axioms of the packaged seed world."""
    declarations, axioms = [], []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith(_ABOX_HEADS):
            continue
        if line.startswith(("Class(", "ObjectProperty(", "DataProperty(")):
            declarations.append(line)
        else:
            axioms.append(line)
    return declarations, axioms


def generate(n: int, k: int = 0, m: int = 1, seed: int = 0) -> World:
    if n < 2:
        raise ValueError("a world needs at least two corridors")
    if m < 1:
        raise ValueError("a world needs at least one robot")
    rng = random.Random(seed)
    declarations, schema = seed_schema()
    axioms = list(schema)

    # class tree under ROOM: K<j> hangs below ROOM or an earlier K
    parent = {}
    for j in range(k):
        p = rng.randrange(j + 1) - 1
        parent[f"K{j}"] = "ROOM" if p < 0 else f"K{p}"
    internal = set(parent.values())
    room_class = {f"R{i}": f"K{rng.randrange(k)}" for i in range(n)} if k else {}
    robots = {"Robot1": "C0"}
    for r in range(2, m + 1):
        robots[f"Robot{r}"] = f"C{rng.randrange(n)}"

    declarations += [f"Class({cls})" for cls in parent]
    individuals = []
    holders: dict[str, list[str]] = {}
    for i in range(n):
        corridor, room, room_door = f"C{i}", f"R{i}", f"RD{i}"
        individuals += [corridor, room, room_door]
        holders[room_door] = [corridor, room]
        if i + 1 < n:
            individuals.append(f"D{i}")
            holders[f"D{i}"] = [corridor, f"C{i + 1}"]
    individuals += list(robots)
    declarations += [f"Individual({name})" for name in individuals]

    axioms += [f"SubClassOf({cls} {sup})" for cls, sup in parent.items()]
    axioms += [f"ClassAssertion({cls} {room})" for room, cls in room_class.items()]
    axioms += [f"ClassAssertion(ROBOT {robot})" for robot in robots]
    for door, locations in holders.items():
        axioms += [f"PropertyAssertion(hasDoor {loc} {door})" for loc in locations]
    axioms += [f"PropertyAssertion(isIn {robot} {loc})" for robot, loc in robots.items()]

    door_map = {door: sorted(locs) for door, locs in holders.items()}
    doors_at: dict[str, list[str]] = {}
    for door, locations in holders.items():
        for loc in locations:
            doors_at.setdefault(loc, []).append(door)
    doors_at = {loc: sorted(doors) for loc, doors in doors_at.items()}

    def leaf_class(location: str) -> str | None:
        if location.startswith("C"):
            return "CORRIDOR"  # two or more doors
        if not k:
            return "ROOM"  # one door, no subclasses
        cls = room_class[location]
        return None if cls in internal else cls

    leaf_pairs = {}
    for i in range(n):
        corridor = f"C{i}"
        neighbours = {loc for door in doors_at[corridor] for loc in door_map[door]}
        neighbours.discard(corridor)
        pairs = [(loc, leaf_class(loc)) for loc in neighbours]
        leaf_pairs[corridor] = sorted(p for p in pairs if p[1] is not None)

    text = "\n".join(declarations + axioms) + "\n"
    return World(n, k, m, seed, text, len(axioms), door_map, doors_at, robots, leaf_pairs)


# ---------------------------------------------------------------------------
# the patrol walk, re-derived from the door map and the documented RNG

_MASK = (1 << 64) - 1


class Lcg:
    """The patrol RNG as the README specifies it (64-bit LCG; a coin is the
    top bit of the advanced state, a bounded draw the top 31 bits mod n)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def _next(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & _MASK
        return self.state

    def coin(self) -> bool:
        return bool(self._next() >> 63)

    def below(self, bound: int) -> int:
        return (self._next() >> 33) % bound


def patrol_step(world: World, location: str, seed: int) -> tuple[str, str]:
    """Expected trace line (step 1) and destination of one patrol step."""
    rng = Lcg(seed)
    doors = world.doors_at[location]
    while True:
        drawn = [rng.coin() for _ in doors]
        if any(drawn):
            break
    open_doors = [d for d, is_open in zip(doors, drawn) if is_open]
    crossed = open_doors[rng.below(len(open_doors))]
    destination = next(loc for loc in world.door_map[crossed] if loc != location)
    states = " ".join(
        f"{d}={'open' if is_open else 'closed'}" for d, is_open in zip(doors, drawn)
    )
    line = f"step=1 at={location} {states} crossed={crossed} to={destination}"
    return line, destination
