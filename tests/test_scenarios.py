from collections import Counter

import pytest

from ontodesc import model, scenarios
from ontodesc.compound import full_individual
from ontodesc.descriptor import TAG_SPECS, DescriptorState, DescriptorTag, from_axiom
from ontodesc.model import Kind, Ontology
from ontodesc.reasoner import reason
from ontodesc.syntax import load_seed
from ontodesc.scenarios import (
    DoorDescriptor,
    NoFiller,
    PatrolConfig,
    PatrolRng,
    PatrolStep,
    categorize_new_location,
    door_factory,
    patrol,
    reachable_leaf_places,
    setup_door_state_classes,
)


class TestPatrolRng:
    def test_coin_sequence_is_frozen(self):
        rng = PatrolRng(7)
        assert [rng.coin() for _ in range(8)] == [
            False, True, True, False, False, False, False, False,
        ]

    def test_bounded_draw_sequence_is_frozen(self):
        rng = PatrolRng(7)
        assert [rng.below(3) for _ in range(8)] == [2, 2, 0, 2, 1, 2, 1, 0]

    def test_seed_zero_differs(self):
        rng = PatrolRng(0)
        assert [rng.coin() for _ in range(4)] == [False, False, True, False]

    def test_same_seed_same_stream(self):
        a, b = PatrolRng(99), PatrolRng(99)
        assert [a.below(10) for _ in range(50)] == [b.below(10) for _ in range(50)]

    def test_draws_respect_bound(self):
        rng = PatrolRng(1234)
        assert all(0 <= rng.below(5) < 5 for _ in range(200))


class TestCategorizeNewLocation:
    def test_new_location_becomes_a_room(self):
        onto = load_seed()
        types = categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        assert types == ["INDOOR", "LOCATION", "ROOM", "THING"]

    def test_new_location_connects_to_the_corridor(self):
        onto = load_seed()
        categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        compound = full_individual(onto, onto.lookup("Location3"))
        compound.read()
        links = {(l.prop.iri, l.filler.iri) for l in compound.part(DescriptorTag.LINKS).items}
        assert ("isConnectedTo", "Corridor1") in links
        assert ("hasDoor", "Door3") in links

    def test_corridor_keeps_its_classification(self):
        onto = load_seed()
        categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        closure = onto.current_closure()
        corridor_types = {c.iri for c in closure.types_of(onto.lookup("Corridor1"))}
        assert corridor_types == {"THING", "LOCATION", "INDOOR", "CORRIDOR"}

    def test_repeat_runs_stabilise(self):
        onto = load_seed()
        first = categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        entailed_after_first = set(onto.axioms("entailed"))
        # run two may promote entailed links into the asserted set, but the
        # result and the entailed view never change, and run three is a no-op
        second = categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        asserted_after_second = set(onto.axioms("asserted"))
        third = categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        assert first == second == third
        assert set(onto.axioms("entailed")) == entailed_after_first
        assert set(onto.axioms("asserted")) == asserted_after_second

    def test_links_through_two_doors_make_a_corridor(self):
        onto = load_seed()
        categorize_new_location(onto, "Hall1", "Room1", "DoorA")
        types = categorize_new_location(onto, "Hall1", "Room2", "DoorB")
        assert "CORRIDOR" in types
        assert "ROOM" not in types


class TestReachableLeafPlaces:
    def test_seed_world_pairs_are_frozen(self):
        onto = load_seed()
        assert reachable_leaf_places(onto) == [("Room1", "ROOM"), ("Room2", "ROOM")]

    def test_pairs_grow_after_new_location(self):
        onto = load_seed()
        categorize_new_location(onto, "Location3", "Corridor1", "Door3")
        assert reachable_leaf_places(onto) == [
            ("Location3", "ROOM"),
            ("Room1", "ROOM"),
            ("Room2", "ROOM"),
        ]

    def test_missing_position_raises(self):
        onto = load_seed()
        robot = onto.lookup("Robot1")
        is_in = onto.lookup("isIn")
        corridor = onto.lookup("Corridor1")
        onto.retract_axiom(model.property_assertion(robot, is_in, corridor))
        with pytest.raises(NoFiller):
            reachable_leaf_places(onto)

    def test_unknown_robot_raises(self):
        onto = load_seed()
        with pytest.raises(model.UnknownEntity):
            reachable_leaf_places(onto, robot="Robot9")


class TestDoorSetup:
    def test_state_classes_are_asserted_under_door(self):
        onto = load_seed()
        setup_door_state_classes(onto)
        door = onto.lookup("DOOR")
        opened = onto.lookup("OPEN")
        close = onto.lookup("CLOSE")
        asserted = "asserted"
        assert onto.contains(model.sub_class(close, door), asserted)
        assert onto.contains(model.sub_class(opened, door), asserted)
        # disjointness is orderless: both argument orders must be found
        assert onto.contains(model.disjoint_classes(opened, close), asserted)
        assert onto.contains(model.disjoint_classes(close, opened), asserted)

    def test_setup_leaves_world_consistent_and_reasoned(self):
        onto = load_seed()
        setup_door_state_classes(onto)
        assert not onto.stale
        assert onto.current_closure().consistent

    def test_a_set_up_world_is_not_rewritten(self, monkeypatch):
        onto = load_seed()
        setup_door_state_classes(onto)
        closure = onto.current_closure()
        writes = []
        monkeypatch.setattr(DescriptorState, "write", lambda part: writes.append(part))
        setup_door_state_classes(onto)
        assert writes == []
        assert not onto.stale and onto.current_closure() is closure

    def test_a_set_up_world_is_compared_in_place(self, monkeypatch):
        """On a world set up and patrolled before, a write whose items are
        the asserted slot's, and setup itself, read the live ground-index
        buckets: no axioms_about copy, no setup write, no journal entry."""
        onto = load_seed()
        patrol(onto, PatrolConfig(steps=2, seed=7))
        door, close = onto.lookup("DOOR"), onto.lookup("CLOSE")
        slots = [
            (DescriptorTag.SUPER_CLASSES, close),
            (DescriptorTag.DISJOINT_CLASSES, close),
            (DescriptorTag.TYPES, onto.lookup("Door1")),
            (DescriptorTag.LINKS, onto.lookup("Robot1")),
            (DescriptorTag.INSTANCES, door),
            (DescriptorTag.SUB_CLASSES, door),
            (DescriptorTag.DIFFERENT_FROM, onto.lookup("Robot1")),
        ]

        def asserted_items(tag, ground):
            spec = TAG_SPECS[tag]
            return [from_axiom(tag, ground, a) for a in onto.axioms_about(spec.axiom_tag, ground, at=spec.ground_at)]

        asserted = [asserted_items(tag, ground) for tag, ground in slots]
        assert [bool(items) for items in asserted] == [True] * 6 + [False]  # an empty slot too
        closure = onto.current_closure()
        calls = Counter()
        axioms_about, write = Ontology.axioms_about, DescriptorState.write

        def counted_axioms_about(*args, **kwargs):
            calls["axioms_about"] += 1
            return axioms_about(*args, **kwargs)

        def counted_write(descriptor):
            calls["write"] += 1
            return write(descriptor)

        monkeypatch.setattr(Ontology, "axioms_about", counted_axioms_about)
        monkeypatch.setattr(DescriptorState, "write", counted_write)
        setup_door_state_classes(onto)
        assert calls == Counter()
        for (tag, ground), items in zip(slots, asserted):
            assert DescriptorState(tag, ground, onto, items).write() == [], (tag, ground)
        assert calls == Counter(write=len(slots))
        assert onto._journal == {} and onto.current_closure() is closure

    def test_other_axioms_about_the_state_classes_are_still_retracted(self):
        # each write makes its (tag, ground) exactly its items, so an extra
        # superclass or disjoint of OPEN or CLOSE goes, as on a first call
        onto = load_seed()
        setup_door_state_classes(onto)
        opened, close = onto.lookup("OPEN"), onto.lookup("CLOSE")
        extra = [
            model.sub_class(opened, onto.lookup("LOCATION")),
            model.sub_class(close, onto.lookup("LOCATION")),
            model.disjoint_classes(opened, onto.lookup("ROOM")),
        ]
        for axiom in extra:
            onto.assert_axiom(axiom)
        setup_door_state_classes(onto)
        assert not any(onto.contains(axiom) for axiom in extra)
        assert onto.contains(model.sub_class(opened, onto.lookup("DOOR")))
        assert not onto.stale

    def test_door_factory_dispatch(self):
        onto = load_seed()
        setup_door_state_classes(onto)
        make = door_factory(onto, onto.lookup("DOOR"))
        assert isinstance(make(onto.lookup("Door1")), DoorDescriptor)
        robot_descriptor = make(onto.lookup("Robot1"))
        assert not isinstance(robot_descriptor, DoorDescriptor)

    def test_set_state_swaps_alternatives(self):
        onto = load_seed()
        setup_door_state_classes(onto)
        opened = onto.lookup("OPEN")
        close = onto.lookup("CLOSE")
        make = door_factory(onto, onto.lookup("DOOR"))
        door = make(onto.lookup("Door1"))
        door.read()
        door.set_state(opened, (opened, close))
        door.write()
        reason(onto)
        door.read()
        types = {r.entity.iri for r in door.items}
        assert "OPEN" in types and "CLOSE" not in types
        door.set_state(close, (opened, close))
        door.write()
        reason(onto)
        door.read()
        types = {r.entity.iri for r in door.items}
        assert "CLOSE" in types and "OPEN" not in types


class TestPatrol:
    def test_twenty_steps_seed_seven_stay_consistent(self):
        onto = load_seed()
        trace = patrol(onto, PatrolConfig(steps=20, seed=7))
        assert len(trace) == 20
        assert all(step.consistent for step in trace)
        assert all(step.position_count == 1 for step in trace)

    def test_trace_is_frozen_for_seed_seven(self):
        onto = load_seed()
        trace = patrol(onto, PatrolConfig(steps=3, seed=7))
        assert [step.line() for step in trace] == [
            "step=1 at=Corridor1 Door1=closed Door2=open crossed=Door2 to=Room2",
            "step=2 at=Room2 Door2=open crossed=Door2 to=Corridor1",
            "step=3 at=Corridor1 Door1=closed Door2=open crossed=Door2 to=Room2",
        ]

    def test_fresh_runs_are_byte_identical(self):
        first = patrol(load_seed(), PatrolConfig(steps=20, seed=7))
        second = patrol(load_seed(), PatrolConfig(steps=20, seed=7))
        assert [s.line() for s in first] == [s.line() for s in second]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 12345])
    def test_first_move_leaves_the_corridor(self, seed):
        trace = patrol(load_seed(), PatrolConfig(steps=1, seed=seed))
        [step] = trace
        assert step.location == "Corridor1"
        assert step.destination in {"Room1", "Room2"}
        assert step.crossed in {"Door1", "Door2"}
        assert step.consistent

    def test_crossed_door_was_drawn_open(self):
        trace = patrol(load_seed(), PatrolConfig(steps=10, seed=3))
        for step in trace:
            states = dict(step.door_states)
            assert states[step.crossed] == "open"

    def test_movement_follows_shared_doors(self):
        onto = load_seed()
        doors_of = {
            "Corridor1": {"Door1", "Door2"},
            "Room1": {"Door1"},
            "Room2": {"Door2"},
        }
        trace = patrol(onto, PatrolConfig(steps=15, seed=11))
        at = "Corridor1"
        for step in trace:
            assert step.location == at
            assert step.crossed in doors_of[step.location]
            assert step.crossed in doors_of[step.destination]
            assert step.destination != step.location
            at = step.destination

    def test_a_later_patrol_reasons_once_per_step(self, monkeypatch):
        # the first patrol reasons after writing OPEN/CLOSE and after each
        # step; a later one finds those writes already made
        onto = load_seed()
        run_reason = scenarios.reason
        calls = []

        def counted(world):
            opened, close = world.maybe_lookup("OPEN"), world.maybe_lookup("CLOSE")
            calls.append(
                opened is not None
                and close is not None
                and world.contains(model.disjoint_classes(opened, close))
            )
            return run_reason(world)

        monkeypatch.setattr(scenarios, "reason", counted)
        patrol(onto, PatrolConfig(steps=3, seed=7))
        assert calls == [True] * 4
        calls.clear()
        patrol(onto, PatrolConfig(steps=3, seed=7))
        assert calls == [True] * 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PatrolConfig(steps=0)
        with pytest.raises(ValueError):
            PatrolConfig(seed=-1)

    def test_step_line_format(self):
        step = PatrolStep(
            index=4,
            location="Corridor1",
            door_states=(("Door1", "open"), ("Door2", "closed")),
            crossed="Door1",
            destination="Room1",
            consistent=True,
            position_count=1,
        )
        assert step.line() == (
            "step=4 at=Corridor1 Door1=open Door2=closed crossed=Door1 to=Room1"
        )
