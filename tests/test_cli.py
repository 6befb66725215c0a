import gc
import os
import random
from collections import Counter

import pytest

from generators import chained_ontology, random_ontology
from ontodesc import model
from ontodesc.cli import (
    EXIT_INCONSISTENT,
    EXIT_NO_FILLER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN,
    main,
)
from ontodesc.reasoner import reason
from ontodesc.syntax import load_seed, parse, seed_path, serialize


@pytest.fixture
def seed_file(tmp_path):
    path = tmp_path / "world.onto"
    path.write_text(seed_path().read_text(encoding="utf-8"), encoding="utf-8")
    return path


@pytest.fixture
def broken_file(seed_file):
    """The seed world plus a same-and-different clash: inconsistent."""
    with seed_file.open("a", encoding="utf-8") as fh:
        fh.write("SameIndividual(Room1 Room2)\nDifferentIndividuals(Room1 Room2)\n")
    return seed_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReason:
    def test_seed_world_reports_consistent(self, capsys):
        code, out, _ = run(capsys, "reason")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "consistent"
        assert any(line.startswith("inferred ClassAssertion ") for line in lines)
        assert not any(line.startswith("violation") for line in lines)

    @pytest.mark.parametrize("seed", [None, 3, 4, 12])
    def test_inferred_counts_are_those_of_the_inferred_axioms(self, capsys, tmp_path, seed):
        """None is the seed world; the random worlds between them infer
        every shape (12 a SameIndividual pair, 4 SubPropertyOf)."""
        if seed is None:
            onto, argv = load_seed(), []
        else:
            path = tmp_path / "world.onto"
            path.write_text(serialize(random_ontology(random.Random(seed))), encoding="utf-8")
            onto, argv = parse(path.read_text(encoding="utf-8")), ["--ontology", str(path)]
        _, out, _ = run(capsys, "reason", *argv)
        counts = Counter(a.tag.value for a in reason(onto).inferred)
        expected = [f"inferred {tag} {count}" for tag, count in sorted(counts.items())]
        assert [line for line in out.splitlines() if line.startswith("inferred ")] == expected

    def test_inconsistent_world_reports_violation(self, capsys, tmp_path):
        path = tmp_path / "broken.onto"
        text = seed_path().read_text(encoding="utf-8") + (
            "SameIndividual(Room1 Room2)\nDifferentIndividuals(Room1 Room2)\n"
        )
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "reason", "--ontology", str(path))
        assert code == EXIT_INCONSISTENT
        lines = out.splitlines()
        assert lines[0] == "inconsistent"
        assert any(line.startswith("violation same-and-different:") for line in lines)


class TestQuery:
    def test_types(self, capsys):
        code, out, _ = run(capsys, "query", "types", "Room1")
        assert code == EXIT_OK
        assert out.splitlines() == ["INDOOR", "LOCATION", "ROOM", "THING"]

    def test_instances(self, capsys):
        code, out, _ = run(capsys, "query", "instances", "INDOOR")
        assert code == EXIT_OK
        assert out.splitlines() == ["Corridor1", "Room1", "Room2"]

    def test_fillers(self, capsys):
        code, out, _ = run(capsys, "query", "fillers", "Corridor1", "isConnectedTo")
        assert code == EXIT_OK
        assert out.splitlines() == ["Room1", "Room2"]

    def test_unknown_entity_exits_two(self, capsys):
        code, _, err = run(capsys, "query", "types", "Nobody")
        assert code == EXIT_UNKNOWN
        assert "unknown entity" in err

    def test_wrong_kind_exits_two(self, capsys):
        code, _, err = run(capsys, "query", "types", "ROOM")
        assert code == EXIT_UNKNOWN
        assert "wrong entity kind" in err

    def test_a_class_named_as_the_property_exits_two(self, capsys):
        code, out, err = run(capsys, "query", "fillers", "Robot1", "ROOM")
        assert code == EXIT_UNKNOWN
        assert out == "" and err == "wrong entity kind: ROOM is not a property\n"

    def test_fillers_arity_checked(self, capsys):
        code, _, err = run(capsys, "query", "fillers", "Corridor1")
        assert code == EXIT_UNKNOWN

    def test_types_takes_one_name(self, capsys):
        code, out, err = run(capsys, "query", "types", "Room1", "Room2")
        assert code == EXIT_UNKNOWN
        assert out == "" and "types takes 1 name(s), got 2" in err

    def test_instances_takes_one_name(self, capsys):
        code, out, err = run(capsys, "query", "instances", "INDOOR", "ROOM")
        assert code == EXIT_UNKNOWN
        assert out == "" and "instances takes 1 name(s), got 2" in err

    @pytest.mark.parametrize(
        "names, expected",
        [
            (["types", "Room1", "Room2"], "types takes 1 name(s), got 2"),
            (["instances", "INDOOR", "ROOM"], "instances takes 1 name(s), got 2"),
            (["fillers", "Corridor1"], "fillers takes 2 name(s), got 1"),
        ],
        ids=["types", "instances", "fillers"],
    )
    def test_wrong_name_count_is_named_as_such(self, capsys, names, expected):
        code, out, err = run(capsys, "query", *names)
        assert code == EXIT_UNKNOWN
        assert out == "" and err == f"wrong number of names: {expected}\n"


class TestSerialize:
    def test_canonical_output_is_stable(self, capsys):
        code, out, _ = run(capsys, "serialize")
        assert code == EXIT_OK
        assert out == seed_path().read_text(encoding="utf-8")

    def test_entailed_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "serialize", "--entailed")
        assert code == EXIT_OK
        assert any(line.startswith("# inferred: ") for line in out.splitlines())
        reparsed = parse(out)
        assert serialize(reparsed) == seed_path().read_text(encoding="utf-8")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "serialize", "--ontology", str(tmp_path / "nope.onto"))
        assert code == EXIT_PARSE
        assert "cannot read ontology" in err

    def test_directory_path_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "reason", "--ontology", str(tmp_path))
        assert code == EXIT_PARSE
        assert err.startswith("cannot read ontology: ")

    def test_bad_syntax_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.onto"
        path.write_text("Class(A SubClassOf", encoding="utf-8")
        code, _, err = run(capsys, "reason", "--ontology", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["reason", "serialize"])
    def test_a_file_that_is_not_utf8_exits_one_on_one_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.onto"
        path.write_bytes(b"Class(A\xff)\n")
        code, out, err = run(capsys, command, "--ontology", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"cannot read ontology: {path} is not UTF-8 text (invalid start byte at byte 7)\n"

    def test_deep_nesting_exits_one(self, capsys, tmp_path):
        path = tmp_path / "deep.onto"
        path.write_text("Class(A)\nDefineClass(A " + "And(A " * 2000 + ")" * 2001, encoding="utf-8")
        code, _, err = run(capsys, "reason", "--ontology", str(path))
        assert code == EXIT_PARSE
        assert err.startswith("parse error: line 2, column ")


class TestExample1:
    def test_prints_sorted_types(self, capsys):
        code, out, _ = run(capsys, "example1", "Location3", "Corridor1", "Door3")
        assert code == EXIT_OK
        assert out.splitlines() == ["INDOOR", "LOCATION", "ROOM", "THING"]

    def test_runs_twice_identically(self, capsys):
        first = run(capsys, "example1", "Location3", "Corridor1", "Door3")
        second = run(capsys, "example1", "Location3", "Corridor1", "Door3")
        assert first == second

    def test_persists_when_given_a_file(self, capsys, seed_file):
        before = seed_file.read_text(encoding="utf-8")
        code, _, _ = run(capsys, "example1", "--ontology", str(seed_file),
                         "Location3", "Corridor1", "Door3")
        assert code == EXIT_OK
        after = seed_file.read_text(encoding="utf-8")
        assert after != before
        assert "Individual(Location3)" in after
        assert "PropertyAssertion(hasDoor Location3 Door3)" in after
        # chained flow sees the saved world
        code, out, _ = run(capsys, "reachable", "--ontology", str(seed_file))
        assert code == EXIT_OK
        assert out.splitlines() == ["Location3 ROOM", "Room1 ROOM", "Room2 ROOM"]

    def test_failed_save_leaves_the_file_untouched(self, capsys, seed_file, monkeypatch):
        before = seed_file.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        code, out, err = run(
            capsys, "example1", "--ontology", str(seed_file), "Location3", "Corridor1", "Door3"
        )
        assert code == EXIT_PARSE
        assert out == ""  # no classification of a location that was not saved
        assert err == "i/o error: disk full\n"
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]

    def test_a_name_the_parser_would_read_differently_is_not_saved(self, capsys, seed_file):
        before = seed_file.read_bytes()
        code, out, err = run(capsys, "example1", "--ontology", str(seed_file), "New#1", "Corridor1", "Door9")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: cannot write 'New#1'")
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]
        assert run(capsys, "reason", "--ontology", str(seed_file))[0] == EXIT_OK

    def test_a_name_that_is_not_utf8_is_refused_and_not_saved(self, capsys, seed_file):
        # the name as Python decodes the argv bytes b"Loc\xff": a lone surrogate
        name = os.fsdecode(b"Loc\xff")
        assert name == "Loc\udcff"
        before = seed_file.read_bytes()
        code, out, err = run(capsys, "example1", "--ontology", str(seed_file), name, "Corridor1", "Door3")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "error: IRI is not UTF-8 text: 'Loc\\udcff'\n"
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]

    def test_a_file_that_is_not_utf8_is_left_as_it_was(self, capsys, seed_file):
        seed_file.write_bytes(seed_file.read_bytes() + b"Class(\xe9t\xe9)\n")  # Latin-1, not UTF-8
        before = seed_file.read_bytes()
        argv = ("example1", "--ontology", str(seed_file), "Location3", "Corridor1", "Door3")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"cannot read ontology: {seed_file} is not UTF-8 text (")
        assert err.count("\n") == 1
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]

    def test_unknown_connected_location_exits_two(self, capsys):
        code, _, err = run(capsys, "example1", "Location3", "Nowhere", "Door3")
        assert code == EXIT_UNKNOWN

    @pytest.mark.parametrize(
        "names",
        [
            ("ROOM", "Corridor1", "Door3"),
            ("hasDoor", "Corridor1", "Door3"),
            ("Location3", "Corridor1", "DOOR"),
            ("Location3", "Corridor1", "isIn"),
        ],
        ids=["location-is-a-class", "location-is-a-property", "door-is-a-class", "door-is-a-property"],
    )
    def test_a_new_name_of_the_wrong_kind_exits_two(self, capsys, seed_file, names):
        before = seed_file.read_bytes()
        code, out, err = run(capsys, "example1", "--ontology", str(seed_file), *names)
        assert code == EXIT_UNKNOWN
        assert out == ""
        assert err.startswith("wrong entity kind: ")
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]


class TestReachable:
    def test_seed_world(self, capsys):
        code, out, _ = run(capsys, "reachable")
        assert code == EXIT_OK
        assert out.splitlines() == ["Room1 ROOM", "Room2 ROOM"]

    def test_missing_position_exits_four(self, capsys, tmp_path):
        onto = load_seed()
        robot = onto.lookup("Robot1")
        onto.retract_axiom(model.property_assertion(
            robot, onto.lookup("isIn"), onto.lookup("Corridor1")
        ))
        path = tmp_path / "lost.onto"
        path.write_text(serialize(onto), encoding="utf-8")
        code, _, err = run(capsys, "reachable", "--ontology", str(path))
        assert code == EXIT_NO_FILLER
        assert "missing filler" in err

    def test_unknown_robot_exits_two(self, capsys):
        code, _, _ = run(capsys, "reachable", "Robot9")
        assert code == EXIT_UNKNOWN


class TestFlowOnAnInconsistentWorld:
    """A flow's ScenarioError exits 3 with a message on stderr only."""

    @pytest.mark.parametrize(
        "argv",
        [("reachable",), ("example1", "Location3", "Corridor1", "Door3")],
        ids=["reachable", "example1"],
    )
    def test_exits_three_and_prints_nothing(self, capsys, broken_file, argv):
        before = broken_file.read_bytes()
        code, out, err = run(capsys, *argv, "--ontology", str(broken_file))
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert err.startswith("inconsistent world: ")
        assert broken_file.read_bytes() == before
        assert list(broken_file.parent.iterdir()) == [broken_file]

    def test_patrol_stops_at_the_first_inconsistent_step(self, capsys, broken_file):
        code, out, _ = run(capsys, "patrol", "--steps", "2", "--ontology", str(broken_file))
        assert code == EXIT_INCONSISTENT
        assert len(out.splitlines()) == 1 and out.startswith("step=1 ")


class TestPatrol:
    def test_default_run_is_deterministic(self, capsys):
        code_a, out_a, _ = run(capsys, "patrol")
        code_b, out_b, _ = run(capsys, "patrol")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert len(out_a.splitlines()) == 20
        assert out_a.splitlines()[0] == (
            "step=1 at=Corridor1 Door1=closed Door2=open crossed=Door2 to=Room2"
        )

    def test_seed_changes_trace(self, capsys):
        _, out_a, _ = run(capsys, "patrol", "--steps", "5", "--seed", "7")
        _, out_b, _ = run(capsys, "patrol", "--steps", "5", "--seed", "8")
        assert out_a != out_b

    def test_steps_flag(self, capsys):
        code, out, _ = run(capsys, "patrol", "--steps", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    def test_zero_steps_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["patrol", "--steps", "0"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "usage:" in err and "--steps" in err and "Traceback" not in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["patrol", "--seed", "-1"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "usage:" in err and "--seed" in err and "Traceback" not in err

    def test_a_step_count_that_is_not_an_integer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["patrol", "--steps", "x"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "usage:" in captured.err and "'x' is not an integer" in captured.err

    @pytest.mark.parametrize(
        "dropped, added, expected",
        [
            ("PropertyAssertion(isIn Robot1 Corridor1)\n", "", "Robot1 has no isIn filler"),
            (
                "PropertyAssertion(isIn Robot1 Corridor1)\n",
                "Individual(Hall9)\nClassAssertion(LOCATION Hall9)\nPropertyAssertion(isIn Robot1 Hall9)\n",
                "no door at Hall9",
            ),
            (None, "Individual(Door9)\nPropertyAssertion(hasDoor Corridor1 Door9)\n", "Door9 leads nowhere from Corridor1"),
        ],
        ids=["no-position", "no-door", "door-leads-nowhere"],
    )
    def test_a_missing_filler_exits_four(self, capsys, seed_file, dropped, added, expected):
        """The seed world less `dropped`, plus `added`."""
        text = seed_file.read_text(encoding="utf-8")
        if dropped is not None:
            assert dropped in text
            text = text.replace(dropped, "")
        seed_file.write_text(text + added, encoding="utf-8")
        before = seed_file.read_bytes()
        code, out, err = run(capsys, "patrol", "--ontology", str(seed_file))
        assert code == EXIT_NO_FILLER
        assert out == ""
        assert err == f"missing filler: {expected}\n"
        assert seed_file.read_bytes() == before
        assert list(seed_file.parent.iterdir()) == [seed_file]


def test_the_parser_is_built_once_and_answers_each_call_as_a_fresh_one(capsys, monkeypatch):
    """main() reuses one argparse tree per process: after a usage error, a
    `serialize --entailed` and a `query types Room1` print and exit as the
    first call of each command in a process does."""
    from ontodesc import cli

    def call(*argv):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    commands = [("patrol", "--steps", "0"), ("serialize", "--entailed"), ("query", "types", "Room1")]
    first = []
    for argv in commands:
        cli._parser.cache_clear()
        first.append(call(*argv))
    assert first[0][0] == EXIT_UNKNOWN and "usage:" in first[0][2]
    assert first[1][0] == first[2][0] == EXIT_OK and "# inferred: " in first[1][1]

    cli._parser.cache_clear()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
    assert [call(*argv) for argv in commands] == first
    assert len(built) == 1


@pytest.fixture
def collector():
    """Restores the cyclic collector's state however a test leaves it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """main() runs a command with the cyclic collector paused and leaves it
    on or off as it found it, however the command ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["query", "types", "Room1"], EXIT_OK),
            (["reason", "--ontology", "{missing}"], EXIT_PARSE),
            (["query", "types", "Nobody"], EXIT_UNKNOWN),
            (["reason", "--ontology", "{inconsistent}"], EXIT_INCONSISTENT),
            (["reachable", "Door1"], EXIT_NO_FILLER),
            (["patrol", "--steps", "0"], SystemExit),
        ],
        ids=["ok", "parse", "unknown", "inconsistent", "no-filler", "usage"],
    )
    def test_state_is_restored_on_every_exit(self, capsys, collector, broken_file, enabled, argv, expected):
        (gc.enable if enabled else gc.disable)()
        files = {"missing": broken_file.parent / "nope.onto", "inconsistent": broken_file}
        argv = [a.format(**files) for a in argv]
        if expected is SystemExit:
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 2
        else:
            assert main(argv) == expected
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()], ids=lambda e: type(e).__name__)
    def test_state_is_restored_when_an_unmapped_exception_escapes(self, collector, monkeypatch, enabled, exc):
        from ontodesc import cli

        def load_world(path):
            raise exc

        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(cli, "load_world", load_world)
        with pytest.raises(type(exc)):
            main(["reason"])
        assert gc.isenabled() is enabled

    def test_the_command_runs_paused(self, capsys, collector, monkeypatch):
        from ontodesc import cli

        gc.enable()
        seen = []
        load = cli.load_world
        monkeypatch.setattr(cli, "load_world", lambda path: seen.append(gc.isenabled()) or load(path))
        assert main(["reason"]) == EXIT_OK
        assert seen == [False] and gc.isenabled()

    def test_serialize_entailed_on_the_load_world_makes_no_collection(self, capsys, collector, tmp_path):
        """perfbench's load op, on its world: with the parser built and the
        heap collected first, the command starts no collection.  (The
        objects it allocated set off one young collection soon after the
        collector is back on, so the count is taken as main returns.)"""
        from ontodesc import cli
        from test_reasoner import _perfbench_worlds

        path = tmp_path / "load.onto"
        path.write_text(_perfbench_worlds().generate(128, 128, 64, seed=0).text, encoding="utf-8")
        gc.enable()
        cli._parser()
        gc.collect()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            code, started = main(["serialize", "--entailed", "--ontology", str(path)]), len(starts)
        finally:
            gc.callbacks.remove(count)
        assert code == EXIT_OK and "# inferred: " in capsys.readouterr().out
        assert starts[:started] == []  # the generations of the collections main started

    @pytest.mark.parametrize(
        "argv",
        [
            ["reason"],
            ["query", "types", "{individual}"],
            ["serialize", "--entailed"],
            ["reachable"],
            ["patrol", "--steps", "50"],
            ["example1", "NewPlace", "{corridor}", "NewDoor"],
        ],
        ids=["reason", "query", "serialize-entailed", "reachable", "patrol", "example1"],
    )
    @pytest.mark.parametrize("world", ["seed", "generated"])
    def test_a_command_leaves_no_cyclic_garbage(self, capsys, collector, tmp_path, world, argv):
        """The premise of the pause: what a command allocates, reference
        counting frees, so a collection right after it finds nothing.  The
        seed world is the packaged one; the generated one is read from a
        file, which example1 saves."""
        from ontodesc import cli
        from test_reasoner import _perfbench_worlds

        if world == "seed":
            names, source = {"individual": "Room1", "corridor": "Corridor1"}, []
        else:
            path = tmp_path / "world.onto"
            path.write_text(_perfbench_worlds().generate(16, 16, 8, seed=1).text, encoding="utf-8")
            names, source = {"individual": "R0", "corridor": "C0"}, ["--ontology", str(path)]
        argv = [a.format(**names) for a in argv] + source
        cli._parser()
        gc.collect()
        code = main(argv)
        found = gc.collect()
        assert code == EXIT_OK and capsys.readouterr().out
        assert found == 0


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("world", [random_ontology, chained_ontology], ids=["random", "chained"])
def test_shuffled_lines_give_the_same_entailed_text(capsys, tmp_path, world, seed):
    """A reasoner law through the CLI: `serialize --entailed` prints the same
    bytes for a world's canonical file and for its lines in another order."""
    rng = random.Random(9000 + seed)
    text = serialize(world(rng))
    lines = text.splitlines()
    rng.shuffle(lines)
    printed = []
    for name, document in [("canonical", text), ("shuffled", "\n".join(lines) + "\n")]:
        path = tmp_path / f"{name}.onto"
        path.write_text(document, encoding="utf-8")
        printed.append(run(capsys, "serialize", "--entailed", "--ontology", str(path)))
    assert printed[0] == printed[1] and printed[0][0] == EXIT_OK
