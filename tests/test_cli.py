import os
import random
from collections import Counter

import pytest

from generators import random_ontology
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
        assert err.startswith("i/o error: ")

    def test_bad_syntax_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.onto"
        path.write_text("Class(A SubClassOf", encoding="utf-8")
        code, _, err = run(capsys, "reason", "--ontology", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err

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

    @pytest.fixture
    def broken_file(self, seed_file):
        with seed_file.open("a", encoding="utf-8") as fh:
            fh.write("SameIndividual(Room1 Room2)\nDifferentIndividuals(Room1 Room2)\n")
        return seed_file

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
