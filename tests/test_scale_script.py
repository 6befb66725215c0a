"""Smoke test of scripts/scale.py at n=10."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"


def test_scale_script_writes_its_report(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    out = tmp_path / "new" / "out"  # --out need not exist: the script makes it, parents included
    assert scale.main(["--sizes", "10", "--repeat", "2", "--label", "smoke", "--out", str(out)]) == 0
    report = json.loads((out / "BENCH_scale_smoke.json").read_text(encoding="utf-8"))
    assert report["label"] == "smoke" and report["repeat"] == 2 and report["python"]
    [row] = report["sizes"]
    assert row["n"] == 10 and row["asserted"] > 0
    assert row["patrol_step_ms"] > 0 and row["reason_ms"] > 0
    # phase two and phase three, timed inside each from-scratch reason()
    assert 0 < row["phase2_ms"] < row["reason_ms"] and 0 < row["phase3_ms"] < row["reason_ms"]
    assert row["patrol_fresh_reads"] > 0  # every step moves the robot: its links are read afresh
    assert row["patrol_part_reads"] >= row["patrol_fresh_reads"]
    # a step renders the robot's new position and a new state for each door
    # it flipped, at most the three a corridor holds
    assert 1 <= row["patrol_renders"] <= 4
    # the last step's run carries the reads it leaves standing, the links of
    # the robot's start among them
    assert row["patrol_memo_entries"] >= 1
    assert row["cal_ms"] > 0  # the calibration kernel timed around each call
    assert row["parse_ms"] > 0 and row["serialize_entailed_ms"] > 0
    assert row["cli_serialize_entailed_ms"] > 0  # the one-shot CLI command, from a file
    assert row["parse_kb_per_s"] > 0
    assert row["reachable_first_ms"] > 0 and row["reachable_warm_ms"] > 0
    assert report["patrol_step_ratio"] == 1.0
    # the TBox axis: the load world with 0, 32, 128 and 512 more definitions
    block = report["definitions"]
    assert block["world"] == {"n": 128, "k": 128, "m": 64, "seed": 0}
    assert [row["d"] for row in block["rows"]] == [0, 32, 128, 512]
    zero = block["rows"][0]
    for row in block["rows"]:
        assert row["asserted"] == zero["asserted"] + row["d"]  # one DefineClass each
        assert 0 < row["phase3_ms"] < row["reason_ms"] and row["cal_ms"] > 0
    assert block["phase3_ratio"] == block["rows"][-1]["phase3_ms"] / block["rows"][0]["phase3_ms"]
    assert "wrote" in capsys.readouterr().out


def test_scale_script_times_example1(tmp_path):
    """example1_ms times the paper's Example 1 on the scaled world: each
    repeat joins a location with a fresh name, so none of them clash."""
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    assert scale.main(["--sizes", "10", "--repeat", "3", "--label", "ex1", "--out", str(tmp_path)]) == 0
    [row] = json.loads((tmp_path / "BENCH_scale_ex1.json").read_text(encoding="utf-8"))["sizes"]
    assert row["example1_ms"] > 0
