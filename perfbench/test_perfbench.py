"""The benchmark's own test: every workload at the quick size, a few ops.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import run
import worlds

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.ROOT / "tests"))

from oracles import naive_reason  # noqa: E402  (read-only reference)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIZE = ",".join(map(str, run.QUICK_SIZE))


def bench(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", SIZE],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_and_fails_nothing(workload, trace):
    done, result = bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.TRACE_MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in declared}
    lines = done.stdout.splitlines()
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}") for line in lines)
    assert "fail_ratio 0 ratio" in lines
    if trace:
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        if workload == "reachable":
            assert calls["reasoner.reason.calls"] == 0
        if workload == "load":
            assert all(v == 0 for k, v in calls.items() if k.startswith("descriptor."))


@pytest.mark.parametrize("size", [run.QUICK_SIZE, (4, 0, 1), (3, 2, 3)])
@pytest.mark.parametrize("variant", [0, 7])
def test_quick_worlds_match_the_naive_oracle(size, variant):
    from ontodesc import reasoner, syntax

    onto = syntax.parse(worlds.generate(*size, seed=variant).text)
    closure = reasoner.reason(onto)
    expected_inferred, expected_consistent = naive_reason(onto)
    assert set(closure.inferred) == expected_inferred
    assert closure.consistent and expected_consistent


def test_generator_reproduces_the_baseline_world():
    world = worlds.generate(10)
    assert world.robots == {"Robot1": "C0"}
    assert world.door_map["D3"] == ["C3", "C4"] and world.door_map["RD3"] == ["C3", "R3"]
    assert world.leaf_pairs["C3"] == [("C2", "CORRIDOR"), ("C4", "CORRIDOR"), ("R3", "ROOM")]
    assert worlds.generate(6, 5, 3, seed=2) == worlds.generate(6, 5, 3, seed=2)


def test_a_wrong_reference_fails_the_checks():
    world = worlds.generate(*run.QUICK_SIZE, seed=1)
    flipped = {c: [(cls, ind) for ind, cls in pairs[:1]] + pairs[1:] for c, pairs in world.leaf_pairs.items()}
    reachable = run.Reachable(dataclasses.replace(world, leaf_pairs=flipped), {})
    reachable.set_up()
    assert reachable.check(reachable.op()) is not None

    patrol = run.Patrol(world, {})
    patrol.set_up()
    patrol.location = "R0"  # the robot really stands in C0
    assert patrol.check(patrol.op()) is not None

    load = run.Load(world, {run.golden_key("load", world): "0" * 64})
    try:
        load.set_up()
        assert load.check(load.op()) is not None
    finally:
        load.close()
