"""Smoke test of scripts/ab.py at n=4 against the committed HEAD."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab.py"


@pytest.fixture(autouse=True)
def git_checkout():
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    except FileNotFoundError:
        pytest.skip("no git executable: ab.py has no base to extract")
    if head.returncode != 0:
        pytest.skip("not a git checkout with a commit: ab.py has no base to extract")


def test_ab_script_reports_each_workload(tmp_path):
    # 38 ops and the 2 warm-up ops reach the 40 patrol lines under the recorded digest
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--base", "HEAD", "--rounds", "2", "--ops", "38", "--size", "4,3,2"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["base"] == "HEAD"
    assert [r["workload"] for r in report["results"]] == ["patrol", "reachable", "load"]
    for result in report["results"]:
        assert result["world"] == [4, 3, 2] and result["rounds"] == 2 and result["ops"] == 38
        assert result["failed"] == 0 and not result["failures"]
        assert result["base_ms"] > 0 and result["change_ms"] > 0
        assert result["ratio_q1"] <= result["ratio"] <= result["ratio_q3"]
        assert 0 <= result["won"] <= 2


def test_ab_script_rejects_an_unknown_revision(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--base", "no-such-revision", "--rounds", "1", "--ops", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert done.returncode != 0 and "git archive no-such-revision failed" in done.stderr
