#!/usr/bin/env python3
"""Time perfbench's workload ops for a base revision and the working tree, in one process.

    python scripts/ab.py --base HEAD~1                    # patrol, reachable, load; 30 rounds
    python scripts/ab.py --base HEAD --rounds 2 --ops 38 --size 4,3,2  # a quick smoke

perfbench/run.py runs each side in its own process, where the memory
layout alone moves a workload by several percent.  This script runs both
sides in one process instead, so a gain of a few percent can be read.

The base's `src/` is taken from git with `git archive REV src` (local
git, no network) into a temporary directory; the other side is the
working tree's `src/`.

For each workload, `--rounds` rounds run on perfbench's world for that
workload (input variant 0), or an N,K,M one given by `--size`.  A round
imports each side's `ontodesc` afresh, with `ontodesc*` purged from
sys.modules before each import, sets up a perfbench workload object on
it (perfbench/run.py's Patrol, Reachable and Load classes, used
read-only, whose lazy imports bind that side's modules) and runs
perfbench's warm-up ops.  Entities and enum members hash by address, so
one import's memory layout can favour one side by a few percent for as
long as it lives; new imports each round spread that over the rounds.
Before a side runs an op, its `ontodesc*` modules are swapped back into
sys.modules, so an import made inside a function resolves to the same
side.  Then gc.collect() runs and each side runs `--ops` ops,
alternating one op at a time, so that the machine's drifting speed
falls on both sides alike; which side goes first alternates from op to
op and from round to round.

Each op is timed alone and then checked with the workload's own check,
outside the timer; a failed check fails the run.  A patrol workload
object checks its first 40 lines against the recorded digest, so a
patrol round needs at least 38 ops besides the 2 warm-up ones.  A
side's time in a round is the median of its ops, so an op that a
garbage collection or another tenant stalls does not decide the round.

Prints per workload each side's median round time in ms per op, the
median of the per-round ratios (working tree over base) with their
quartiles, and the rounds the working tree won (ratio below 1); the last
line of stdout is one JSON object with the same figures.  Exits 1 if any
op failed its check.

One invocation settles patrol and load to within about 0.005, but not
reachable: three 30-round invocations on the same two trees read its
ratio as 1.025, 0.999 and 1.003, so a reachable reading takes the
median of three invocations.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worlds  # noqa: E402  (perfbench/worlds.py: standard library only)
from run import SIZES, WARMUP_OPS, WORKLOADS, load_golden  # noqa: E402  (perfbench/run.py)

OPS = {"patrol": 200, "reachable": 200, "load": 8}  # per side and round: about 50-250 ms of ops


def _ontodesc_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "ontodesc" or name.startswith("ontodesc.")}


def _swap_in(modules: dict) -> None:
    for name in _ontodesc_modules():
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One tree's ontodesc, imported afresh, and a workload object set up on it."""

    def __init__(self, src: Path, workload: str, world):
        _swap_in({})
        sys.path.insert(0, str(src))
        try:
            import ontodesc

            if Path(ontodesc.__file__).resolve().parent != (src / "ontodesc").resolve():
                raise RuntimeError(f"imported {ontodesc.__file__}, not the tree under {src}")
            self.workload = WORKLOADS[workload](world, load_golden())
            self.workload.set_up()
        finally:
            sys.path.remove(str(src))
        self.modules = _ontodesc_modules()
        self.failures: list[str] = []
        self.run(WARMUP_OPS)

    def run(self, ops: int) -> list[float]:
        """Run `ops` checked ops; returns their wall times in ms."""
        _swap_in(self.modules)
        times = []
        for _ in range(ops):
            start = time.perf_counter()
            result = self.workload.op()
            times.append((time.perf_counter() - start) * 1000)
            problem = self.workload.check(result)
            if problem is not None:
                self.failures.append(problem)
        self.modules = _ontodesc_modules()  # with what the ops imported
        return times

    def close(self) -> list[str]:
        """Release the workload; returns every problem its checks found."""
        unchecked = self.workload.unchecked()
        self.workload.close()
        return self.failures + [unchecked] * bool(unchecked)


def extract(rev: str, into: Path) -> Path:
    """The `src/` tree of git revision `rev`, extracted under `into`."""
    done = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def compare(workload: str, base_src: Path, size, rounds: int, ops: int) -> dict:
    world = worlds.generate(*(size or SIZES[workload]), seed=0)  # perfbench's input variant 0
    ms: dict[str, list[float]] = {"base": [], "change": []}  # per round, the median ms of its ops
    failures: list[str] = []
    trees = [("base", base_src), ("change", ROOT / "src")]
    for r in range(rounds):
        sides = {name: Side(src, workload, world) for name, src in trees[:: 1 if r % 2 == 0 else -1]}
        gc.collect()
        times: dict[str, list[float]] = {"base": [], "change": []}
        try:
            for i in range(ops):
                for name in ("base", "change") if (r + i) % 2 == 0 else ("change", "base"):
                    times[name] += sides[name].run(1)
        finally:
            for side in sides.values():
                failures += side.close()
        for name, mine in times.items():
            ms[name].append(statistics.median(mine))
    ratios = [c / b for b, c in zip(ms["base"], ms["change"])]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return {
        "workload": workload,
        "world": [world.n, world.k, world.m],
        "rounds": rounds,
        "ops": ops,
        "base_ms": statistics.median(ms["base"]),
        "change_ms": statistics.median(ms["change"]),
        "ratio": statistics.median(ratios),
        "ratio_q1": quartiles[0],
        "ratio_q3": quartiles[2],
        "won": sum(ratio < 1 for ratio in ratios),
        "failures": failures[:5],
        "failed": len(failures),
    }


def _size(text: str) -> tuple:
    try:
        n, k, m = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not N,K,M") from None
    return n, k, m


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--rounds", type=_positive, default=30)
    parser.add_argument("--ops", type=_positive, help="ops per side and round (default: per workload)")
    parser.add_argument("--size", type=_size, help="N,K,M world size instead of each workload's")
    args = parser.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="ontodesc-ab-") as tmp:
        base_src = extract(args.base, Path(tmp))
        for workload in ("patrol", "reachable", "load"):
            result = compare(workload, base_src, args.size, args.rounds, args.ops or OPS[workload])
            results.append(result)
            print(
                f"{workload} n,k,m={','.join(map(str, result['world']))}: {result['rounds']} rounds of"
                f" {result['ops']} ops; base {result['base_ms']:.4g} ms, change {result['change_ms']:.4g} ms;"
                f" ratio {result['ratio']:.4f} (quartiles {result['ratio_q1']:.4f}-{result['ratio_q3']:.4f});"
                f" change won {result['won']}/{result['rounds']}; failed ops {result['failed']}"
            )
            for problem in result["failures"]:
                print(f"  FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"base": args.base, "results": results}))
    return 1 if any(result["failed"] for result in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
