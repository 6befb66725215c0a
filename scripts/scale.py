#!/usr/bin/env python3
"""Measure how parsing, reason(), the entailed text, reachable places and a
patrol step grow with world size.

    python scripts/scale.py --label change              # n = 25, 400, 1600
    python scripts/scale.py --sizes 10,25 --repeat 3 --label quick --out /tmp

For each n the world is perfbench's corridor chain (worlds.generate with
k=0 classes and m=1 robot, seed 0).  syntax.parse of the world text is
timed, and reason() on the copy it returns, so it runs from an empty
state; parse_kb_per_s is the text's UTF-8 size in KB (1024 bytes) over
the median parse time.  Inside each such run phase two
(reasoner._property_assertions) and phase three (reasoner._memberships)
are timed as well, each wrapped for the call (phase_timers) and scaled
with it.  Right after each such run,
syntax.serialize(world, include_inferred=True) is timed once (the
`serialize --entailed` text), and then scenarios.reachable_leaf_places(world)
for Robot1: the first call reads every descriptor afresh.  Warm calls
repeat it on the last of those worlds, unchanged, so their reads come
from the Closure's memo.  The world text is then written to a temporary
file, and cli.main(["serialize", "--entailed", "--ontology", path]) is
timed once per repeat, its output written to a buffer
(cli_serialize_entailed_ms): the one-shot command as a user runs it,
parse, reason() and serialize together, with the cyclic collector as
the command sets it.  example1 is then timed on the world the warm
calls read, once per repeat: scenarios.categorize_new_location joins a
location with a fresh name to C0 through a door with a fresh name, the
paper's Example 1, so each call declares two individuals.  The patrol step is
scenarios.patrol(world, PatrolConfig(steps=1, seed=s_i)) on one world
carried from step to step, after one untimed warm-up step that also
declares the door state classes; the seeds s_i come from random.Random(0)
at every n, so every size times the same coin flips.  Per timed step,
patrol_part_reads counts the DescriptorState.read calls (the descriptor
parts the step reads), patrol_fresh_reads the _entailed_items calls
among them (the reads the step's reason() runs did not carry over) and
patrol_renders the checked descriptor.to_axiom calls (the written items
no read had rendered); patrol_memo_entries is the number of descriptor
reads the installed Closure keeps (len(Closure._reads)) after the timed
steps.  The garbage collector runs before every timed call, outside the
timer.

The definitions block measures the TBox axis at one world size: the
benchmark's load world (worlds.generate(128, k=128, m=64, seed=0)) plus
D definitions DefineClass(Y<d> And(K<d mod 128> Some(hasDoor DOOR))),
for D = 0, 32, 128 and 512 (with_definitions).  Each repeat parses the
text and times reason() on the copy, from an empty state; phase three is
timed inside that call the same way and scaled with it.

Machine speed drifts while the script runs, so each timed call is scaled
the way perfbench scales an op: perfbench/run.py's calibrate() kernel is
timed just before and just after the call, and scaled() turns the wall
time into milliseconds at the speed where the kernel takes
run.CAL_REF_S.  cal_ms is the median kernel time of the size, unscaled.

Writes BENCH_scale_<label>.json: the Python version, the repeat count,
per D of the definitions block the asserted axiom count and the median
reason_ms and phase3_ms, with phase three's ratio between the largest
and the smallest D, and per n the asserted axiom count, the median
scaled milliseconds of each measurement (patrol_step_ms, parse_ms,
reason_ms, phase2_ms, phase3_ms, serialize_entailed_ms,
cli_serialize_entailed_ms, reachable_first_ms, reachable_warm_ms,
example1_ms), parse_kb_per_s, patrol_part_reads, patrol_fresh_reads,
patrol_renders, patrol_memo_entries and cal_ms, and the patrol step's
ratio between the largest and the smallest n.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worlds  # noqa: E402  (perfbench/worlds.py: standard library only)
from run import calibrate, scaled  # noqa: E402  (perfbench/run.py)
from ontodesc import cli, descriptor, reasoner, scenarios, syntax  # noqa: E402
from ontodesc.descriptor import DescriptorState  # noqa: E402


DEFINITIONS = (0, 32, 128, 512)
PHASES = {"phase2_ms": "_property_assertions", "phase3_ms": "_memberships"}  # key -> reasoner function


def timed(call, cals: list) -> tuple[float, float]:
    """Run call() once; return its wall seconds and the factor that turns
    seconds of it into milliseconds at the reference speed.  The kernel
    times taken around the call are added to `cals`."""
    gc.collect()
    around = [calibrate()]
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    around.append(calibrate())
    cals.extend(around)
    return elapsed, scaled(1000, around)


@contextlib.contextmanager
def phase_timers():
    """Wrap the reasoner phases of PHASES, as DescriptorState.read is
    wrapped for the patrol step; yields key -> the wall seconds of each
    call made inside the block."""
    spent = {key: [] for key in PHASES}
    originals = {key: getattr(reasoner, name) for key, name in PHASES.items()}

    def wrapped(key):
        def timed_phase(*args):
            start = time.perf_counter()
            out = originals[key](*args)
            spent[key].append(time.perf_counter() - start)
            return out

        return timed_phase

    for key, name in PHASES.items():
        setattr(reasoner, name, wrapped(key))
    try:
        yield spent
    finally:
        for key, name in PHASES.items():
            setattr(reasoner, name, originals[key])


def timed_reason(onto, cals: list) -> dict:
    """Time reason(onto) with timed(); returns the scaled milliseconds of
    the run (reason_ms) and of each phase of PHASES in it."""
    with phase_timers() as spent:
        elapsed, factor = timed(lambda: reasoner.reason(onto), cals)
    return {"reason_ms": elapsed * factor, **{key: seconds * factor for key, [seconds] in spent.items()}}


def cli_serialize_entailed(path: Path) -> None:
    """One in-process `ontodesc serialize --entailed --ontology path`, its
    text written to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["serialize", "--entailed", "--ontology", str(path)])
    if code != cli.EXIT_OK:
        raise SystemExit(f"serialize --entailed exited {code} on {path}")


def with_definitions(text: str, d: int) -> str:
    """A load-world text plus d defined classes Y<i>: the instances of
    K<i mod 128> that have a door."""
    lines = [f"Class(Y{i})\nDefineClass(Y{i} And(K{i % 128} Some(hasDoor DOOR)))" for i in range(d)]
    return "\n".join([text, *lines, ""])


def measure_definitions(d: int, repeat: int) -> dict:
    world = worlds.generate(128, k=128, m=64, seed=0)
    text = with_definitions(world.text, d)
    cals = []
    runs = [timed_reason(syntax.parse(text), cals) for _ in range(repeat)]
    return {
        "d": d,
        "asserted": world.asserted + d,
        "reason_ms": statistics.median(run["reason_ms"] for run in runs),
        "phase3_ms": statistics.median(run["phase3_ms"] for run in runs),
        "cal_ms": statistics.median(cals) * 1000,
    }


def measure(n: int, repeat: int) -> dict:
    cals = []

    def timed_ms(call) -> float:
        elapsed, factor = timed(call, cals)
        return elapsed * factor

    world = worlds.generate(n, k=0, m=1, seed=0)
    parse_ms, runs, serialize_ms, first_ms = [], [], [], []
    for _ in range(repeat):
        parsed = []
        parse_ms.append(timed_ms(lambda: parsed.append(syntax.parse(world.text))))
        [fresh] = parsed
        runs.append(timed_reason(fresh, cals))
        serialize_ms.append(timed_ms(lambda: syntax.serialize(fresh, include_inferred=True)))
        first_ms.append(timed_ms(lambda: scenarios.reachable_leaf_places(fresh)))
    warm_ms = [timed_ms(lambda: scenarios.reachable_leaf_places(fresh)) for _ in range(repeat)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "world.onto"
        path.write_text(world.text, encoding="utf-8")
        cli_ms = [timed_ms(lambda: cli_serialize_entailed(path)) for _ in range(repeat)]
    example1_ms = [
        timed_ms(lambda: scenarios.categorize_new_location(fresh, f"NewPlace{i}", "C0", f"NewDoor{i}"))
        for i in range(repeat)
    ]

    onto = syntax.parse(world.text)
    reasoner.reason(onto)
    seeds = random.Random(0)
    scenarios.patrol(onto, scenarios.PatrolConfig(steps=1, seed=seeds.getrandbits(63)))
    step_ms = []
    part_reads = fresh_reads = renders = 0
    read, entailed_items = DescriptorState.read, DescriptorState._entailed_items
    to_axiom = descriptor.to_axiom

    def counted_read(self):
        nonlocal part_reads
        part_reads += 1
        return read(self)

    def counted(self, closure):
        nonlocal fresh_reads
        fresh_reads += 1
        return entailed_items(self, closure)

    def counted_render(*args):
        nonlocal renders
        renders += 1
        return to_axiom(*args)

    DescriptorState.read, DescriptorState._entailed_items = counted_read, counted
    descriptor.to_axiom = counted_render
    try:
        for _ in range(repeat):
            config = scenarios.PatrolConfig(steps=1, seed=seeds.getrandbits(63))
            step_ms.append(timed_ms(lambda: scenarios.patrol(onto, config)))
    finally:
        DescriptorState.read, DescriptorState._entailed_items = read, entailed_items
        descriptor.to_axiom = to_axiom
    kb = len(world.text.encode("utf-8")) / 1024
    return {
        "n": n,
        "asserted": world.asserted,
        "patrol_step_ms": statistics.median(step_ms),
        "patrol_part_reads": part_reads / repeat,
        "patrol_fresh_reads": fresh_reads / repeat,
        "patrol_renders": renders / repeat,
        "patrol_memo_entries": len(onto.current_closure()._reads),
        "parse_ms": statistics.median(parse_ms),
        "parse_kb_per_s": kb / (statistics.median(parse_ms) / 1000),
        **{key: statistics.median(run[key] for run in runs) for key in ("reason_ms", *PHASES)},
        "serialize_entailed_ms": statistics.median(serialize_ms),
        "cli_serialize_entailed_ms": statistics.median(cli_ms),
        "reachable_first_ms": statistics.median(first_ms),
        "reachable_warm_ms": statistics.median(warm_ms),
        "example1_ms": statistics.median(example1_ms),
        "cal_ms": statistics.median(cals) * 1000,
    }


def _sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers") from None
    if not sizes or min(sizes) < 2:
        raise argparse.ArgumentTypeError("every size must be at least 2 corridors")
    return sorted(set(sizes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file")
    parser.add_argument("--sizes", type=_sizes, default=[25, 400, 1600], help="corridor counts")
    parser.add_argument("--repeat", type=int, default=30, help="timed calls per measurement")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON file, made if missing")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    args.out.mkdir(parents=True, exist_ok=True)  # before the sweep, which a missing directory would lose

    rows = []
    for n in args.sizes:
        row = measure(n, args.repeat)
        rows.append(row)
        print(
            f"n={n} patrol step {row['patrol_step_ms']:.2f} ms ({row['patrol_part_reads']:.2f} part reads,"
            f" {row['patrol_fresh_reads']:.2f} fresh, {row['patrol_renders']:.2f} renders,"
            f" {row['patrol_memo_entries']} memo entries),"
            f" parse {row['parse_ms']:.2f} ms ({row['parse_kb_per_s']:.0f} KB/s),"
            f" reason {row['reason_ms']:.2f} ms (phase two {row['phase2_ms']:.2f}, three {row['phase3_ms']:.2f}),"
            f" serialize --entailed {row['serialize_entailed_ms']:.2f} ms,"
            f" CLI serialize --entailed {row['cli_serialize_entailed_ms']:.2f} ms,"
            f" reachable first {row['reachable_first_ms']:.2f} ms, warm {row['reachable_warm_ms']:.3f} ms,"
            f" example1 {row['example1_ms']:.2f} ms (kernel {row['cal_ms']:.2f} ms)"
        )
    definitions = []
    for d in DEFINITIONS:
        row = measure_definitions(d, args.repeat)
        definitions.append(row)
        print(
            f"load world + {d} definitions: reason {row['reason_ms']:.2f} ms, phase three {row['phase3_ms']:.2f} ms"
            f" (kernel {row['cal_ms']:.2f} ms)"
        )
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "repeat": args.repeat,
        "world": {"k": 0, "m": 1, "seed": 0},
        "sizes": rows,
        "patrol_step_ratio": rows[-1]["patrol_step_ms"] / rows[0]["patrol_step_ms"],
        "definitions": {
            "world": {"n": 128, "k": 128, "m": 64, "seed": 0},
            "rows": definitions,
            "phase3_ratio": definitions[-1]["phase3_ms"] / definitions[0]["phase3_ms"],
        },
    }
    path = args.out / f"BENCH_scale_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"patrol step n={rows[-1]['n']} / n={rows[0]['n']}: {report['patrol_step_ratio']:.2f}x")
    print(f"phase three D={DEFINITIONS[-1]} / D=0: {report['definitions']['phase3_ratio']:.2f}x")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
