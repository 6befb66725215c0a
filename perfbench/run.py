"""ontodesc benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload patrol --seed 3 --seconds 30 --trace 0

Workloads (see README.md beside this file for why each was chosen):

* patrol    - one op is scenarios.patrol(world, PatrolConfig(steps=1, seed=s_i))
              on an n=32 corridor chain, the world carried from op to op;
* reachable - one op is scenarios.reachable_leaf_places(world, robot) for a
              seeded robot on a reasoned n=128, k=128, m=64 world;
* load      - one op is cli.main(["serialize", "--entailed", "--ontology", path])
              in-process on the same world written to a file.

The loop is closed: one caller, the next op starts when the last one
returns.  The garbage collector runs between ops, outside the timed
interval, and is never disabled inside an op.  Times are scaled to a
reference machine speed measured by a fixed kernel around every op (see
calibrate()); the unscaled wall times are printed too.  Every op's output is
checked against ground truth the generator derives without ontodesc, and
against digests recorded at the seed commit (golden.json); a failed
check counts in fail_ratio and makes the command exit 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced for a
third of the time (the baseline of trace.overhead_ratio), then with spans
around every layer boundary, and prints the per-layer metrics per timed
op; the spans go to .bench_out/ as gzipped TSV.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import worlds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

VARIANTS = 16  # --seed selects input variant seed % 16; golden.json covers each
MIN_OPS = 100  # timed ops per untraced run, so ten samples lie beyond p90
TRACE_MIN_OPS = 20  # per phase of a traced run
WARMUP_OPS = 2
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
MAX_MEASURE_S = 120.0  # hard stop for a slow machine, well inside 180 s
GOLDEN_OPS = 40  # patrol lines under the recorded trace digest; every run makes more

SIZES = {"patrol": (32, 0, 1), "reachable": (128, 128, 64), "load": (128, 128, 64)}
QUICK_SIZE = (4, 3, 2)  # what the benchmark's own test runs

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (sources missing, bad arguments)."""


def golden_key(workload: str, world: worlds.World) -> str:
    return f"{workload} n={world.n} k={world.k} m={world.m} variant={world.seed}"


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads: set_up() is timed as set-up, op() is the timed op, check()
# runs after the timer stops and returns a problem or None


class Workload:
    inferred = 0  # inferred axioms of the generated world, once reasoned

    def set_up(self):
        """Parse and reason the world once; ops then run on it."""
        from ontodesc import reasoner, scenarios, syntax

        self.scenarios = scenarios
        self.onto = syntax.parse(self.world.text)
        self.inferred = len(reasoner.reason(self.onto).inferred)

    def unchecked(self) -> str | None:
        """A check the run ended too early to make."""
        return None

    def close(self) -> None:
        pass


class Patrol(Workload):
    def __init__(self, world: worlds.World, golden: dict):
        self.world = world
        self.golden = golden.get(golden_key("patrol", world))
        self.seeds = random.Random(f"patrol-{world.seed}")
        self.location = world.robots["Robot1"]
        self.lines: list[str] = []

    def op(self):
        op_seed = self.seeds.getrandbits(63)
        config = self.scenarios.PatrolConfig(steps=1, seed=op_seed)
        return op_seed, self.scenarios.patrol(self.onto, config)

    def check(self, result) -> str | None:
        op_seed, steps = result
        expected, destination = worlds.patrol_step(self.world, self.location, op_seed)
        self.location = destination
        if len(steps) != 1:
            return f"patrol returned {len(steps)} steps"
        step = steps[0]
        self.lines.append(step.line())
        if len(self.lines) == GOLDEN_OPS and self.golden is not None:
            if digest("\n".join(self.lines)) != self.golden:
                return "trace digest differs from the one recorded at the seed commit"
        if not step.consistent:
            return f"inconsistent world after {step.line()}"
        if step.position_count != 1:
            return f"robot has {step.position_count} positions"
        if step.destination not in self.world.door_map.get(step.crossed, ()):
            return f"{step.destination} does not hold {step.crossed}"
        if step.line() != expected:
            return f"step {step.line()!r}, expected {expected!r}"
        return None

    def unchecked(self) -> str | None:
        if self.golden is not None and len(self.lines) < GOLDEN_OPS:
            return f"fewer than {GOLDEN_OPS} ops: recorded trace digest not checked"
        return None


class Reachable(Workload):
    def __init__(self, world: worlds.World, golden: dict):
        self.world = world
        self.choices = random.Random(f"reachable-{world.seed}")
        self.robots = sorted(world.robots)

    def op(self):
        robot = self.choices.choice(self.robots)
        return robot, self.scenarios.reachable_leaf_places(self.onto, robot)

    def check(self, result) -> str | None:
        robot, pairs = result
        expected = [tuple(p) for p in self.world.leaf_pairs[self.world.robots[robot]]]
        if pairs != expected:
            return f"{robot}: pairs {pairs}, expected {expected}"
        return None


class Load(Workload):
    def __init__(self, world: worlds.World, golden: dict):
        self.world = world
        self.golden = golden.get(golden_key("load", world))
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"load-world-{os.getpid()}.onto"
        self.path.write_text(world.text, encoding="utf-8")
        self.argv = ["serialize", "--entailed", "--ontology", str(self.path)]
        self.verified: set[str] = set()
        self.first = None

    def set_up(self):
        from ontodesc import cli

        self.cli = cli

    def op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        seen = digest(text)
        self.first = self.first or seen
        if seen != (self.golden or self.first):
            return "output digest differs from the one recorded at the seed commit"
        if seen not in self.verified:
            problem = self._round_trip(text)
            if problem:
                return problem
            self.verified.add(seen)
        return None

    def _round_trip(self, text: str) -> str | None:
        from ontodesc import syntax

        lines = text.splitlines(keepends=True)
        asserted = "".join(line for line in lines if not line.startswith("# inferred: "))
        self.inferred = len(lines) - len(asserted.splitlines())
        if syntax.serialize(syntax.parse(asserted)) != asserted:
            return "re-parsing and re-serializing the asserted part changes its bytes"
        return None

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {"patrol": Patrol, "reachable": Reachable, "load": Load}


# ---------------------------------------------------------------------------
# timing

# On a shared machine the speed of memory-heavy Python can drift 2-3x over
# seconds (other tenants share caches and memory bandwidth), so every
# timing is scaled to a reference speed: multiplied by CAL_REF_S over the
# median time a fixed kernel took in the samples taken around it.  Scaled
# times are what the metrics report.
CAL_REF_S = 0.002


@dataclass(frozen=True)
class _Atom:
    kind: int
    name: str


_CAL_ATOMS = [_Atom(i % 7, f"x{i}") for i in range(4000)]


def calibrate() -> float:
    """Seconds the calibration kernel takes now, best of two.

    The kernel builds and probes a set of pairs of frozen dataclasses: the
    hashing, set and generator work ontodesc's stores and reasoner do, and
    none of ontodesc's code.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        pairs = set(zip(_CAL_ATOMS, _CAL_ATOMS[1:]))
        sum(1 for a, b in pairs if a.kind == 3 and (b, a) not in pairs)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(elapsed: float, cals: list[float]) -> float:
    """`elapsed` at the reference speed, given kernel times taken around it."""
    return elapsed * CAL_REF_S / statistics.median(cals)


# ---------------------------------------------------------------------------
# running


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, tracer=None) -> float:
        gc.collect()
        problem = None
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = self.workload.op()
        except Exception as exc:  # a raising op is a failed op, counted below
            result, problem = None, f"raised {exc!r}"
            if len(self.failures) < 5:
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if problem is None:
            problem = self.workload.check(result)
        self.settle(problem)
        return elapsed

    def settle(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
            if len(self.failures) <= 5:
                print(f"FAILED op {self.attempted}: {problem}", file=sys.stderr)

    def measure(self, seconds: float, min_ops: int, tracer=None) -> tuple[list, list]:
        """Timed ops for `seconds` (and at least `min_ops`): wall and scaled."""
        wall: list[float] = []
        cals = [calibrate()]
        start = time.perf_counter()
        while True:
            spent = time.perf_counter() - start
            if (spent >= seconds and len(wall) >= min_ops) or spent >= MAX_MEASURE_S:
                break
            wall.append(self.one(tracer))
            cals.append(calibrate())
        print(f"calibration median {statistics.median(cals) * 1e3:.6g} ms")
        # op i ran between kernel samples i and i + 1; two more on each side
        # smooth the kernel's own noise, and the drift is slower than that
        return wall, [scaled(t, cals[max(0, i - 2) : i + 4]) for i, t in enumerate(wall)]


def set_up(workload) -> tuple[float, list]:
    """Import ontodesc, run the workload's set-up and the warm-up ops.

    Returns the time, scaled, from the first ontodesc import to the point
    the first timed op may start, and the warm-up results (checked later, so
    checking costs no set-up time).
    """
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    import ontodesc  # noqa: F401  (the first ontodesc import)

    workload.set_up()
    warm = []
    for _ in range(WARMUP_OPS):
        try:
            warm.append((workload.op(), None))
        except Exception as exc:  # counted as a failed op once set-up is timed
            traceback.print_exc()
            warm.append((None, f"raised {exc!r}"))
    elapsed = time.perf_counter() - start
    return scaled(elapsed, [before, calibrate()]), warm


def probe_setup(args) -> float:
    """Set-up time measured in a fresh process running this file."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--probe-setup",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    if args.size:
        cmd += ["--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")


def build_world(args) -> worlds.World:
    if args.size:
        try:
            n, k, m = (int(x) for x in args.size.split(","))
        except ValueError:
            raise BenchError("--size takes N,K,M") from None
    else:
        n, k, m = SIZES[args.workload]
    return worlds.generate(n, k, m, seed=args.seed % VARIANTS)


def run(args) -> int:
    if not (SRC / "ontodesc" / "__init__.py").is_file():
        raise BenchError(f"ontodesc sources not found under {SRC}")
    if not worlds.SEED_WORLD.is_file():
        raise BenchError(f"seed world not found at {worlds.SEED_WORLD}")
    world = build_world(args)
    workload = WORKLOADS[args.workload](world, load_golden())
    try:
        if args.probe_setup:
            print(set_up(workload)[0])
            return 0
        probes = [] if args.trace else [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        setup_s, warm = set_up(workload)
        job = Run(workload)
        for result, problem in warm:
            job.settle(problem or workload.check(result))

        print(f"python {platform.python_version()} {platform.machine()} nproc={os.cpu_count()}")
        print(f"workload {args.workload} seed={args.seed} variant={world.seed}")
        print(
            f"world n={world.n} k={world.k} m={world.m} bytes={world.size_bytes} "
            f"asserted={world.asserted} inferred={workload.inferred}"
        )

        if args.trace:
            plain = job.measure(args.seconds / 3, TRACE_MIN_OPS)[1]
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, traced = job.measure(args.seconds * 2 / 3, TRACE_MIN_OPS, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) / statistics.median(plain)
            metrics = tracer.summary(len(traced), overhead, sum(traced) / sum(traced_wall))
            units = tracing.METRICS
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            print(f"timed ops: {len(plain)} untraced, {len(traced)} traced")
        else:
            wall, times = job.measure(args.seconds, MIN_OPS)
            metrics = {
                "setup_s": statistics.median(probes + [setup_s]),
                "op_p50_ms": statistics.median(times) * 1e3,
                "op_p90_ms": percentile(times, 90) * 1e3,
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"timed ops: {len(times)}; set-up samples: {len(probes) + 1}")
            print(f"unscaled wall time: op_p50 {statistics.median(wall) * 1e3:.6g} ms, "
                  f"op_p90 {percentile(wall, 90) * 1e3:.6g} ms")
        unchecked = workload.unchecked()
        if unchecked:
            job.failures.append(unchecked)
    finally:
        workload.close()

    fail_ratio = len(job.failures) / job.attempted
    emit(metrics, units)
    print(f"fail_ratio {fail_ratio:.6g} ratio")
    correct = not job.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": job.attempted,
                "failed": len(job.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", help="N,K,M world size instead of the workload's (quick checks)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be unsigned")
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
