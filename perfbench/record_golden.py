"""Record golden.json: the outputs the benchmark's checks compare against.

For every input variant it stores the sha256 of the first GOLDEN_OPS
patrol trace lines and of the load workload's serialize output, at the
workloads' sizes and at the quick size the benchmark's test uses.  The
file was written by running this at the seed commit; re-record only at
a commit whose outputs are known to be right, since the checks trust it.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys

import run
import worlds


def record() -> dict:
    golden = {}
    for name, cls in (("patrol", run.Patrol), ("load", run.Load)):
        for size in (run.SIZES[name], run.QUICK_SIZE):
            for variant in range(run.VARIANTS):
                world = worlds.generate(*size, seed=variant)
                workload = cls(world, {})
                try:
                    workload.set_up()
                    ops = run.GOLDEN_OPS if name == "patrol" else 1
                    for _ in range(ops):
                        result = workload.op()
                        problem = workload.check(result)
                        if problem:
                            raise SystemExit(f"{run.golden_key(name, world)}: {problem}")
                finally:
                    workload.close()
                text = "\n".join(workload.lines) if name == "patrol" else result[1]
                golden[run.golden_key(name, world)] = run.digest(text)
                print(run.golden_key(name, world), file=sys.stderr)
    return golden


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    run.GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
