#!/usr/bin/env python3
"""Run the three packaged flows end to end and print their traces.

Starts from the packaged seed world each time: first the new-location
categorization, then the reachability listing (before and after the new
location joins), then a seeded patrol.  Everything is deterministic for
a fixed seed, so two invocations print identical text.
"""

import argparse
import time

from ontodesc.cli import _bounded_int
from ontodesc.reasoner import reason
from ontodesc.scenarios import (
    PatrolConfig,
    categorize_new_location,
    patrol,
    reachable_leaf_places,
)
from ontodesc.syntax import load_seed, serialize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_bounded_int(0, "an unsigned"), default=7, help="patrol RNG seed")
    parser.add_argument("--steps", type=_bounded_int(1, "a positive"), default=20, help="patrol length")
    parser.add_argument(
        "--dump", action="store_true", help="print the final world in canonical text"
    )
    args = parser.parse_args()

    started = time.perf_counter()

    print("== reachable from the seed world ==")
    onto = load_seed()
    for individual, cls in reachable_leaf_places(onto):
        print(f"  {individual} {cls}")

    print("== categorize Location3 (shares Door3 with Corridor1) ==")
    types = categorize_new_location(onto, "Location3", "Corridor1", "Door3")
    print(f"  Location3 is: {' '.join(types)}")

    print("== reachable after the join ==")
    for individual, cls in reachable_leaf_places(onto):
        print(f"  {individual} {cls}")

    print(f"== patrol: {args.steps} steps, seed {args.seed} ==")
    walker = load_seed()
    trace = patrol(walker, PatrolConfig(steps=args.steps, seed=args.seed))
    for step in trace:
        print(f"  {step.line()}")
    bad = [step.index for step in trace if not step.consistent]
    print(f"  consistent at every step: {not bad}")

    if args.dump:
        reason(walker)
        print("== final patrol world ==")
        print(serialize(walker, include_inferred=True))

    print(f"done in {time.perf_counter() - started:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
