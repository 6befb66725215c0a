"""Command line front end.

Subcommands:

* reason     - saturate and report consistency, inferred counts, violations
* query      - list entailed types / instances / property fillers
* serialize  - print the world in canonical text form (--entailed adds
               inferred axioms as comment lines)
* example1   - categorize a new location joined through a shared door
* reachable  - leaf-classed locations connected to the robot's own
* patrol     - seeded random walk writing door states and robot moves

Every command reads the packaged seed world unless --ontology points at
a file.  example1 additionally saves the updated world back to that
file, so flows can be chained.  Output is plain text, one record per
line, deterministic for a fixed (file, flags, seed).

reason, query and serialize load only the store, text and reasoner
layers; the three flow commands import the scenarios module, and with
it the descriptor layer, when they run.

Exit codes: 0 ok, 1 parse error or i/o error (an ontology file that
cannot be read, such as a missing file, a directory or a file that is
not UTF-8 text, which prints "cannot read ontology: ...", or a failed
example1 save, which leaves the file as it was and prints nothing to
stdout: a failed write prints "i/o error: ...", a new name the parser
would not read back as itself, such as New#1, fails the save, and the
store refuses a new name that is not UTF-8, such as one whose argv
bytes end in 0xff), 2 unknown entity, a name of the wrong kind (such
as example1 ROOM Corridor1 Door3, whose new location names a class) or
a usage error (such as patrol --steps 0 or --seed -1), 3 inconsistent
world, 4 missing filler (no position or no door).  Every exit but 0
leaves an --ontology file as it was.

main() runs the command with the cyclic garbage collector paused, and
turns it back on when the command ends, however it ends, if it was on
before.  A world is acyclic: its store, entities, axioms and Closure
refer to one another through plain maps and weak references, so
reference counting frees all of it when the command returns, and a
collection in between finds nothing to free.  argparse's help formatter
makes cyclic garbage, so parsing the arguments stays outside the pause.
No library module touches the collector: a library call leaves it as
its caller set it.  A program that embeds ontodesc can pause it the
same way around its own calls.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from collections import Counter
from pathlib import Path

from .model import Kind, KindClash, KindMismatch, OntologyError, UnknownEntity
from .reasoner import reason
from .syntax import ParseError, load_world, render_axiom, render_term, serialize

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNKNOWN = 2
EXIT_INCONSISTENT = 3
EXIT_NO_FILLER = 4


def _cmd_reason(args) -> int:
    onto = load_world(args.ontology)
    closure = reason(onto)
    print("consistent" if closure.consistent else "inconsistent")
    counts = Counter()
    for tag, _, tails in closure.inferred_groups():
        counts[tag.value] += len(tails)
    for tag, count in sorted(counts.items()):
        print(f"inferred {tag} {count}")
    for violation in closure.violations:
        axioms = "; ".join(render_axiom(a) for a in violation.axioms)
        print(f"violation {violation.rule}: {axioms}")
    return EXIT_OK if closure.consistent else EXIT_INCONSISTENT


def _cmd_query(args) -> int:
    arity = 2 if args.what == "fillers" else 1
    if len(args.names) != arity:
        got = f"{args.what} takes {arity} name(s), got {len(args.names)}"
        print(f"wrong number of names: {got}", file=sys.stderr)
        return EXIT_UNKNOWN
    onto = load_world(args.ontology)
    closure = reason(onto)
    if args.what == "types":
        entity = onto.lookup(args.names[0])
        _expect_kind(entity, Kind.INDIVIDUAL)
        lines = sorted(c.iri for c in closure.types_of(entity))
    elif args.what == "instances":
        entity = onto.lookup(args.names[0])
        _expect_kind(entity, Kind.CLASS)
        lines = sorted(i.iri for i in closure.instances_of(entity))
    else:
        subject = onto.lookup(args.names[0])
        prop = onto.lookup(args.names[1])
        _expect_kind(subject, Kind.INDIVIDUAL)
        if prop.kind not in (Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY):
            raise KindMismatch(f"{prop.iri} is not a property")
        lines = sorted(render_term(f) for f in closure.fillers(subject, prop))
    for line in lines:
        print(line)
    return EXIT_OK


def _expect_kind(entity, kind: Kind) -> None:
    if entity.kind is not kind:
        raise KindMismatch(f"{entity.iri} is a {entity.kind.value}, expected {kind.value}")


def _cmd_serialize(args) -> int:
    onto = load_world(args.ontology)
    if args.entailed:
        reason(onto)
    sys.stdout.write(serialize(onto, include_inferred=args.entailed))
    return EXIT_OK


def _flow(command):
    """A flow command, called as command(scenarios, args): the scenarios
    module loads only when it runs, and its errors exit 3 and 4."""

    def run(args) -> int:
        from . import scenarios

        try:
            return command(scenarios, args)
        except scenarios.NoFiller as exc:
            print(f"missing filler: {exc}", file=sys.stderr)
            return EXIT_NO_FILLER
        except scenarios.ScenarioError as exc:
            print(f"inconsistent world: {exc}", file=sys.stderr)
            return EXIT_INCONSISTENT

    return run


@_flow
def _cmd_example1(scenarios, args) -> int:
    onto = load_world(args.ontology)
    types = scenarios.categorize_new_location(
        onto, args.new_location, args.connected_location, args.door
    )
    if args.ontology is not None:  # print nothing unless the new location is saved
        try:
            _replace_file(Path(args.ontology), serialize(onto))
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    for iri in types:
        print(iri)
    return EXIT_OK


def _replace_file(path: Path, text: str) -> None:
    """Write `text` to `path` so that readers see the old or the new file, whole."""
    import shutil
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@_flow
def _cmd_reachable(scenarios, args) -> int:
    onto = load_world(args.ontology)
    robot = scenarios.ROBOT if args.robot is None else args.robot
    for individual, cls in scenarios.reachable_leaf_places(onto, robot):
        print(f"{individual} {cls}")
    return EXIT_OK


@_flow
def _cmd_patrol(scenarios, args) -> int:
    onto = load_world(args.ontology)
    config = scenarios.PatrolConfig(steps=args.steps, seed=args.seed)
    for step in scenarios.patrol(onto, config):
        print(step.line())
        if not step.consistent:
            return EXIT_INCONSISTENT
    return EXIT_OK


def _bounded_int(least: int, what: str):
    """An argparse type: an integer >= least, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what} integer")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontodesc",
        description="Descriptor-based ontology toolkit over the packaged seed world.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--ontology",
        metavar="PATH",
        default=None,
        help="ontology file to load (default: the packaged seed world)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reason", parents=[common], help="saturate and report")
    p.set_defaults(func=_cmd_reason)

    p = sub.add_parser("query", parents=[common], help="list entailed facts")
    p.add_argument("what", choices=["types", "instances", "fillers"])
    p.add_argument("names", nargs="+", metavar="NAME")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serialize", parents=[common], help="print canonical text")
    p.add_argument(
        "--entailed",
        action="store_true",
        help="append inferred axioms as comment lines",
    )
    p.set_defaults(func=_cmd_serialize)

    p = sub.add_parser(
        "example1", parents=[common], help="categorize a new location joined by a door"
    )
    p.add_argument("new_location")
    p.add_argument("connected_location")
    p.add_argument("door")
    p.set_defaults(func=_cmd_example1)

    p = sub.add_parser("reachable", parents=[common], help="reachable leaf places")
    p.add_argument("robot", nargs="?")
    p.set_defaults(func=_cmd_reachable)

    p = sub.add_parser("patrol", parents=[common], help="seeded door-to-door walk")
    p.add_argument("--steps", type=_bounded_int(1, "a positive"), default=20)
    p.add_argument("--seed", type=_bounded_int(0, "an unsigned"), default=7)
    p.set_defaults(func=_cmd_patrol)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s tree, built on the first call in a process and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command makes no reference cycles; see the module docstring
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # reading --ontology: example1's save reports its own
        print(f"cannot read ontology: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        text = f"{args.ontology} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        print(f"cannot read ontology: {text}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownEntity as exc:
        print(f"unknown entity: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (KindMismatch, KindClash) as exc:
        print(f"wrong entity kind: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except OntologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
