#!/usr/bin/env python3
"""Walk the bundled let-language pipeline end to end on one program.

Prints the parsed program, its declared names, scope errors from both
analyses, the optimized form under each traversal scheme, and the
evaluation results before and after.
"""

from __future__ import annotations

import argparse
import sys

from zipstrat import letlang as L
from zipstrat.cli import DEFAULT_FUEL, RECURSION_LIMIT, positive_int
from zipstrat.strategies import SCHEMES, apply_tp, scheme
from zipstrat.zipper import from_zipper

DEFAULT_PROGRAM = """\
let a = b + 0
  c = 2
  b = let c = 3
  in c + c
in a + 7 - c
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", help="source file (default: the running example)")
    parser.add_argument("--fuel", type=positive_int, default=DEFAULT_FUEL)
    args = parser.parse_args()
    # Parsing, evaluation and rewriting recurse along the tree, as under the CLI.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    try:
        _run(parser, args)
    except RecursionError:
        parser.error("input nested too deeply")


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    try:
        if args.program:
            with open(args.program, encoding="utf-8") as handle:
                source = handle.read()
        else:
            source = DEFAULT_PROGRAM
        root = L.parse(source)
    except OSError as exc:
        parser.error(str(exc))
    except (UnicodeError, L.ParseError) as exc:
        parser.error(f"{args.program}: {exc}")
    z = L.root_zipper(root)

    print("== program ==")
    print(L.pretty(root))
    print()
    print("declared names:", ", ".join(L.names(z)) or "(none)")
    print("errors (attribute):", L.errors_ag(z))
    print("errors (strategic):", L.errors_strategic(z))
    print("value:", L.eval_program(root))
    print()

    step = L.program_step()
    for name in SCHEMES:
        strategy = scheme(name, step, args.fuel)
        out = from_zipper(apply_tp(strategy, L.root_zipper(root)))
        print(f"== optimized, {name} ==")
        print(L.pretty(out))
        print("value:", L.eval_program(out))
        print()


if __name__ == "__main__":
    main()
