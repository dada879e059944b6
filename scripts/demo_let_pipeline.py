#!/usr/bin/env python3
"""Walk the bundled let-language pipeline end to end on one program.

Prints the parsed program, its declared names, scope errors from both
analyses, the optimized form under each traversal scheme, and the
evaluation results before and after.  It ends as the CLI does, under
``zipstrat.cli.run``.
"""

from __future__ import annotations

import argparse
import sys

from zipstrat import letlang as L
from zipstrat.cli import positive_int, run
from zipstrat.strategies import DEFAULT_FUEL, SCHEMES
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
    sys.exit(run(lambda: _run(args)))


def _run(args: argparse.Namespace) -> int:
    if args.program:
        with open(args.program, encoding="utf-8") as handle:
            source = handle.read()
    else:
        source = DEFAULT_PROGRAM
    root = L.parse(source)
    z = L.root_zipper(root)

    print("== program ==")
    print(L.pretty(root))
    print()
    print("declared names:", ", ".join(L.names(z)) or "(none)")
    print("errors (attribute):", L.errors_ag(z))
    print("errors (strategic):", L.errors_strategic(z))
    print("value:", L.eval_program(root))
    print()

    for name in SCHEMES:
        out = from_zipper(L.optimize_program(L.root_zipper(root), args.fuel, name))
        print(f"== optimized, {name} ==")
        print(L.pretty(out))
        print("value:", L.eval_program(out))
        print()
    return 0


if __name__ == "__main__":
    main()
