"""Batch command-line driver for the bundled languages.

Subcommands::

    zipstrat let names      declared names, one per line, in source order
    zipstrat let check      scope errors, one per line; exit 2 when any
    zipstrat let opt        optimize (all seven rules) under a chosen strategy
    zipstrat let pretty     reprint in canonical layout
    zipstrat smell fix      rewrite a mini-language expression smell-free

Input, from a file or standard input, must be UTF-8.  Exit codes: 0 success,
1 syntax error, unreadable input or output that cannot be written (a closed
pipe, or text the output encoding cannot represent), 2 scope errors, 3 rewrite
budget exhausted, 4 input nested too deeply (a let expression past
``lexing.MAX_DEPTH`` pending parentheses and operators, reported with its
line:col, or any tree past the Python stack), 5 usage error (a bad option or
argument), 6 out of memory.
Diagnostics go to standard error, one line each.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from . import letlang, smells
from .lexing import DepthError, ParseError
from .strategies import SCHEMES, FuelExhaustedError, apply_tp, scheme
from .zipper import export_json, from_zipper

DEFAULT_FUEL = 1_000_000

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_SCOPE = 2
EXIT_FUEL = 3
EXIT_DEPTH = 4
EXIT_USAGE = 5
EXIT_MEMORY = 6


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line with :data:`EXIT_USAGE`.

    Subparsers are made of the same class (``add_subparsers`` defaults its
    ``parser_class`` to the parent's type), so they report the same way.
    """

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"zipstrat: error: {message}\n")


def _read_input(path: str) -> str:
    if path == "-":
        # Decode the bytes strictly, as for a file: stdin's text layer may escape
        # undecodable bytes, by locale.  A text stream put in its place is read as is.
        stdin = sys.stdin
        return stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be >= 1")
    return value


def _add_common(parser: argparse.ArgumentParser, *, strategy: bool, fuel: bool, output: bool):
    parser.add_argument(
        "--input", default="-", metavar="PATH|-", help="input file, or - for stdin (default)"
    )
    if strategy:
        parser.add_argument(
            "--strategy",
            choices=SCHEMES,
            default="innermost",
            help="traversal scheme driving the rules (default: innermost)",
        )
    if fuel:
        parser.add_argument(
            "--fuel",
            type=positive_int,
            default=DEFAULT_FUEL,
            metavar="N",
            help=f"maximum number of rewrites, under every strategy (default: {DEFAULT_FUEL})",
        )
    if output:
        parser.add_argument(
            "--output",
            choices=["text", "ast"],
            default="text",
            help="print concrete syntax or the structured AST (default: text)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zipstrat", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    let_cmd = commands.add_parser("let", help="operate on let programs")
    let_sub = let_cmd.add_subparsers(dest="subcommand", required=True)

    p = let_sub.add_parser("names", help="list declared names in source order")
    _add_common(p, strategy=False, fuel=False, output=False)
    p.set_defaults(handler=_cmd_let_names)

    p = let_sub.add_parser("check", help="report scope errors")
    _add_common(p, strategy=False, fuel=False, output=False)
    p.set_defaults(handler=_cmd_let_check)

    p = let_sub.add_parser("opt", help="optimize a program")
    _add_common(p, strategy=True, fuel=True, output=True)
    p.set_defaults(handler=_cmd_let_opt)

    p = let_sub.add_parser("pretty", help="reprint in canonical layout")
    _add_common(p, strategy=False, fuel=False, output=True)
    p.set_defaults(handler=_cmd_let_pretty)

    smell_cmd = commands.add_parser("smell", help="operate on mini-language expressions")
    smell_sub = smell_cmd.add_subparsers(dest="subcommand", required=True)

    p = smell_sub.add_parser("fix", help="rewrite an expression smell-free")
    _add_common(p, strategy=False, fuel=True, output=True)
    p.set_defaults(handler=_cmd_smell_fix)

    return parser


def _emit_tree(args: argparse.Namespace, value: Any, lang, to_text) -> None:
    if args.output == "ast":
        print(export_json(value, lang))
    else:
        print(to_text(value))


def _cmd_let_names(args: argparse.Namespace) -> int:
    root = letlang.parse(_read_input(args.input))
    for name in letlang.names(letlang.root_zipper(root)):
        print(name)
    return EXIT_OK


def _cmd_let_check(args: argparse.Namespace) -> int:
    root = letlang.parse(_read_input(args.input))
    errors = letlang.errors_strategic(letlang.root_zipper(root))
    for name in errors:
        print(name)
    return EXIT_SCOPE if errors else EXIT_OK


def _cmd_let_opt(args: argparse.Namespace) -> int:
    root = letlang.parse(_read_input(args.input))
    strategy = scheme(args.strategy, letlang.program_step(), args.fuel)
    optimized = from_zipper(apply_tp(strategy, letlang.root_zipper(root)))
    _emit_tree(args, optimized, letlang.LANG, letlang.pretty)
    return EXIT_OK


def _cmd_let_pretty(args: argparse.Namespace) -> int:
    root = letlang.parse(_read_input(args.input))
    _emit_tree(args, root, letlang.LANG, letlang.pretty)
    return EXIT_OK


def _cmd_smell_fix(args: argparse.Namespace) -> int:
    e = smells.parse_m(_read_input(args.input))
    fixed = smells.eliminate_smells(e, args.fuel)
    _emit_tree(args, fixed, smells.LANG, smells.pretty_m)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # Attribute evaluation and traversal recurse along the tree; allow deep inputs
    # while this command runs, and hand the caller back its own limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except DepthError as exc:
        print(f"input nested too deeply: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except FuelExhaustedError as exc:
        print(f"rewrite budget exhausted: {exc}", file=sys.stderr)
        return EXIT_FUEL
    except (OSError, UnicodeError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SYNTAX
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return EXIT_DEPTH
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_MEMORY
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
