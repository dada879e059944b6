"""Batch command-line driver for the bundled languages.

Subcommands::

    zipstrat let names      declared names, one per line, in source order
    zipstrat let check      scope errors, one per line; exit 2 when any
    zipstrat let opt        optimize (all seven rules) under a chosen strategy
    zipstrat let pretty     reprint in canonical layout
    zipstrat smell fix      rewrite a mini-language expression smell-free

One function, :func:`_run_command`, reads and parses the input, hands the tree to
the subcommand's handler (one library call each) and prints what it returns.
Input, from a file or standard input, must be UTF-8.  Exit codes: 0 success,
1 syntax error, unreadable input or output that cannot be written (a closed
pipe or standard stream, or text the output encoding cannot represent), 2 scope
errors, 3 rewrite budget exhausted, 4 input nested too deeply (a let expression
past ``lexing.MAX_DEPTH`` pending parentheses and operators, or a smell expression
past ``MAX_DEPTH`` nested brackets, applications and ifs, each reported with its
line:col, or any tree past the Python stack), 5 usage error (a bad option or
argument), 6 out of memory.
Diagnostics go to standard error, one line each (see :func:`run`, which the demo uses too).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import letlang, smells
from .lexing import DepthError, ParseError
from .strategies import DEFAULT_FUEL, SCHEMES, FuelExhaustedError
from .zipper import export_json, from_zipper

#: The recursion limit :func:`run` sets while its task runs.  The smell parser and
#: printers take up to two frames per level of an expression at the nesting limit, and
#: the traversals one per declaration of a let block: ``let names``/``check``/``opt``
#: take a block of 28,000 declarations under this limit, with room for the CLI's caller.
RECURSION_LIMIT = 31_000

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
        if stdin is None:
            raise OSError("cannot read input: standard input is closed")
        return stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    options = {
        "--strategy": dict(choices=SCHEMES, default="innermost",
                           help="traversal scheme driving the rules (default: innermost)"),
        "--fuel": dict(type=positive_int, default=DEFAULT_FUEL, metavar="N",
                       help="maximum number of rewrites, under every strategy"
                       f" (default: {DEFAULT_FUEL})"),
        "--output": dict(choices=["text", "ast"], default="text",
                         help="print concrete syntax or the structured AST (default: text)"),
    }
    # Built per call, so a function patched on its module is the one that runs.
    table = [
        ("let", "operate on let programs", (letlang.parse, letlang.LANG, letlang.pretty), [
            ("names", "list declared names in source order", _cmd_let_names, []),
            ("check", "report scope errors", _cmd_let_check, []),
            ("opt", "optimize a program", _cmd_let_opt, ["--strategy", "--fuel", "--output"]),
            ("pretty", "reprint in canonical layout", _cmd_let_pretty, ["--output"]),
        ]),
        ("smell", "operate on mini-language expressions",
         (smells.parse_m, smells.LANG, smells.pretty_m), [
            ("fix", "rewrite an expression smell-free", _cmd_smell_fix, ["--fuel", "--output"]),
        ]),
    ]
    parser = _Parser(prog="zipstrat", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command, help_text, language, subcommands in table:
        group = commands.add_parser(command, help=help_text)
        sub = group.add_subparsers(dest="subcommand", required=True)
        for name, help_text, handler, flags in subcommands:
            p = sub.add_parser(name, help=help_text)
            p.add_argument(
                "--input", default="-", metavar="PATH|-", help="input file, or - for stdin (default)"
            )
            for flag in flags:
                p.add_argument(flag, **options[flag])
            p.set_defaults(handler=handler, language=language)
    return parser


def _cmd_let_names(args: argparse.Namespace, root: letlang.Root) -> tuple[list[str], int]:
    return letlang.names(letlang.root_zipper(root)), EXIT_OK


def _cmd_let_check(args: argparse.Namespace, root: letlang.Root) -> tuple[list[str], int]:
    errors = letlang.errors_strategic(letlang.root_zipper(root))
    return errors, EXIT_SCOPE if errors else EXIT_OK


def _cmd_let_opt(args: argparse.Namespace, root: letlang.Root) -> tuple[letlang.Root, int]:
    optimized = letlang.optimize_program(letlang.root_zipper(root), args.fuel, args.strategy)
    return from_zipper(optimized), EXIT_OK


def _cmd_let_pretty(args: argparse.Namespace, root: letlang.Root) -> tuple[letlang.Root, int]:
    return root, EXIT_OK


def _cmd_smell_fix(args: argparse.Namespace, e: smells.MExp) -> tuple[smells.MExp, int]:
    return from_zipper(smells.smell_elim(smells.mexp_zipper(e), args.fuel)), EXIT_OK


def _run_command(args: argparse.Namespace) -> int:
    """Read ``--input``, parse it in the command's language, run the handler
    on the tree, and print what it returns: lines, or a tree as text or AST."""
    parse, lang, to_text = args.language
    value, code = args.handler(args, parse(_read_input(args.input)))
    lines = value if isinstance(value, list) else [
        export_json(value, lang) if args.output == "ast" else to_text(value)]
    if lines and sys.stdout is None:
        raise OSError("cannot write output: standard output is closed")
    for line in lines:
        print(line)
    return code


def run(task: Callable[[], int]) -> int:
    """Run ``task`` under :data:`RECURSION_LIMIT`, then restore the caller's limit.
    Return its exit code; what it raises becomes a listed exit code and one stderr line."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
    try:
        return task()
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(lambda: _run_command(args))


if __name__ == "__main__":
    sys.exit(main())
