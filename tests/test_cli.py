"""Exit codes and golden outputs for every CLI subcommand."""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as hst

from generators import let_programs, mexps, random_program
from programs import (ERRORS_SOURCE, RUNNING_SOURCE, SHAPES, brackets_source, flat_source,
                      minus_source, parens_source, rev_source, smell_nest)
from zipstrat import cli, letlang, smells, strategies
from zipstrat.cli import main
from zipstrat.lexing import MAX_DEPTH
from zipstrat.zipper import export_ast, export_json, import_json

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def source_file(tmp_path):
    def write(text):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_let_names(capsys, source_file):
    code, out, err = run(capsys, ["let", "names", "--input", source_file(RUNNING_SOURCE)])
    assert code == 0
    assert out == "a\nc\nb\nc\n"
    assert err == ""


def test_let_names_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["let", "names"], stdin="let a = 1 in a", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "a\n"


def test_let_check_reports_errors(capsys, source_file):
    code, out, _ = run(capsys, ["let", "check", "--input", source_file(ERRORS_SOURCE)])
    assert code == 2
    assert out == "b\nb\nz\nc\n"


def test_let_check_clean(capsys, source_file):
    code, out, _ = run(capsys, ["let", "check", "--input", source_file("let a = 1 in a")])
    assert code == 0
    assert out == ""


def test_let_opt_innermost(capsys, source_file):
    code, out, _ = run(
        capsys,
        ["let", "opt", "--strategy", "innermost", "--input", source_file("let a = 1 in a + 0")],
    )
    assert code == 0
    assert out == "let a = 1\nin 1\n"


def test_let_opt_outermost(capsys, source_file):
    code, out, _ = run(
        capsys,
        ["let", "opt", "--strategy", "outermost", "--input", source_file("let a = 1 in a + 0")],
    )
    assert code == 0
    assert out == "let a = 1\nin 1\n"


def test_let_opt_full_td_single_sweep(capsys, source_file):
    # one sweep only: the body's addition collapses, but the variable it
    # exposes is a fresh node the sweep never revisits
    code, out, _ = run(
        capsys,
        ["let", "opt", "--strategy", "full-td", "--input", source_file("let a = 1 in a + 0")],
    )
    assert code == 0
    assert out == "let a = 1\nin a\n"


def test_let_opt_full_bu_no_redex(capsys, source_file):
    code, out, _ = run(
        capsys,
        ["let", "opt", "--strategy", "full-bu", "--input", source_file("let a = 1 in 2")],
    )
    assert code == 0
    assert out == "let a = 1\nin 2\n"


def test_let_opt_running_example(capsys, source_file):
    code, out, _ = run(capsys, ["let", "opt", "--input", source_file(RUNNING_SOURCE)])
    assert code == 0
    assert out == "let a = b\n  c = 2\n  b = let c = 3\n  in 6\nin b + 7 + -2\n"


def test_let_opt_fuel_exhausted(capsys, source_file):
    code, out, err = run(
        capsys,
        ["let", "opt", "--fuel", "3", "--input", source_file(RUNNING_SOURCE)],
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_let_opt_fuel_exhausted_says_where(capsys, source_file):
    # The fourth rewrite folds ``c + c``, by then ``3 + 3``, in the nested block.
    code, out, err = run(
        capsys,
        ["let", "opt", "--fuel", "3", "--input", source_file(RUNNING_SOURCE)],
    )
    assert code == 3
    assert out == ""
    assert err == (
        "rewrite budget exhausted: exceeded 3 rewrites without reaching a fixed point;"
        " rewrite 4 turned an Add into a Const at (0, 0, 2, 2, 1, 1)\n"
    )


def test_let_opt_fuel_exhausted_deep_gives_a_short_line(capsys, source_file):
    # A budget that runs out 3,000 levels down names the depth and the last few
    # indices, not one index per level.
    code, out, err = run(
        capsys,
        ["let", "opt", "--fuel", "1",
         "--input", source_file("let a = 1 in " + "-" * 3000 + "(a + 0)")],
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and len(err) <= 200
    assert err.startswith("rewrite budget exhausted: exceeded 1 rewrites")
    assert " at depth 3002, (..., " in err


def test_let_opt_full_td_obeys_the_fuel(capsys, source_file):
    code, out, err = run(
        capsys,
        ["let", "opt", "--strategy", "full-td", "--fuel", "100",
         "--input", source_file(rev_source(12))],
    )
    assert code == 3
    assert out == ""
    assert err.startswith("rewrite budget exhausted: exceeded 100 rewrites")
    assert err.count("\n") == 1


def test_out_of_memory_exits_6_in_one_line(capsys, monkeypatch, source_file):
    def exhausted(args, root):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_let_pretty", exhausted)
    code, out, err = run(capsys, ["let", "pretty", "--input", source_file("let a = 1 in a")])
    assert code == cli.EXIT_MEMORY == 6
    assert out == ""
    assert err == "out of memory\n"


def test_let_opt_ast_output(capsys, source_file):
    code, out, _ = run(
        capsys,
        ["let", "opt", "--output", "ast", "--input", source_file("let a = 1 in a + 0")],
    )
    assert code == 0
    assert out.endswith("\n")
    expected = export_ast(letlang.parse("let a = 1\nin 1"), letlang.LANG)
    assert json.loads(out) == expected


def test_let_pretty_canonicalizes(capsys, source_file):
    src = "let a = 1; b = a + 2 in a + b"
    code, out, _ = run(capsys, ["let", "pretty", "--input", source_file(src)])
    assert code == 0
    assert out == "let a = 1\n  b = a + 2\nin a + b\n"


def test_let_pretty_golden_roundtrip(capsys, source_file):
    code, out, _ = run(capsys, ["let", "pretty", "--input", source_file(RUNNING_SOURCE)])
    assert code == 0
    assert letlang.parse(out) == letlang.parse(RUNNING_SOURCE)
    # a second pass is a fixed point
    code2, out2, _ = run(capsys, ["let", "pretty", "--input", source_file(out)])
    assert code2 == 0
    assert out2 == out


def test_let_pretty_ast_bit_exact_roundtrip(capsys, source_file, tmp_path):
    code, out, _ = run(
        capsys, ["let", "pretty", "--output", "ast", "--input", source_file(RUNNING_SOURCE)]
    )
    assert code == 0
    root = letlang.parse(RUNNING_SOURCE)
    assert json.loads(out) == export_ast(root, letlang.LANG)
    from zipstrat.zipper import import_json

    assert import_json(out, letlang.LANG) == root


def test_let_syntax_error(capsys, source_file):
    code, out, err = run(capsys, ["let", "names", "--input", source_file("let in a")])
    assert code == 1
    assert out == ""
    assert "syntax error" in err


def test_smell_fix_boolean(capsys, monkeypatch):
    code, out, _ = run(capsys, ["smell", "fix"], stdin="x == True", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "x\n"


def test_smell_fix_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, ["smell", "fix"], stdin="y", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "y\n"


def test_smell_fix_cascade(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["smell", "fix"],
        stdin="if (length xs == 0) then True else False",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "null xs\n"


def test_smell_fix_ast_output(capsys, source_file):
    from zipstrat import smells

    code, out, _ = run(
        capsys, ["smell", "fix", "--output", "ast", "--input", source_file("[x] ++ xs")]
    )
    assert code == 0
    assert json.loads(out) == export_ast(smells.parse_m("x : xs"), smells.LANG)


def test_smell_fix_syntax_error(capsys, monkeypatch):
    code, out, err = run(capsys, ["smell", "fix"], stdin="[x ++", monkeypatch=monkeypatch)
    assert code == 1
    assert "syntax error" in err


def test_missing_file_reports_error(capsys):
    code, out, err = run(capsys, ["let", "names", "--input", "/nonexistent/input"])
    assert code == 1
    assert err != ""


def test_invalid_utf8_reports_error(capsys, tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["let", "pretty", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def run_process(argv, stdin: bytes, *, python: str = sys.executable, shell: str = "",
                **env_vars: str) -> subprocess.CompletedProcess:
    # Under the C locale, Python's own stdin escapes undecodable bytes.  A
    # ``shell`` redirection such as ``0<&-`` applies to the CLI's process.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LC_ALL": "C", **env_vars}
    wrap = ["sh", "-c", f'exec "$@" {shell}', "sh"] if shell else []
    return subprocess.run([*wrap, python, "-m", "zipstrat.cli", *argv], input=stdin,
                          capture_output=True, env=env, timeout=300)


def test_invalid_utf8_on_stdin_reports_error(capsys, tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe")
    _, _, from_file = run(capsys, ["let", "pretty", "--input", str(path)])
    done = run_process(["let", "pretty"], stdin=b"\xff\xfe")
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.decode() == from_file
    assert "can't decode" in from_file


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_a_byte_order_mark_is_dropped(capsys, monkeypatch, tmp_path, via):
    # As Windows Notepad saves UTF-8; line 1's columns count from after the mark.
    def run_bytes(argv, data):
        if via == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            return run(capsys, argv)
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        return run(capsys, [*argv, "--input", str(path)])

    mark = "\ufeff".encode()
    assert run_bytes(["let", "pretty"], mark + b"let a = 1 in a") == (0, "let a = 1\nin a\n", "")
    assert run_bytes(["smell", "fix"], mark + b"[x] ++ y") == (0, "x : y\n", "")
    assert run_bytes(["let", "pretty"], mark + b"let a = ) in a") == (
        1, "", "syntax error: 1:9: expected an expression, found ')'\n")


@pytest.mark.parametrize("argv, text, code, err", [
    (["let", "pretty"], "let a = ) $", 1, "syntax error: 1:9: expected an expression, found ')'"),
    (["smell", "fix"], "[1, ) $", 1, "syntax error: 1:5: expected an expression, found ')'"),
    (["let", "pretty"], "let a = " + "9" * 5_000 + " $", 1,
     "syntax error: 1:9: invalid integer literal of 5000 characters"),
    (["smell", "fix"], "[" * (MAX_DEPTH + 1) + "$", 4, "input nested too deeply: "
     f"1:{MAX_DEPTH + 1}: more than {MAX_DEPTH} nested brackets, applications and ifs"),
], ids=["let", "smell", "let-literal", "smell-depth"])
def test_an_error_is_reported_before_a_later_bad_character(capsys, source_file,
                                                           argv, text, code, err):
    # The parsers read one token ahead, so errors come in reading order.
    assert run(capsys, [*argv, "--input", source_file(text)]) == (code, "", err + "\n")


def test_closed_stdin_exits_1_in_one_line(capsys, monkeypatch):
    # Python sets ``sys.stdin`` to None when it starts with descriptor 0 closed.
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, ["let", "names"])
    assert code == cli.EXIT_SYNTAX == 1
    assert out == ""
    assert err == "cannot read input: standard input is closed\n"


@pytest.mark.parametrize("argv, source, code", [
    (["let", "names"], "let a = 1 in a", 1),
    (["let", "check"], "let a = b in a", 1),
    (["smell", "fix", "--output", "ast"], "x == True", 1),
    (["let", "check"], "let a = 1 in a", 0),
], ids=["names", "check-errors", "smell-ast", "check-clean"])
def test_closed_stdout_exits_1_in_one_line(capsys, monkeypatch, source_file, argv, source, code):
    # Python sets ``sys.stdout`` to None when it starts with descriptor 1 closed;
    # output that would be lost is an error, and no output loses nothing.
    path = source_file(source)
    monkeypatch.setattr(sys, "stdout", None)
    got = main([*argv, "--input", path])
    err = capsys.readouterr().err
    assert got == code
    assert err == ("cannot write output: standard output is closed\n" if code else "")


def test_output_the_encoding_cannot_represent_exits_1_without_traceback():
    done = run_process(["let", "names"], stdin="let \u00e9 = 1 in \u00e9".encode(),
                       PYTHONIOENCODING="ascii")
    err = done.stderr.decode()
    assert done.returncode == 1, err
    assert len(err.splitlines()) == 1 and "can't encode" in err
    assert "Traceback" not in err


DEEP_INPUTS = {
    "let-pretty-parens": (["let", "pretty"],
                          "let a = " + "(" * 15_000 + "1" + ")" * 15_000 + " in a"),
    "let-check-negations": (["let", "check"], "let a = " + "-" * 30_000 + "1 in a"),
    "smell-fix-brackets": (["smell", "fix"], "[" * 20_000 + "x" + "]" * 20_000),
}


@pytest.mark.parametrize("argv, source", DEEP_INPUTS.values(), ids=DEEP_INPUTS)
def test_deep_input_exits_4_without_traceback(argv, source):
    done = run_process(argv, stdin=source.encode())
    err = done.stderr.decode()
    assert done.returncode == 4, err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("output", ["text", "ast"])
def test_smell_fix_has_headroom_for_deep_brackets(output):
    # The smell parser spends one Python frame per nested bracket.
    depth = 9_000
    done = run_process(["smell", "fix", "--output", output],
                       stdin=("[" * depth + "x" + "]" * depth).encode())
    assert done.returncode == 0, done.stderr
    if output == "text":
        assert done.stdout.decode() == "[" * depth + "x" + "]" * depth + "\n"
    else:
        assert done.stdout.count(b'"ctor": "ListLit"') == depth


SMELL_NESTS = {
    "brackets": ("[", brackets_source),
    "applications": ("(", lambda depth: "f (" * depth + "x" + ")" * depth),
    "ifs": ("if", lambda depth: "if " * depth + "x" + " then x else x" * depth),
}


@pytest.mark.parametrize("output", ["text", "ast"])
@pytest.mark.parametrize("shape", SMELL_NESTS)
def test_the_smell_nesting_limit_holds_to_the_level(shape, output):
    # At the limit the term is fixed; one level past it, the bracket or the
    # ``if`` that would go too deep is named.
    opener, nest = SMELL_NESTS[shape]
    argv = ["smell", "fix", "--output", output]
    done = run_process(argv, stdin=nest(MAX_DEPTH).encode())
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    if output == "ast":
        ctor = {"brackets": "ListLit", "applications": "Call", "ifs": "If"}[shape]
        assert done.stdout.count(f'"ctor": "{ctor}"'.encode()) == MAX_DEPTH
    elif shape in ("brackets", "ifs"):
        assert done.stdout.decode() == nest(MAX_DEPTH) + "\n"
    else:
        inner = MAX_DEPTH - 1
        assert done.stdout.decode() == "f (" * inner + "f x" + ")" * inner + "\n"
    source = nest(MAX_DEPTH + 1)
    done = run_process(argv, stdin=source.encode())
    assert done.returncode == 4
    assert done.stdout == b""
    assert done.stderr.decode() == (
        f"input nested too deeply: 1:{source.rindex(opener) + 1}:"
        f" more than {MAX_DEPTH} nested brackets, applications and ifs\n"
    )


def test_the_nesting_limit_holds_to_the_level():
    # At the limit the program prints, as text and as an AST; one level past
    # it, the opening parenthesis or the unary minus that would go too deep is
    # named.
    def nested(depth):
        return f"let b = 2\n  a = {'(' * depth}1{')' * depth}\nin a"

    def negated(depth):
        return f"let a = {'-' * depth}b\nin a"

    done = run_process(["let", "pretty"], stdin=nested(MAX_DEPTH).encode())
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"let b = 2\n  a = 1\nin a\n"
    done = run_process(["let", "pretty", "--output", "ast"], stdin=negated(MAX_DEPTH).encode())
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(b'"ctor": "Neg"') == MAX_DEPTH
    for argv, source, where in [
        (["let", "pretty"], nested(MAX_DEPTH + 1), f"2:{MAX_DEPTH + 7}"),
        (["let", "pretty", "--output", "ast"], negated(MAX_DEPTH + 1), f"1:{MAX_DEPTH + 9}"),
    ]:
        done = run_process(argv, stdin=source.encode())
        assert done.returncode == 4
        assert done.stdout == b""
        assert done.stderr.decode() == (
            f"input nested too deeply: {where}:"
            f" more than {MAX_DEPTH} nested parentheses and operators\n"
        )


def test_let_pretty_writes_a_long_flat_block_as_an_ast():
    # The JSON writer keeps its own stack: a block as long as the other let
    # commands take prints as an AST too.
    source = flat_source(28_000)
    done = run_process(["let", "pretty", "--output", "ast"], stdin=source.encode())
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == export_json(letlang.parse(source), letlang.LANG) + "\n"
    assert done.stdout.count(b'"ctor": "Assign"') == 28_000


PYENV = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")


def cpythons() -> dict[str, list[Path]]:
    """The interpreters at ``$PYENV_ROOT/versions/3.*/bin/python`` from the declared
    floor, 3.10.7, up, by minor version; every minor from 3.10 to 3.13 is a key."""
    found: dict[str, list[Path]] = {f"3.{minor}": [] for minor in range(10, 14)}
    for python in sorted(PYENV.glob("versions/3.*/bin/python")):
        version = re.fullmatch(r"3\.(\d+)\.(\d+)", python.parent.parent.name)
        if version and (int(version[1]), int(version[2])) >= (10, 7):
            found.setdefault(f"3.{version[1]}", []).append(python)
    return found


CPYTHONS = cpythons()


def assert_rows_hold(minor, rows):
    """Run each row ``(argv, stdin, shell, code, stdout, stderr)`` of the CLI under
    every CPython ``minor`` found; death by a signal fails."""
    if not CPYTHONS[minor]:
        pytest.skip(f"no CPython {minor} (3.10.7 or later) at {PYENV}/versions/{minor}.*")
    for python in CPYTHONS[minor]:
        for argv, stdin, shell, code, out, err in rows:
            done = run_process(argv, stdin=stdin, python=str(python), shell=shell,
                               PYTHONDONTWRITEBYTECODE="1")
            assert done.returncode >= 0, f"{python} {argv} died by signal {-done.returncode}"
            assert done.returncode == code, (python, argv, done.stderr)
            assert done.stderr.decode() == err, (python, argv)
            assert done.stdout.decode() == out, (python, argv)


@pytest.mark.parametrize("minor", CPYTHONS)
def test_the_ast_output_holds_on_every_interpreter(minor):
    # The JSON writer recurses on no interpreter: at the nesting limit and on a
    # long flat block ``--output ast`` prints, and one level past the limit the
    # minus is named, under every CPython the package supports.
    def printed(source):
        return export_json(letlang.parse(source), letlang.LANG) + "\n"

    argv = ["let", "pretty", "--output", "ast"]
    deep, flat = minus_source(MAX_DEPTH), flat_source(28_000)
    too_deep = (f"input nested too deeply: 2:{MAX_DEPTH + 7}:"
                f" more than {MAX_DEPTH} nested parentheses and operators\n")
    assert_rows_hold(minor, [(argv, deep.encode(), "", 0, printed(deep), ""),
                             (argv, minus_source(MAX_DEPTH + 1).encode(), "", 4, "", too_deep),
                             (argv, flat.encode(), "", 0, printed(flat), "")])


def nesting_limit_rows():
    """``smell fix`` on each of ``SMELL_NESTS`` at ``MAX_DEPTH`` and one past it, as
    text and as an AST; ``let pretty`` likewise on nested parentheses."""
    rows = []
    for shape, (opener, nest) in SMELL_NESTS.items():
        tree = smell_nest(shape, MAX_DEPTH)[1]  # ``smell fix`` finds no smell in it
        inner = MAX_DEPTH - 1
        text = ("f (" * inner + "f x" + ")" * inner if shape == "applications"
                else nest(MAX_DEPTH))
        past = nest(MAX_DEPTH + 1)
        too_deep = (f"input nested too deeply: 1:{past.rindex(opener) + 1}:"
                    f" more than {MAX_DEPTH} nested brackets, applications and ifs\n")
        for output, out in [("text", text), ("ast", export_json(tree, smells.LANG))]:
            argv = ["smell", "fix", "--output", output]
            rows += [(argv, nest(MAX_DEPTH).encode(), "", 0, out + "\n", ""),
                     (argv, past.encode(), "", 4, "", too_deep)]
    deep, past = parens_source(MAX_DEPTH), parens_source(MAX_DEPTH + 1)
    too_deep = (f"input nested too deeply: 1:{past.rindex('(') + 1}:"
                f" more than {MAX_DEPTH} nested parentheses and operators\n")
    for output, out in [("text", "let a = 1\nin a"),
                        ("ast", export_json(letlang.parse(deep), letlang.LANG))]:
        argv = ["let", "pretty", "--output", output]
        rows += [(argv, deep.encode(), "", 0, out + "\n", ""),
                 (argv, past.encode(), "", 4, "", too_deep)]
    return rows


@pytest.mark.parametrize("minor", CPYTHONS)
def test_the_nesting_limits_and_stream_errors_hold_on_every_interpreter(minor):
    # Each parser stops at its nesting limit with a positioned error, not a
    # crash, and unreadable input or a closed stream ends in one line, under
    # every CPython the package supports.
    decode_error = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert_rows_hold(minor, [
        *nesting_limit_rows(),
        (["let", "pretty"], b"\xff\xfe", "", 1, "", decode_error),
        (["let", "names"], b"", "0<&-", 1, "", "cannot read input: standard input is closed\n"),
        (["smell", "fix"], b"x == True", "1>&-", 1, "",
         "cannot write output: standard output is closed\n"),
    ])


def test_let_opt_on_a_self_reference_exits_4_in_one_line():
    # Each inline copies the definition as it has grown, so the tree deepens
    # until the stack gives out, before the fuel does.
    done = run_process(["let", "opt", "--fuel", "100"], stdin=b"let a = a + 1 in a\n")
    assert done.returncode == 4
    assert done.stdout == b""
    assert done.stderr.decode() == "input nested too deeply\n"


BAD_LITERALS = {
    "let-pretty-superscript": (["let", "pretty"], "let a = \u00b2 in a"),
    "smell-fix-superscript": (["smell", "fix"], "\u00b2"),
    "let-pretty-5000-digits": (["let", "pretty"], "let a = " + "9" * 5_000 + " in a"),
}


@pytest.mark.parametrize("argv, source", BAD_LITERALS.values(), ids=BAD_LITERALS)
def test_bad_integer_literal_is_a_syntax_error(argv, source):
    # ``isdigit`` accepts "\u00b2", and ``int()`` refuses over 4,300 digits.
    done = run_process(argv, stdin=source.encode())
    err = done.stderr.decode()
    assert done.returncode == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("syntax error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["let", "opt", "--fuel", "0"],
    ["let", "opt", "--strategy", "sideways"],
    ["let", "names", "--fuel", "3"],
    ["smell", "fix", "--strategy", "innermost"],
], ids=["fuel-0", "unknown-strategy", "names-takes-no-fuel", "smell-fix-takes-no-strategy"])
def test_usage_error_exits_5_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 5
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("zipstrat: error: ")


@pytest.mark.parametrize("argv, stdin, code", [
    (["let", "pretty"], RUNNING_SOURCE, 0),
    (["let", "opt", "--fuel", "0"], RUNNING_SOURCE, 5),
    (["let", "check"], DEEP_INPUTS["let-check-negations"][1], 4),
    (["smell", "fix"], "[" * (MAX_DEPTH + 1) + "x" + "]" * (MAX_DEPTH + 1), 4),
], ids=["ok", "usage", "deep", "deep-smell"])
def test_main_restores_the_recursion_limit(capsys, monkeypatch, argv, stdin, code):
    # ``main`` raises the limit for deep inputs; the caller's limit must survive
    # a normal return, argparse's ``SystemExit`` and a ``RecursionError``.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_500)
    try:
        try:
            got = run(capsys, argv, stdin, monkeypatch)[0]
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert sys.getrecursionlimit() == 1_500
    finally:
        sys.setrecursionlimit(limit)


def test_one_function_ends_every_run_and_one_default_bounds_every_budget():
    # ``cli.run`` alone sets the recursion limit and catches a RecursionError,
    # for the CLI and the demo script alike; the meter has one path, and every
    # budget a caller may leave out is ``strategies.DEFAULT_FUEL``.
    catching = {"RecursionError", "RuntimeError", "Exception", "BaseException"}
    limits, catches, functions = set(), set(), {}
    for path in [*(ROOT / "src" / "zipstrat").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            functions[where] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "setrecursionlimit":
                    limits.add(where)
                if isinstance(node, ast.ExceptHandler) and (node.type is None or any(
                        isinstance(n, ast.Name) and n.id in catching for n in ast.walk(node.type))):
                    catches.add(where)
    assert limits == catches == {"cli.run"}
    compared = [{ast.unparse(side) for side in (node.left, *node.comparators)}
                for node in ast.walk(functions["strategies._metered"])
                if isinstance(node, ast.Compare)]
    assert not [sides for sides in compared if {"fuel", "None"} <= sides]
    for fn in (strategies.scheme, letlang.optimize_program, smells.smell_elim):
        assert inspect.signature(fn).parameters["fuel"].default is strategies.DEFAULT_FUEL, fn


def test_one_function_reads_parses_and_prints():
    # ``cli`` names each parser once and reads, converts to AST text and prints
    # to stdout in one function; a handler is a library call on the tree.
    doors = {"_read_input": set(), "letlang.parse": set(), "smells.parse_m": set(),
             "export_json": set(), "print to stdout": set()}
    cli_tree = ast.parse((ROOT / "src" / "zipstrat" / "cli.py").read_text(encoding="utf-8"))
    for top in cli_tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "print" \
                    and not any(k.arg == "file" for k in node.keywords):
                doors["print to stdout"].add(where)
            elif isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in doors:
                doors[ast.unparse(node)].add(where)
    for door, users in doors.items():
        assert len(users) == 1 and not any(u.startswith("_cmd_") for u in users), (door, users)
    smells_tree = ast.parse((ROOT / "src" / "zipstrat" / "smells.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(smells_tree) if isinstance(n, ast.Name)
                and n.id == "from_zipper"]
    assert not hasattr(smells, "eliminate_smells") and not hasattr(cli, "_emit_tree")


@pytest.mark.parametrize("output", ["text", "ast"])
def test_let_opt_keeps_constants_printable(capsys, source_file, output):
    # Folding two 4,300-digit literals would exceed ``int``'s string limit.
    nines = "9" * 4_300
    source = f"let a = {nines} + {nines} in a"
    code, out, err = run(capsys, ["let", "opt", "--output", output, "--input", source_file(source)])
    assert code == 0, err
    result = letlang.parse(out) if output == "text" else import_json(out, letlang.LANG)
    assert letlang.eval_program(result) == letlang.eval_program(letlang.parse(source))


# -- the contract as a property -----------------------------------------------

CYCLIC_SOURCES = [
    "let a = a + 1 in a",
    "let w = -1\n  y = y + 3\nin -6",
    "let a = b\n  b = a + 1\nin a",
    "let a = let b = a - 1\n  in b\nin a",
]
SOURCES = hst.one_of(
    let_programs().map(letlang.pretty),
    hst.integers(0, 2**32 - 1).map(lambda n: letlang.pretty(random_program(random.Random(n), 3))),
    mexps.map(smells.pretty_m),
    hst.sampled_from(CYCLIC_SOURCES),
    hst.builds(lambda shape, size: shape(size), hst.sampled_from(SHAPES), hst.integers(1, 40)),
)
TOKENS = ["let", "in", "=", "+", "-", "(", ")", "[", "]", ",", "if", "then", "else", "==",
          "++", ":", "True", "a", "xs", "f", "1", "\n", "\n  ", " ", "@"]
EDITS = hst.lists(hst.tuples(hst.sampled_from(["insert", "delete", "duplicate"]),
                             hst.integers(0, 10**6), hst.sampled_from(TOKENS)), max_size=2)
BAD_BYTES = hst.sampled_from([None, None, None, b"\xff", b"\xc3", b"\xed\xa0\x80"])


def commands(fuel):
    """Every subcommand under every output and scheme, rewriting under ``fuel``."""
    budget = ["--fuel", str(fuel)]
    return [
        ["let", "names"],
        ["let", "check"],
        *(["let", "opt", "--strategy", name, *budget, "--output", output]
          for name in cli.SCHEMES for output in ("text", "ast")),
        ["let", "pretty", "--output", "text"],
        ["let", "pretty", "--output", "ast"],
        ["smell", "fix", *budget, "--output", "text"],
        ["smell", "fix", *budget, "--output", "ast"],
    ]


def mutated(text, edits, bad, at):
    """``text`` with tokens inserted, deleted or duplicated, then bytes that are no UTF-8."""
    pieces = re.findall(r"\s+|\w+|[^\w\s]+", text)
    for kind, where, token in edits:
        i = where % (len(pieces) + 1)
        if kind == "insert":
            pieces.insert(i, token)
        elif pieces:
            i %= len(pieces)
            if kind == "delete":
                del pieces[i]
            else:
                pieces.insert(i, pieces[i])
    data = "".join(pieces).encode()
    if bad is not None:
        at %= len(data) + 1
        data = data[:at] + bad + data[at:]
    return data


def run_in_process(argv, data):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def every_shape(test):
    """``test`` with each shape of ``SHAPES`` at size 40 as an explicit example."""
    for shape in SHAPES:
        test = example(shape(40), [], None, 0, 12)(test)
    return test


@seed(2021)
# No explain phase: it re-runs failing examples under a line tracer, which at
# fourteen commands an example takes minutes.
@settings(max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(SOURCES, EDITS, BAD_BYTES, hst.integers(0, 10**6), hst.integers(1, 12))
@every_shape
def test_every_command_keeps_the_exit_code_contract(source, edits, bad, at, fuel):
    # A small budget ends a cyclic program's runaway while its tree is still shallow.
    data = mutated(source, edits, bad, at)
    for argv in commands(fuel):
        code, out, err = run_in_process(argv, data)
        command = " ".join(argv[:2])
        assert code in {cli.EXIT_OK, cli.EXIT_SYNTAX, cli.EXIT_SCOPE, cli.EXIT_FUEL,
                        cli.EXIT_DEPTH, cli.EXIT_USAGE, cli.EXIT_MEMORY}, argv
        if code not in (cli.EXIT_OK, cli.EXIT_SCOPE):
            assert out == "", argv
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert code != cli.EXIT_FUEL or command in ("let opt", "smell fix"), argv
            continue
        assert err == "", argv
        assert code == cli.EXIT_OK or command == "let check", argv
        if command == "smell fix":
            fixed = (smells.parse_m(out) if argv[-1] == "text"
                     else import_json(out, smells.LANG))
            assert smells.smell_elim(smells.mexp_zipper(fixed)).focus == fixed, argv
            continue
        root = letlang.parse(data.decode())
        if command == "let names":
            assert out.splitlines() == letlang.names(letlang.root_zipper(root))
        elif command == "let check":
            errors = letlang.errors_strategic(letlang.root_zipper(root))
            assert out.splitlines() == errors
            assert (code == cli.EXIT_SCOPE) == bool(errors)
        elif command == "let pretty":
            shown = letlang.parse(out) if argv[-1] == "text" else import_json(out, letlang.LANG)
            assert shown == root, argv
            if argv[-1] == "text":
                assert out == letlang.pretty(root) + "\n"
        elif argv[-1] == "text":
            letlang.parse(out)
        else:
            import_json(out, letlang.LANG)
