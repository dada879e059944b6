"""Exit codes and golden outputs for every CLI subcommand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from programs import ERRORS_SOURCE, RUNNING_SOURCE, rev_source
from zipstrat import cli, letlang
from zipstrat.cli import main
from zipstrat.lexing import MAX_DEPTH
from zipstrat.zipper import export_ast, import_json

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
    def exhausted(args):
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


def run_process(argv, stdin: bytes, **env_vars: str) -> subprocess.CompletedProcess:
    # Under the C locale, Python's own stdin escapes undecodable bytes.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LC_ALL": "C", **env_vars}
    return subprocess.run([sys.executable, "-m", "zipstrat.cli", *argv], input=stdin,
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


def test_the_nesting_limit_holds_to_the_level():
    # At the limit the program prints; one level past it, the opening
    # parenthesis that would go too deep is named.
    def nested(depth):
        return f"let b = 2\n  a = {'(' * depth}1{')' * depth}\nin a"

    done = run_process(["let", "pretty"], stdin=nested(MAX_DEPTH).encode())
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"let b = 2\n  a = 1\nin a\n"
    done = run_process(["let", "pretty"], stdin=nested(MAX_DEPTH + 1).encode())
    assert done.returncode == 4
    assert done.stdout == b""
    assert done.stderr.decode() == (
        f"input nested too deeply: 2:{MAX_DEPTH + 7}:"
        f" more than {MAX_DEPTH} nested parentheses and operators\n"
    )


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
], ids=["fuel-0", "unknown-strategy"])
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
], ids=["ok", "usage", "deep"])
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


@pytest.mark.parametrize("output", ["text", "ast"])
def test_let_opt_keeps_constants_printable(capsys, source_file, output):
    # Folding two 4,300-digit literals would exceed ``int``'s string limit.
    nines = "9" * 4_300
    source = f"let a = {nines} + {nines} in a"
    code, out, err = run(capsys, ["let", "opt", "--output", output, "--input", source_file(source)])
    assert code == 0, err
    result = letlang.parse(out) if output == "text" else import_json(out, letlang.LANG)
    assert letlang.eval_program(result) == letlang.eval_program(letlang.parse(source))
