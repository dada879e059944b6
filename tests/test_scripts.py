"""Every script, and the README's library example, runs to completion with only
the library on the import path; every module parses as the oldest Python that
``pyproject.toml`` allows."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(path: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(path), *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    done = run_script(script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr


def test_demo_rejects_nonpositive_fuel(tmp_path):
    done = run_script(ROOT / "scripts" / "demo_let_pipeline.py", "--fuel", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


def test_demo_runs_a_long_chain_of_declarations(tmp_path):
    # x0 = 1, x_i = x_(i-1) + 1: evaluating the last name recurses down the chain.
    decls = ["x0 = 1", *(f"x{i} = x{i - 1} + 1" for i in range(1, 300))]
    (tmp_path / "chain.let").write_text(
        "let " + "\n  ".join(decls) + "\nin x299\n", encoding="utf-8"
    )
    done = run_script(ROOT / "scripts" / "demo_let_pipeline.py", "--program", "chain.let",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.splitlines().count("value: 300") == 5  # as parsed, and per scheme


@pytest.mark.parametrize("source, fuel, code, message, printed", [
    ("let a = in a", [], 1, "syntax error: 1:9: expected an expression, found 'in'", []),
    (None, [], 1, "No such file or directory", []),
    ("let a = " * 20_000 + "1" + " in a" * 20_000, [], 4, "input nested too deeply", []),
    (b"let a = \xff in a", [], 1, "'utf-8' codec can't decode byte 0xff", []),
    ("let a = b\n  b = a\nin a", ["--fuel", "100"], 3, "rewrite budget exhausted: ",
     ["== program =="]),
], ids=["syntax-error", "missing-file", "nested-blocks", "bad-utf8", "cycle-past-fuel"])
def test_demo_reports_a_bad_program_in_one_line(tmp_path, source, fuel, code, message, printed):
    # The demo ends under ``cli.run``, as the CLI does: its exit code, one line
    # on stderr, and what it printed before the failure.
    if isinstance(source, str):
        source = source.encode()
    if source is not None:
        (tmp_path / "bad.let").write_bytes(source)
    done = run_script(ROOT / "scripts" / "demo_let_pipeline.py", "--program", "bad.let", *fuel,
                      cwd=tmp_path)
    assert done.returncode == code
    assert re.findall(r"^== .* ==$", done.stdout, re.M) == printed
    assert bool(done.stdout) == bool(printed)
    assert len(done.stderr.splitlines()) == 1
    assert message in done.stderr


def test_readme_library_example_prints_what_its_comment_says(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.search(r"^print\(.*#\s*(.+)$", code, re.M).group(1)
    example = tmp_path / "example.py"
    example.write_text(code, encoding="utf-8")
    done = run_script(example, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [expected] == ["Leaf(value=6)"]


def test_every_module_parses_as_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)', pyproject).groups())
    modules = [*(ROOT / "src" / "zipstrat").glob("*.py"), *SCRIPTS]
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
