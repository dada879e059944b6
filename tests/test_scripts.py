"""Every script runs to completion with only the library on the import path."""

from __future__ import annotations

import os
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
