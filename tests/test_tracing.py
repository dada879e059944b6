"""The benchmark's tracer still finds and restores every name it wraps."""

from __future__ import annotations

import importlib
from pathlib import Path

from programs import RUNNING_SOURCE
import zipstrat
from zipstrat import cli, letlang, lexing, smells, strategies, zipper

ROOT = Path(__file__).resolve().parent.parent
MODULES = (zipstrat, cli, letlang, lexing, smells, strategies, zipper)
CLASSES = (zipper.Zipper, zipper.Language)

COMMANDS = (
    (["let", "opt"], "let a = 1\n  b = a + 0\nin b - 0"),
    (["let", "check"], "let a = b + 3\n  w = let c = a in c + z\nin a + w"),
    (["let", "pretty", "--output", "ast"], "let a = 1 in a"),
    (["smell", "fix"], "if (length xs == 0) then True else False"),
)

#: The five counters that the rule attempts' meaning rests on, with each
#: command's counts when it runs alone; a counter left out is 0.
#: ``innermost`` does not visit again what a rewrite kept.  In ``let opt``,
#: the body becomes ``1 - 0`` once ``b`` is inlined, then ``1 + -0``, which
#: keeps the ``1``: the constant and its leaf are two visits fewer, and its two
#: rules two attempts.  In ``smell fix`` both rewrites keep ``xs``: twice two
#: visits and four attempts fewer.  The second, ``redundant_if``, returns its
#: condition ``null xs``, a child of the ``if``, which is handed back whole:
#: one visit fewer, and its four rules not tried again.
PINNED_KEYS = ("smells.rule.attempts", "letlang.rule.attempts", "strategies.visits",
               "smells.rewrites", "letlang.rewrites")
PINNED = (
    {"letlang.rule.attempts": 26, "strategies.visits": 33, "letlang.rewrites": 6},
    {"strategies.visits": 28},
    {},
    {"smells.rule.attempts": 28, "strategies.visits": 16, "smells.rewrites": 2},
)


def test_tracer_counts_and_restores(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in MODULES + CLASSES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, (argv, source) in enumerate(COMMANDS):
            path = tmp_path / f"input{i}.txt"
            path.write_text(source, encoding="utf-8")
            assert cli.main([*argv, "--input", str(path)]) in (cli.EXIT_OK, cli.EXIT_SCOPE)
    finally:
        tracer.remove()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    for key in ("zipper.rebuild.calls", "zipper.moves", "strategies.visits"):
        assert metrics[key] > 0, key
    for key in ("letlang.uses.calls", "letlang.decls.calls"):
        assert tracer.counts[key] > 0, key
    after = [dict(vars(owner)) for owner in MODULES + CLASSES]
    assert after == before


def test_rebuilds_only_where_a_focus_was_replaced(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    path = tmp_path / "input.txt"
    path.write_text(RUNNING_SOURCE, encoding="utf-8")
    rebuilds = {}
    for command in ("check", "names", "pretty", "opt"):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.main(["let", command, "--input", str(path)])
        finally:
            tracer.remove()
        rebuilds[command] = tracer.layer_metrics()["zipper.rebuild.calls"]
    capsys.readouterr()
    # Analyses and printing replace nothing; the running example has redexes.
    assert rebuilds["check"] == rebuilds["names"] == rebuilds["pretty"] == 0
    assert rebuilds["opt"] > 0


def test_tracer_counts_stay_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    for i, ((argv, source), pinned) in enumerate(zip(COMMANDS, PINNED, strict=True)):
        path = tmp_path / f"input{i}.txt"
        path.write_text(source, encoding="utf-8")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.main([*argv, "--input", str(path)])
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics()
        got = {k: metrics[k] for k in PINNED_KEYS}
        assert got == {k: pinned.get(k, 0) for k in PINNED_KEYS}, argv
    capsys.readouterr()
