#!/usr/bin/env python3
"""Benchmark of the zipstrat command line: four workloads, checked outputs, traced layers.

Run from the root of a zipstrat checkout::

    python3 perfbench/run.py --workload let-opt --seed 1 --seconds 20 --trace 0

One client in one process and one thread runs a closed loop: each command
goes through ``zipstrat.cli.main(argv)`` with ``--input PATH`` and its
standard output is captured and checked.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a report for people.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import letref
import mexpref
from tracing import Tracer, count_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The recursion limit ``zipstrat.cli.main`` sets for itself; the reference
#: code needs it for the deepest generated inputs before the first command.
RECURSION_LIMIT = 20_000
#: Seconds the speed probe takes on the reference machine (a 2-vCPU Xeon VM
#: at 2.1 GHz, quiet).  Every reported time is scaled to that machine.
PROBE_REFERENCE_S = 0.0017


# -- workloads ---------------------------------------------------------------------------


def _check_opt(item: corpus.Item, code: int, out: str) -> tuple[str | None, int]:
    if code != 0:
        return f"exit code {code}", 0
    try:
        program = letref.parse(out)
    except letref.RefSyntaxError as exc:
        return f"output does not parse: {exc}", 0
    before, after = letref.evaluate(item.tree), letref.evaluate(program)
    if before != after:
        return f"value changed from {before} to {after}", 0
    return None, letref.program_nodes(program)


def _check_check(item: corpus.Item, code: int, out: str) -> tuple[str | None, int]:
    expected = letref.scope_errors(item.tree)
    if code != (2 if expected else 0):
        return f"exit code {code} with {len(expected)} scope errors", 0
    if out.splitlines() != expected:
        return "reported errors differ from the scope walk", 0
    return None, len(expected)


def _check_smell(item: corpus.Item, code: int, out: str) -> tuple[str | None, int]:
    if code != 0:
        return f"exit code {code}", 0
    try:
        term = mexpref.parse(out)
    except mexpref.RefSyntaxError as exc:
        return f"output does not parse: {exc}", 0
    if mexpref.smell_count(term):
        return f"{mexpref.smell_count(term)} smells left", 0
    if mexpref.nodes(term) > item.nodes:
        return f"output grew from {item.nodes} to {mexpref.nodes(term)} nodes", 0
    return None, mexpref.nodes(term)


def _check_pretty_text(item: corpus.Item, code: int, out: str) -> tuple[str | None, int]:
    if code != 0:
        return f"exit code {code}", 0
    try:
        same = letref.parse(out) == item.tree
    except letref.RefSyntaxError as exc:
        return f"output does not parse: {exc}", 0
    return (None, item.nodes) if same else ("output parses to another program", 0)


def _check_pretty_ast(item: corpus.Item, code: int, out: str) -> tuple[str | None, int]:
    if code != 0:
        return f"exit code {code}", 0
    try:
        same = json.loads(out) == letref.export(item.tree)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", 0
    return (None, item.nodes) if same else ("output encodes another program", 0)


@dataclass(frozen=True)
class Form:
    """One way of running the CLI on an input, and the check of its output."""

    argv: tuple[str, ...]
    check: Callable[[corpus.Item, int, str], tuple[str | None, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    forms: tuple[Form, ...]
    #: Per-command wall-clock cap; far above the slowest correct command.
    cap_s: float
    #: A small input every form accepts, run once during set-up.
    warmup: str


_LET_WARMUP = "let a = 1\n  b = a + 0\nin b - -(2)\n"
WORKLOADS = {
    "let-opt": Workload("let-opt", (Form(("let", "opt"), _check_opt),), 0.8, _LET_WARMUP),
    "let-check": Workload("let-check", (Form(("let", "check"), _check_check),), 10.0,
                          _LET_WARMUP),
    "smell-fix": Workload("smell-fix", (Form(("smell", "fix"), _check_smell),), 5.0,
                          "if (length xs == 0) then True else False\n"),
    "let-pretty": Workload("let-pretty", (
        Form(("let", "pretty"), _check_pretty_text),
        Form(("let", "pretty", "--output", "ast"), _check_pretty_ast),
    ), 5.0, _LET_WARMUP),
}


# -- running one command -----------------------------------------------------------------


class CapExceeded(BaseException):
    """Raised in the main thread when a command runs past its cap.

    A ``BaseException``, so that no ``except Exception`` in the program can
    swallow it.
    """


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise CapExceeded


_PROBE_PROGRAM = corpus.probe_program()
_recent_probes: collections.deque[float] = collections.deque(maxlen=5)


def slowdown() -> float:
    """How many times slower than the reference machine this one runs right now.

    The machine's speed drifts by up to a factor of two within minutes when
    other tenants load its host, so each command's wall time is divided by
    the slowdown measured just before it: the median time of the last few
    runs of a fixed piece of pure-Python work (the reference printer, scope
    walk and export of one program), run with the garbage collector off.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        letref.show_block(_PROBE_PROGRAM)
        letref.scope_errors(_PROBE_PROGRAM)
        letref.export(_PROBE_PROGRAM)
        _recent_probes.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(_recent_probes) / PROBE_REFERENCE_S


@dataclass
class Outcome:
    code: int | None
    out: str
    #: Wall time of the command, and that time divided by the slowdown.
    wall_s: float
    seconds: float
    failure: str | None = None


def run_command(cli, argv: list[str], cap_s: float, *, timed: bool = True) -> Outcome:
    """Run ``cli.main(argv)`` with stdout and stderr captured and a wall-clock cap.

    ``timed=False`` skips the speed probe, whose allocations would otherwise
    count towards a tracemalloc peak; the scaled time is then the wall time.
    """
    global _armed
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, None
    factor = slowdown() if timed else 1.0
    start = time.perf_counter()
    try:
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
    except CapExceeded:
        failure = f"ran past the {cap_s:g} s cap"
    except RecursionError:
        failure = "RecursionError escaped"
    except Exception as exc:  # any escaped exception is a failed command
        failure = f"{type(exc).__name__} escaped: {exc}"
    return Outcome(code, out.getvalue(), seconds, seconds / factor, failure)


# -- set-up ------------------------------------------------------------------------------


@dataclass
class Command:
    item: corpus.Item
    form: Form
    argv: list[str]
    #: Scaled and raw wall time of each successful run, one per pass.
    seconds: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    failure: str | None = None
    output: str | None = None
    output_size: int = 0
    peak_bytes: int = 0

    @property
    def label(self) -> str:
        return f"{self.item.name} [{' '.join(self.form.argv)}]"


def _import_cli():
    for name in [m for m in sys.modules if m == "zipstrat" or m.startswith("zipstrat.")]:
        del sys.modules[name]
    cli = importlib.import_module("zipstrat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported zipstrat from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: Workload, seed: int, work: Path):
    """Import zipstrat, generate the corpus, write the inputs, warm up."""
    cli = _import_cli()
    inputs = corpus.WORKLOADS[workload.name](seed)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    commands = []
    for item in inputs.items:
        path = work / f"{item.name}.txt"
        path.write_text(item.text, encoding="utf-8")
        commands.extend(Command(item, form, [*form.argv, "--input", str(path)])
                        for form in workload.forms)
    warm = work / "warmup.txt"
    warm.write_text(workload.warmup, encoding="utf-8")
    for form in workload.forms:
        outcome = run_command(cli, [*form.argv, "--input", str(warm)], workload.cap_s)
        if outcome.failure or outcome.code != 0:
            raise SystemExit(f"perfbench: warm-up {' '.join(form.argv)} failed: "
                             f"{outcome.failure or outcome.code}")
    return cli, inputs, commands


# -- passes ------------------------------------------------------------------------------


def first_pass(cli, workload: Workload, commands: list[Command]) -> None:
    """Run every command once and check its output."""
    for c in commands:
        outcome = run_command(cli, c.argv, workload.cap_s)
        if outcome.failure is None:
            outcome.failure, c.output_size = c.form.check(c.item, outcome.code, outcome.out)
        if outcome.failure is None:
            c.output = outcome.out
            c.seconds.append(outcome.seconds)
            c.wall_s.append(outcome.wall_s)
        else:
            c.failure = outcome.failure


def repeat_pass(cli, commands: list[Command], cap_s: float, tracer: Tracer | None = None,
                index: int = 0) -> tuple[float, float]:
    """Run the successful commands again; an output must match the first pass.

    With a ``tracer``, each command's spans carry its pass ``index`` and
    position, and the times are not kept as latency samples.  Returns the
    summed scaled time of the commands and the pass's median slowdown.
    """
    gc.collect()
    total = 0.0
    slowdowns = []
    for n, c in enumerate(commands):
        if c.failure is not None:
            continue
        if tracer is not None:
            tracer.command = f"{index}:{n}"
        outcome = run_command(cli, c.argv, cap_s)
        if outcome.failure is None and outcome.out != c.output:
            outcome.failure = "output differs from the first run"
        if outcome.failure is not None:
            c.failure = outcome.failure if tracer is None else f"traced: {outcome.failure}"
            continue
        total += outcome.seconds
        slowdowns.append(outcome.wall_s / outcome.seconds)
        if tracer is None:
            c.seconds.append(outcome.seconds)
            c.wall_s.append(outcome.wall_s)
    return total, statistics.median(slowdowns)


def memory_pass(cli, workload: Workload, commands: list[Command]) -> None:
    """Record the tracemalloc peak of every successful command of the smallest class.

    tracemalloc walks the whole Python stack on every allocation, and the
    programs recurse along the tree, so on the larger classes it slows a
    command down ten to fifty times; the smallest class keeps the pass short.
    """
    smallest = min(c.item.size_class for c in commands)
    measured = [c for c in commands if c.failure is None and c.item.size_class == smallest]
    gc.collect()
    tracemalloc.start()
    try:
        # Lazy one-time allocations (argparse's translations, regex caches)
        # would otherwise set the peak of whichever command comes first.
        run_command(cli, measured[0].argv, 20 * workload.cap_s, timed=False)
        for c in measured:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outcome = run_command(cli, c.argv, 20 * workload.cap_s, timed=False)
            if outcome.failure is None and outcome.out != c.output:
                outcome.failure = "output differs from the first run"
            if outcome.failure is not None:
                c.failure = f"under tracemalloc: {outcome.failure}"
                continue
            c.peak_bytes = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# -- metrics -----------------------------------------------------------------------------


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(commands: list[Command], setup_s: float) -> tuple[dict, list[str]]:
    ok = [c for c in commands if c.failure is None]
    if len(ok) < 11:
        raise SystemExit(f"perfbench: only {len(ok)} commands succeeded; need 11")
    latency = {id(c): statistics.median(c.seconds) for c in ok}
    ordered = sorted(latency.values())
    tail_index = len(ordered) - 11  # ten successful samples lie beyond it
    classes = sorted({c.item.size_class for c in ok})
    if len(classes) < 2:
        raise SystemExit("perfbench: fewer than two size classes have a successful command")
    xs = [math.log(statistics.fmean(c.item.nodes for c in ok if c.item.size_class == k))
          for k in classes]
    meds = [statistics.median(latency[id(c)] for c in ok if c.item.size_class == k)
            for k in classes]
    rewritten = [c for c in ok if c.form.argv in (("let", "opt"), ("smell", "fix"))]
    base = rewritten or ok
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_nodes_per_s": (sum(c.item.nodes for c in ok) / sum(latency.values()),
                                   "nodes/s"),
        "latency_p50_ms": (1000 * statistics.median(ordered), "ms"),
        "latency_tail_ms": (1000 * ordered[tail_index], "ms"),
        "growth_exp": (_slope(xs, [math.log(m) for m in meds]), "exponent"),
        "output_size_ratio": (sum(c.output_size for c in base) / sum(c.item.nodes for c in base),
                              "ratio"),
        "peak_mem_mb": (max(c.peak_bytes for c in ok) / 1e6, "MB"),
    }
    failed = len(commands) - len(ok)
    passes = max(len(c.seconds) for c in ok)
    notes = [
        f"latency_tail_ms is p{100 * (tail_index + 1) / len(ordered):.1f}: the 11th slowest of "
        f"{len(ordered)} successful commands (each the median of up to {passes} runs)",
        "growth_exp fits class medians "
        + ", ".join(f"{k}:{1000 * m:.2f}ms" for k, m in zip(classes, meds)),
        f"error_rate {failed / len(commands):.4f} ({failed} of {len(commands)} commands failed)",
        "unscaled wall time: latency_p50_ms "
        f"{1000 * statistics.median(statistics.median(c.wall_s) for c in ok):.4g} ms",
    ]
    return metrics, notes


# -- main --------------------------------------------------------------------------------


def _json_metrics(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("ratio", "per_rewrite")):
        return "ratio"
    return "count"


def traced_rounds(cli, workload, commands, seconds: float, started: float, out_path: Path):
    """Alternate untraced and traced passes; return per-layer metrics and whether
    the counts repeated exactly."""
    runs, ratios, spans = [], [], []
    while True:
        plain, _ = repeat_pass(cli, commands, workload.cap_s)
        tracer = Tracer()
        tracer.install()
        try:
            # The wrappers slow every call down; the cap only guards against hangs.
            traced, factor = repeat_pass(cli, commands, 20 * workload.cap_s, tracer,
                                         len(runs))
        finally:
            tracer.remove()
        runs.append(tracer.layer_metrics(factor))
        spans.extend(tracer.spans)
        ratios.append(traced / plain)
        if time.perf_counter() - started >= seconds:
            break
    counts = [count_metrics(r) for r in runs]
    repeatable = all(c == counts[0] for c in counts)
    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    metrics.update(counts[0])
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    out_path.write_text(json.dumps({
        "fields": ["command", "span", "parent", "group", "function", "start_s", "end_s"],
        "spans": spans,
        "runs": runs,
    }))
    return metrics, repeatable, len(runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zipstrat" / "cli.py").is_file():
        print(f"perfbench: no zipstrat sources under {SRC}; run from the root of a "
              "zipstrat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            factor = slowdown()
            start = time.perf_counter()
            cli, inputs, commands = set_up(workload, args.seed, work)
            setup_times.append((time.perf_counter() - start) / factor)

        # Keep the harness's own objects (corpus trees, reference data) out of
        # the collections the program's allocations trigger.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        first_pass(cli, workload, commands)
        passes = 1
        if args.trace:
            trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
            metrics, repeatable, rounds = traced_rounds(cli, workload, commands, args.seconds,
                                                        started, trace_file)
            passes += 2 * rounds
            report = [f"spans written to {trace_file.relative_to(ROOT)}"]
            if not repeatable:
                report.append("count metrics differ between traced passes")
            result_metrics = {name: {"value": value, "unit": _layer_unit(name)}
                              for name, value in metrics.items()}
            correct = repeatable
        else:
            while time.perf_counter() - started < args.seconds:
                repeat_pass(cli, commands, workload.cap_s)
                passes += 1
            memory_pass(cli, workload, commands)
            metrics, report = end_to_end(commands, statistics.median(setup_times))
            result_metrics = _json_metrics(metrics)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in commands if c.failure is not None]
    print(f"workload {workload.name}  seed {args.seed}  commands {len(commands)}  "
          f"passes {passes}  trace {args.trace}")
    print("corpus " + json.dumps(inputs.properties, sort_keys=True))
    for c in failed:
        print(f"failed {c.label}: {c.failure}")
    for line in report:
        print(line)
    for name, entry in result_metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(commands), "failed": len(failed),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
