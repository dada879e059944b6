"""Spans and counters around the public functions of zipstrat's layers.

The tracer replaces functions in the module namespaces of ``zipstrat`` (the
layer's own module and every module that imported the name) with wrappers,
and puts the originals back on :meth:`Tracer.remove`.  The program's source
is not changed.

A wrapper counts every call.  It opens a span only when the innermost open
span belongs to another layer, so recursion inside a layer is counted but
not timed twice.  A span's self time is its duration minus the durations
of its child spans.  Spans of the coarse layers (CLI, tokenizer, parsers,
printers, strategy runs, JSON export) are kept in memory with the command
they belong to; the fine-grained ones (zipper operations, attributes,
rules), of which a command makes hundreds of thousands, are only summed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

#: Groups whose spans are kept one by one; all others are only summed.
COARSE = frozenset({
    "cli", "lexing.tokenize", "letlang.parse", "letlang.pretty", "smells.parse_m",
    "smells.pretty_m", "strategies", "zipper.export_json",
})

_MOVES = ("down_left", "down_right", "left", "right", "up", "child_at", "parent",
          "sib_left", "sib_right")
_ZIPPER_METHODS = (*_MOVES, "get_hole", "trans_m")
_LANGUAGE_METHODS = ("children", "tag", "rebuild", "nominal", "is_registered")
_SCHEMES = tuple(f"{kind}_{order}_{shape}" for kind in ("full", "once", "stop")
                 for order in ("td", "bu") for shape in ("tp", "tu")) + ("innermost", "outermost")
_ATTRIBUTES = ("env", "dclo", "dcli", "lev", "lexeme", "lexeme_assign", "must_be_in",
               "must_not_be_in", "uses", "decls")
_LET_RULES = ("expr", "exp_c")
_SMELL_RULES = ("join_list", "null_list", "redundant_boolean", "redundant_if")


def _same_layer(current: str, group: str) -> bool:
    # Zipper work done inside a JSON export is part of the export.
    return current == group or current.startswith(group + ".")


class Tracer:
    """Install with :meth:`install`, run commands, then :meth:`remove`."""

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Kept spans: (command, span id, parent span id, group, function, start, end).
        self.spans: list[tuple] = []
        self.command = ""
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------------

    def _timed(self, fn, group: str, key: str, on_result=None):
        counts, stack, self_s, spans = self.counts, self._stack, self.self_s, self.spans
        keep = group in COARSE
        tracer = self

        def traced(*args, **kwargs):
            counts[key] += 1
            if stack and _same_layer(stack[-1][0], group):
                result = fn(*args, **kwargs)
            else:
                tracer._next_id += 1
                frame = [group, 0.0, 0.0, tracer._next_id]
                stack.append(frame)
                frame[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    self_s[group] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    if keep:
                        parent = stack[-1][3] if stack else 0
                        spans.append((tracer.command, frame[3], parent, group, key,
                                      frame[1], end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_step(self, step, TU):
        """The per-node step of a traversal, counting its calls as visits."""
        if isinstance(step, TU):
            return TU(self._counting_step(step.run, TU), step.monoid)
        if getattr(step, "_visits_counted", False):
            return step
        counts = self.counts

        def visit(z):
            counts["strategies.visits"] += 1
            return step(z)

        visit._visits_counted = True
        return visit

    def _strategy_run(self, strategy, key: str, TU):
        """A strategy whose every run is a span of the strategies layer."""
        if isinstance(strategy, TU):
            return TU(self._strategy_run(strategy.run, key, TU), strategy.monoid)
        return self._timed(strategy, "strategies", key)

    def _scheme(self, fn, key: str, TU):
        def scheme(step, *rest, **kwargs):
            built = fn(self._counting_step(step, TU), *rest, **kwargs)
            return self._strategy_run(built, key, TU)

        return scheme

    # -- installation -------------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every traced function in every ``zipstrat`` namespace that holds it."""
        import zipstrat
        from zipstrat import cli, letlang, lexing, smells, strategies, zipper

        counts = self.counts
        TU = strategies.TU

        def tokens(result):
            counts["lexing.tokens"] += len(result)

        def rewrite(key):
            def hook(result):
                if result is not None:
                    counts[key] += 1
            return hook

        groups = [
            (cli, ("main",), "cli", None),
            (lexing, ("tokenize",), "lexing.tokenize", tokens),
            (letlang, ("parse",), "letlang.parse", None),
            (letlang, ("pretty",), "letlang.pretty", None),
            (letlang, _ATTRIBUTES, "letlang.attr", None),
            (letlang, _LET_RULES, "letlang.rule", rewrite("letlang.rewrites")),
            (smells, ("parse_m",), "smells.parse_m", None),
            (smells, ("pretty_m",), "smells.pretty_m", None),
            (smells, _SMELL_RULES, "smells.rule", rewrite("smells.rewrites")),
            (strategies, ("apply_tp", "apply_tu"), "strategies", None),
            (zipper, ("to_zipper", "from_zipper", "export_ast", "import_ast", "import_json"),
             "zipper", None),
            (zipper, ("export_json",), "zipper.export_json", None),
        ]
        wrappers: dict[object, object] = {}  # original function -> wrapper
        for module, names, group, hook in groups:
            layer = module.__name__.rpartition(".")[2]
            for name in names:
                fn = module.__dict__[name]
                wrappers[fn] = self._timed(fn, group, f"{layer}.{name}.calls", hook)
        for name in _SCHEMES:
            fn = strategies.__dict__[name]
            wrappers[fn] = self._scheme(fn, f"strategies.{name}.calls", TU)
        # Replace each original wherever a zipstrat module holds it.
        for module in (zipstrat, cli, letlang, lexing, smells, strategies, zipper):
            for name, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type):
                    wrapper = wrappers.get(value)
                    if wrapper is not None:
                        self._set(module, name, wrapper)

        for name in _ZIPPER_METHODS:
            self._set(zipper.Zipper, name,
                      self._timed(zipper.Zipper.__dict__[name], "zipper", f"zipper.{name}.calls"))
        for name in _LANGUAGE_METHODS:
            self._set(zipper.Language, name,
                      self._timed(zipper.Language.__dict__[name], "zipper", f"zipper.{name}.calls"))

    def remove(self) -> None:
        """Put every original function back."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------------------

    def layer_metrics(self, slowdown: float = 1.0) -> dict[str, float]:
        """The per-layer metrics of everything run while installed.

        Self times are divided by ``slowdown``, the machine's slowdown
        against the reference machine while the commands ran.
        """
        c = self.counts
        t = defaultdict(float, {group: s / slowdown for group, s in self.self_s.items()})
        let_attempts = sum(c[f"letlang.{n}.calls"] for n in _LET_RULES)
        smell_attempts = sum(c[f"smells.{n}.calls"] for n in _SMELL_RULES)
        rewrites = c["letlang.rewrites"] + c["smells.rewrites"]
        return {
            "cli.self_s": t["cli"],
            "lexing.tokenize.self_s": t["lexing.tokenize"],
            "lexing.tokens": c["lexing.tokens"],
            "lexing.tokens_per_s": _ratio(c["lexing.tokens"], t["lexing.tokenize"]),
            "letlang.parse.self_s": t["letlang.parse"],
            "letlang.pretty.self_s": t["letlang.pretty"],
            "letlang.attr.self_s": t["letlang.attr"],
            "letlang.env.calls": c["letlang.env.calls"],
            "letlang.dclo.calls": c["letlang.dclo.calls"],
            "letlang.dcli.calls": c["letlang.dcli.calls"],
            "letlang.lev.calls": c["letlang.lev.calls"],
            "letlang.rule.self_s": t["letlang.rule"],
            "letlang.rule.attempts": let_attempts,
            "letlang.rewrites": c["letlang.rewrites"],
            "letlang.rule_hit_ratio": _ratio(c["letlang.rewrites"], let_attempts),
            "smells.parse_m.self_s": t["smells.parse_m"],
            "smells.pretty_m.self_s": t["smells.pretty_m"],
            "smells.rule.self_s": t["smells.rule"],
            "smells.rule.attempts": smell_attempts,
            "smells.rewrites": c["smells.rewrites"],
            "smells.rule_hit_ratio": _ratio(c["smells.rewrites"], smell_attempts),
            "strategies.self_s": t["strategies"],
            "strategies.visits": c["strategies.visits"],
            "strategies.visits_per_rewrite": _ratio(c["strategies.visits"], rewrites),
            "zipper.self_s": t["zipper"],
            "zipper.moves": sum(c[f"zipper.{n}.calls"] for n in _MOVES),
            "zipper.rebuild.calls": c["zipper.rebuild.calls"],
            "zipper.children.calls": c["zipper.children.calls"],
            "zipper.export_json.self_s": t["zipper.export_json"],
        }


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was done."""
    return num / den if den else 0.0


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that are counts, which must repeat exactly on one input."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".attempts", ".rewrites", ".visits", ".tokens", ".moves"))}
