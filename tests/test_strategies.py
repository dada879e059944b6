"""Strategy combinators: dispatch, composition, traversal order, normalization."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from generators import (
    NAME_POOL,
    let_exps,
    let_programs,
    mexps,
    random_exp,
    random_mexp,
    random_program,
    random_wellscoped_program,
)
import oracles
from oracles import (
    all_normal_forms,
    diff_positions,
    normalize_anywhere,
    positions,
    postorder_positions,
    postorder_values,
    preorder_values,
    preorder_tags,
    redexes,
    typed_rule,
)
from programs import (
    ERRORS_ROOT,
    RUNNING,
    RUNNING_ARITH_NF,
    RUNNING_ROOT,
    flat_source,
    neg_chain_source,
    rev_source,
    sub_chain_source,
)
from zipstrat import letlang, smells, strategies
from zipstrat.letlang import (
    LANG,
    Add,
    Const,
    EmptyList,
    Exp,
    List,
    Neg,
    Var,
    errors_ag,
    errors_strategic,
    expr,
    parse,
    program_step,
    root_zipper,
    select,
)
from zipstrat.smells import mexp_zipper, smell_step
from zipstrat.strategies import (
    FuelExhaustedError,
    Monoid,
    TU,
    adhoc_tp,
    adhoc_tpz,
    adhoc_tu,
    apply_tp,
    apply_tu,
    choice_tp,
    choice_tu,
    const_tu,
    fail_tp,
    fail_tu,
    full_bu_tp,
    full_bu_tu,
    full_td_tp,
    full_td_tu,
    id_tp,
    innermost,
    mono_tp,
    mono_tpz,
    mono_tu,
    mono_tuz,
    once_bu_tp,
    once_bu_tu,
    once_td_tp,
    once_td_tu,
    outermost,
    repeat_tp,
    seq_tp,
    seq_tu,
    stop_bu_tp,
    stop_bu_tu,
    stop_td_tp,
    stop_td_tu,
    try_tp,
)
from zipstrat.zipper import Language, TypePreservationError, Zipper, from_zipper, to_zipper

B_PLUS_ZERO = Add(Var("b"), Const(0))


def zipper_of(value):
    return to_zipper(value, LANG)


def arith() -> object:
    return adhoc_tp(fail_tp, Exp, expr)


select_tu = adhoc_tu(fail_tu(), List, select)


# -- primitives ---------------------------------------------------------------


def test_id_and_fail():
    z = zipper_of(RUNNING)
    assert id_tp(z) == z
    assert fail_tp(z) is None
    assert apply_tp(fail_tp, z) is None
    assert apply_tu(const_tu([]), z) == []
    assert apply_tu(fail_tu(), z) is None


def test_try_tp():
    z = zipper_of(RUNNING)
    assert try_tp(fail_tp)(z) == z
    bumped = try_tp(mono_tp(Exp, expr))
    assert bumped(zipper_of(B_PLUS_ZERO)).focus == Var("b")


def test_repeat_tp_zero_iterations():
    z = zipper_of(RUNNING)
    assert repeat_tp(fail_tp)(z) == z


def recorded(s):
    """``s`` and the list of (position, new constructor) of its successful calls."""
    hits = []

    def run(z):
        r = s(z)
        if r is not None:
            hits.append((r.position, type(r.focus).__name__))
        return r

    return run, hits


def outcome(driver, s, z, fuel):
    """The normalized root, or the error a runaway ended in, and the rewrites made."""
    step, hits = recorded(s)
    try:
        out = from_zipper(driver(strategies._metered(step, fuel))(z))
    except (FuelExhaustedError, RecursionError) as exc:
        out = type(exc)
    return out, hits


def restarting(s):
    """The reference driver: a leftmost-innermost search restarted after every rewrite."""
    return repeat_tp(once_bu_tp(s))


def test_repeat_tp_matches_innermost():
    rng = random.Random(5)
    cases = [(arith(), zipper_of(RUNNING)), (arith(), zipper_of(RUNNING_ROOT))]
    cases += [(arith(), zipper_of(random_exp(rng, rng.randint(0, 5), NAME_POOL)))
              for _ in range(60)]
    # Shadowing makes inlining capture names, so some programs grow without end.
    cases += [(program_step(), root_zipper(random_program(rng, rng.randint(1, 4))))
              for _ in range(150)]
    cases += [(smell_step(), mexp_zipper(random_mexp(rng, rng.randint(0, 6))))
              for _ in range(150)]
    # Some runaways deepen the tree exponentially; a fixed stack bound keeps
    # them short whatever limit an earlier test (through ``cli.main``) set.
    runaways, limit = 0, sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for step, z in cases:
            expected, expected_hits = outcome(restarting, step, z, 60)
            got, hits = outcome(innermost, step, z, 60)
            assert got == expected
            if got is RecursionError:
                # Where the stack gives out depends on the driver's own frames.
                shorter = min(len(hits), len(expected_hits))
                assert hits[:shorter] == expected_hits[:shorter]
            else:
                assert hits == expected_hits
            runaways += got in (FuelExhaustedError, RecursionError)
    finally:
        sys.setrecursionlimit(limit)
    assert runaways > 0


# -- adhoc dispatch --------------------------------------------------------------


def test_adhoc_applies_typed_function():
    z = zipper_of(B_PLUS_ZERO)
    out = adhoc_tp(fail_tp, Exp, expr)(z)
    assert out.focus == Var("b")


def test_adhoc_falls_back_on_rule_failure():
    # expr declines Var nodes, so the failing base decides
    z = zipper_of(Var("x"))
    assert adhoc_tp(fail_tp, Exp, expr)(z) is None
    assert adhoc_tp(id_tp, Exp, expr)(z) == z


def test_adhoc_falls_back_on_type_mismatch():
    z = zipper_of(RUNNING)  # a Let focus; expr wants Exp
    assert adhoc_tp(fail_tp, Exp, expr)(z) is None
    assert adhoc_tp(id_tp, Exp, expr)(z) == z


def test_adhoc_tu_dispatch():
    assign = RUNNING.decls
    assert apply_tu(select_tu, zipper_of(assign)) == ["a"]
    assert apply_tu(select_tu, zipper_of(B_PLUS_ZERO)) is None


def test_mono_variants():
    z = zipper_of(B_PLUS_ZERO)
    assert mono_tp(Exp, expr)(z).focus == Var("b")
    assert mono_tp(Exp, expr)(zipper_of(Var("x"))) is None
    assert mono_tpz(Exp, lambda e, _z: expr(e))(z).focus == Var("b")
    decl = zipper_of(RUNNING.decls)
    assert apply_tu(mono_tu(List, select), decl) == ["a"]
    assert apply_tu(mono_tuz(List, lambda n, _z: select(n)), decl) == ["a"]
    assert apply_tu(mono_tu(List, select), z) is None


def test_a_chain_tries_its_rules_last_added_first():
    seen = []

    def rule(name, result=None):
        def f(e, *z):
            seen.append(name)
            return result
        return f

    step = adhoc_tp(adhoc_tpz(adhoc_tp(fail_tp, Exp, rule("first")), Exp, rule("second")),
                    List, rule("list"))
    step = adhoc_tp(step, Exp, rule("third"))
    assert step(zipper_of(Var("x"))) is None
    assert seen == ["third", "second", "first"]
    seen.clear()
    assert adhoc_tp(step, Exp, rule("fourth", Const(7)))(zipper_of(Var("x"))).focus == Const(7)
    assert seen == ["fourth"]
    seen.clear()
    assert step(zipper_of(RUNNING.decls)) is None  # extending ``step`` left it as it was
    assert seen == ["list"]


def test_a_rule_that_changes_the_nominal_type_raises():
    step = adhoc_tp(arith(), Exp, lambda e: EmptyList())
    with pytest.raises(TypePreservationError):
        step(zipper_of(Var("x")))
    # A TU rule's result is a value, not a node.
    query = adhoc_tu(fail_tu(), Exp, lambda e: EmptyList())
    assert apply_tu(query, zipper_of(Var("x"))) == EmptyList()


class First:
    pass


class Second:
    pass


@dataclasses.dataclass(frozen=True)
class Shared(First, Second):
    n: int


def test_a_chain_dispatches_on_each_zippers_language():
    # One class, two languages, two nominal types: the rules to try depend on the
    # language too, so a table keyed by the class alone would pick the wrong ones.
    one, two = Language("one"), Language("two")
    one.register(First, Shared)
    two.register(Second, Shared)
    step = adhoc_tp(adhoc_tp(fail_tp, First, lambda s: Shared(1)), Second, lambda s: Shared(2))
    names = adhoc_tu(adhoc_tu(fail_tu(), First, lambda s: ["one"]), Second, lambda s: ["two"])
    for _ in range(2):
        for lang, n, name in ((one, 1, "one"), (two, 2, "two")):
            assert step(to_zipper(Shared(0), lang)).focus == Shared(n)
            assert apply_tu(full_td_tu(names), to_zipper(Shared(0), lang)) == [name]


def test_a_chain_asks_for_a_classs_nominal_type_once(monkeypatch):
    calls = []
    nominal = Language.nominal

    def counting(self, value):
        calls.append(type(value))
        return nominal(self, value)

    monkeypatch.setattr(Language, "nominal", counting)
    step = adhoc_tp(adhoc_tp(fail_tp, Exp, expr), List, lambda n: None)
    for _ in range(3):
        assert step(zipper_of(Var("x"))) is None
        assert step(zipper_of(Var("y"))) is None
    assert calls == [Var]


def smell_visits(monkeypatch, source):
    """``smell_elim`` on ``source``: the visited classes, the visit and rewrite
    counts, and the ``Language.nominal`` calls made."""
    classes, counts = set(), {"visits": 0, "rewrites": 0, "nominal": 0}
    nominal, step = Language.nominal, smells.smell_step

    def counting_nominal(self, value):
        counts["nominal"] += 1
        return nominal(self, value)

    def counting_step():
        inner = step()

        def visit(z):
            classes.add(type(z.focus))
            counts["visits"] += 1
            r = inner(z)
            counts["rewrites"] += r is not None
            return r

        return visit

    monkeypatch.setattr(Language, "nominal", counting_nominal)
    monkeypatch.setattr(smells, "smell_step", counting_step)
    smells.smell_elim(smells.mexp_zipper(smells.parse_m(source)))
    return classes, counts


def test_smell_elim_asks_for_a_nominal_type_once_per_class(monkeypatch):
    # Dispatch asks once per focus class; ``trans_m`` asks twice per rewrite (the
    # result's type and the focus's).  One closure per rule asked at every visit.
    source = ("[if (length xs == 0) then True else False, f ([1] ++ ys), "
              "if p then False else True, null (f xs), b == True, [n, 2, 3] ++ ys]")
    classes, counts = smell_visits(monkeypatch, source)
    assert counts["visits"] >= 50
    assert counts["rewrites"] > 0
    assert counts["nominal"] <= len(classes) + 2 * counts["rewrites"]


@pytest.mark.parametrize("root", [RUNNING_ROOT, ERRORS_ROOT], ids=["running", "errors"])
def test_errors_strategic_asks_for_a_nominal_type_once_per_class(monkeypatch, root):
    calls = []
    nominal = Language.nominal

    def counting(self, value):
        calls.append(type(value))
        return nominal(self, value)

    expected = errors_ag(root_zipper(root))
    monkeypatch.setattr(Language, "nominal", counting)
    assert errors_strategic(root_zipper(root)) == expected
    assert len(calls) <= len({type(v) for v in preorder_values(root, LANG)})


# -- composition and choice ----------------------------------------------------


def test_seq_tp_skips_failures():
    z = zipper_of(RUNNING)
    assert seq_tp(fail_tp, id_tp)(z) == z
    assert seq_tp(id_tp, fail_tp)(z) == z
    assert seq_tp(fail_tp, fail_tp)(z) is None


def test_seq_tp_applies_in_order():
    z = zipper_of(Neg(Neg(Const(1))))
    unwrap = mono_tp(Exp, expr)  # strips one layer each application
    assert seq_tp(unwrap, unwrap)(z).focus == Const(1)


def test_choice_tp_unit_laws():
    z = zipper_of(RUNNING)
    s = mono_tp(Exp, expr)
    for probe in (zipper_of(B_PLUS_ZERO), z):
        left = choice_tp(fail_tp, s)(probe)
        right = choice_tp(s, fail_tp)(probe)
        assert left == s(probe)
        assert right == s(probe)


def test_seq_tu_append_order():
    z = zipper_of(Const(1))
    assert apply_tu(seq_tu(const_tu([1]), const_tu([2])), z) == [1, 2]
    assert apply_tu(seq_tu(fail_tu(), const_tu([2])), z) == [2]
    assert apply_tu(seq_tu(const_tu([1]), fail_tu()), z) == [1]
    assert apply_tu(seq_tu(fail_tu(), fail_tu()), z) is None


def test_choice_tu_first_success():
    z = zipper_of(Const(1))
    assert apply_tu(choice_tu(const_tu([1]), const_tu([2])), z) == [1]
    assert apply_tu(choice_tu(fail_tu(), const_tu([2])), z) == [2]


def test_tu_compositions_reject_two_monoids():
    other = Monoid(tuple, lambda a, b: a + b)
    for compose in (seq_tu, choice_tu):
        with pytest.raises(ValueError):
            compose(const_tu([1]), const_tu((2,), other))
        assert apply_tu(compose(fail_tu(other), const_tu((2,), other)), zipper_of(Const(1))) == (2,)


# -- failing searches ----------------------------------------------------------

TRAVERSALS = [
    full_td_tp, full_bu_tp, once_td_tp, once_bu_tp, stop_td_tp, stop_bu_tp,
    full_td_tu, full_bu_tu, once_td_tu, once_bu_tu, stop_td_tu, stop_bu_tu,
]


@pytest.mark.parametrize("traversal", TRAVERSALS, ids=lambda t: t.__name__)
def test_failing_search_rebuilds_nothing(traversal, monkeypatch):
    rebuilds = []
    rebuild = Language.rebuild

    def counting(self, tag, children):
        rebuilds.append(tag)
        return rebuild(self, tag, children)

    monkeypatch.setattr(Language, "rebuild", counting)
    z = zipper_of(RUNNING_ROOT)
    if traversal.__name__.endswith("_tp"):
        assert traversal(fail_tp)(z) is None
    else:
        assert traversal(fail_tu())(z) in (None, [])
    assert rebuilds == []


TREES = hst.one_of(
    let_programs().map(lambda root: (root, LANG)),
    mexps.map(lambda e: (e, smells.LANG)),
)


def _strictly_below(q, p) -> bool:
    return len(q) > len(p) and q[: len(p)] == p


def expected_walk(name, root, lang, hits):
    """The (visits, successes) a traversal must show, from the plain position oracles."""
    kind, order, _ = name.split("_")
    walk = positions(root, lang) if order == "td" else postorder_positions(root, lang)
    if kind == "once":
        first = next((i for i, p in enumerate(walk) if p in hits), len(walk) - 1)
        visits = walk[: first + 1]
    elif kind == "stop" and order == "td":
        visits = [p for p in walk if not any(_strictly_below(p, h) for h in hits)]
    elif kind == "stop":
        visits = [p for p in walk if not any(_strictly_below(h, p) for h in hits)]
    else:
        visits = walk
    return visits, [p for p in visits if p in hits]


@given(TREES, hst.integers(0, 2**32 - 1), hst.sampled_from((0.0, 0.1, 0.3, 1.0)), hst.booleans())
def test_traversals_match_position_oracles(tree, seed, density, fresh):
    root, lang = tree
    rng = random.Random(seed)
    hits = {p for p in positions(root, lang) if rng.random() < density}
    z = to_zipper(root, lang)
    for traversal in TRAVERSALS:
        name = traversal.__name__
        expected_visits, expected_successes = expected_walk(name, root, lang, hits)
        visits, successes = [], []

        def visit(z):
            visits.append(z.position)
            return z.position in hits

        if name.endswith("_tu"):
            out = traversal(TU(lambda z: [z.position] if visit(z) else None))(z)
            failed = None if name.startswith("once_") else []
            assert out == (expected_successes or failed), name
        else:

            def step(z):
                if not visit(z):
                    return None
                successes.append(z.position)
                # A fresh zipper on the same node makes the walk move back up through it.
                return dataclasses.replace(z) if fresh else z

            out = traversal(step)(z)
            assert successes == expected_successes, name
            if successes:
                assert out.position == () and from_zipper(out) == root, name
            else:
                assert out is None, name
        assert visits == expected_visits, name


@pytest.mark.parametrize("driver, walk", [
    (innermost, postorder_positions),
    (outermost, positions),
], ids=["innermost", "outermost"])
@pytest.mark.parametrize("root, lang", [
    (RUNNING_ROOT, LANG),
    (smells.parse_m("if [x] ++ xs == [] then True else False"), smells.LANG),
], ids=["let", "mexp"])
def test_normalizer_without_a_redex_hands_back_its_input(driver, walk, root, lang, monkeypatch):
    rebuilds, visits = [], []
    rebuild = Language.rebuild

    def counting(self, tag, children):
        rebuilds.append(tag)
        return rebuild(self, tag, children)

    def never(z):
        visits.append(z.position)
        return None

    monkeypatch.setattr(Language, "rebuild", counting)
    z = to_zipper(root, lang)
    assert driver(never)(z) is z
    assert visits == walk(root, lang)
    assert rebuilds == []


@pytest.mark.parametrize("traversal", [t for t in TRAVERSALS if t.__name__.endswith("_tu")],
                         ids=lambda t: t.__name__)
def test_tu_traversals_never_move_up(traversal, monkeypatch):
    # A TU step hands the zipper back unchanged, so the walk has nothing to put back.
    ups = []
    up = Zipper.up

    def counting(self):
        ups.append(self.position)
        return up(self)

    monkeypatch.setattr(Zipper, "up", counting)
    assert traversal(const_tu([1]))(zipper_of(RUNNING_ROOT))
    assert ups == []


@pytest.mark.parametrize("analysis", [errors_strategic, letlang.names])
def test_a_walk_moves_down_once_per_node_and_reads_no_child_list(analysis, monkeypatch):
    # Moves read the compiled accessor, and the kernel asks no leaf for its children.
    root = letlang.parse(flat_source(40))
    nodes = Counter(id(v) for v in preorder_values(root, LANG) if type(v) not in (bool, int, str))
    downs, lists = Counter(), []
    down_left, children = Zipper.down_left, Language.children
    monkeypatch.setattr(Zipper, "down_left", lambda z: downs.update([id(z.focus)]) or down_left(z))
    monkeypatch.setattr(Language, "children", lambda lang, v: lists.append(v) or children(lang, v))
    analysis(root_zipper(root))
    assert lists == []
    assert downs == nodes


def test_only_the_kernel_moves_a_zipper():
    # One walker: a second copy of descend / move right / move up would have to
    # be kept in step with the kernel by hand.
    moves = {"down_left", "down_right", "left", "right", "up"}
    tree = ast.parse(Path(strategies.__file__).read_text(encoding="utf-8"))
    movers = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in moves
    }
    assert movers == {"_tp"}


def test_only_the_meter_charges_the_budget():
    # One count per run, in one place: the kernel walks and leaves the budget
    # to the meter around its step.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(strategies.__file__).parent.glob("*.py")}
    charging = {
        top.name
        for tree in trees.values()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "FuelExhaustedError"
    }
    assert charging == {"_metered"}
    (kernel,) = (top for top in trees["strategies.py"].body if getattr(top, "name", None) == "_tp")
    assert [a.arg for a in kernel.args.args + kernel.args.kwonlyargs] == ["s", "order", "policy"]


def test_a_budget_enters_only_through_scheme():
    # One door: each run of a scheme builds the one meter, and the combinators
    # it drives take no budget of their own.  A let rewrite run is assembled
    # only by ``letlang.optimize_program``, which builds a rule step per run;
    # the CLI and the scripts assemble none.
    paths = [*Path(strategies.__file__).parent.glob("*.py"),
             *(Path(__file__).resolve().parents[1] / "scripts").glob("*.py")]
    callers, functions = {}, {}  # callee -> [(path, caller)]; function name -> definition
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if isinstance(top, ast.FunctionDef):
                functions[top.name] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(callee, []).append((path, where))
    assert [where for _, where in callers["_metered"]] == ["strategies.scheme"]
    assert sorted(where for _, where in callers["scheme"]) == [
        "letlang.optimize_program", "smells.smell_elim"]
    assert [where for _, where in callers["program_step"]] == ["letlang.optimize_program"]
    assert not [where for name in ("scheme", "apply_tp") for path, where in callers[name]
                if path.stem == "cli" or path.parent.name == "scripts"]
    for name in ("repeat_tp", "innermost", "outermost"):
        args = functions[name].args
        assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["s"], name


# -- full traversals -----------------------------------------------------------


def test_full_td_tu_names_order():
    z = zipper_of(RUNNING)
    assert apply_tu(full_td_tu(select_tu), z) == ["a", "c", "b", "c"]


def test_full_bu_tu_reverses_names_on_spine():
    z = zipper_of(RUNNING)
    assert apply_tu(full_bu_tu(select_tu), z) == ["c", "b", "c", "a"]


def test_full_td_tu_visit_order_is_preorder():
    tags = TU(lambda z: [z.lang.tag(z.focus)])
    assert apply_tu(full_td_tu(tags), zipper_of(RUNNING_ROOT)) == preorder_tags(
        RUNNING_ROOT, LANG
    )


def test_full_bu_tu_visit_order_is_postorder():
    tags = TU(lambda z: [z.lang.tag(z.focus)])
    expected = [LANG.tag(v) for v in postorder_values(RUNNING_ROOT, LANG)]
    assert apply_tu(full_bu_tu(tags), zipper_of(RUNNING_ROOT)) == expected


def test_full_td_tp_all_failed_fails():
    assert full_td_tp(fail_tp)(zipper_of(RUNNING)) is None
    assert full_bu_tp(fail_tp)(zipper_of(RUNNING)) is None


def test_full_td_tp_rewrites_each_node_once():
    z = zipper_of(Add(Add(Var("a"), Const(0)), Const(0)))
    # The root rewrite exposes a new redex at the root, but a single sweep
    # never revisits it; this is why normalization needs innermost.
    out = full_td_tp(arith())(z)
    assert out.focus == Add(Var("a"), Const(0))


def test_full_bu_tp_children_before_node():
    z = zipper_of(Neg(Neg(Const(3))))
    # Bottom-up sees the inner negation first: neg(const) fires below,
    # giving neg(-3), which the node-level visit folds to 3.
    out = full_bu_tp(arith())(z)
    assert out.focus == Const(3)


def test_monoid_generality_counting():
    count = Monoid(lambda: 0, lambda a, b: a + b)
    ones = TU(lambda z: 1, count)
    total = apply_tu(full_td_tu(ones), zipper_of(RUNNING_ROOT))
    assert total == len(preorder_tags(RUNNING_ROOT, LANG))


def test_tu_traversals_combine_in_a_balanced_tree():
    # Folding k list results one after another copies about k*k/2 elements;
    # combining neighbours round after round copies each result log2(k) times.
    n = 3000
    copied = []
    wrapping = Monoid(list, lambda a, b: copied.append(len(a) + len(b)) or a + b)
    source = "let " + "\n".join(f"x{i} = {i}" for i in range(n)) + "\nin x0"
    z = root_zipper(parse(source))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n))
    try:
        got = apply_tu(full_td_tu(adhoc_tu(fail_tu(wrapping), List, select)), z)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [f"x{i}" for i in range(n)]
    assert len(copied) == n  # one fewer than the results: n names and the end's []
    assert sum(copied) <= n * 13


# -- once traversals --------------------------------------------------------------


def test_once_bu_rewrites_leftmost_innermost():
    z = zipper_of(RUNNING_ROOT)
    out = once_bu_tp(arith())(z)
    before = from_zipper(z)
    after = from_zipper(out)
    diffs = diff_positions(before, after, LANG)
    assert len(diffs) == 1
    # brute-force says the first redex in postorder is b + 0
    rule = typed_rule(Exp, expr)
    post = [v for v in postorder_values(before, LANG) if rule(v) is not None]
    assert post[0] == B_PLUS_ZERO
    assert after.let.decls.exp == Var("b")


def test_once_td_rewrites_leftmost_outermost():
    t = Add(Add(Var("a"), Const(0)), Const(0))
    out = once_td_tp(arith())(zipper_of(t))
    # the outer redex wins top-down
    assert out.focus == Add(Var("a"), Const(0))


def test_once_no_match_fails():
    z = zipper_of(Var("x"))
    assert once_td_tp(arith())(z) is None
    assert once_bu_tp(arith())(z) is None


def test_once_td_tu_first_preorder_success():
    assert apply_tu(once_td_tu(select_tu), zipper_of(RUNNING)) == ["a"]
    assert apply_tu(once_td_tu(select_tu), zipper_of(Const(1))) is None


def test_once_bu_tu_first_postorder_success():
    # select is total on list nodes, and the first list node in postorder is
    # the innermost spine terminator, which contributes nothing
    assert apply_tu(once_bu_tu(select_tu), zipper_of(RUNNING)) == []
    # with a declaration-only reducer, the innermost declaration wins
    picky = mono_tu(List, lambda n: [n.name] if not isinstance(n, EmptyList) else None)
    assert apply_tu(once_bu_tu(picky), zipper_of(RUNNING)) == ["c"]


# -- stop traversals ---------------------------------------------------------------


def test_stop_td_applies_once_at_root():
    z = zipper_of(Add(B_PLUS_ZERO, Const(0)))
    out = stop_td_tp(arith())(z)
    # success at the root prunes everything below
    assert out.focus == B_PLUS_ZERO


def test_stop_bu_never_matching_fails():
    assert stop_bu_tp(fail_tp)(zipper_of(RUNNING)) is None
    assert stop_td_tp(fail_tp)(zipper_of(RUNNING)) is None


def test_stop_bu_success_below_suppresses_node():
    z = zipper_of(Add(B_PLUS_ZERO, Const(0)))
    out = stop_bu_tp(arith())(z)
    # the inner redex fires; the then-reducible root is suppressed
    assert out.focus == Add(Var("b"), Const(0))


def test_stop_td_tu_prunes_after_success():
    # select succeeds on the first declaration node, pruning the rest of the
    # spine (the tail list is a child of that declaration).
    assert apply_tu(stop_td_tu(select_tu), zipper_of(RUNNING)) == ["a"]


def test_stop_bu_tu_keeps_only_innermost_matches():
    picky = mono_tu(List, lambda n: None if isinstance(n, EmptyList) else [n.name])
    assert apply_tu(stop_bu_tu(picky), zipper_of(RUNNING)) == ["c"]
    # the total reducer succeeds on the spine terminators below everything
    assert apply_tu(stop_bu_tu(select_tu), zipper_of(RUNNING)) == []


# -- normalization -----------------------------------------------------------------


def test_innermost_normalizes_running_example():
    out = innermost(arith())(zipper_of(RUNNING))
    assert out.focus == RUNNING_ARITH_NF
    # the oracle agrees
    oracle = normalize_anywhere(RUNNING, typed_rule(Exp, expr), LANG)
    assert oracle == RUNNING_ARITH_NF


def test_innermost_no_redex_is_identity():
    z = zipper_of(Var("x"))
    assert innermost(arith())(z) == z


def test_innermost_result_is_normal_form():
    out = innermost(arith())(zipper_of(RUNNING))
    assert once_bu_tp(arith())(out) is None


def test_innermost_fuel_guard():
    with pytest.raises(FuelExhaustedError):
        strategies.scheme("innermost", adhoc_tp(id_tp, Exp, expr), 1000)(zipper_of(RUNNING))


@pytest.mark.parametrize("step, z", [
    (arith(), zipper_of(RUNNING_ROOT)),
    (program_step(), zipper_of(RUNNING_ROOT)),
    (smell_step(), mexp_zipper(smells.parse_m("if [x] ++ xs == [] then True else False"))),
], ids=["arith", "program", "smells"])
def test_innermost_fuel_threshold(step, z):
    counted, hits = recorded(step)
    normal = innermost(counted)(z)
    k = len(hits)
    assert k > 0
    assert innermost(strategies._metered(step, k))(z) == normal
    for driver in (innermost, restarting):
        with pytest.raises(FuelExhaustedError):
            driver(strategies._metered(step, k - 1))(z)
    # Every scheme allows exactly as many rewrites as it makes unbounded.
    for name in strategies.SCHEMES:
        counted, hits = recorded(step)
        normal = strategies.scheme(name, counted)(z)
        k = len(hits)
        assert k > 0, name
        assert strategies.scheme(name, step, k)(z) == normal, name
        with pytest.raises(FuelExhaustedError):
            strategies.scheme(name, step, k - 1)(z)
    with pytest.raises(ValueError, match="unknown scheme 'sideways'"):
        strategies.scheme("sideways", step, k)


@settings(max_examples=30, deadline=None)
@given(hst.one_of(
    hst.integers(0, 2**32 - 1).map(
        lambda n: (program_step(), root_zipper(random_wellscoped_program(random.Random(n))))),
    hst.one_of(mexps, hst.integers(0, 10**6).map(lambda n: random_mexp(random.Random(n), 5)))
    .map(lambda term: (smell_step(), mexp_zipper(term)))),
    hst.integers(0, 20))
def test_every_scheme_stays_within_its_fuel(case, fuel):
    step, z = case
    for name in strategies.SCHEMES:
        counted, hits = recorded(step)
        try:
            strategies.scheme(name, counted, fuel)(z)
        except FuelExhaustedError:
            assert len(hits) == fuel + 1, name
        else:
            assert len(hits) <= fuel, name


def test_full_td_stops_at_its_fuel_on_rev_12():
    # Unbounded, the sweep inlines into every copy it made: 18,405 rewrites.
    counted, hits = recorded(program_step())
    with pytest.raises(FuelExhaustedError):
        strategies.scheme("full-td", counted, 100)(root_zipper(letlang.parse(rev_source(12))))
    assert len(hits) == 101


def test_the_fuel_message_puts_an_before_a_lower_case_vowel():
    z = root_zipper(letlang.parse("let a = 1 in a"))
    bump = adhoc_tp(fail_tp, int, lambda n: n + 1)
    with pytest.raises(FuelExhaustedError,
                       match=r"rewrite 4 turned an int into an int at \(0, 0, 1, 0\)$"):
        strategies.scheme("innermost", bump, 3)(z)


def test_innermost_fuel_guard_is_not_a_recursion():
    # A step that always succeeds rewrites one node over and over; the
    # driver loops there, so it runs out of fuel, not out of stack.
    deep = Const(1)
    for _ in range(3000):
        deep = Neg(deep)
    z = zipper_of(deep)
    for _ in range(2990):
        z = z.down_left()
    fuel = 2 * sys.getrecursionlimit()
    with pytest.raises(FuelExhaustedError):
        strategies.scheme("innermost", adhoc_tp(id_tp, Exp, expr), fuel)(z)


def test_innermost_renormalizes_only_what_a_rewrite_produced():
    n = 200
    items = tuple(
        smells.Infix("++", smells.ListLit((smells.Var(f"x{i}"),)), smells.Var("ys"))
        for i in range(n)
    )
    step = smell_step()
    calls = []

    def counting(z):
        calls.append(z)
        return step(z)

    out = innermost(counting)(mexp_zipper(smells.ListLit(items)))
    assert len(calls) <= 20 * n
    assert out.focus == smells.ListLit(
        tuple(smells.Infix(":", smells.Var(f"x{i}"), smells.Var("ys")) for i in range(n))
    )


def optimize_step_calls(monkeypatch, source, sizes):
    """The rule-step calls of ``optimize_program`` on ``source(n)`` for each size."""
    calls = []

    def counted_step():
        step = program_step()

        def counting(z):
            calls.append(None)
            return step(z)

        return counting

    monkeypatch.setattr(letlang, "program_step", counted_step)
    counts, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))  # the chain is as deep as it is long
    try:
        for n in sizes:
            calls.clear()
            letlang.optimize_program(root_zipper(parse(source(n))))
            counts.append(len(calls))
    finally:
        sys.setrecursionlimit(limit)
    return counts


def test_innermost_does_not_rewalk_what_a_rewrite_kept(monkeypatch):
    # Each ``x - 1`` becomes ``x + -1`` and keeps the chain to its left; a
    # walk that re-normalized it would make quadratically many step calls.
    counts = optimize_step_calls(monkeypatch, sub_chain_source, (250, 500, 1000))
    assert all(big <= 2.2 * small for small, big in zip(counts, counts[1:])), counts


def test_innermost_hands_back_a_kept_node_whole(monkeypatch):
    # ``- - e`` becomes ``e``, a grandchild that was a normal form already; a
    # walk that re-normalized it would make quadratically many step calls.
    counts = optimize_step_calls(monkeypatch, neg_chain_source, (100, 200, 400))
    assert all(big <= 2.2 * small for small, big in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("root", [RUNNING_ROOT, parse(rev_source(8))], ids=["running", "rev-8"])
def test_innermost_skips_kept_subtrees_without_changing_a_step(root):
    # In ``rev n`` an inlined definition sits at two places and is reached
    # before it is normalized: there identity could mislead the skip.
    z = root_zipper(root)
    expected, expected_hits = outcome(restarting, program_step(), z, strategies.DEFAULT_FUEL)
    got, hits = outcome(innermost, program_step(), z, strategies.DEFAULT_FUEL)
    assert got == expected
    assert hits == expected_hits


def test_outermost_agrees_on_confluent_rules():
    z = zipper_of(RUNNING)
    assert innermost(arith())(z).focus == outermost(arith())(z).focus


def test_innermost_matches_bruteforce_on_random_exps():
    rng = random.Random(20240917)
    rule = typed_rule(Exp, expr)
    for _ in range(120):
        e = random_exp(rng, rng.randint(0, 5), NAME_POOL)
        got = from_zipper(innermost(arith())(zipper_of(e)))
        assert got == normalize_anywhere(e, rule, LANG)
        assert not redexes(got, rule, LANG)


def test_rules_confluent_on_small_exps():
    rng = random.Random(7)
    rule = typed_rule(Exp, expr)
    for _ in range(40):
        e = random_exp(rng, rng.randint(0, 3), NAME_POOL)
        forms = all_normal_forms(e, rule, LANG)
        assert len(forms) == 1


# -- focus preservation -----------------------------------------------------------

COMBINATORS = [
    ("try", lambda s: try_tp(s)),
    ("repeat", lambda s: repeat_tp(strategies._metered(s, 10_000))),
    ("seq", lambda s: seq_tp(s, id_tp)),
    ("choice", lambda s: choice_tp(s, fail_tp)),
    ("full_td", full_td_tp),
    ("full_bu", full_bu_tp),
    ("once_td", once_td_tp),
    ("once_bu", once_bu_tp),
    ("stop_td", stop_td_tp),
    ("stop_bu", stop_bu_tp),
    ("innermost", lambda s: strategies.scheme("innermost", s, 10_000)),
    ("outermost", lambda s: strategies.scheme("outermost", s, 10_000)),
]


@given(let_programs(), hst.lists(hst.sampled_from(("down_left", "right", "up")), max_size=6))
def test_focus_preservation(root, moves):
    z = to_zipper(root, LANG)
    for m in moves:
        nxt = getattr(z, m)()
        if nxt is not None:
            z = nxt
    step = arith()
    for name, combinator in COMBINATORS:
        out = apply_tp(combinator(step), z)
        if out is not None:
            assert out.position == z.position, name


@given(let_exps)
def test_try_and_repeat_reach_fixed_points(e):
    z = zipper_of(e)
    step = arith()
    tried = try_tp(step)(z)
    assert tried is not None
    normal = repeat_tp(once_bu_tp(strategies._metered(step, 10_000)))(z)
    assert once_bu_tp(step)(normal) is None


# -- the closure-based chains as oracle ------------------------------------------

RULES = {
    smells: ("join_list", "null_list", "redundant_boolean", "redundant_if"),
    letlang: ("expr", "exp_c", "uses", "decls", "select"),
}


def recording(name, f, log):
    # The focus's class and index, not the focus and its position: a runaway's
    # trees share subtrees, so comparing two runs' copies would take time
    # exponential in their depth, and a position costs its depth.
    def rule(v, *z):
        log.append((name, type(v).__name__, *(w.index for w in z)))
        return f(v, *z)

    return rule


def built_by(impl, run):
    """``run()``'s result (or exception type) and the rule calls it made, with every
    ``adhoc`` of the rule modules taken from ``impl``.

    Capturing inlines can deepen a tree without end before the fuel runs out;
    a fixed stack bound keeps those runs short.
    """
    log = []
    with contextlib.ExitStack() as stack:
        for module, names in RULES.items():
            for name in names:
                rule = recording(name, getattr(module, name), log)
                stack.enter_context(mock.patch.object(module, name, rule))
        for name in ("adhoc_tp", "adhoc_tpz", "adhoc_tu", "adhoc_tuz"):
            stack.enter_context(mock.patch.object(letlang, name, getattr(impl, name)))
        stack.enter_context(mock.patch.object(smells, "adhoc_tp", impl.adhoc_tp))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            result = run()
        except Exception as exc:
            result = type(exc)
        finally:
            sys.setrecursionlimit(limit)
    return result, log


def retyped(e):
    """A rule that turns a negation into a declaration list."""
    return EmptyList() if isinstance(e, Neg) else None


# Steps built through the patched names, so each is built by the ``impl`` in force.
LET_STEPS = {
    "program": lambda: letlang.program_step(),
    "arith": lambda: letlang.arith_step(),
    "retyped": lambda: letlang.adhoc_tp(letlang.program_step(), Exp, retyped),
    "over id": lambda: letlang.adhoc_tp(id_tp, Exp, letlang.expr),
    "over try": lambda: letlang.adhoc_tpz(try_tp(letlang.arith_step()), Exp, letlang.exp_c),
}
LET_QUERIES = {
    "errors": lambda: letlang.adhoc_tuz(letlang.adhoc_tuz(fail_tu(), Exp, letlang.uses),
                                        List, letlang.decls),
    "names": lambda: letlang.adhoc_tu(fail_tu(), List, letlang.select),
}
TU_TRAVERSALS = (full_td_tu, full_bu_tu, once_td_tu, once_bu_tu, stop_td_tu, stop_bu_tu)


def agree(run):
    (got, calls), (want, expected) = built_by(strategies, run), built_by(oracles, run)
    if RecursionError in (got, want):
        # Where a runaway runs out of stack depends on how many frames a visit
        # takes; up to there, the rule calls are the same.
        n = min(len(calls), len(expected))
        assert calls[:n] == expected[:n]
    else:
        assert (got, calls) == (want, expected)


@settings(max_examples=25, deadline=None)
@given(hst.one_of(let_programs(),
                  hst.integers(0, 2**32 - 1).map(lambda n: random_program(random.Random(n))),
                  hst.integers(0, 2**32 - 1).map(
                      lambda n: random_wellscoped_program(random.Random(n)))))
def test_let_chains_agree_with_the_closure_chains(root):
    for build in LET_STEPS.values():
        for name in strategies.SCHEMES:
            agree(lambda: from_zipper(
                strategies.scheme(name, build(), fuel=12)(root_zipper(root))))
    for build in LET_QUERIES.values():
        for traversal in TU_TRAVERSALS:
            agree(lambda: apply_tu(traversal(build()), root_zipper(root)))
    agree(lambda: letlang.errors_strategic(root_zipper(root)))


@settings(max_examples=40, deadline=None)
@given(hst.one_of(mexps, hst.integers(0, 10**6).map(lambda n: random_mexp(random.Random(n), 5))))
def test_smell_chain_agrees_with_the_closure_chain(term):
    for name in strategies.SCHEMES:
        agree(lambda: from_zipper(strategies.scheme(name, smells.smell_step(), fuel=40)(
            mexp_zipper(term))))
