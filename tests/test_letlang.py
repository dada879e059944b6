"""The let language: syntax, scope attributes, error analyses, optimizer, eval."""

from __future__ import annotations

import ast
import gc
import random
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counting import line_events
from generators import NAME_POOL, let_programs, random_program, random_wellscoped_program
from oracles import (
    dcli_spec,
    dclo_spec,
    decls_spec,
    env_spec,
    exp_c_spec,
    let_names_walk,
    normalize_anywhere,
    positions,
    preorder_values,
    scope_errors_walk,
    subtree_at,
    typed_rule,
    uses_spec,
)
from programs import (
    ERRORS_ROOT,
    ERRORS_SOURCE,
    EXPECTED_ERRORS,
    RUNNING,
    RUNNING_ARITH_NF,
    RUNNING_ROOT,
    RUNNING_SOURCE,
    RUNNING_VALUE,
)
from zipstrat import letlang
from zipstrat.letlang import (
    LANG,
    Add,
    Assign,
    Const,
    EmptyList,
    Exp,
    Let,
    Neg,
    NestedLet,
    ParseError,
    Root,
    ScopeDomainError,
    Sub,
    Var,
    arith_step,
    dcli,
    dclo,
    decls,
    env,
    errors_ag,
    errors_strategic,
    eval_program,
    exp_c,
    expr,
    lev,
    lexeme,
    lexeme_assign,
    must_be_in,
    must_not_be_in,
    names,
    select,
    uses,
    optimize_program,
    parse,
    pretty,
    program_step,
    root_zipper,
)
from zipstrat.strategies import (
    SCHEMES,
    FuelExhaustedError,
    adhoc_tp,
    adhoc_tpz,
    apply_tp,
    fail_tp,
    full_td_tp,
    id_tp,
    innermost,
    once_bu_tp,
    scheme,
)
from zipstrat.lexing import MAX_DEPTH, DepthError, TokenStream, tokenize
from zipstrat.zipper import Language, Zipper, export_ast, from_zipper, to_zipper


def body_zipper(root: Root):
    """Zipper at the body expression of the outermost block."""
    return root_zipper(root).child_at(1).child_at(2)


# -- parsing -------------------------------------------------------------------


def test_parse_smallest_program():
    assert parse("let a = 1 in a") == Root(
        Let(Assign("a", Const(1), EmptyList()), Var("a"))
    )


def test_parse_running_example():
    assert parse(RUNNING_SOURCE) == RUNNING_ROOT


def test_parse_single_line_with_semicolons():
    src = "let a = b + 0; c = 2; b = let c = 3 in c + c in a + 7 - c"
    assert parse(src) == RUNNING_ROOT


def test_parse_errors_example():
    assert parse(ERRORS_SOURCE) == ERRORS_ROOT


def test_parse_requires_a_declaration():
    for source, message in [("let in a", "expected name"),
                            ("let a = 1;", "unexpected end of input in declarations")]:
        with pytest.raises(ParseError, match=message):
            parse(source)


def test_parse_error_position():
    # Each "1 + (" holds a left operand and a parenthesis: the last "+" is one too many.
    plus = "let a = " + "1 + (" * (MAX_DEPTH // 2) + "1 + 1" + ")" * (MAX_DEPTH // 2) + " in a"
    for source, col, error in [("let a = 1 in +", 14, ParseError),
                               (plus, 5 * MAX_DEPTH // 2 + 11, DepthError)]:
        with pytest.raises(error) as info:
            parse(source)
        assert info.value.line == 1
        assert info.value.col == col


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse("let a = 1 in a b")


def test_parse_associativity_and_unary():
    body = parse("let x = 1 in a + 7 - c").let.body
    assert body == Sub(Add(Var("a"), Const(7)), Var("c"))
    body = parse("let x = 1 in -a + b").let.body
    assert body == Add(Neg(Var("a")), Var("b"))
    body = parse("let x = 1 in a - -b").let.body
    assert body == Sub(Var("a"), Neg(Var("b")))


def test_parse_signed_constants():
    assert parse("let x = -5 in x").let.decls.exp == Const(-5)
    assert parse("let x = -(5) in x").let.decls.exp == Neg(Const(5))
    assert parse("let x = --5 in x").let.decls.exp == Neg(Const(-5))


def test_parse_parenthesized_newlines():
    src = "let a = (1 +\n  2) in a"
    assert parse(src).let.decls.exp == Add(Const(1), Const(2))


DEEP_EXPS = {
    "parens": "(" * 4_000 + "1" + ")" * 4_000,
    "negated-parens": "-(" * 4_000 + "b" + ")" * 4_000,
    "right-nested-sub": "1 - (" * 4_000 + "1" + ")" * 4_000,
}


@pytest.mark.parametrize("exp", DEEP_EXPS.values(), ids=DEEP_EXPS)
def test_deep_expressions_parse_and_export_under_a_small_recursion_limit(exp):
    # Nesting costs the parser and the exporter heap, not Python frames.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        data = export_ast(parse(f"let a = {exp} in a"), LANG)
    finally:
        sys.setrecursionlimit(limit)
    ctors, todo = Counter(), [data]
    while todo:
        entry = todo.pop()
        if "ctor" in entry:
            ctors[entry["ctor"]] += 1
            todo += entry["children"]
    assert ctors["Neg"] + ctors["Sub"] == exp.count("-")  # no minus is on a literal


def test_parsing_asks_each_token_at_most_once_what_it_is(monkeypatch):
    text = "let a = 1 - (2 + -b) - -(3)\n  b = let c = (1 + 2) - c\n    in c + a\nin a - b + 7"
    calls = []
    at = TokenStream.at
    monkeypatch.setattr(TokenStream, "at", lambda self, *a: calls.append(a) or at(self, *a))
    parse(text)
    tokens = tokenize(text, symbols=letlang._SYMBOLS, keywords=letlang._KEYWORDS,
                      keep_newlines=True)
    assert len(tokens) == 42
    assert len(calls) <= len(tokens)


# -- pretty ---------------------------------------------------------------------


def test_pretty_smallest():
    assert pretty(parse("let a = 1 in a")) == "let a = 1\nin a"


def test_pretty_canonical_running():
    assert pretty(RUNNING_ROOT) == RUNNING_SOURCE


def test_pretty_reparses():
    assert parse(pretty(RUNNING_ROOT)) == RUNNING_ROOT
    assert parse(pretty(ERRORS_ROOT)) == ERRORS_ROOT


def test_pretty_idempotent():
    once = pretty(parse(RUNNING_SOURCE))
    assert pretty(parse(once)) == once


def test_pretty_negative_and_negation():
    root = Root(Let(Assign("x", Neg(Const(-5)), EmptyList()), Const(-2)))
    assert pretty(root) == "let x = -(-5)\nin -2"
    assert parse(pretty(root)) == root
    # Trees no source text parses to: a block with no declarations, a list where
    # an expression belongs.
    with pytest.raises(ValueError, match="no declarations"):
        pretty(Root(Let(EmptyList(), Const(1))))
    misplaced = Root(Let(Assign("x", Const(1), EmptyList()), EmptyList()))
    for show in (pretty, eval_program):
        with pytest.raises(TypeError, match="not an expression"):
            show(misplaced)


@given(let_programs())
def test_pretty_parse_roundtrip(root):
    assert parse(pretty(root)) == root


def test_nested_blocks_print_in_time_linear_in_the_output():
    # Each block's text is appended once, not copied into every enclosing block.
    n = 2_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * n))
    try:
        root = parse("let a = " * n + "1" + " in 1" * n)
        started = time.perf_counter()
        text = pretty(root)
        elapsed = time.perf_counter() - started
        assert parse(text) == root
    finally:
        sys.setrecursionlimit(limit)
    assert elapsed < 1.0


# -- attributes -------------------------------------------------------------------


def test_dcli_at_root_is_empty():
    assert dcli(root_zipper(RUNNING_ROOT)) == []


def test_dclo_prepends_declarations():
    z = root_zipper(parse("let a = 1; b = 2 in a + b"))
    assert [n for n, _ in dclo(z)] == ["b", "a"]


def test_env_at_body_equals_block_dclo():
    root = parse("let a = 1; b = 2 in a + b")
    z = body_zipper(root)
    let_z = root_zipper(root).child_at(1)
    assert [n for n, _ in env(z)] == [n for n, _ in dclo(let_z)]


def test_env_restarts_from_outer_at_nested_block():
    # inside the nested block of the running example, the inner c shadows
    z = root_zipper(RUNNING_ROOT)
    inner_let = z.child_at(1).child_at(1).child_at(3).child_at(3).child_at(2)
    assert isinstance(inner_let.focus, Let)
    visible = [n for n, _ in env(inner_let)]
    assert visible == ["c", "b", "c", "a"]
    # lookup (first match) resolves to the inner declaration
    name, site = next(e for e in env(inner_let) if e[0] == "c")
    assert lexeme_assign(site) == Const(3)


def test_lev_counts_nesting():
    z = root_zipper(RUNNING_ROOT)
    assert lev(z) == 0
    outer_let = z.child_at(1)
    assert lev(outer_let) == 1
    inner_let = outer_let.child_at(1).child_at(3).child_at(3).child_at(2)
    assert lev(inner_let) == 2
    # non-block nodes copy their parent's level
    assert lev(body_zipper(RUNNING_ROOT)) == 1


def test_lexeme():
    z = root_zipper(RUNNING_ROOT).child_at(1).child_at(1)
    assert lexeme(z) == "a"
    assert lexeme_assign(z) == Add(Var("b"), Const(0))
    nested = z.child_at(3).child_at(3)
    assert isinstance(nested.focus, NestedLet)
    assert lexeme(nested) == "b"
    assert lexeme_assign(nested) is None
    with pytest.raises(ScopeDomainError, match="no name at Root"):
        lexeme(root_zipper(RUNNING_ROOT))


def test_must_be_in():
    assert must_be_in("x", []) == ["x"]
    z = root_zipper(RUNNING_ROOT)
    assert must_be_in("a", [("a", z)]) == []
    assert must_be_in("b", [("a", z)]) == ["b"]


def test_must_not_be_in_gates_on_level():
    # the inner c and the outer c live at different levels: no duplicate
    root = parse("let c = 1; w = let c = 2 in c in w")
    z = root_zipper(root)
    inner_assign = z.child_at(1).child_at(1).child_at(3).child_at(2).child_at(1)
    assert isinstance(inner_assign.focus, Assign)
    assert lexeme(inner_assign) == "c"
    assert must_not_be_in((lexeme(inner_assign), inner_assign), dcli(inner_assign)) == []
    # a same-level re-declaration is reported
    dup = parse("let a = 1; a = 2 in a")
    second = root_zipper(dup).child_at(1).child_at(1).child_at(3)
    assert must_not_be_in((lexeme(second), second), dcli(second)) == ["a"]


def test_attribute_purity():
    z = body_zipper(RUNNING_ROOT)
    assert env(z) == env(z)
    assert dcli(z.parent().child_at(2)) == dcli(z)


def test_attributes_are_pure():
    z = root_zipper(RUNNING_ROOT).child_at(1).child_at(2)
    assert env(z) == env(z)
    assert lev(z) == lev(z)


def flat_block(n: int) -> Root:
    """``let x0 = 0; x1 = x0 + 1; …`` with ``n`` declarations, built without recursion."""
    spine = EmptyList()
    for i in reversed(range(n)):
        spine = Assign(f"x{i}", Add(Var(f"x{i - 1}"), Const(1)) if i else Const(0), spine)
    return Root(Let(spine, Var(f"x{n - 1}")))


def at(z, pos):
    for i in pos:
        z = z.child_at(i + 1)
    return z


SCOPE_ATTRIBUTES = [(env, env_spec), (dcli, dcli_spec), (dclo, dclo_spec)]
SCOPE_ATTRIBUTE_NAMES = ("env", "dcli", "dclo", "lev")


def scope_view(attribute, z):
    """An attribute's ``(name, position, focus)`` entries, or the domain error it raises."""
    try:
        return [(n, site.position, site.focus) for n, site in attribute(z)]
    except ScopeDomainError:
        return ScopeDomainError


@given(let_programs())
def test_scope_attributes_match_the_equations(root):
    top = root_zipper(root)
    for pos in positions(root, LANG):
        z = at(top, pos)
        for attribute, spec in SCOPE_ATTRIBUTES:
            assert scope_view(attribute, z) == scope_view(spec, z)


@given(let_programs())
def test_scope_attributes_read_the_rewritten_block(root):
    # Replace one declaration's expression, move up to its block only (so the
    # block is a rebuilt copy that the path above does not hold yet), and read
    # the attributes everywhere inside: every site must show the new expression.
    pos = next(p for p in positions(root, LANG)
               if p and p[-1] == 1 and isinstance(subtree_at(root, p[:-1], LANG), Assign))
    rewritten = at(root_zipper(root), pos).trans_m(lambda _: Const(4242))
    block = rewritten
    while not isinstance(block.focus, Let):
        block = block.parent()
    assert rewritten.parent().focus in [site.focus for _, site in env(block)]
    for inner in positions(block.focus, LANG):
        z = at(block, inner)
        for attribute, spec in SCOPE_ATTRIBUTES:
            assert scope_view(attribute, z) == scope_view(spec, z)


def test_a_block_rebuilt_on_the_way_up_keeps_no_table():
    # The walk from a use to its block rebuilds the block after a rewrite; that
    # copy must die with the walk's zippers, not live on in a reference cycle.
    root = parse("let a = 1; b = a in b")
    z = root_zipper(root).child_at(1).child_at(1).child_at(2).trans_m(lambda _: Const(2))
    use = z.parent().child_at(3).child_at(2)
    assert use.focus == Var("a")
    gc.disable()
    try:
        entries = env(use)
        assert [n for n, _ in entries] == ["b", "a"]
        rebuilt = weakref.ref(entries[0][1].parent().parent().focus)
        assert isinstance(rebuilt(), Let) and rebuilt() is not root.let
        del entries
        assert rebuilt() is None
    finally:
        gc.enable()


def test_a_block_inside_a_rebuilt_block_keeps_no_record():
    # The inner block's own frame is current, but its outer entries sit in the
    # rebuilt copy of the outer block: a record kept on the inner Let node, which
    # the original tree still holds, would keep that copy alive.
    root = parse("let a = 1; b = let c = a in c in b")
    z = root_zipper(root).child_at(1).child_at(1).child_at(2).trans_m(lambda _: Const(2))
    use = z.parent().child_at(3).child_at(2).child_at(2)
    assert use.focus == Var("c")
    gc.disable()
    try:
        entries = env(use)
        assert [n for n, _ in entries] == ["c", "b", "a"]
        rebuilt = weakref.ref(entries[2][1].parent().focus)
        assert isinstance(rebuilt(), Let) and rebuilt() is not root.let
        del entries
        assert rebuilt() is None
    finally:
        gc.enable()


def test_a_block_shared_at_two_levels_gets_its_own_sites():
    # One Let object at levels 2 and 3: a table kept from the first place must
    # not be handed out at the second, where its duplicate is on another level.
    inner = parse("let c = 1; c = 2 in c").let
    middle = Let(NestedLet("c", inner, EmptyList()), Var("c"))
    root = Root(Let(NestedLet("x", inner, NestedLet("y", middle, EmptyList())), Var("x")))
    z = root_zipper(root)
    assert errors_ag(z) == errors_strategic(z) == scope_errors_walk(root) == ["c", "c"]
    for pos in positions(root, LANG):
        here = at(z, pos)
        for attribute, spec in SCOPE_ATTRIBUTES:
            assert scope_view(attribute, here) == scope_view(spec, here)


def test_an_optimized_copy_does_not_keep_the_checked_tree_alive():
    # The copy shares the inner blocks with the original; nothing on those nodes
    # may remember the zippers that the analysis read them through.
    root = parse("let w = let c = let d = 1 in 2 in c; a = 1 + 2 in a + w")
    assert errors_ag(root_zipper(root)) == []
    out = from_zipper(optimize_program(root_zipper(root)))
    assert out.let.decls.let.decls.let is root.let.decls.let.decls.let
    original = weakref.ref(root)
    del root
    gc.collect()
    assert original() is None
    assert pretty(out) == "let w = let c = let d = 1\n    in 2\n  in c\n  a = 3\nin 3 + w"


def test_no_module_stores_state_on_tree_nodes():
    # Frozen nodes are plain values: a field set behind the dataclass's back
    # outlives rewrites and keeps whatever it refers to alive.
    package = Path(letlang.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and (node.attr == "__dict__"
             or node.attr == "__setattr__" and isinstance(node.value, ast.Name)
             and node.value.id == "object")
    ]
    assert found == []


def test_scope_attributes_iterate_along_the_spine():
    n = 3000
    z = root_zipper(flat_block(n)).child_at(1).child_at(1)
    for _ in range(n - 1):
        z = z.child_at(3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = env(z), dcli(z), dclo(z), lev(z)
    finally:
        sys.setrecursionlimit(limit)
    declared = [f"x{i}" for i in reversed(range(n))]
    assert [name for name, _ in got[0]] == declared
    assert [name for name, _ in got[1]] == declared[1:]
    assert [name for name, _ in got[2]] == declared
    assert got[3] == 1


def test_dcli_and_lev_climb_without_walking_the_block_down(monkeypatch):
    # At the first declaration's right-hand side, dcli climbs past one spine node
    # and lev reads the links: neither walks the block down.  env must read the
    # whole block, once down the spine and once back up.
    n = 1000
    z = root_zipper(flat_block(n)).child_at(1).child_at(1).child_at(2)
    moves = Counter()

    def counting(name, fn):
        def counted(*args):
            moves[name] += 1
            return fn(*args)
        return counted

    for name in ("child_at", "up"):
        monkeypatch.setattr(Zipper, name, counting(name, getattr(Zipper, name)))
    for attribute in (dcli, lev):
        moves.clear()
        attribute(z)
        assert moves["child_at"] == 0
        assert moves["up"] <= 3
    moves.clear()
    assert len(env(z)) == n
    assert n <= moves["child_at"] <= n + 2
    assert moves["child_at"] + moves["up"] <= 2 * n + 8


def test_scope_checks_cost_linear_in_a_flat_block(monkeypatch):
    # The error analysis's per-node checks evaluate at most a constant number of
    # scope attributes per node, and the traversal walks the spine down once.
    n = 200
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("env", "dclo", "dcli"):
        monkeypatch.setattr(letlang, name, counting("attribute", getattr(letlang, name)))
    monkeypatch.setattr(Zipper, "child_at", counting("child_at", Zipper.child_at))
    assert errors_strategic(root_zipper(flat_block(n))) == []
    assert calls["attribute"] <= 5 * n
    assert calls["child_at"] <= 2 * n


def test_scope_checks_move_up_a_constant_number_of_times(monkeypatch):
    # The error analysis's per-node checks read the ``above`` links, not one up
    # move per spine node above the focus.
    n = 200
    calls = Counter()
    up = Zipper.up

    def counted(self):
        calls["up"] += 1
        return up(self)

    monkeypatch.setattr(Zipper, "up", counted)
    assert errors_strategic(root_zipper(flat_block(n))) == []
    assert calls["up"] <= 5 * n


@pytest.mark.parametrize("analysis", [errors_strategic, errors_ag])
def test_scope_checks_run_a_flat_block_in_linear_steps(analysis):
    # Counted, not timed: four times the declarations may cost at most 4.5 times
    # the lines run in letlang.  Climbing past the earlier declarations, or
    # scanning the later ones, at every declaration cost about fifteen times.
    small, large = (line_events(letlang, analysis, root_zipper(flat_block(n))) for n in (200, 800))
    assert large <= 4.5 * small


def test_a_block_reached_through_an_equal_deep_path_gets_its_own_sites():
    # Zippers are linked through ``above``, so comparing two equal ones must walk
    # the links: comparing the ``above`` zippers would recurse once per level.
    # ``env`` keeps nothing between calls, so an equal path gets sites of its own.
    n = 5000
    spine = NestedLet("w", parse("let c = 1 in c").let, EmptyList())
    for i in reversed(range(n)):
        spine = Assign(f"x{i}", Const(i), spine)
    root = Root(Let(spine, Var("w")))

    def nested_block():
        z = root_zipper(root).child_at(1).child_at(1)
        for _ in range(n):
            z = z.child_at(3)
        return z.child_at(2)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        first, second = nested_block(), nested_block()
        assert first.above is not second.above and first == second
        before, after = env(first), env(second)
    finally:
        sys.setrecursionlimit(limit)
    assert [name for name, _ in after] == ["c", "w", *(f"x{i}" for i in reversed(range(n)))]
    assert after[0][1] is not before[0][1]


def test_a_block_shared_by_two_trees_is_told_apart_by_its_path():
    # The sibling chains are equal but distinct: comparing the two paths to the
    # shared block by value would recurse down 5,000 Neg nodes.
    shared = parse("let c = 1 in c").let

    def names_at_shared_body():
        chain = Const(0)
        for _ in range(5000):
            chain = Neg(chain)
        root = Root(Let(NestedLet("v", shared, Assign("w", chain, EmptyList())), Var("v")))
        body = root_zipper(root).child_at(1).child_at(1).child_at(2).child_at(2)
        return [name for name, _ in env(body)]

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        first, second = names_at_shared_body(), names_at_shared_body()
    finally:
        sys.setrecursionlimit(limit)
    assert first == second == ["c", "w", "v"]


THREE_DEEP = """let a = 1
  b = let c = a + 2
        d = let a = c - 1
              e = c - a
              f = e + a
            in f - e
      in d + c + a
in b - a"""


def test_scope_attributes_never_compare_zippers(monkeypatch):
    # The analyses and the optimizer follow links and compare foci, so none needs Zipper.__eq__.
    def run():
        z = root_zipper(parse(THREE_DEEP))
        return errors_strategic(z), errors_ag(z), from_zipper(optimize_program(z))

    expected = run()

    def refuse(self, other):
        raise AssertionError("zippers compared by value")

    monkeypatch.setattr(Zipper, "__eq__", refuse)
    got = run()
    monkeypatch.undo()
    assert got == expected


def test_errors_strategic_builds_no_environment(monkeypatch):
    # A use asks only whether a binder is visible, and a declaration only whether
    # an earlier spine node of its block has its name: both read the zipper, so
    # no scope attribute is evaluated.
    root = parse(THREE_DEEP)
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in SCOPE_ATTRIBUTE_NAMES:
        monkeypatch.setattr(letlang, name, counting(name, getattr(letlang, name)))
    assert errors_strategic(root_zipper(root)) == []
    assert sum(isinstance(v, Var) for v in preorder_values(root, LANG)) == 13
    assert calls == {}


# -- error analyses ----------------------------------------------------------------


def test_errors_ag_on_error_example():
    assert errors_ag(root_zipper(ERRORS_ROOT)) == EXPECTED_ERRORS
    name = root_zipper(ERRORS_ROOT).child_at(1).child_at(1).child_at(1)
    with pytest.raises(ScopeDomainError, match="errors undefined at str"):
        errors_ag(name)


def test_errors_strategic_on_error_example():
    assert errors_strategic(root_zipper(ERRORS_ROOT)) == EXPECTED_ERRORS


def test_errors_empty_on_wellscoped():
    z = root_zipper(parse("let a = 1 in a"))
    assert errors_ag(z) == []
    assert errors_strategic(z) == []


def test_errors_duplicate_reported_once_at_redeclaration():
    z = root_zipper(parse("let a = 1; a = 2 in a"))
    assert errors_ag(z) == ["a"]
    assert errors_strategic(z) == ["a"]


def test_errors_agree_on_random_programs():
    rng = random.Random(424242)
    for _ in range(120):
        root = random_program(rng, depth=rng.randint(2, 5))
        z = root_zipper(root)
        assert errors_ag(z) == errors_strategic(z)


def test_errors_match_independent_walk():
    # a third route, with hand-rolled environments instead of attributes
    assert scope_errors_walk(ERRORS_ROOT) == EXPECTED_ERRORS
    rng = random.Random(56565)
    for _ in range(100):
        root = random_program(rng, depth=rng.randint(2, 5))
        assert errors_ag(root_zipper(root)) == scope_errors_walk(root)


def test_uses_and_decls_per_node():
    z = root_zipper(ERRORS_ROOT)
    # the undeclared z inside the nested block's body
    inner_body = z.child_at(1).child_at(1).child_at(3).child_at(3).child_at(2).child_at(2)
    z_use = inner_body.child_at(2)
    assert z_use.focus == Var("z")
    assert uses(z_use.focus, z_use) == ["z"]
    c_use = inner_body.child_at(1)
    assert c_use.focus == Var("c")
    assert uses(c_use.focus, c_use) == []
    # the second same-level declaration of c
    dup = z.child_at(1).child_at(1).child_at(3).child_at(3).child_at(3)
    assert isinstance(dup.focus, Assign) and dup.focus.name == "c"
    assert decls(dup.focus, dup) == ["c"]
    first = z.child_at(1).child_at(1)
    assert decls(first.focus, first) == []


CHECKS = [(uses, uses_spec), (decls, decls_spec)]


def assert_checks_match_the_equations(top):
    for pos in positions(top.focus, LANG):
        z = at(top, pos)
        for check, spec in CHECKS:
            assert check(z.focus, z) == spec(z.focus, z)


@given(let_programs())
def test_checks_match_the_equations(root):
    assert_checks_match_the_equations(root_zipper(root))


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_checks_match_the_equations_on_random_programs(seed, depth):
    assert_checks_match_the_equations(root_zipper(random_program(random.Random(seed), depth)))


def grafted(node, name):
    """``node`` with one more use or declaration of ``name``, of the same nominal type."""
    match node:
        case Exp():
            return Add(node, Var(name))
        case Let(spine, body):
            return Let(Assign(name, Var(name), spine), body)
        case Assign(_, exp, rest):
            return Assign(name, exp, rest)
        case NestedLet(_, let, rest):
            return NestedLet(name, let, rest)
        case EmptyList():
            return Assign(name, Var(name), node)


@given(let_programs(), st.data())
def test_checks_match_the_equations_below_a_stale_path(root, data):
    # Every node inside a replaced subtree is reached through the zipper that
    # replaced it, whose parent still holds the old subtree.
    nodes = [p for p in positions(root, LANG)[1:]
             if not isinstance(subtree_at(root, p, LANG), (str, int))]
    pos = data.draw(st.sampled_from(nodes))
    name = data.draw(st.sampled_from(NAME_POOL))
    rewritten = at(root_zipper(root), pos).trans_m(lambda node: grafted(node, name))
    assert rewritten.siblings[rewritten.index] is not rewritten.focus
    assert_checks_match_the_equations(rewritten)


@given(let_programs())
def test_checks_match_the_equations_on_a_block_shared_at_two_levels(root):
    inner = root.let
    middle = Let(NestedLet("c", inner, EmptyList()), Var("c"))
    shared = Root(Let(NestedLet("x", inner, NestedLet("y", middle, EmptyList())), Var("x")))
    assert_checks_match_the_equations(root_zipper(shared))


@given(let_programs())
def test_errors_agree_generated(root):
    z = root_zipper(root)
    assert errors_ag(z) == errors_strategic(z)


#: Blocks of up to 40 declarations from ``NAME_POOL``: every name is declared in
#: most blocks, often twice, so duplicates and shadowing fill them, and the scope
#: index shares one record across many levels of one block.  An example checks
#: thousands of positions, so these properties draw fewer of them.
LONG_BLOCKS = let_programs(max_depth=2, max_decls=40)


@settings(max_examples=10, deadline=None)
@given(LONG_BLOCKS)
def test_checks_match_the_equations_in_long_blocks(root):
    test_checks_match_the_equations.hypothesis.inner_test(root)


@settings(max_examples=10, deadline=None)
@given(LONG_BLOCKS, st.data())
def test_checks_match_the_equations_below_a_stale_path_in_long_blocks(root, data):
    test_checks_match_the_equations_below_a_stale_path.hypothesis.inner_test(root, data)


@settings(max_examples=10, deadline=None)
@given(LONG_BLOCKS)
def test_checks_match_the_equations_on_a_block_shared_at_two_levels_in_long_blocks(root):
    test_checks_match_the_equations_on_a_block_shared_at_two_levels.hypothesis.inner_test(root)


def test_errors_agree_with_the_walk_in_long_blocks():
    rng = random.Random(404040)
    for _ in range(60):
        root = random_program(rng, depth=rng.randint(1, 3), max_decls=40)
        z = root_zipper(root)
        assert errors_ag(z) == errors_strategic(z) == scope_errors_walk(root)


# -- names ---------------------------------------------------------------------------


def test_names_running_example():
    assert names(root_zipper(RUNNING_ROOT)) == ["a", "c", "b", "c"]


def test_select_cases():
    assert select(EmptyList()) == []
    assert select(RUNNING.decls) == ["a"]
    assert select(RUNNING.decls.rest.rest) == ["b"]


def test_names_matches_independent_walk():
    rng = random.Random(99)
    for _ in range(60):
        root = random_program(rng, depth=rng.randint(1, 5))
        assert names(root_zipper(root)) == let_names_walk(root)


# -- rewrite rules --------------------------------------------------------------------


@pytest.mark.parametrize(
    "before,after",
    [
        (Add(Var("b"), Const(0)), Var("b")),
        (Add(Const(0), Var("e")), Var("e")),
        (Add(Const(3), Const(4)), Const(7)),
        (Sub(Var("a"), Const(7)), Add(Var("a"), Neg(Const(7)))),
        (Neg(Neg(Var("e"))), Var("e")),
        (Neg(Const(5)), Const(-5)),
    ],
)
def test_expr_rules(before, after):
    assert expr(before) == after


def test_expr_declines_everything_else():
    assert expr(Var("x")) is None
    assert expr(Const(5)) is None
    assert expr(Add(Var("a"), Var("b"))) is None


def test_expr_rule_order_is_harmless_on_overlap():
    # add(const 0, const 0) matches rules 1, 2 and 3; all give const 0
    assert expr(Add(Const(0), Const(0))) == Const(0)


def test_exp_c_inlines_assign_binding():
    root = parse("let a = 1 in a")
    use = body_zipper(root)
    assert use.focus == Var("a")
    assert exp_c(use.focus, use) == Const(1)


def test_exp_c_declines_nested_let_binding():
    use = body_zipper(RUNNING_ROOT)  # a + 7 - c
    b_use = use.child_at(1).child_at(1)
    # navigate to the Var "a"; its binder is a plain assignment
    assert b_use.focus == Var("a")
    assert exp_c(b_use.focus, b_use) == Add(Var("b"), Const(0))
    # "b" is bound by a nested let: nothing to copy
    inner_b = root_zipper(RUNNING_ROOT).child_at(1).child_at(1).child_at(2).child_at(1)
    assert inner_b.focus == Var("b")
    assert exp_c(inner_b.focus, inner_b) is None


def test_exp_c_declines_non_variables():
    z = root_zipper(parse("let a = 1 in 5"))
    const_use = body_zipper(z.focus)
    assert exp_c(Const(5), const_use) is None


def test_exp_c_unbound_fails():
    root = parse("let a = 1 in z")
    use = body_zipper(root)
    assert exp_c(use.focus, use) is None


def test_adhoc_tpz_with_exp_c():
    root = parse("let a = 1 in a")
    use = body_zipper(root)
    out = adhoc_tpz(fail_tp, Exp, exp_c)(use)
    assert out.focus == Const(1)


def test_exp_c_reads_a_self_reference_as_rewritten():
    # The use sits in its own definition, whose ``1 + 2`` was folded on the way
    # here: the copy is the right-hand side as it stands now.
    rhs = root_zipper(parse("let a = (1 + 2) + a in 1")).child_at(1).child_at(1).child_at(2)
    use = rhs.child_at(1).trans_m(expr).right()
    assert use.focus == Var("a")
    assert exp_c(use.focus, use) == exp_c_spec(use.focus, use) == Add(Const(3), Var("a"))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([random_program, random_wellscoped_program]),
       st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_exp_c_agrees_with_the_env_rule_at_every_call(make, seed, depth):
    # Shadowing, duplicates, nested-let binders and unbound names, under every
    # scheme, on trees that earlier rewrites left stale above the use.
    root = make(random.Random(seed), depth)

    def checked(e, z):
        got = exp_c(e, z)
        assert got == exp_c_spec(e, z)
        return got

    step = adhoc_tp(adhoc_tpz(fail_tp, Exp, checked), Exp, expr)
    # Capturing inlines can deepen the tree without end; fuel and a fixed
    # stack bound keep those runs short.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for name in SCHEMES:
            try:
                scheme(name, step, 40)(root_zipper(root))
            except (FuelExhaustedError, RecursionError):
                pass
    finally:
        sys.setrecursionlimit(limit)


def test_inlining_a_flat_block_builds_no_scope_and_rebuilds_linearly(monkeypatch):
    # Each use reads its binder off the zipper: no scope attribute is evaluated,
    # and the spine between the use and its block is not rebuilt per use.
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in SCOPE_ATTRIBUTE_NAMES:
        monkeypatch.setattr(letlang, name, counting("scope", getattr(letlang, name)))
    monkeypatch.setattr(Language, "rebuild", counting("rebuild", Language.rebuild))
    for k in (100, 200, 400):
        calls.clear()
        out = from_zipper(optimize_program(root_zipper(flat_block(k))))
        assert out.let.body == Const(k - 1)
        assert calls["scope"] == 0
        assert calls["rebuild"] <= 3 * k + 1


# -- optimizers -----------------------------------------------------------------------


def test_optimize_exprs_running_example():
    out = apply_tp(innermost(arith_step()), to_zipper(RUNNING, LANG))
    assert out.focus == RUNNING_ARITH_NF


def test_optimize_exprs_matches_oracle():
    rng = random.Random(5150)
    rule = typed_rule(Exp, expr)
    for _ in range(60):
        root = random_program(rng, depth=rng.randint(1, 4))
        got = from_zipper(apply_tp(innermost(arith_step()), root_zipper(root)))
        assert got == normalize_anywhere(root, rule, LANG)


def test_optimize_program_inlines_and_folds():
    root = parse("let a = 1 in a + 0")
    out = from_zipper(optimize_program(root_zipper(root)))
    assert out.let.body == Const(1)
    assert eval_program(out) == eval_program(root) == 1


def test_optimize_program_keeps_nested_let_bindings():
    out = from_zipper(optimize_program(root_zipper(RUNNING_ROOT)))
    # b is bound by a nested let, so uses of b survive inlining
    assert out == parse("let a = b\n  c = 2\n  b = let c = 3\n  in 6\nin b + 7 + -2")
    assert eval_program(out) == RUNNING_VALUE


def test_optimize_program_result_is_normal_form():
    out = optimize_program(root_zipper(RUNNING_ROOT))
    assert once_bu_tp(program_step())(out) is None


def test_optimize_single_pass_always_succeeds():
    z = root_zipper(parse("let x = 1 in x"))
    assert apply_tp(full_td_tp(adhoc_tp(id_tp, Exp, expr)), z) is not None


def test_optimize_already_normal_is_unchanged():
    root = parse("let a = 1 in a")
    z = to_zipper(root.let, LANG)
    assert apply_tp(innermost(arith_step()), z) == z


# -- evaluation ------------------------------------------------------------------------


def test_eval_smallest():
    assert eval_program(parse("let a = 1 in a")) == 1


def test_eval_running_example():
    assert eval_program(RUNNING_ROOT) == RUNNING_VALUE


def test_eval_error_example_is_undefined():
    assert eval_program(ERRORS_ROOT) is None


def test_eval_use_before_declaration():
    assert eval_program(parse("let a = b + 1; b = 2 in a")) == 3


def test_eval_shadowing():
    assert eval_program(parse("let x = 1; w = let x = 2 in x in w + x")) == 3


def test_eval_duplicate_is_undefined():
    assert eval_program(parse("let a = 1; a = 2 in a")) is None


def test_eval_duplicate_in_unused_nested_block_is_undefined():
    assert eval_program(parse("let w = let a = 1; a = 2 in a; b = 3 in b")) is None


def test_eval_unbound_is_undefined():
    assert eval_program(parse("let a = 1 in z")) is None


def test_eval_cycle_is_undefined():
    assert eval_program(parse("let a = a in a")) is None
    assert eval_program(parse("let a = b; b = a in a")) is None


def test_eval_negation():
    assert eval_program(parse("let a = 5 in -a - -(2)")) == -3


# -- semantics preservation ---------------------------------------------------------


def test_semantics_preserved_on_wellscoped_acyclic():
    rng = random.Random(31337)
    checked = 0
    while checked < 60:
        root = random_wellscoped_program(rng, depth=rng.randint(2, 4))
        assert errors_ag(root_zipper(root)) == []
        before = eval_program(root)
        assert before is not None
        for name in SCHEMES:
            out = from_zipper(optimize_program(root_zipper(root), 200_000, name))
            assert eval_program(out) == before, name
        checked += 1


def test_inlining_can_capture_under_shadowing():
    # Known limitation of the naive inline rule: a use whose normal form still
    # mentions a nested-let-bound name changes meaning when copied under a
    # shadowing re-declaration of that name, under every scheme.  Fresh-name
    # programs avoid this.
    src = (
        "let n = let u = 1 in u\n"
        "  x = n\n"
        "  w = let n = let v = 2 in v\n"
        "  in x\n"
        "in w"
    )
    root = parse(src)
    assert errors_ag(root_zipper(root)) == []
    assert eval_program(root) == 1
    for name in SCHEMES:
        out = from_zipper(optimize_program(root_zipper(root), 10_000, name))
        assert eval_program(out) == 2, name
