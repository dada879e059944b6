"""Mini-language syntax and smell elimination."""

from __future__ import annotations

import random
import sys
import traceback

import pytest
from hypothesis import given

from generators import mexps, random_mexp
from oracles import normalize_anywhere, smelly_subterms, typed_rule
from programs import smell_nest
from zipstrat.lexing import MAX_DEPTH
from zipstrat.smells import (
    LANG,
    BoolLit,
    Call,
    If,
    Infix,
    IntLit,
    ListLit,
    MExp,
    ParseError,
    Var,
    join_list,
    mexp_zipper,
    null_list,
    parse_m,
    pretty_m,
    redundant_boolean,
    redundant_if,
    smell_elim,
    smell_step,
)
from zipstrat.strategies import DEFAULT_FUEL, apply_tp
from zipstrat.zipper import export_json, from_zipper


def smell_free(e: MExp, fuel: int = DEFAULT_FUEL) -> MExp:
    """The smell-free form of an expression value, as ``smell fix`` computes it."""
    return from_zipper(smell_elim(mexp_zipper(e), fuel))


def node_count(e: MExp) -> int:
    return 1 + sum(node_count(c) for c in LANG.children(e) if isinstance(c, MExp))


def _rule_union(e):
    for rule in (join_list, null_list, redundant_boolean, redundant_if):
        r = rule(e)
        if r is not None:
            return r
    return None


# -- parsing and printing ----------------------------------------------------------


def test_parse_singleton_concat():
    assert parse_m("[x] ++ xs") == Infix("++", ListLit((Var("x"),)), Var("xs"))


def test_parse_if():
    assert parse_m("if b then True else False") == If(
        Var("b"), BoolLit(True), BoolLit(False)
    )


def test_parse_length_check():
    assert parse_m("length xs == 0") == Infix(
        "==", Call("length", Var("xs")), IntLit(0)
    )


def test_parse_precedence():
    # cons binds tighter than equality; both cons-level operators are right-associative
    assert parse_m("x : xs == y") == Infix("==", Infix(":", Var("x"), Var("xs")), Var("y"))
    assert parse_m("a : b : c") == Infix(":", Var("a"), Infix(":", Var("b"), Var("c")))
    assert parse_m("a ++ b ++ c") == Infix("++", Var("a"), Infix("++", Var("b"), Var("c")))


def test_parse_application_tightest():
    assert parse_m("f x == g y") == Infix(
        "==", Call("f", Var("x")), Call("g", Var("y"))
    )
    assert parse_m("not (f x)") == Call("not", Call("f", Var("x")))


def test_parse_lists():
    assert parse_m("[]") == ListLit(())
    assert parse_m("[1, x, True]") == ListLit((IntLit(1), Var("x"), BoolLit(True)))
    # A literal holds its own kind only: bool is a subclass of int.
    for literal, value in [(IntLit, True), (BoolLit, 1)]:
        with pytest.raises(TypeError):
            literal(value)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_m("[x ++")
    assert info.value.line == 1


def test_parse_rejects_trailing():
    with pytest.raises(ParseError):
        parse_m("f x y")


def test_parse_m_needs_a_frame_per_bracket_or_if_and_two_per_application():
    # At the nesting limit, with 200 frames to spare, each nest parses (trees
    # compared by the JSON writer, which keeps its own stack).
    limit = sys.getrecursionlimit()
    for shape, frames in [("brackets", 1), ("ifs", 1), ("applications", 2)]:
        source, expected = smell_nest(shape, MAX_DEPTH)
        depth = sum(1 for _ in traceback.walk_stack(None))
        try:
            sys.setrecursionlimit(depth + frames * MAX_DEPTH + 200)
            tree = parse_m(source)
        finally:
            sys.setrecursionlimit(limit)
        assert export_json(tree, LANG) == export_json(expected, LANG)


def test_pretty_examples():
    assert pretty_m(parse_m("[x] ++ xs")) == "[x] ++ xs"
    assert pretty_m(parse_m("(a : b) : c")) == "(a : b) : c"
    assert pretty_m(parse_m("not (f x)")) == "not (f x)"
    assert pretty_m(parse_m("if b then True else False")) == "if b then True else False"
    with pytest.raises(TypeError, match="not an expression"):
        pretty_m(ListLit(("x",)))


@given(mexps)
def test_parse_pretty_roundtrip(e):
    assert parse_m(pretty_m(e)) == e


# -- individual rules -----------------------------------------------------------------
#
# The full pattern catalog: one singleton-concat shape, four emptiness
# shapes, four boolean-literal shapes, two redundant-if shapes.

JOIN_CASES = [("[x] ++ xs", "x : xs")]
NULL_CASES = [
    ("length xs == 0", "null xs"),
    ("0 == length xs", "null xs"),
    ("xs == []", "null xs"),
    ("[] == xs", "null xs"),
]
BOOL_CASES = [
    ("True == b", "b"),
    ("b == True", "b"),
    ("False == b", "not b"),
    ("b == False", "not b"),
]
IF_CASES = [
    ("if b then True else False", "b"),
    ("if b then False else True", "not b"),
]


@pytest.mark.parametrize("before,after", JOIN_CASES)
def test_join_list(before, after):
    assert join_list(parse_m(before)) == parse_m(after)


@pytest.mark.parametrize("before,after", NULL_CASES)
def test_null_list(before, after):
    assert null_list(parse_m(before)) == parse_m(after)


@pytest.mark.parametrize("before,after", BOOL_CASES)
def test_redundant_boolean(before, after):
    assert redundant_boolean(parse_m(before)) == parse_m(after)


@pytest.mark.parametrize("before,after", IF_CASES)
def test_redundant_if(before, after):
    assert redundant_if(parse_m(before)) == parse_m(after)


def test_join_list_any_tail():
    # the tail need not be a literal list
    assert join_list(parse_m("[x] ++ f ys")) == parse_m("x : f ys")


def test_rules_decline_clean_terms():
    for text in ("y : ys", "xs ++ ys", "a == b", "if b then x else y"):
        e = parse_m(text)
        assert _rule_union(e) is None


def test_rule_match_sets_disjoint_on_generated_terms():
    rng = random.Random(1234)
    rules = (join_list, null_list, redundant_boolean, redundant_if)
    for _ in range(300):
        e = random_mexp(rng, rng.randint(0, 4))
        assert sum(rule(e) is not None for rule in rules) <= 1


def test_each_rule_strictly_shrinks():
    rng = random.Random(4321)
    rules = (join_list, null_list, redundant_boolean, redundant_if)
    fired = 0
    for _ in range(400):
        e = random_mexp(rng, rng.randint(1, 5))
        for rule in rules:
            r = rule(e)
            if r is not None:
                assert node_count(r) < node_count(e)
                fired += 1
    assert fired >= 50  # the generator injects plenty of redexes


# -- elimination -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "before,after", JOIN_CASES + NULL_CASES + BOOL_CASES + IF_CASES
)
def test_single_smell_eliminated(before, after):
    assert smell_free(parse_m(before)) == parse_m(after)


def test_cascade_if_then_null():
    # eliminating the redundant if exposes the emptiness check
    assert smell_free(parse_m("if (xs == []) then True else False")) == parse_m(
        "null xs"
    )


def test_cascade_nested_joins():
    assert smell_free(parse_m("[a] ++ ([b] ++ bs)")) == parse_m("a : (b : bs)")


def test_cascade_matches_oracle():
    for text in (
        "if (xs == []) then True else False",
        "[a] ++ ([b] ++ bs)",
        "if (length xs == 0) then True else False",
        "(if b then True else False) == True",
    ):
        e = parse_m(text)
        assert smell_free(e) == normalize_anywhere(
            e, typed_rule(MExp, _rule_union), LANG
        )


def test_no_redex_unchanged():
    assert smell_free(parse_m("y : ys")) == parse_m("y : ys")


def test_smell_elim_zipper_form_always_succeeds():
    z = mexp_zipper(parse_m("y"))
    out = smell_elim(z)
    assert out is not None
    assert from_zipper(out) == Var("y")


def test_step_chain_applies_some_rule():
    step = smell_step()
    assert apply_tp(step, mexp_zipper(parse_m("x == True"))).focus == Var("x")
    assert apply_tp(step, mexp_zipper(parse_m("x : xs"))) is None


def test_elimination_idempotent_and_complete():
    rng = random.Random(87)
    for _ in range(250):
        e = random_mexp(rng, rng.randint(0, 6))
        fixed = smell_free(e)
        assert smelly_subterms(fixed) == []
        assert smell_free(fixed) == fixed


def test_rewrite_count_bounded_by_size():
    rng = random.Random(88)
    rule = typed_rule(MExp, _rule_union)
    for _ in range(120):
        e = random_mexp(rng, rng.randint(0, 5))
        budget = 2 * node_count(e)
        # every rule strictly shrinks the term, so the budget is never hit
        fixed = smell_free(e, fuel=budget)
        assert node_count(fixed) <= node_count(e)
        assert normalize_anywhere(e, rule, LANG, max_steps=budget + 1) == fixed


@given(mexps)
def test_elimination_idempotent_generated(e):
    fixed = smell_free(e)
    assert smell_free(fixed) == fixed
    assert smelly_subterms(fixed) == []
