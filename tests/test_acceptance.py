"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance and runtime bound is asserted, not just reported.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from generators import (
    NAME_POOL,
    random_exp,
    random_mexp,
    random_program,
    random_wellscoped_program,
)
from oracles import (
    diff_positions,
    let_names_walk,
    postorder_positions,
    preorder_tags,
    replace_at,
    smelly_subterms,
    subtree_at,
    typed_rule,
)
from programs import (
    ERRORS_ROOT,
    ERRORS_SOURCE,
    EXPECTED_ERRORS,
    RUNNING,
    RUNNING_ROOT,
    RUNNING_SOURCE,
)
from zipstrat import letlang, smells
from zipstrat.cli import main as cli_main
from zipstrat.letlang import (
    LANG,
    Add,
    Const,
    Exp,
    Neg,
    NestedLet,
    Sub,
    Var,
    arith_step,
    errors_ag,
    errors_strategic,
    eval_program,
    exp_c,
    expr,
    names,
    optimize_program,
    parse,
    program_step,
    root_zipper,
)
from zipstrat.strategies import (
    TU,
    adhoc_tp,
    apply_tu,
    full_bu_tu,
    full_td_tu,
    id_tp,
    innermost,
    once_bu_tp,
    scheme,
    FuelExhaustedError,
)
from zipstrat.zipper import export_json, from_zipper, import_json, to_zipper


@contextmanager
def criterion(num: int, desc: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {num:2d} PASS  {desc}  ({elapsed:.2f}s)")


def test_criterion_1_names():
    with criterion(1, "declared-name collection and its bottom-up reversal"):
        started = time.perf_counter()
        z = to_zipper(RUNNING, LANG)
        step = letlang.names  # full top-down collection
        assert step(z) == ["a", "c", "b", "c"]
        from zipstrat.strategies import adhoc_tu, fail_tu

        bu = full_bu_tu(adhoc_tu(fail_tu(), letlang.List, letlang.select))
        assert apply_tu(bu, z) == ["c", "b", "c", "a"]
        assert apply_tu(bu, z) == list(reversed(step(z)))
        assert time.perf_counter() - started < 1.0


def test_criterion_2_errors_agree():
    with criterion(2, "scope errors, attribute vs. strategic, plus 100-program agreement"):
        started = time.perf_counter()
        z = root_zipper(ERRORS_ROOT)
        assert errors_ag(z) == EXPECTED_ERRORS
        assert errors_strategic(z) == EXPECTED_ERRORS
        rng = random.Random(20250810)
        for _ in range(100):
            root = random_program(rng, depth=rng.randint(2, 6))
            zz = root_zipper(root)
            assert errors_ag(zz) == errors_strategic(zz)
        assert time.perf_counter() - started < 5.0


def test_criterion_3_rule_conformance():
    with criterion(3, "each rewrite rule on its literal pattern, inlining included"):
        assert expr(Add(Var("e"), Const(0))) == Var("e")
        assert expr(Add(Const(0), Var("e"))) == Var("e")
        assert expr(Add(Const(3), Const(4))) == Const(7)
        assert expr(Sub(Var("e1"), Var("e2"))) == Add(Var("e1"), Neg(Var("e2")))
        assert expr(Neg(Neg(Var("e")))) == Var("e")
        assert expr(Neg(Const(6))) == Const(-6)
        # rule 7: assignment-bound names inline, nested-let-bound names do not
        root = parse("let a = 1 in a + 0")
        out = from_zipper(optimize_program(root_zipper(root)))
        assert out.let.body == Const(1)
        use = root_zipper(RUNNING_ROOT).child_at(1).child_at(1).child_at(2).child_at(1)
        assert use.focus == Var("b")
        assert isinstance(use.focus, Var)
        binder = next(s for n, s in letlang.env(use) if n == "b")
        assert isinstance(binder.focus, NestedLet)
        assert exp_c(use.focus, use) is None


def test_criterion_4_semantics_preservation():
    with criterion(4, "evaluation preserved by full optimization on 100 programs"):
        started = time.perf_counter()
        rng = random.Random(777)
        for _ in range(100):
            root = random_wellscoped_program(rng, depth=rng.randint(2, 4))
            assert errors_ag(root_zipper(root)) == []
            before = eval_program(root)
            assert before is not None
            out = from_zipper(optimize_program(root_zipper(root), fuel=500_000))
            after = eval_program(out)
            assert after is not None
            assert after == before  # exact integer equality
        assert time.perf_counter() - started < 10.0


def test_criterion_5_normal_forms():
    with criterion(5, "innermost results admit no further rewrite"):
        rng = random.Random(4242)
        arith = arith_step()
        for _ in range(60):
            e = random_exp(rng, rng.randint(0, 5), NAME_POOL)
            out = innermost(arith)(to_zipper(e, LANG))
            assert once_bu_tp(arith)(out) is None
        full = program_step()
        for _ in range(40):
            root = random_wellscoped_program(rng, depth=rng.randint(2, 4))
            out = optimize_program(root_zipper(root), fuel=500_000)
            assert once_bu_tp(full)(out) is None
        out = optimize_program(root_zipper(RUNNING_ROOT))
        assert once_bu_tp(full)(out) is None


def test_criterion_6_zipper_laws():
    with criterion(6, "zipper laws over at least 1000 random cases"):
        rng = random.Random(987654)
        cases = 0
        moves = ("down_left", "down_right", "left", "right", "up")

        def wander(z, steps):
            for _ in range(steps):
                nxt = getattr(z, rng.choice(moves))()
                if nxt is not None:
                    z = nxt
            return z

        for _ in range(400):  # roundtrip law
            root = random_program(rng, depth=rng.randint(1, 4))
            z = wander(root_zipper(root), rng.randint(0, 10))
            assert from_zipper(z) == root
            cases += 1
        for _ in range(300):  # navigation inverses
            root = random_program(rng, depth=rng.randint(1, 4))
            z = wander(root_zipper(root), rng.randint(0, 10))
            down = z.down_left()
            if down is not None:
                assert down.up() == z
            right = z.right()
            if right is not None:
                assert right.left() == z
            kids = LANG.children(z.focus)
            if kids:
                i = rng.randint(1, len(kids))
                assert z.child_at(i).parent() == z
            cases += 1
        arith = arith_step()
        for _ in range(300):  # focus preservation of strategies
            root = random_program(rng, depth=rng.randint(1, 4))
            z = wander(root_zipper(root), rng.randint(0, 8))
            for s in (innermost(arith), once_bu_tp(arith), adhoc_tp(id_tp, Exp, expr)):
                out = s(z)
                if out is not None:
                    assert out.position == z.position
            cases += 1
        assert cases >= 1000


def test_criterion_7_traversal_order():
    with criterion(7, "preorder visit order and single-redex rewrites"):
        rng = random.Random(31415)
        for _ in range(50):
            root = random_program(rng, depth=rng.randint(1, 4))
            tags = TU(lambda z: [z.lang.tag(z.focus)])
            assert apply_tu(full_td_tu(tags), root_zipper(root)) == preorder_tags(root, LANG)
            assert names(root_zipper(root)) == let_names_walk(root)
        arith = arith_step()
        rule = typed_rule(Exp, expr)
        applicable = 0
        while applicable < 50:
            root = random_program(rng, depth=rng.randint(1, 4))
            z = root_zipper(root)
            out = once_bu_tp(arith)(z)
            if out is None:
                continue
            after = from_zipper(out)
            # the result is exactly one rule application, at the first redex
            # the postorder enumeration reaches (leftmost-innermost)
            first = next(
                p
                for p in postorder_positions(root, LANG)
                if rule(subtree_at(root, p, LANG)) is not None
            )
            rewritten = replace_at(root, first, rule(subtree_at(root, first, LANG)), LANG)
            assert after == rewritten
            assert diff_positions(root, after, LANG) != []
            applicable += 1


def test_criterion_8_smell_suite():
    def fix(e):
        return from_zipper(smells.smell_elim(smells.mexp_zipper(e)))

    with criterion(8, "smell catalog rewrites plus idempotence on 200 generated terms"):
        catalog = [
            ("[x] ++ xs", "x : xs"),
            ("length xs == 0", "null xs"),
            ("0 == length xs", "null xs"),
            ("xs == []", "null xs"),
            ("[] == xs", "null xs"),
            ("True == b", "b"),
            ("b == True", "b"),
            ("False == b", "not b"),
            ("b == False", "not b"),
            ("if b then True else False", "b"),
            ("if b then False else True", "not b"),
        ]
        for before, after in catalog:
            assert fix(smells.parse_m(before)) == smells.parse_m(after)
        rng = random.Random(606)
        for _ in range(200):
            e = random_mexp(rng, rng.randint(0, 6))
            fixed = fix(e)
            assert smelly_subterms(fixed) == []
            assert fix(fixed) == fixed


def test_criterion_9_divergence_guard():
    with criterion(9, "always-succeeding step exhausts its fuel instead of looping"):
        always = adhoc_tp(id_tp, Exp, expr)
        with pytest.raises(FuelExhaustedError):
            scheme("innermost", always, 1000)(root_zipper(RUNNING_ROOT))


def test_criterion_10_cli_integration(capsys, tmp_path):
    with criterion(10, "CLI exit codes, golden outputs, and AST roundtrip"):
        def run(argv):
            code = cli_main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def path_of(name, text):
            p = tmp_path / name
            p.write_text(text, encoding="utf-8")
            return str(p)

        running = path_of("p.let", RUNNING_SOURCE)
        errors = path_of("err.let", ERRORS_SOURCE)

        code, out, _ = run(["let", "names", "--input", running])
        assert (code, out) == (0, "a\nc\nb\nc\n")

        code, out, _ = run(["let", "check", "--input", errors])
        assert (code, out) == (2, "b\nb\nz\nc\n")
        code, out, _ = run(["let", "check", "--input", path_of("ok.let", "let a = 1 in a")])
        assert (code, out) == (0, "")

        code, out, _ = run(
            ["let", "opt", "--strategy", "innermost", "--input", path_of("o.let", "let a = 1 in a + 0")]
        )
        assert (code, out) == (0, "let a = 1\nin 1\n")

        code, out, _ = run(["let", "pretty", "--input", path_of("u.let", "let a = 1; b = 2 in a + b")])
        assert (code, out) == (0, "let a = 1\n  b = 2\nin a + b\n")

        code, out, err = run(["let", "names", "--input", path_of("bad.let", "let in a")])
        assert code == 1 and out == "" and "syntax error" in err

        code, out, err = run(["let", "opt", "--fuel", "2", "--input", running])
        assert code == 3 and "budget" in err

        code, out, _ = run(["smell", "fix", "--input", path_of("s.mexp", "x == True")])
        assert (code, out) == (0, "x\n")
        code, out, _ = run(
            ["smell", "fix", "--input", path_of("c.mexp", "if (length xs == 0) then True else False")]
        )
        assert (code, out) == (0, "null xs\n")
        code, _, err = run(["smell", "fix", "--input", path_of("bad.mexp", "[x ++")])
        assert code == 1 and "syntax error" in err

        # AST output is bit-exact under an import/export roundtrip
        code, out, _ = run(["let", "pretty", "--output", "ast", "--input", running])
        assert code == 0 and out.endswith("\n")
        root = parse(RUNNING_SOURCE)
        assert out[:-1] == export_json(root, letlang.LANG)
        assert export_json(import_json(out, letlang.LANG), letlang.LANG) == out[:-1]
        code2, out2, _ = run(["smell", "fix", "--output", "ast", "--input", path_of("j.mexp", "[x] ++ xs")])
        fixed = smells.parse_m("x : xs")
        assert code2 == 0 and out2[:-1] == export_json(fixed, smells.LANG)
        assert import_json(out2, smells.LANG) == fixed
