"""Shared fixture programs: the running example and the scope-error example,
each as both source text and the abstract tree the source must parse to."""

from __future__ import annotations

from zipstrat import smells
from zipstrat.letlang import (
    Add,
    Assign,
    Const,
    EmptyList,
    Let,
    Neg,
    NestedLet,
    Root,
    Sub,
    Var,
)

# let a = b + 0; c = 2; b = (let c = 3 in c + c) in a + 7 - c
RUNNING_SOURCE = """\
let a = b + 0
  c = 2
  b = let c = 3
  in c + c
in a + 7 - c"""

RUNNING = Let(
    Assign(
        "a",
        Add(Var("b"), Const(0)),
        Assign(
            "c",
            Const(2),
            NestedLet(
                "b",
                Let(Assign("c", Const(3), EmptyList()), Add(Var("c"), Var("c"))),
                EmptyList(),
            ),
        ),
    ),
    Sub(Add(Var("a"), Const(7)), Var("c")),
)

RUNNING_ROOT = Root(RUNNING)

#: Value of the running example: b = 3 + 3, a = 6 + 0, body (6 + 7) - 2.
RUNNING_VALUE = 11

#: Normal form of the running example under the context-free rules alone:
#: "a = b + 0" collapses to "a = b" and the body loses its subtraction.
RUNNING_ARITH_NF = Let(
    Assign(
        "a",
        Var("b"),
        Assign(
            "c",
            Const(2),
            NestedLet(
                "b",
                Let(Assign("c", Const(3), EmptyList()), Add(Var("c"), Var("c"))),
                EmptyList(),
            ),
        ),
    ),
    Add(Add(Var("a"), Const(7)), Neg(Var("c"))),
)

# Scope errors, in source order: "b" used but never declared (twice),
# "z" used but never declared, and the second same-level "c".
ERRORS_SOURCE = """\
let a = b + 3
  c = 2
  w = let c = a - b
  in c + z
  c = c + 3 - c
in (a + 7) + c + w"""

ERRORS_ROOT = Root(
    Let(
        Assign(
            "a",
            Add(Var("b"), Const(3)),
            Assign(
                "c",
                Const(2),
                NestedLet(
                    "w",
                    Let(
                        Assign("c", Sub(Var("a"), Var("b")), EmptyList()),
                        Add(Var("c"), Var("z")),
                    ),
                    Assign(
                        "c",
                        Sub(Add(Var("c"), Const(3)), Var("c")),
                        EmptyList(),
                    ),
                ),
            ),
        ),
        Add(Add(Add(Var("a"), Const(7)), Var("c")), Var("w")),
    )
)

EXPECTED_ERRORS = ["b", "b", "z", "c"]


def rev_source(n: int) -> str:
    """``rev n``: ``a_i = a_{i-1} + a_{i-1}`` for i from n down to 1, then
    ``a0 = 1``, with body ``a_n``.  Each use comes before its definition, so
    copies are inlined before they are folded and the work doubles per level."""
    decls = [f"a{i} = a{i - 1} + a{i - 1}" for i in range(n, 0, -1)] + ["a0 = 1"]
    return "let " + "\n  ".join(decls) + f"\nin a{n}"


# The other input shapes whose cost or depth grows with a size.


def flat_source(k: int) -> str:
    """The flat block: ``x0 = 1``, then ``x_i = x_{i-1} + 1`` up to ``x_{k-1}``, its body."""
    decls = ["x0 = 1"] + [f"x{i} = x{i - 1} + 1" for i in range(1, k)]
    return "let " + "\n  ".join(decls) + f"\nin x{k - 1}"


def nested_chain_source(n: int) -> str:
    """``b = let c = 1 in c``, ``a0 = b``, then ``a_i = a_{i-1} + a_{i-1}`` up to
    ``a_n``, its body.  ``b`` is bound to a block, so no inlined copy folds."""
    decls = ["b = let c = 1\n  in c", "a0 = b"]
    decls += [f"a{i} = a{i - 1} + a{i - 1}" for i in range(1, n + 1)]
    return "let " + "\n  ".join(decls) + f"\nin a{n}"


def sum_source(n: int) -> str:
    """The n-term sum ``1 + … + 1``."""
    return "let a = " + " + ".join(["1"] * n) + "\nin a"


def sub_chain_source(n: int) -> str:
    """``let y = let z = 1 in z in y - 1 - … - 1``, with n subtractions."""
    return "let y = let z = 1\n  in z\nin y" + " - 1" * n


def neg_chain_source(n: int) -> str:
    """``let a = - - (… - - (x - 1) - 1 …) - 1) in a``, with n levels."""
    return "let a = " + "- - (" * n + "x" + " - 1)" * n + " in a"


def parens_source(depth: int) -> str:
    """A constant inside ``depth`` nested parentheses."""
    return f"let a = {'(' * depth}1{')' * depth}\nin a"


def minus_source(depth: int) -> str:
    """A name under a chain of ``depth`` unary minuses."""
    return f"let b = 1\n  a = {'-' * depth}b\nin a"


def join_list_source(n: int) -> str:
    """A smell list of n ``[x_i] ++ ys`` items, each one ``join_list`` redex."""
    return "[" + ", ".join(f"[x{i}] ++ ys" for i in range(n)) + "]"


def brackets_source(depth: int) -> str:
    """A smell name inside ``depth`` nested brackets."""
    return "[" * depth + "x" + "]" * depth


def smell_nest(shape: str, depth: int) -> tuple[str, smells.MExp]:
    """``depth`` nested brackets, applications ``f (…)`` or ``if``s (in condition
    position) around ``x``: the source and its tree, built one level at a time."""
    source, wrap = {
        "brackets": (brackets_source(depth), lambda e: smells.ListLit((e,))),
        "applications": ("f (" * depth + "x" + ")" * depth, lambda e: smells.Call("f", e)),
        "ifs": ("if " * depth + "x" + " then x else x" * depth,
                lambda e: smells.If(e, smells.Var("x"), smells.Var("x"))),
    }[shape]
    tree: smells.MExp = smells.Var("x")
    for _ in range(depth):
        tree = wrap(tree)
    return source, tree


SHAPES = (rev_source, flat_source, nested_chain_source, sum_source, sub_chain_source,
          parens_source, minus_source, join_list_source, brackets_source)
