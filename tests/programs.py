"""Shared fixture programs: the running example and the scope-error example,
each as both source text and the abstract tree the source must parse to."""

from __future__ import annotations

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
