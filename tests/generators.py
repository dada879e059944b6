"""Random input generators: seeded ``random.Random`` builders for the bulk
acceptance loops, plus hypothesis strategies for the property suites."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from zipstrat import letlang as L
from zipstrat import smells as S

NAME_POOL = ["a", "b", "c", "x", "y", "z", "w"]


# -- let expressions and programs (seeded) --------------------------------------


def random_exp(rng: random.Random, depth: int, names: list[str]) -> L.Exp:
    if depth <= 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return L.Var(rng.choice(names))
        return L.Const(rng.randint(-9, 9))
    kind = rng.randrange(4)
    if kind == 0:
        return L.Add(random_exp(rng, depth - 1, names), random_exp(rng, depth - 1, names))
    if kind == 1:
        return L.Sub(random_exp(rng, depth - 1, names), random_exp(rng, depth - 1, names))
    if kind == 2:
        # Bias toward redexes: zero operands make rules 1/2 fire.
        return L.Add(random_exp(rng, depth - 1, names), L.Const(0))
    return L.Neg(random_exp(rng, depth - 1, names))


def _spine(decls: list[tuple[str, L.Exp | L.Let]]) -> L.List:
    spine: L.List = L.EmptyList()
    for name, rhs in reversed(decls):
        if isinstance(rhs, L.Let):
            spine = L.NestedLet(name, rhs, spine)
        else:
            spine = L.Assign(name, rhs, spine)
    return spine


def random_program(rng: random.Random, depth: int = 4, max_decls: int = 3) -> L.Root:
    """Arbitrary programs: duplicates, shadowing, and unbound names all possible.

    Each block has 1 to ``max_decls`` declarations.
    """

    def block(d: int) -> L.Let:
        decls: list[tuple[str, L.Exp | L.Let]] = []
        for _ in range(rng.randint(1, max_decls)):
            name = rng.choice(NAME_POOL)
            if d > 1 and rng.random() < 0.3:
                decls.append((name, block(d - 1)))
            else:
                decls.append((name, random_exp(rng, d - 1, NAME_POOL)))
        return L.Let(_spine(decls), random_exp(rng, d - 1, NAME_POOL))

    return L.Root(block(depth))


def random_wellscoped_program(rng: random.Random, depth: int = 4) -> L.Root:
    """Well-scoped, acyclic programs with globally fresh names.

    Bindings are generated in dependency order (a right-hand side only
    refers to already-completed bindings) and then shuffled within their
    block, so forward textual references still occur.  Fresh names make
    variable inlining capture-free.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def block(d: int, avail: list[str]) -> L.Let:
        done: list[str] = []
        decls: list[tuple[str, L.Exp | L.Let]] = []
        for _ in range(rng.randint(1, 3)):
            name = fresh()
            usable = avail + done
            if d > 1 and rng.random() < 0.3:
                decls.append((name, block(d - 1, usable)))
            else:
                decls.append((name, random_exp(rng, d - 1, usable)))
            done.append(name)
        rng.shuffle(decls)
        return L.Let(_spine(decls), random_exp(rng, d - 1, avail + done))

    return L.Root(block(depth, []))


# -- mini-language expressions (seeded, sort-directed) ----------------------------


def random_mexp(rng: random.Random, depth: int, sort: str = "any") -> S.MExp:
    """Sort-directed terms (int/bool/list), with smell shapes injected often."""
    if sort == "any":
        sort = rng.choice(["int", "bool", "list"])
    if depth <= 0:
        return _mexp_leaf(rng, sort)
    roll = rng.random()
    if sort == "int":
        if roll < 0.3:
            return _mexp_leaf(rng, sort)
        return S.Call("length", random_mexp(rng, depth - 1, "list"))
    if sort == "bool":
        if roll < 0.2:
            return _mexp_leaf(rng, sort)
        if roll < 0.35:  # emptiness smells
            lst = random_mexp(rng, depth - 1, "list")
            return rng.choice(
                [
                    S.Infix("==", S.Call("length", lst), S.IntLit(0)),
                    S.Infix("==", S.IntLit(0), S.Call("length", lst)),
                    S.Infix("==", lst, S.ListLit(())),
                    S.Infix("==", S.ListLit(()), lst),
                ]
            )
        if roll < 0.55:  # boolean-literal smells
            b = random_mexp(rng, depth - 1, "bool")
            lit = S.BoolLit(rng.random() < 0.5)
            return S.Infix("==", b, lit) if rng.random() < 0.5 else S.Infix("==", lit, b)
        if roll < 0.7:  # redundant if
            c = random_mexp(rng, depth - 1, "bool")
            flip = rng.random() < 0.5
            return S.If(c, S.BoolLit(not flip), S.BoolLit(flip))
        if roll < 0.85:
            return S.Call("not", random_mexp(rng, depth - 1, "bool"))
        return S.Infix(
            "==", random_mexp(rng, depth - 1, "int"), random_mexp(rng, depth - 1, "int")
        )
    # list sort
    if roll < 0.25:
        return _mexp_leaf(rng, sort)
    if roll < 0.55:  # singleton-concat smell
        head = random_mexp(rng, depth - 1, "int")
        return S.Infix("++", S.ListLit((head,)), random_mexp(rng, depth - 1, "list"))
    if roll < 0.7:
        return S.Infix(
            "++", random_mexp(rng, depth - 1, "list"), random_mexp(rng, depth - 1, "list")
        )
    if roll < 0.85:
        return S.Infix(
            ":", random_mexp(rng, depth - 1, "int"), random_mexp(rng, depth - 1, "list")
        )
    return S.If(
        random_mexp(rng, depth - 1, "bool"),
        random_mexp(rng, depth - 1, "list"),
        random_mexp(rng, depth - 1, "list"),
    )


def _mexp_leaf(rng: random.Random, sort: str) -> S.MExp:
    if rng.random() < 0.4:
        return S.Var(rng.choice(["xs", "ys", "n", "b", "p", "q"]))
    if sort == "int":
        return S.IntLit(rng.randint(0, 9))
    if sort == "bool":
        return S.BoolLit(rng.random() < 0.5)
    items = tuple(S.IntLit(rng.randint(0, 9)) for _ in range(rng.randint(0, 2)))
    return S.ListLit(items)


# -- hypothesis strategies ---------------------------------------------------------

let_exps = st.recursive(
    st.one_of(
        st.builds(L.Const, st.integers(-20, 20)),
        st.builds(L.Var, st.sampled_from(NAME_POOL)),
    ),
    lambda sub: st.one_of(
        st.builds(L.Add, sub, sub),
        st.builds(L.Sub, sub, sub),
        st.builds(L.Neg, sub),
    ),
    max_leaves=20,
)


@st.composite
def let_programs(draw, max_depth: int = 3, max_decls: int = 3) -> L.Root:
    """Arbitrary programs, each block with 1 to ``max_decls`` declarations named from
    ``NAME_POOL``, so duplicates, shadowing and unbound names all occur."""

    def block(depth: int) -> L.Let:
        n = draw(st.integers(1, max_decls))
        decls: list[tuple[str, L.Exp | L.Let]] = []
        for _ in range(n):
            name = draw(st.sampled_from(NAME_POOL))
            if depth > 1 and draw(st.booleans()):
                decls.append((name, block(depth - 1)))
            else:
                decls.append((name, draw(let_exps)))
        return L.Let(_spine(decls), draw(let_exps))

    return L.Root(block(max_depth))


mexps = st.recursive(
    st.one_of(
        st.builds(S.Var, st.sampled_from(["xs", "ys", "n", "b"])),
        st.builds(S.IntLit, st.integers(0, 9)),
        st.builds(S.BoolLit, st.booleans()),
        st.builds(S.ListLit, st.tuples()),
    ),
    lambda sub: st.one_of(
        st.builds(S.ListLit, st.tuples(sub)),
        st.builds(S.ListLit, st.tuples(sub, sub)),
        st.builds(S.Infix, st.sampled_from(["++", "==", ":"]), sub, sub),
        st.builds(S.Call, st.sampled_from(["length", "null", "not", "f"]), sub),
        st.builds(S.If, sub, sub, sub),
    ),
    max_leaves=15,
)
