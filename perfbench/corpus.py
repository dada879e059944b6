"""Seeded input corpora for the four workloads.

Every generator draws from one ``random.Random`` seeded by the workload
seed, so a seed always yields the same programs, byte for byte.  Sizes are
steered by a node budget: each size class asks for programs of about the
class's node count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import letref
import mexpref

#: Short names from a small pool, so that inner blocks often shadow outer ones.
LET_NAMES = ("a", "b", "c", "d", "e", "f")
#: Names used but never declared by the arbitrary programs of ``let-check``.
UNBOUND_NAMES = ("u", "v")


@dataclass
class Item:
    """One input program and what the checks need to know about it."""

    name: str
    size_class: int
    text: str
    nodes: int
    tree: tuple


@dataclass
class Corpus:
    items: list[Item]
    #: Input properties that the workload's behaviour depends on.
    properties: dict = field(default_factory=dict)


# -- let expressions and blocks ------------------------------------------------------


def _exp(rng: random.Random, size: int, names: list[str], var_share: float):
    """An expression of exactly ``size`` nodes over ``names``."""
    if size <= 1:
        if names and rng.random() < var_share:
            return ("var", rng.choice(names))
        return ("const", rng.randint(-9, 9))
    if size == 2 or rng.random() < 0.15:
        return ("neg", _exp(rng, size - 1, names, var_share))
    left = rng.randint(1, size - 2)
    right = size - 1 - left
    roll = rng.random()
    if roll < 0.2:
        # A zero operand makes the unit rules fire.
        return ("add", _exp(rng, size - 2, names, var_share), ("const", 0))
    tag = "add" if roll < 0.6 else "sub"
    return (tag, _exp(rng, left, names, var_share), _exp(rng, right, names, var_share))


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive sizes summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _block(rng, budget, outer: list[str], names: list[str], pool: tuple[str, ...]):
    """A block of about ``budget`` nodes declaring ``names``, with no scope discipline.

    Right-hand sides and the body use any name in scope and a few undeclared
    ones, so duplicates, cycles and unbound names all occur.  Half of the
    larger declarations bind a nested block whose names come from ``pool``,
    so nested blocks often shadow the blocks around them.
    """
    k = len(names)
    # Let, EmptyList and one node per declaration are fixed costs.
    sizes = _split(rng, max(k + 1, budget - 2 - k), k + 1)
    usable = [*dict.fromkeys([*names, *outer]), *UNBOUND_NAMES]
    decls = []
    for name, size in zip(names, sizes):
        if size >= 14 and rng.random() < 0.5:
            inner = [rng.choice(pool) for _ in range(max(1, min(size // 12, rng.randint(2, 4))))]
            decls.append((name, _block(rng, size, usable, inner, pool)))
        else:
            decls.append((name, _exp(rng, size, usable, 0.5)))
    return ("let", decls, _exp(rng, sizes[-1], usable, 0.5))


def _sized_program(rng, target: int, make) -> tuple:
    """Draw programs until one lands within 15% of ``target`` nodes."""
    while True:
        prog = make(rng, target)
        n = letref.program_nodes(prog)
        if abs(n - target) <= 0.15 * target:
            return prog


def _has_shadowing(block, outer: frozenset = frozenset()) -> bool:
    names = {n for n, _ in block[1]}
    if names & outer:
        return True
    return any(rhs[0] == "let" and _has_shadowing(rhs, outer | names) for _, rhs in block[1])


def _let_stats(progs: list[tuple]) -> dict:
    n_nodes = n_vars = n_blocks = n_decls = 0

    def walk_exp(e):
        nonlocal n_vars
        if e[0] == "var":
            n_vars += 1
        elif e[0] != "const":
            for c in e[1:]:
                walk_exp(c)

    def walk(b):
        nonlocal n_blocks, n_decls
        n_blocks += 1
        n_decls += len(b[1])
        for _, rhs in b[1]:
            if rhs[0] == "let":
                walk(rhs)
            else:
                walk_exp(rhs)
        walk_exp(b[2])

    for p in progs:
        n_nodes += letref.program_nodes(p)
        walk(p)
    return {
        "shadowing_share": round(sum(map(_has_shadowing, progs)) / len(progs), 4),
        "var_density": round(n_vars / n_nodes, 4),
        "decls_per_block": round(n_decls / n_blocks, 4),
    }


def _class_stats(items: list[Item]) -> dict:
    out = {}
    for c in sorted({i.size_class for i in items}):
        sizes = [i.nodes for i in items if i.size_class == c]
        out[str(c)] = {"programs": len(sizes), "mean_nodes": round(sum(sizes) / len(sizes), 1),
                       "min_nodes": min(sizes), "max_nodes": max(sizes)}
    return out


def _let_corpus(workload, rng, classes, per_class, make) -> Corpus:
    items = []
    for c in classes:
        for j in range(per_class):
            prog = _sized_program(rng, c, make)
            items.append(Item(f"{workload}-{c}-{j}", c, letref.show_block(prog),
                              letref.program_nodes(prog), prog))
    props = {"classes": _class_stats(items), **_let_stats([i.tree for i in items])}
    return Corpus(items, props)


# -- workloads -------------------------------------------------------------------------


def _even(total: int, parts: int) -> list[int]:
    """``parts`` sizes as equal as possible, summing to ``total``."""
    return [total // parts + (i < total % parts) for i in range(parts)]


def _opt_program(rng, target):
    """Three scalars and a row of small units that use them, in random order.

    Every unit is a nested block of two declarations and a body, each an
    expression of the same size.  Unit names are drawn from
    :data:`LET_NAMES`, like the scalars', so units often shadow a scalar.
    The fixed skeleton keeps the cost of a program close to that of its
    size class; names, operators, constants, variable placement and the
    order of declarations are random.
    """
    scalars = rng.sample(LET_NAMES, 3)
    # Only the second scalar may use another one: a unit that shadows the
    # first and inlines the second before it is folded captures the name.
    decls = [(name, _exp(rng, 3, scalars[:1] if i == 1 else [], 0.5))
             for i, name in enumerate(scalars)]
    n_units = max(1, round((target - 14) / 24))
    units = [f"u{i}" for i in range(n_units)]
    body = ("var", units[0])
    for u in units[1:]:
        body = ("add", body, ("var", u))
    # Root, Let, EmptyList, the body, and a declaration node plus a
    # three-node expression per scalar.
    fixed = 3 + (2 * n_units - 1) + 4 * len(scalars)
    for u, size in zip(units, _even(target - fixed, n_units)):
        x, y = rng.sample(LET_NAMES, 2)
        outer = [n for n in scalars if n not in (x, y)]
        # NestedLet, Let, two declarations and EmptyList are fixed.
        sx, sy, sb = _even(size - 5, 3)
        inner = [(x, _exp(rng, sx, outer, 0.5)), (y, _exp(rng, sy, [x, *outer], 0.5))]
        rng.shuffle(inner)
        decls.append((u, ("let", inner, _exp(rng, sb, [x, y, *outer], 0.5))))
    rng.shuffle(decls)
    return ("let", decls, body)


def let_opt(seed: int) -> Corpus:
    """Programs the evaluator gives a value for, shadowing included."""
    corpus = _let_corpus("let-opt", random.Random(seed), (50, 100, 200), 30, _opt_program)
    for item in corpus.items:
        if letref.evaluate(item.tree) is None:
            raise AssertionError(f"{item.name}: generator left the evaluator's domain")
    return corpus


def _check_program(rng, target):
    """One long block (a declaration per twenty nodes) with nested blocks inside.

    Names come from a pool four times the block's length, so about one
    declaration in nine repeats a name; nested blocks draw from the same
    pool and shadow; a few uses name nothing declared.
    """
    k = max(2, target // 20)
    pool = tuple(f"n{i}" for i in range(4 * k))
    names = [rng.choice(pool) for _ in range(k)]
    return _block(rng, target - 1, [], names, pool)


def let_check(seed: int) -> Corpus:
    """Arbitrary programs: shadowing, duplicate declarations and unbound names."""
    corpus = _let_corpus("let-check", random.Random(seed), (100, 400, 1600), 24, _check_program)
    errors = [len(letref.scope_errors(i.tree)) for i in corpus.items]
    corpus.properties["share_with_errors"] = round(sum(e > 0 for e in errors) / len(errors), 4)
    corpus.properties["errors_per_100_nodes"] = round(
        100 * sum(errors) / sum(i.nodes for i in corpus.items), 4)
    return corpus


def _flat(rng, target):
    """One block of many short declarations: long spines, shallow trees."""
    k = max(1, (target - 4) // 4)
    decls = [(f"x{i}", ("add", ("var", f"x{i - 1}") if i else ("const", 1), ("const", i)))
             for i in range(k)]
    rng.shuffle(decls)
    return ("let", decls, ("var", f"x{k - 1}"))


#: Longest generated chain of nested expressions.  Deeper inputs would make
#: the run's tracemalloc pass walk long stacks on every allocation.
_CHAIN = 200


def _chains(rng, target, grow):
    """A block of declarations bound to chains of at most :data:`_CHAIN` nodes."""
    m = -(-target // (_CHAIN + 3))
    names = [f"d{i}" for i in range(m)]
    body = ("var", names[0])
    for name in names[1:]:
        body = ("add", body, ("var", name))
    # Root, Let, EmptyList, the body and a node per declaration are fixed.
    sizes = _even(target - 2 - 3 * m, m)
    return ("let", [(name, grow(rng, size)) for name, size in zip(names, sizes)], body)


def _sum_chain(rng, size):
    """A long sum: a left spine of additions and subtractions."""
    e, n = ("const", rng.randint(0, 9)), 1
    while n + 2 <= size:
        e, n = (rng.choice(("add", "sub")), e, ("const", rng.randint(0, 9))), n + 2
    return ("neg", e) if n < size else e


def _nested_chain(rng, size):
    """Negations and parenthesized right operands nested in each other."""
    e, n = ("const", rng.randint(0, 9)), 1
    while n < size:
        if n + 2 > size or rng.random() < 0.3:
            e, n = ("neg", e), n + 1
        else:
            e, n = (rng.choice(("add", "sub")), ("const", rng.randint(0, 9)), e), n + 2
    return e


def let_pretty(seed: int) -> Corpus:
    """Flat, wide, nested and random programs, round-tripped through the printers."""
    rng = random.Random(seed)
    shapes = {
        "flat": _flat,
        "wide": lambda r, t: _chains(r, t, _sum_chain),
        "nested": lambda r, t: _chains(r, t, _nested_chain),
        "random": _check_program,
    }
    items = []
    for c in (100, 800, 6400):
        for j in range(2):
            for shape, make in shapes.items():
                prog = _sized_program(rng, c, make)
                items.append(Item(f"let-pretty-{c}-{shape}-{j}", c, letref.show_block(prog),
                                  letref.program_nodes(prog), prog))
    props = {"classes": _class_stats(items), "shapes": list(shapes),
             **_let_stats([i.tree for i in items])}
    return Corpus(items, props)


# -- mini-language terms ---------------------------------------------------------------

_MVARS = ("xs", "ys", "n", "b", "p", "q")


def _mleaf(rng, sort):
    if rng.random() < 0.4:
        return ("var", rng.choice(_MVARS))
    if sort == "int":
        return ("int", rng.randint(0, 9))
    if sort == "bool":
        return ("bool", rng.random() < 0.5)
    return ("list", ())


def _mexp(rng, size: int, sort: str):
    """A sort-directed term of about ``size`` nodes with smell shapes injected often."""
    if size <= 1:
        return _mleaf(rng, sort)
    if sort == "list" and size <= 3:
        return ("list", tuple(("int", rng.randint(0, 9)) for _ in range(size - 1)))
    roll = rng.random()
    if sort == "int":
        return ("call", "length", _mexp(rng, size - 1, "list"))
    if sort == "bool":
        if roll < 0.2:
            lst = _mexp(rng, max(1, size - 3), "list")
            return rng.choice([
                ("infix", "==", ("call", "length", lst), ("int", 0)),
                ("infix", "==", ("int", 0), ("call", "length", lst)),
                ("infix", "==", lst, ("list", ())),
                ("infix", "==", ("list", ()), lst),
            ])
        if roll < 0.45:
            b, lit = _mexp(rng, max(1, size - 2), "bool"), ("bool", rng.random() < 0.5)
            return ("infix", "==", b, lit) if rng.random() < 0.5 else ("infix", "==", lit, b)
        if roll < 0.65:
            flip = rng.random() < 0.5
            return ("if", _mexp(rng, max(1, size - 3), "bool"), ("bool", not flip), ("bool", flip))
        if roll < 0.8 or size < 3:
            return ("call", "not", _mexp(rng, size - 1, "bool"))
        left = rng.randint(1, size - 2)
        return ("infix", "==", _mexp(rng, left, "int"), _mexp(rng, size - 1 - left, "int"))
    if roll < 0.15 and size >= 8:
        # A wide list literal: many items rebuilt through the variadic path.
        k = rng.randint(4, min(30, size // 2))
        parts = _split(rng, size - 1, k)
        return ("list", tuple(_mexp(rng, s, "int") for s in parts))
    if roll < 0.45:
        head_size = rng.randint(1, max(1, (size - 2) // 2))
        rest = max(1, size - 2 - head_size)
        return ("infix", "++", ("list", (_mexp(rng, head_size, "int"),)), _mexp(rng, rest, "list"))
    if size < 4:
        return ("infix", ":", _mleaf(rng, "int"), _mexp(rng, max(1, size - 2), "list"))
    if roll < 0.85:
        left = rng.randint(1, size - 2)
        op, lsort = ("++", "list") if roll < 0.65 else (":", "int")
        return ("infix", op, _mexp(rng, left, lsort), _mexp(rng, size - 1 - left, "list"))
    c, t, e = _split(rng, size - 1, 3)
    return ("if", _mexp(rng, c, "bool"), _mexp(rng, t, "list"), _mexp(rng, e, "list"))


def _smell_program(rng, target):
    """A wide list literal of terms of about 25 nodes each.

    The items are independent random terms, so the cost of a program stays
    close to that of its size class, and the list itself is rebuilt through
    the variadic path on every rewrite below it.
    """
    sizes = _even(target - 1, max(1, round(target / 25)))
    return ("list", tuple(_mexp(rng, s, rng.choice(("bool", "list"))) for s in sizes))


def smell_fix(seed: int) -> Corpus:
    """Sort-directed mini-language terms with smells and wide list literals."""
    rng = random.Random(seed)
    items = []
    for c in (100, 200, 400):
        for j in range(24):
            while True:
                term = _smell_program(rng, c)
                n = mexpref.nodes(term)
                if abs(n - c) <= 0.15 * c:
                    break
            items.append(Item(f"smell-fix-{c}-{j}", c, mexpref.show(term), n, term))
    smells = sum(mexpref.smell_count(i.tree) for i in items)
    props = {
        "classes": _class_stats(items),
        "smell_density": round(smells / sum(i.nodes for i in items), 4),
        "wide_lists": sum(1 for i in items for t in mexpref.subterms(i.tree)
                          if t[0] == "list" and len(t[1]) >= 4),
    }
    return Corpus(items, props)


def probe_program() -> tuple:
    """The fixed program the machine-speed probe works on."""
    return _check_program(random.Random(0), 1200)


WORKLOADS = {
    "let-opt": let_opt,
    "let-check": let_check,
    "smell-fix": smell_fix,
    "let-pretty": let_pretty,
}
