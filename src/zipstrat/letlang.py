"""A small block language of nested ``let`` bindings over integer arithmetic.

The module bundles everything the language needs: the AST and its concrete
syntax, scope-rule attributes (the declaration accumulator ``dcli``, the
synthesized block environment ``dclo``, the visible environment ``env``,
and the nesting level ``lev``), two equivalent scope-error analyses (one a
classic synthesized attribute, one a type-unifying strategy), a seven-rule
expression optimizer driven by innermost rewriting, and an independent
evaluator used as the semantics oracle.

Scope rules: every block may use names before their textual declaration,
inner blocks shadow outer ones, and re-declaring a name at the same
nesting level is an error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .lexing import MAX_DEPTH, ParseError, TokenStream, describe, tokenize
from .strategies import (
    TP,
    adhoc_tp,
    adhoc_tpz,
    adhoc_tu,
    adhoc_tuz,
    apply_tp,
    apply_tu,
    fail_tp,
    fail_tu,
    full_td_tu,
    innermost,
)
from .zipper import Language, NavigationError, Zipper, to_zipper

Name = str


# -- abstract syntax ----------------------------------------------------------


class Exp:
    """Integer expressions."""


@dataclass(frozen=True)
class Add(Exp):
    left: Exp
    right: Exp


@dataclass(frozen=True)
class Sub(Exp):
    left: Exp
    right: Exp


@dataclass(frozen=True)
class Neg(Exp):
    operand: Exp


@dataclass(frozen=True)
class Var(Exp):
    name: Name


@dataclass(frozen=True)
class Const(Exp):
    value: int


class List:
    """A right-nested spine of declarations, terminated by :class:`EmptyList`."""


@dataclass(frozen=True)
class Assign(List):
    name: Name
    exp: Exp
    rest: List


@dataclass(frozen=True)
class NestedLet(List):
    name: Name
    let: Let
    rest: List


@dataclass(frozen=True)
class EmptyList(List):
    pass


@dataclass(frozen=True)
class Let:
    decls: List
    body: Exp


@dataclass(frozen=True)
class Root:
    """Top wrapper so the outermost block has a parent without inherited context."""

    let: Let


LANG = Language("let")
LANG.register(Root)
LANG.register(Let)
LANG.register(List, Assign, NestedLet, EmptyList)
LANG.register(Exp, Add, Sub, Neg, Var, Const)


def root_zipper(root: Root) -> Zipper:
    return to_zipper(root, LANG)


# -- concrete syntax ----------------------------------------------------------

_SYMBOLS = ("+", "-", "=", ";", "(", ")")
_KEYWORDS = frozenset({"let", "in"})


def parse(text: str) -> Root:
    """Parse a program: ``let`` declarations (one per line or ``;``-separated) ``in`` body.

    Declarations bind either an expression or a whole nested program; at
    least one declaration is required.  Raises :class:`ParseError` with the
    offending line and column.
    """
    tokens = tokenize(text, symbols=_SYMBOLS, keywords=_KEYWORDS, keep_newlines=True)
    stream = TokenStream(tokens, text)
    stream.skip_newlines()
    let = _parse_let(stream)
    stream.skip_newlines()
    if not stream.at("eof"):
        stream.fail(f"expected end of input, found {describe(stream.peek())}")
    return Root(let)


def _parse_let(p: TokenStream) -> Let:
    p.expect("keyword", "let")
    p.skip_newlines()
    decls = [_parse_decl(p)]
    while True:
        saw_sep = False
        while p.at("op", ";") or p.at("newline"):
            p.advance()
            saw_sep = True
        if p.at("keyword", "in"):
            break
        if not saw_sep:
            p.fail(f"expected ';', a newline, or 'in', found {describe(p.peek())}")
        if p.at("eof"):
            p.fail("unexpected end of input in declarations")
        decls.append(_parse_decl(p))
    p.expect("keyword", "in")
    p.skip_newlines()
    body = _parse_exp(p)
    spine: List = EmptyList()
    for name, rhs in reversed(decls):
        spine = NestedLet(name, rhs, spine) if isinstance(rhs, Let) else Assign(name, rhs, spine)
    return Let(spine, body)


def _parse_decl(p: TokenStream):
    name = p.expect("name").text
    p.expect("op", "=")
    if p.at("keyword", "let"):
        return name, _parse_let(p)
    return name, _parse_exp(p)


_NEG, _OPEN = object(), object()  # pending entries beside ``(left operand, operator)`` pairs


def _parse_exp(p: TokenStream) -> Exp:
    """``exp := unary (('+' | '-') unary)*``, ``unary := '-' unary | atom``,
    ``atom := int | name | '(' exp ')'``, by precedence climbing over one stack.

    The stack holds pending unary minuses, open parentheses and left operands
    with their ``+``/``-``, at most :data:`MAX_DEPTH` of them.  An operand that
    is read takes the minuses pending right before it, then at most one left
    operand, so ``+``/``-`` associate to the left and a unary minus binds
    tighter.  A minus directly on an integer literal folds into a signed
    constant, so optimizer-produced negative constants survive a print/parse
    trip.  Inside parentheses newlines are blanks (``p.parens``).
    """
    stack: list = []
    while True:
        tok = p.peek()
        kind = tok.kind
        if kind == "int":
            e = Const(p.integer())
        elif kind == "name":
            e = Var(p.advance().text)
        elif kind == "op" and (tok.text == "-" or tok.text == "("):
            if tok.text == "(":
                p.parens += 1
            p.advance()
            if tok.text == "-" and p.peek().kind == "int":
                e = Const(-p.integer())
            else:
                if len(stack) == MAX_DEPTH:
                    p.too_deep(tok)
                stack.append(_NEG if tok.text == "-" else _OPEN)
                continue
        else:
            p.fail(f"expected an expression, found {describe(tok)}")
        while True:
            while stack and stack[-1] is _NEG:
                stack.pop()
                e = Neg(e)
            if stack and stack[-1] is not _OPEN:
                left, op = stack.pop()
                e = Add(left, e) if op == "+" else Sub(left, e)
            tok = p.peek()
            if tok.kind == "op" and (tok.text == "+" or tok.text == "-"):
                if len(stack) == MAX_DEPTH:
                    p.too_deep(tok)
                p.advance()
                stack.append((e, tok.text))
                break
            if not stack:
                return e
            p.parens -= 1
            p.expect("op", ")")
            stack.pop()


def pretty(root: Root) -> str:
    """Canonical layout: one declaration per line, two-space indent per nesting level.

    ``parse(pretty(r)) == r`` for every parser-producible tree.
    """
    return _pretty_let(root.let, 0)


def _decl_nodes(spine: List) -> list[Assign | NestedLet]:
    out = []
    while isinstance(spine, (Assign, NestedLet)):
        out.append(spine)
        spine = spine.rest
    return out


def _pretty_let(node: Let, level: int) -> str:
    decls = _decl_nodes(node.decls)
    if not decls:
        raise ValueError("cannot render a let with no declarations")
    lines = []
    for i, d in enumerate(decls):
        rhs = _pretty_let(d.let, level + 1) if isinstance(d, NestedLet) else _pretty_exp(d.exp, 0)
        text = f"{d.name} = {rhs}"
        lines.append("let " + text if i == 0 else "  " * (level + 1) + text)
    lines.append("  " * level + "in " + _pretty_exp(node.body, 0))
    return "\n".join(lines)


_ADDITIVE, _UNARY = 1, 2


def _pretty_exp(e: Exp, prec: int) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            return str(value)
        case Neg(Const() as c):
            # Parenthesized so the literal does not merge into a signed constant.
            return "-(" + _pretty_exp(c, 0) + ")"
        case Neg(operand):
            return "-" + _pretty_exp(operand, _UNARY)
        case Add(left, right):
            s = _pretty_exp(left, _ADDITIVE) + " + " + _pretty_exp(right, _UNARY)
        case Sub(left, right):
            s = _pretty_exp(left, _ADDITIVE) + " - " + _pretty_exp(right, _UNARY)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    return "(" + s + ")" if prec > _ADDITIVE else s


# -- scope-rule attributes ------------------------------------------------------
#
# The environment type is an ordered list of (name, zipper-at-declaration)
# pairs, innermost/most recent first; lookup takes the first match, which
# is what makes shadowing and duplicate reporting work.
#
# The equations are the paper's: dcli accumulates down the declaration spine,
# dclo is dcli at the spine's end, env is the enclosing block's dclo.  Read
# literally they recompute the whole block at every use, so each block keeps
# one scope record instead (:func:`_scope`): its visible environment, its own
# entries first, how many of them it declares, and its level.  env copies the
# list, dcli slices it and lev reads the level.  The record is memoized on the
# Let node (outside its dataclass fields, so equality, hashing and the
# reflected arity are untouched) with the zipper above the block that it was
# built on, and reused only for a block made from that very zipper, which fixes
# every site in it.  A Let that the walk up rebuilt after a rewrite gets no
# record, and neither does a block inside one: the record's sites would keep
# the garbage copy alive in a reference cycle.
#
# The inlining rule needs only the first entry for one name, and reads it off
# the zipper instead (:func:`_binder`): beside the path from the focus up,
# every level's siblings are the current tree, so it builds no record and
# rebuilds nothing stale after a rewrite, except at a use inside its own
# definition.

Env = list[tuple[Name, Zipper]]


class ScopeDomainError(Exception):
    """An attribute was evaluated at a focus where its equations are undefined."""


def lexeme(z: Zipper) -> Name:
    """The name argument of the focused declaration or variable."""
    node = z.focus
    if isinstance(node, (Assign, NestedLet, Var)):
        return node.name
    raise ScopeDomainError(f"no name at {type(node).__name__}")


def lexeme_assign(z: Zipper) -> Exp | None:
    """The bound expression, when the focus is a plain assignment."""
    node = z.focus
    return node.exp if isinstance(node, Assign) else None


def _scope(block: Zipper) -> tuple[Env, int, int]:
    """The block's visible environment, how many of its entries it declares, and its level.

    Callers copy or slice the list; the memoized one is never handed out.
    """
    node = block.focus
    memo = node.__dict__.get("_scope")
    if memo is not None and memo[0] is block.above:
        return memo[1]
    visible = []
    site = block.child_at(1)
    while isinstance(site.focus, (Assign, NestedLet)):
        visible.append((lexeme(site), site))
        site = site.child_at(3)
    visible.reverse()
    own, level = len(visible), 1
    outer = block.parent()
    keep = block.siblings[block.index] is node
    if not isinstance(outer.focus, Root):
        outer = _enclosing(outer, Let)
        above, _, level = _scope(outer)
        visible += above
        level += 1
        keep = keep and outer.focus.__dict__.get("_scope", (None,))[0] is outer.above
    scope = visible, own, level
    if keep:
        object.__setattr__(node, "_scope", (block.above, scope))
    return scope


def dcli(z: Zipper) -> Env:
    """Declarations accumulated above and left of the focus (inherited).

    Restarts from the outer environment at a nested block, so level checks
    can still see outer declarations.  Below a spine node: the block's own
    entries that the spine above the focus declares, then the outer ones.
    """
    node = z.focus
    if isinstance(node, Root):
        return []
    if isinstance(node, Let):
        visible, own, _ = _scope(z)
        return visible[own:]
    z = z.parent()
    if not isinstance(z.focus, (Assign, NestedLet, Let)):
        raise ScopeDomainError(f"dcli undefined under {type(z.focus).__name__}")
    block = _enclosing(z, Let)
    # The spine nodes above the focus: the depth from the block down to z.
    above = 0
    while z.above is not block.above:
        above += 1
        z = z.above
    visible, own, _ = _scope(block)
    return visible[own - above :]


def dclo(z: Zipper) -> Env:
    """The block's complete declaration list (synthesized at the spine's end).

    Every spine node of a block has the same one, which is the block's ``env``.
    """
    node = z.focus
    if isinstance(node, (Root, Let, Assign, NestedLet, EmptyList)):
        return env(z)
    raise ScopeDomainError(f"dclo undefined at {type(node).__name__}")


def env(z: Zipper) -> Env:
    """The environment visible at the focus: the enclosing block's ``dclo``."""
    z = _enclosing(z, (Root, Let))
    if isinstance(z.focus, Root):
        z = z.child_at(1)
    return _scope(z)[0].copy()


def lev(z: Zipper) -> int:
    """Nesting level: 0 at the root, +1 per enclosing block."""
    z = _enclosing(z, (Root, Let))
    return 0 if isinstance(z.focus, Root) else _scope(z)[2]


def _enclosing(z: Zipper, types: type | tuple[type, ...]) -> Zipper:
    """The nearest ancestor-or-self of a ``types`` node; past the root, as ``parent()`` fails."""
    found = z.up_to(types)
    if found is None:
        raise NavigationError("the root has no parent")
    return found


def must_be_in(name: Name, environment: Env) -> list[Name]:
    """Report ``name`` when it is missing from the environment."""
    for n, _site in environment:
        if n == name:
            return []
    return [name]


def must_not_be_in(entry: tuple[Name, Zipper], environment: Env) -> list[Name]:
    """Report the name when another declaration of it exists at the same level."""
    name, site = entry
    for n, other in environment:
        if n == name and lev(site) == lev(other):
            return [name]
    return []


# -- scope-error analyses -------------------------------------------------------


def errors_ag(z: Zipper) -> list[Name]:
    """Scope errors in source order, as a synthesized attribute.

    Duplicates are reported at the offending re-declaration, missing names
    at the offending use.
    """
    node = z.focus
    if isinstance(node, Root):
        return errors_ag(z.child_at(1))
    if isinstance(node, (Let, Add, Sub)):
        return errors_ag(z.child_at(1)) + errors_ag(z.child_at(2))
    if isinstance(node, Neg):
        return errors_ag(z.child_at(1))
    if isinstance(node, (EmptyList, Const)):
        return []
    if isinstance(node, Var):
        return must_be_in(lexeme(z), env(z))
    if isinstance(node, (Assign, NestedLet)):
        here = must_not_be_in((lexeme(z), z), dcli(z))
        return here + errors_ag(z.child_at(2)) + errors_ag(z.child_at(3))
    raise ScopeDomainError(f"errors undefined at {type(node).__name__}")


def uses(e: Exp, z: Zipper) -> list[Name]:
    """Per-node use check: a variable must be bound in its environment."""
    if isinstance(e, Var):
        return must_be_in(lexeme(z), env(z))
    return []


def decls(n: List, z: Zipper) -> list[Name]:
    """Per-node declaration check: a name must be fresh at its level."""
    if isinstance(n, (Assign, NestedLet)):
        return must_not_be_in((lexeme(z), z), dcli(z))
    return []


def errors_strategic(z: Zipper) -> list[Name]:
    """The same error list as :func:`errors_ag`, with the copy rules replaced
    by a single top-down type-unifying traversal."""
    step = adhoc_tuz(adhoc_tuz(fail_tu(), Exp, uses), List, decls)
    return apply_tu(full_td_tu(step), z)


def select(n: List) -> list[Name]:
    """The name declared at this node, if any."""
    if isinstance(n, (Assign, NestedLet)):
        return [n.name]
    return []


def names(z: Zipper) -> list[Name]:
    """All declared names, in preorder (source) order."""
    return apply_tu(full_td_tu(adhoc_tu(fail_tu(), List, select)), z)


# -- optimizer -----------------------------------------------------------------


def expr(e: Exp) -> Exp | None:
    """The context-free rewrite rules, tried in order:

    add(e, 0) -> e;  add(0, e) -> e;  add(a, b) -> a+b on constants;
    sub(a, b) -> add(a, neg(b));  neg(neg(e)) -> e;  neg(const) -> signed const.

    The fold declines a sum with more digits than the interpreter's
    ``int``-to-string limit, which the parser also applies to literals, so
    every constant the optimizer makes can be printed and parsed again.
    """
    match e:
        case Add(left, Const(0)):
            return left
        case Add(Const(0), right):
            return right
        case Add(Const(a), Const(b)) if _printable(a + b):
            return Const(a + b)
        case Sub(a, b):
            return Add(a, Neg(b))
        case Neg(Neg(inner)):
            return inner
        case Neg(Const(n)):
            return Const(-n)
    return None


def _printable(n: int) -> bool:
    """``str(n)`` stays within ``sys.get_int_max_str_digits()``; 0 means no limit."""
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def exp_c(e: Exp, z: Zipper) -> Exp | None:
    """The context-dependent rule: replace a variable by its defining expression.

    Takes the declaration that ``env`` at the focus lists first for the name;
    only names bound by a plain assignment are inlined (nested-let bindings
    have no expression to copy), and the copied expression is the definition
    as it stands in the current tree, rewrites already performed included.
    The declaration is read off the zipper (:func:`_binder`), so a use
    rebuilds nothing unless it sits in its own definition.
    """
    if not isinstance(e, Var):
        return None
    hit = _binder(z, e.name)
    return hit.exp if isinstance(hit, Assign) else None


def _binder(z: Zipper, name: Name) -> Assign | NestedLet | None:
    """The declaration of ``name`` that ``env(z)`` finds first, without building a zipper.

    Walks the ``above`` links from the focus.  At every level the parent's
    children beside the path are the current tree (``siblings`` are the
    children of ``above.focus``; only the slot on the path can be stale), so
    a spine node reached from its right-hand side is, with its ``rest``, the
    block's declarations from there on, a ``Let`` reached from its body sees
    its whole spine, and a spine node reached from its ``rest`` is an earlier
    declaration.  The first hit up the links is ``env``'s: innermost block
    first, latest declaration first.  A use inside its own definition reads
    that definition through ``up_to``, the one walk here that rebuilds.
    """
    level = z
    while (above := level.above) is not None:
        node = above.focus
        if level.index == 1 and isinstance(node, (Let, Assign, NestedLet)):
            hit = _last_decl(node.decls if isinstance(node, Let) else node, name)
            if hit is node and isinstance(node, Assign):
                # Its right-hand side is on the path, where ``node`` may be stale.
                return z.up_to(Assign).focus
            if hit is not None:
                return hit
        elif level.index == 2 and node.name == name:  # only spine nodes have a third child
            return node
        level = above
    return None


def _last_decl(spine: List, name: Name) -> Assign | NestedLet | None:
    """The last declaration of ``name`` along a declaration spine."""
    hit = None
    while isinstance(spine, (Assign, NestedLet)):
        if spine.name == name:
            hit = spine
        spine = spine.rest
    return hit


def arith_step() -> TP:
    """Rules 1-6 with a failing default, as required for fixed-point detection."""
    return adhoc_tp(fail_tp, Exp, expr)


def program_step() -> TP:
    """All seven rules: the context-free rules first, variable inlining as fallback."""
    return adhoc_tp(adhoc_tpz(fail_tp, Exp, exp_c), Exp, expr)


def optimize_program(z: Zipper, fuel: int | None = None) -> Zipper | None:
    """Innermost normalization with all seven rules.

    Expects a zipper rooted at :class:`Root`: the inlining rule looks names
    up in the blocks above each use, as the environment attribute does.
    """
    return apply_tp(innermost(program_step(), fuel), z)


# -- evaluation oracle -----------------------------------------------------------


class _EvalFailure(Exception):
    pass


class _Frame:
    __slots__ = ("bindings", "outer", "memo", "active")

    def __init__(self, bindings: dict[str, Assign | NestedLet], outer: "_Frame | None"):
        self.bindings = bindings
        self.outer = outer
        self.memo: dict[str, int] = {}
        self.active: set[str] = set()


def eval_program(root: Root) -> int | None:
    """Evaluate the program body; ``None`` when the program has no meaning.

    Names may be used before their textual declaration and inner blocks
    shadow outer ones.  A duplicate name at one level (anywhere in the
    tree), an unbound use reached during evaluation, or a cyclic definition
    (detected via an in-progress set) yields ``None``.
    """
    try:
        _check_no_duplicates(root.let)
        return _eval_let(root.let, None)
    except _EvalFailure:
        return None


def _check_no_duplicates(let: Let) -> None:
    seen: set[str] = set()
    for d in _decl_nodes(let.decls):
        if d.name in seen:
            raise _EvalFailure
        seen.add(d.name)
        if isinstance(d, NestedLet):
            _check_no_duplicates(d.let)


def _eval_let(let: Let, outer: _Frame | None) -> int:
    frame = _Frame({d.name: d for d in _decl_nodes(let.decls)}, outer)
    return _eval_exp(let.body, frame)


def _eval_exp(e: Exp, frame: _Frame) -> int:
    match e:
        case Const(value):
            return value
        case Var(name):
            return _lookup(frame, name)
        case Add(left, right):
            return _eval_exp(left, frame) + _eval_exp(right, frame)
        case Sub(left, right):
            return _eval_exp(left, frame) - _eval_exp(right, frame)
        case Neg(operand):
            return -_eval_exp(operand, frame)
    raise TypeError(f"not an expression: {e!r}")


def _lookup(frame: _Frame, name: str) -> int:
    f = frame
    while f is not None:
        if name in f.bindings:
            return _force(f, name)
        f = f.outer
    raise _EvalFailure  # unbound use


def _force(f: _Frame, name: str) -> int:
    if name in f.memo:
        return f.memo[name]
    if name in f.active:
        raise _EvalFailure  # cyclic definition
    f.active.add(name)
    try:
        d = f.bindings[name]
        value = _eval_exp(d.exp, f) if isinstance(d, Assign) else _eval_let(d.let, f)
    finally:
        f.active.discard(name)
    f.memo[name] = value
    return value


__all__ = [
    "Add",
    "Assign",
    "Const",
    "EmptyList",
    "Env",
    "Exp",
    "LANG",
    "Let",
    "List",
    "Name",
    "Neg",
    "NestedLet",
    "ParseError",
    "Root",
    "ScopeDomainError",
    "Sub",
    "Var",
    "arith_step",
    "dcli",
    "dclo",
    "decls",
    "env",
    "errors_ag",
    "errors_strategic",
    "eval_program",
    "exp_c",
    "expr",
    "lev",
    "lexeme",
    "lexeme_assign",
    "must_be_in",
    "must_not_be_in",
    "names",
    "optimize_program",
    "parse",
    "pretty",
    "program_step",
    "root_zipper",
    "select",
    "uses",
]
