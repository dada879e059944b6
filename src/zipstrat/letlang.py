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
    DEFAULT_FUEL,
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
    scheme,
)
from .zipper import Language, Zipper, to_zipper

Name = str


# -- abstract syntax ----------------------------------------------------------


class Exp:
    """Integer expressions."""
    __slots__ = ("__weakref__",)  # every node class is slotted; 3.10 has no ``weakref_slot``


@dataclass(frozen=True, slots=True)
class Add(Exp):
    left: Exp
    right: Exp


@dataclass(frozen=True, slots=True)
class Sub(Exp):
    left: Exp
    right: Exp


@dataclass(frozen=True, slots=True)
class Neg(Exp):
    operand: Exp


@dataclass(frozen=True, slots=True)
class Var(Exp):
    name: Name


@dataclass(frozen=True, slots=True)
class Const(Exp):
    value: int


class List:
    """A right-nested spine of declarations, terminated by :class:`EmptyList`."""
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Assign(List):
    name: Name
    exp: Exp
    rest: List


@dataclass(frozen=True, slots=True)
class NestedLet(List):
    name: Name
    let: Let
    rest: List


@dataclass(frozen=True, slots=True)
class EmptyList(List):
    pass


class _Node:  # the base of Let and Root, for the weak-reference slot
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Let(_Node):
    decls: List
    body: Exp


@dataclass(frozen=True, slots=True)
class Root(_Node):
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
#: What the expression parser counts toward ``MAX_DEPTH``, as its depth error names it.
_NESTS = "parentheses and operators"


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
                    p.too_deep(tok, _NESTS)
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
                    p.too_deep(tok, _NESTS)
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
    out: list[str] = []
    _pretty_let(root.let, 0, out)
    return "".join(out)


def _decl_nodes(spine: List) -> list[Assign | NestedLet]:
    out = []
    while isinstance(spine, (Assign, NestedLet)):
        out.append(spine)
        spine = spine.rest
    return out


def _pretty_let(node: Let, level: int, out: list[str]) -> None:
    """Appends the block's text to ``out`` piece by piece, so nothing is copied per level."""
    decls = _decl_nodes(node.decls)
    if not decls:
        raise ValueError("cannot render a let with no declarations")
    for i, d in enumerate(decls):
        out.append(f"let {d.name} = " if i == 0 else f"\n{'  ' * (level + 1)}{d.name} = ")
        if isinstance(d, NestedLet):
            _pretty_let(d.let, level + 1, out)
        else:
            out.append(_pretty_exp(d.exp, 0))
    out.append(f"\n{'  ' * level}in {_pretty_exp(node.body, 0)}")


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
# The equations are the paper's, with loops along the spine: env climbs with
# parent() to the enclosing block and takes its dclo, dclo walks the spine down
# to its end and takes dcli there, and dcli climbs the spine back up collecting
# each declaration, then the enclosing block's env.  Each call keeps nothing,
# so no tree node holds a zipper of an old version of the tree.
#
# The checks read a scope index: a dict owned by one analysis call of one
# unchanged tree, keyed by the zipper at each block level (a ``Let`` or a spine
# node), whose record holds the block's names with their first declaring nodes
# and the enclosing block's record (:func:`_scope`).  Inlining needs the current
# definition in a tree being rewritten, and reads it off the zipper (:func:`_binder`),
# whose siblings beside the path are the current tree.

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


def dcli(z: Zipper) -> Env:
    """Declarations accumulated above and left of the focus (inherited).

    Climbs the spine, latest declaration first, and restarts from the outer
    environment at a nested block, so level checks can still see outer
    declarations.
    """
    if isinstance(z.focus, Root):
        return []
    if not isinstance(z.focus, Let):
        z = z.parent()
        if not isinstance(z.focus, (Assign, NestedLet, Let)):
            raise ScopeDomainError(f"dcli undefined under {type(z.focus).__name__}")
    out = []
    while isinstance(z.focus, (Assign, NestedLet)):
        out.append((z.focus.name, z))
        z = z.parent()
    outer = z.parent()
    return out if isinstance(outer.focus, Root) else out + env(outer)


def dclo(z: Zipper) -> Env:
    """The block's complete declaration list: ``dcli`` at the spine's end (synthesized)."""
    while not isinstance(z.focus, EmptyList):
        if isinstance(z.focus, (Root, Let)):
            z = z.child_at(1)
        elif isinstance(z.focus, (Assign, NestedLet)):
            z = z.child_at(3)
        else:
            raise ScopeDomainError(f"dclo undefined at {type(z.focus).__name__}")
    return dcli(z)


def env(z: Zipper) -> Env:
    """The environment visible at the focus: the enclosing block's ``dclo``."""
    while not isinstance(z.focus, (Root, Let)):
        z = z.parent()
    return dclo(z)


def lev(z: Zipper) -> int:
    """Nesting level: 0 at the root, +1 per enclosing block (a ``Let`` up the links)."""
    level = 0
    while z is not None:
        level += isinstance(z.focus, Let)
        z = z.above
    return level


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
    at the offending use, by the same per-node checks (:func:`uses`,
    :func:`decls`) as :func:`errors_strategic`, over one scope index per call.
    """
    scopes: dict = {}

    def errors(z: Zipper) -> list[Name]:
        node = z.focus
        if isinstance(node, Root):
            return errors(z.child_at(1))
        if isinstance(node, (Let, Add, Sub)):
            return errors(z.child_at(1)) + errors(z.child_at(2))
        if isinstance(node, Neg):
            return errors(z.child_at(1))
        if isinstance(node, (EmptyList, Const)):
            return []
        if isinstance(node, Var):
            return uses(node, z, scopes)
        if isinstance(node, (Assign, NestedLet)):
            return decls(node, z, scopes) + errors(z.child_at(2)) + errors(z.child_at(3))
        raise ScopeDomainError(f"errors undefined at {type(node).__name__}")

    return errors(z)


def uses(e: Exp, z: Zipper, scopes: dict | None = None) -> list[Name]:
    """Per-node use check: a variable must be bound in its environment.

    ``must_be_in(lexeme(z), env(z))`` in the paper: the record of the block whose
    right-hand side or body holds the use, or of one around it, lists the name.
    """
    if not isinstance(e, Var):
        return []
    while (up := z.above) is not None and not (
            z.index == 1 and isinstance(up.focus, (Let, Assign, NestedLet))):
        z = up
    record = None if up is None else _scope(up, scopes)
    while record is not None and e.name not in record[0]:
        record = record[1]
    return [e.name] if record is None else []


def decls(n: List, z: Zipper, scopes: dict | None = None) -> list[Name]:
    """Per-node declaration check: a name must be fresh at its level.

    ``must_not_be_in((lexeme(z), z), dcli(z))`` in the paper, where only the
    block's own entries share its level: the record must list it first for its name.
    """
    if isinstance(n, (Assign, NestedLet)) and _scope(z, scopes)[0][n.name] is not n:
        return [n.name]
    return []


def _scope(z: Zipper, scopes: dict | None) -> tuple:
    """The record of the block level ``z`` in ``scopes`` (a fresh index when ``None``):
    ``(first, outer)``, each name's first declaring node as :func:`_binder` reads the
    block, and the enclosing block's record.  A level shares the record of the level
    above while it is that level's current child; an entry holds its zipper."""
    new, scopes = [], {} if scopes is None else scopes
    while (entry := scopes.get(id(z))) is None:
        new.append(z)
        if isinstance(z.focus, Let) or z.above is None or z.focus is not z.siblings[z.index]:
            spine = z.focus.decls if isinstance(z.focus, Let) else z.focus
            first, level = {d.name: d for d in reversed(_decl_nodes(spine))}, z
            while not isinstance(level.focus, Let) and level.above is not None:
                level = level.above  # up the spine to its ``Let``
                if not isinstance(level.focus, Let):
                    first[level.focus.name] = level.focus
            nested = (up := level.above) is not None and isinstance(up.focus, NestedLet)
            entry = z, (first, _scope(up, scopes) if nested else None)
            break
        z = z.above
    for level in new:
        scopes[id(level)] = level, entry[1]
    return entry[1]


def errors_strategic(z: Zipper) -> list[Name]:
    """The same error list as :func:`errors_ag`, with the copy rules replaced by one
    top-down type-unifying traversal whose rules share a scope index and fail at no error."""
    scopes: dict = {}
    step = adhoc_tuz(adhoc_tuz(fail_tu(), Exp, lambda e, z: uses(e, z, scopes) or None),
                     List, lambda n, z: decls(n, z, scopes) or None)
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
    """The declaration of ``name`` that ``env(z)`` finds first; only :func:`exp_c` asks.

    Walks the ``above`` links from the focus.  Beside the path every level's
    children are the current tree (only the slot on the path can be stale), so
    a spine node reached from its right-hand side holds, with its ``rest``, the
    block's later declarations, a ``Let`` reached from its body its whole spine,
    and one reached from its ``rest`` an earlier one: innermost block first,
    latest declaration first.  A use inside its own definition climbs to it
    with :meth:`~Zipper.parent`, the one walk here that rebuilds.
    """
    level = z
    while (above := level.above) is not None:
        node = above.focus
        if level.index == 1 and isinstance(node, (Let, Assign, NestedLet)):
            hit = _last_decl(node.decls if isinstance(node, Let) else node, name)
            if hit is node and isinstance(node, Assign):
                # Its right-hand side is on the path, where ``node`` may be stale.
                while not isinstance(z.focus, Assign):
                    z = z.parent()
                return z.focus
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


def optimize_program(z: Zipper, fuel: int = DEFAULT_FUEL, strategy: str = "innermost") -> Zipper:
    """All seven rules under scheme ``strategy`` of ``strategies.SCHEMES``; the one door of a run.

    ``innermost`` and ``outermost`` normalize; the ``full-*`` schemes sweep once and do not.
    Expects a zipper rooted at :class:`Root`: the inlining rule looks names
    up in the blocks above each use, as the environment attribute does.
    """
    return apply_tp(scheme(strategy, program_step(), fuel), z)


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
