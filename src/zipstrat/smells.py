"""Code-smell elimination for a mini functional expression language.

Four rewrite families remove the classic beginner patterns: building a
singleton list just to concatenate it, checking emptiness against
``length``/``[]``, comparing against boolean literals, and branching on a
condition only to return literals.  One fix can expose another (eliminating
a redundant ``if`` may reveal an emptiness check), so :func:`smell_elim`, the
one door of a run, takes a zipper and runs the rules to an innermost fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexing import MAX_DEPTH, ParseError, TokenStream, describe, tokenize
from .strategies import DEFAULT_FUEL, TP, adhoc_tp, apply_tp, fail_tp, scheme
from .zipper import Language, Zipper, to_zipper

Name = str


# -- abstract syntax ----------------------------------------------------------


class MExp:
    """Mini expressions: variables, literals, lists, a few infixes, application, if."""
    __slots__ = ("__weakref__",)  # every node class is slotted; 3.10 has no ``weakref_slot``


@dataclass(frozen=True, slots=True)
class Var(MExp):
    name: Name


@dataclass(frozen=True, slots=True)
class IntLit(MExp):
    value: int

    def __post_init__(self):
        if isinstance(self.value, bool):
            raise TypeError("IntLit holds ints; use BoolLit for booleans")


@dataclass(frozen=True, slots=True)
class BoolLit(MExp):
    value: bool

    def __post_init__(self):
        if not isinstance(self.value, bool):
            raise TypeError("BoolLit holds booleans")


@dataclass(frozen=True, slots=True)
class ListLit(MExp):
    items: tuple[MExp, ...]


#: One precedence ladder, read by the parser and the printer, loosest first: 0 ``if``;
#: 1 and 2 the binding power of each infix operator, ``==`` (non-associative) below
#: ``:`` and ``++`` (both right-associative); 3 application (a name and one atom); 4 atoms.
_INFIX = {"==": 1, ":": 2, "++": 2}
_IF_PREC, _APP_PREC, _ATOM_PREC = 0, 3, 4


@dataclass(frozen=True, slots=True)
class Infix(MExp):
    op: str
    left: MExp
    right: MExp

    def __post_init__(self):
        if self.op not in _INFIX:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Call(MExp):
    fn: Name
    arg: MExp


@dataclass(frozen=True, slots=True)
class If(MExp):
    cond: MExp
    then: MExp
    orelse: MExp


LANG = Language("mexp")
LANG.register(MExp, Var, IntLit, BoolLit, ListLit, Infix, Call, If)


def mexp_zipper(e: MExp) -> Zipper:
    return to_zipper(e, LANG)


# -- concrete syntax ----------------------------------------------------------

_SYMBOLS = (*_INFIX, ",", "[", "]", "(", ")")
_KEYWORDS = frozenset({"if", "then", "else", "True", "False"})
#: What the parser counts toward ``MAX_DEPTH``, as its depth error names it.
_NESTS = "brackets, applications and ifs"


def parse_m(text: str) -> MExp:
    stream = TokenStream(
        tokenize(text, symbols=_SYMBOLS, keywords=_KEYWORDS, signed_ints=True), text
    )
    e = _parse_exp(stream)
    if not stream.at("eof"):
        stream.fail(f"expected end of input, found {describe(stream.peek())}")
    return e


def _parse_exp(p: TokenStream, power: int = 0) -> MExp:
    """An expression whose operators bind at least as tightly as ``power``.

    One operand is read first: a literal, a name (applied to the atom after it
    below ``_ATOM_PREC``), a bracket, or an ``if`` at power 0.  Then every infix
    operator of ``_INFIX`` binding at least ``power`` takes it as its left side.
    A bracket or an ``if`` costs one Python frame, an application two.
    """
    tok = p.peek()
    if tok.kind == "int":
        left: MExp = IntLit(p.integer())
    elif tok.kind == "name":
        p.advance()
        arg = p.peek()  # an application's argument is an atom
        if power < _ATOM_PREC and (
            arg.kind in ("int", "name") or arg.text in ("(", "[", "True", "False")
        ):
            left = Call(tok.text, _parse_exp(p, _ATOM_PREC))
        else:
            left = Var(tok.text)
    elif tok.text in ("True", "False"):
        left = BoolLit(p.advance().text == "True")
    elif tok.text in ("(", "[") or (tok.text == "if" and power == 0):
        p.parens += 1  # open up to the closing bracket or the else-branch, which goes uncounted
        if p.parens > MAX_DEPTH:
            p.too_deep(tok, _NESTS)
        p.advance()
        if tok.text == "if":
            cond = _parse_exp(p)
            p.expect("keyword", "then")
            then = _parse_exp(p)
            p.expect("keyword", "else")
            p.parens -= 1
            return If(cond, then, _parse_exp(p))
        if tok.text == "(":
            left = _parse_exp(p)
            p.expect("op", ")")
        else:
            items: list[MExp] = []
            if not p.at("op", "]"):
                items.append(_parse_exp(p))
                while p.at("op", ","):
                    p.advance()
                    items.append(_parse_exp(p))
            p.expect("op", "]")
            left = ListLit(tuple(items))
        p.parens -= 1
    else:
        p.fail(f"expected an expression, found {describe(tok)}")
    # Only operator tokens spell an operator, so the text alone decides.
    while _INFIX.get(p.peek().text, -1) >= power:
        op = p.advance().text
        # At power 2 the right operand takes every ":" and "++" that follows.
        left = Infix(op, left, _parse_exp(p, 2))
        if op == "==":
            power = 2  # "==" does not chain
    return left


def pretty_m(e: MExp, prec: int = 0) -> str:
    """Render with the fewest parentheses that keep ``parse_m(pretty_m(e)) == e``."""
    match e:
        case Var(name):
            return name
        case IntLit(value):
            return str(value)
        case BoolLit(value):
            return "True" if value else "False"
        case ListLit(items):
            return "[" + ", ".join([pretty_m(i, _IF_PREC) for i in items]) + "]"
        case Call(fn, arg):
            s = f"{fn} {pretty_m(arg, _ATOM_PREC)}"
            return f"({s})" if prec > _APP_PREC else s
        case Infix(op, left, right):
            power = _INFIX[op]
            s = f"{pretty_m(left, power + 1)} {op} {pretty_m(right, 2)}"
            return f"({s})" if prec > power else s
        case If(cond, then, orelse):
            s = (
                f"if {pretty_m(cond, _IF_PREC)} then {pretty_m(then, _IF_PREC)}"
                f" else {pretty_m(orelse, _IF_PREC)}"
            )
            return f"({s})" if prec > _IF_PREC else s
    raise TypeError(f"not an expression: {e!r}")


# -- smell rules ----------------------------------------------------------------


def join_list(e: MExp) -> MExp | None:
    """``[h] ++ t`` builds a singleton only to append; cons instead."""
    match e:
        case Infix("++", ListLit((h,)), t):
            return Infix(":", h, t)
    return None


def null_list(e: MExp) -> MExp | None:
    """Emptiness checks spelled with ``length`` or ``[]`` become ``null x``."""
    match e:
        case Infix("==", Call("length", x), IntLit(0)):
            return Call("null", x)
        case Infix("==", IntLit(0), Call("length", x)):
            return Call("null", x)
        case Infix("==", x, ListLit(())):
            return Call("null", x)
        case Infix("==", ListLit(()), x):
            return Call("null", x)
    return None


def redundant_boolean(e: MExp) -> MExp | None:
    """Comparisons against boolean literals: keep the expression (negated for False)."""
    match e:
        case Infix("==", BoolLit(True), x):
            return x
        case Infix("==", x, BoolLit(True)):
            return x
        case Infix("==", BoolLit(False), x):
            return Call("not", x)
        case Infix("==", x, BoolLit(False)):
            return Call("not", x)
    return None


def redundant_if(e: MExp) -> MExp | None:
    """Branches returning boolean literals: the condition already is the answer."""
    match e:
        case If(cond, BoolLit(True), BoolLit(False)):
            return cond
        case If(cond, BoolLit(False), BoolLit(True)):
            return Call("not", cond)
    return None


def smell_step() -> TP:
    step = fail_tp
    step = adhoc_tp(step, MExp, join_list)
    step = adhoc_tp(step, MExp, null_list)
    step = adhoc_tp(step, MExp, redundant_boolean)
    step = adhoc_tp(step, MExp, redundant_if)
    return step


def smell_elim(z: Zipper, fuel: int = DEFAULT_FUEL) -> Zipper:
    """Innermost normalization with the four rule families; always succeeds.

    Every rule strictly shrinks the term, so the fixed point is reached on any
    finite input; ``fuel`` bounds the rewrites all the same, as in every scheme run.
    """
    return apply_tp(scheme("innermost", smell_step(), fuel), z)


__all__ = [
    "BoolLit",
    "Call",
    "If",
    "IntLit",
    "Infix",
    "LANG",
    "ListLit",
    "MExp",
    "Name",
    "ParseError",
    "Var",
    "join_list",
    "mexp_zipper",
    "null_list",
    "parse_m",
    "pretty_m",
    "redundant_boolean",
    "redundant_if",
    "smell_elim",
    "smell_step",
]
