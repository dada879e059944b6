"""Reference toolkit for the let language, independent of ``zipstrat``.

Trees are plain tuples so that nothing here shares code with the program
under test:

* expressions: ``("const", int)``, ``("var", name)``, ``("neg", e)``,
  ``("add", l, r)``, ``("sub", l, r)``
* a block: ``("let", [(name, rhs), ...], body)`` where ``rhs`` is an
  expression or a nested block; a program is its outermost block.

The printer writes the canonical layout the CLI prints, the parser accepts
the grammar the CLI accepts, and the evaluator and scope walk restate the
language's semantics from its documentation.
"""

from __future__ import annotations

import re

# -- size ------------------------------------------------------------------------


def exp_nodes(e) -> int:
    tag = e[0]
    if tag in ("const", "var"):
        return 1
    if tag == "neg":
        return 1 + exp_nodes(e[1])
    return 1 + exp_nodes(e[1]) + exp_nodes(e[2])


def block_nodes(b) -> int:
    """Constructor nodes of a block: Let, one per declaration, EmptyList, rhs, body."""
    _, decls, body = b
    n = 2 + exp_nodes(body)
    for _, rhs in decls:
        n += 1 + (block_nodes(rhs) if rhs[0] == "let" else exp_nodes(rhs))
    return n


def program_nodes(b) -> int:
    """Constructor nodes of the whole program, counting the ``Root`` wrapper."""
    return 1 + block_nodes(b)


# -- printing ----------------------------------------------------------------------

_ADDITIVE, _UNARY = 1, 2


def show_exp(e, prec: int = 0) -> str:
    tag = e[0]
    if tag == "var":
        return e[1]
    if tag == "const":
        return str(e[1])
    if tag == "neg":
        if e[1][0] == "const":
            return "-(" + str(e[1][1]) + ")"
        return "-" + show_exp(e[1], _UNARY)
    op = " + " if tag == "add" else " - "
    s = show_exp(e[1], _ADDITIVE) + op + show_exp(e[2], _UNARY)
    return "(" + s + ")" if prec > _ADDITIVE else s


def show_block(b, level: int = 0) -> str:
    _, decls, body = b
    lines = []
    for i, (name, rhs) in enumerate(decls):
        text = name + " = " + (show_block(rhs, level + 1) if rhs[0] == "let" else show_exp(rhs))
        lines.append("let " + text if i == 0 else "  " * (level + 1) + text)
    lines.append("  " * level + "in " + show_exp(body))
    return "\n".join(lines)


# -- parsing -----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*?(?:(\n)|(\d+)|([A-Za-z_]\w*)|([-+=;()])|(\S))", re.ASCII)


class RefSyntaxError(ValueError):
    pass


def _tokens(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    depth = 0
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        if m is None:  # only blanks left
            break
        pos = m.end()
        nl, num, word, sym, bad = m.groups()
        if bad is not None:
            raise RefSyntaxError(f"unexpected character {bad!r}")
        if nl is not None:
            if depth == 0:
                out.append(("nl", "\n"))
        elif num is not None:
            out.append(("int", num))
        elif word is not None:
            out.append(("kw" if word in ("let", "in") else "name", word))
        else:
            if sym == "(":
                depth += 1
            elif sym == ")":
                depth = max(0, depth - 1)
            out.append(("op", sym))
    out.append(("eof", ""))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def at(self, kind: str, text: str | None = None) -> bool:
        k, t = self.toks[self.i]
        return k == kind and (text is None or t == text)

    def take(self, kind: str, text: str | None = None) -> str:
        if not self.at(kind, text):
            raise RefSyntaxError(f"expected {text or kind} at token {self.i}")
        t = self.toks[self.i][1]
        self.i += 1
        return t

    def skip_nl(self) -> None:
        while self.at("nl"):
            self.i += 1

    def block(self):
        self.take("kw", "let")
        self.skip_nl()
        decls = [self.decl()]
        while True:
            sep = False
            while self.at("op", ";") or self.at("nl"):
                self.i += 1
                sep = True
            if self.at("kw", "in"):
                break
            if not sep or self.at("eof"):
                raise RefSyntaxError("bad declaration separator")
            decls.append(self.decl())
        self.take("kw", "in")
        self.skip_nl()
        return ("let", decls, self.exp())

    def decl(self):
        name = self.take("name")
        self.take("op", "=")
        return name, (self.block() if self.at("kw", "let") else self.exp())

    def exp(self):
        e = self.unary()
        while self.at("op", "+") or self.at("op", "-"):
            tag = "add" if self.take("op") == "+" else "sub"
            e = (tag, e, self.unary())
        return e

    def unary(self):
        if self.at("op", "-"):
            self.i += 1
            if self.at("int"):
                return ("const", -int(self.take("int")))
            return ("neg", self.unary())
        if self.at("int"):
            return ("const", int(self.take("int")))
        if self.at("name"):
            return ("var", self.take("name"))
        self.take("op", "(")
        e = self.exp()
        self.take("op", ")")
        return e


def parse(text: str):
    """Parse a program into the tuple form; raises :class:`RefSyntaxError`."""
    p = _Parser(text)
    p.skip_nl()
    b = p.block()
    p.skip_nl()
    if not p.at("eof"):
        raise RefSyntaxError("trailing input")
    return b


# -- semantics ------------------------------------------------------------------------


class _NoValue(Exception):
    pass


def evaluate(program) -> int | None:
    """Value of the program body, or ``None`` when it has no meaning.

    A name declared twice in one block, an unbound name reached during
    evaluation, or a definition that depends on itself has no meaning.
    Names are visible in their whole block (before their declaration too)
    and inner blocks shadow outer ones.
    """

    def no_duplicates(b) -> None:
        names = [n for n, _ in b[1]]
        if len(set(names)) != len(names):
            raise _NoValue
        for _, rhs in b[1]:
            if rhs[0] == "let":
                no_duplicates(rhs)

    def run_block(b, outer):
        frame = ({n: rhs for n, rhs in b[1]}, outer, {}, set())
        return run_exp(b[2], frame)

    def lookup(frame, name):
        while frame is not None:
            bindings, outer, memo, active = frame
            if name in bindings:
                if name in memo:
                    return memo[name]
                if name in active:
                    raise _NoValue
                active.add(name)
                rhs = bindings[name]
                value = run_block(rhs, frame) if rhs[0] == "let" else run_exp(rhs, frame)
                active.discard(name)
                memo[name] = value
                return value
            frame = outer
        raise _NoValue

    def run_exp(e, frame):
        tag = e[0]
        if tag == "const":
            return e[1]
        if tag == "var":
            return lookup(frame, e[1])
        if tag == "neg":
            return -run_exp(e[1], frame)
        a, b = run_exp(e[1], frame), run_exp(e[2], frame)
        return a + b if tag == "add" else a - b

    try:
        no_duplicates(program)
        return run_block(program, None)
    except _NoValue:
        return None


def scope_errors(program) -> list[str]:
    """Scope errors in source order, as ``let check`` reports them.

    A declaration is reported when its name was already declared earlier
    in the same block; a use is reported when no enclosing block declares
    its name.
    """
    out: list[str] = []

    def walk_exp(e, visible) -> None:
        tag = e[0]
        if tag == "var":
            if e[1] not in visible:
                out.append(e[1])
        elif tag == "neg":
            walk_exp(e[1], visible)
        elif tag in ("add", "sub"):
            walk_exp(e[1], visible)
            walk_exp(e[2], visible)

    def walk_block(b, outer) -> None:
        visible = outer | {n for n, _ in b[1]}
        seen: set[str] = set()
        for name, rhs in b[1]:
            if name in seen:
                out.append(name)
            seen.add(name)
            if rhs[0] == "let":
                walk_block(rhs, visible)
            else:
                walk_exp(rhs, visible)
        walk_exp(b[2], visible)

    walk_block(program, frozenset())
    return out


# -- structured export ----------------------------------------------------------------

_EXP_CTOR = {"add": "Add", "sub": "Sub", "neg": "Neg", "var": "Var", "const": "Const"}


def _leaf(value) -> dict:
    return {"leaf": type(value).__name__, "value": value}


def _export_exp(e) -> dict:
    tag = e[0]
    if tag in ("var", "const"):
        kids = [_leaf(e[1])]
    else:
        kids = [_export_exp(c) for c in e[1:]]
    return {"type": "Exp", "ctor": _EXP_CTOR[tag], "children": kids}


def _export_block(b) -> dict:
    spine = {"type": "List", "ctor": "EmptyList", "children": []}
    for name, rhs in reversed(b[1]):
        if rhs[0] == "let":
            spine = {"type": "List", "ctor": "NestedLet",
                     "children": [_leaf(name), _export_block(rhs), spine]}
        else:
            spine = {"type": "List", "ctor": "Assign",
                     "children": [_leaf(name), _export_exp(rhs), spine]}
    return {"type": "Let", "ctor": "Let", "children": [spine, _export_exp(b[2])]}


def export(program) -> dict:
    """The document ``let pretty --output ast`` prints for this program."""
    return {"type": "Root", "ctor": "Root", "children": [_export_block(program)]}
