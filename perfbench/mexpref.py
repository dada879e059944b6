"""Reference toolkit for the smell mini-language, independent of ``zipstrat``.

Terms are plain tuples: ``("var", name)``, ``("int", n)``, ``("bool", b)``,
``("list", (items...))``, ``("infix", op, l, r)``, ``("call", fn, arg)``
and ``("if", cond, then, orelse)``.  The printer and parser restate the
concrete syntax the CLI uses; the matcher restates the four smell shapes.
"""

from __future__ import annotations

import re

_IF, _EQ, _CONS, _APP, _ATOM = 0, 1, 2, 3, 4


def nodes(e) -> int:
    """Constructor nodes of a term (payload leaves not counted)."""
    tag = e[0]
    if tag in ("var", "int", "bool"):
        return 1
    if tag == "list":
        return 1 + sum(nodes(i) for i in e[1])
    if tag == "infix":
        return 1 + nodes(e[2]) + nodes(e[3])
    if tag == "call":
        return 1 + nodes(e[2])
    return 1 + nodes(e[1]) + nodes(e[2]) + nodes(e[3])


def show(e, prec: int = 0) -> str:
    tag = e[0]
    if tag == "var":
        return e[1]
    if tag == "int":
        return str(e[1])
    if tag == "bool":
        return "True" if e[1] else "False"
    if tag == "list":
        return "[" + ", ".join(show(i) for i in e[1]) + "]"
    if tag == "call":
        s = e[1] + " " + show(e[2], _ATOM)
        return "(" + s + ")" if prec > _APP else s
    if tag == "infix" and e[1] == "==":
        s = show(e[2], _CONS) + " == " + show(e[3], _CONS)
        return "(" + s + ")" if prec > _EQ else s
    if tag == "infix":
        s = show(e[2], _APP) + " " + e[1] + " " + show(e[3], _CONS)
        return "(" + s + ")" if prec > _CONS else s
    s = "if " + show(e[1]) + " then " + show(e[2]) + " else " + show(e[3])
    return "(" + s + ")" if prec > _IF else s


_TOKEN = re.compile(r"\s*(?:(-?\d+)|([A-Za-z_]\w*)|(\+\+|==|[:,\[\]()]))", re.ASCII)
_KEYWORDS = ("if", "then", "else", "True", "False")


class RefSyntaxError(ValueError):
    pass


def _tokens(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise RefSyntaxError(f"unexpected input at {pos}")
        pos = m.end()
        num, word, sym = m.groups()
        if num is not None:
            out.append(("int", num))
        elif word is not None:
            out.append(("kw" if word in _KEYWORDS else "name", word))
        else:
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

    def exp(self):
        if self.at("kw", "if"):
            self.i += 1
            c = self.exp()
            self.take("kw", "then")
            t = self.exp()
            self.take("kw", "else")
            return ("if", c, t, self.exp())
        left = self.cons()
        if self.at("op", "=="):
            self.i += 1
            return ("infix", "==", left, self.cons())
        return left

    def cons(self):
        left = self.app()
        if self.at("op", ":") or self.at("op", "++"):
            op = self.take("op")
            return ("infix", op, left, self.cons())
        return left

    def at_atom(self) -> bool:
        return (self.at("int") or self.at("name") or self.at("op", "(") or self.at("op", "[")
                or self.at("kw", "True") or self.at("kw", "False"))

    def app(self):
        if self.at("name"):
            name = self.take("name")
            return ("call", name, self.atom()) if self.at_atom() else ("var", name)
        return self.atom()

    def atom(self):
        if self.at("int"):
            return ("int", int(self.take("int")))
        if self.at("kw", "True") or self.at("kw", "False"):
            return ("bool", self.take("kw") == "True")
        if self.at("name"):
            return ("var", self.take("name"))
        if self.at("op", "("):
            self.i += 1
            e = self.exp()
            self.take("op", ")")
            return e
        self.take("op", "[")
        items = []
        if not self.at("op", "]"):
            items.append(self.exp())
            while self.at("op", ","):
                self.i += 1
                items.append(self.exp())
        self.take("op", "]")
        return ("list", tuple(items))


def parse(text: str):
    p = _Parser(text)
    e = p.exp()
    if not p.at("eof"):
        raise RefSyntaxError("trailing input")
    return e


# -- smell shapes ---------------------------------------------------------------------


def is_smell(e) -> bool:
    """True when ``e`` itself has one of the four smell shapes."""
    if e[0] == "if":
        return e[2][0] == "bool" and e[3][0] == "bool" and e[2][1] != e[3][1]
    if e[0] != "infix":
        return False
    op, l, r = e[1], e[2], e[3]
    if op == "++":
        return l[0] == "list" and len(l[1]) == 1
    if op != "==":
        return False
    for a, b in ((l, r), (r, l)):
        if a[0] == "bool" or a == ("list", ()):
            return True
        if a[0] == "call" and a[1] == "length" and b == ("int", 0):
            return True
    return False


def subterms(e):
    """Every subterm of ``e``, preorder, ``e`` first."""
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        tag = t[0]
        if tag == "list":
            stack.extend(reversed(t[1]))
        elif tag == "infix":
            stack.extend((t[3], t[2]))
        elif tag == "call":
            stack.append(t[2])
        elif tag == "if":
            stack.extend((t[3], t[2], t[1]))


def smell_count(e) -> int:
    return sum(1 for t in subterms(e) if is_smell(t))
