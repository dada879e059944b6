"""Tokenizer and token-stream plumbing shared by the bundled concrete syntaxes."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, NoReturn


class ParseError(ValueError):
    """Concrete-syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


#: The most pending entries (open parentheses, prefix operators, left operands
#: waiting for their infix operator's right side) an expression parser holds.
MAX_DEPTH = 10_000


class DepthError(ParseError):
    """Input nests deeper than :data:`MAX_DEPTH`; positioned at the token past the limit."""


class Token(NamedTuple):
    kind: str  # "name" | "int" | "op" | "keyword" | "newline" | "eof"
    text: str
    pos: int  # offset into the source text


_KINDS = (None, "newline", "int", "name", "op", "eof", "bad")  # by the pattern's group index


def _error(text: str, pos: int, message: str, error: type[ParseError] = ParseError) -> ParseError:
    """A :class:`ParseError` at the 1-based line and column of offset ``pos``."""
    return error(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def tokenize(
    text: str,
    *,
    symbols: Iterable[str],
    keywords: frozenset[str] = frozenset(),
    keep_newlines: bool = False,
    signed_ints: bool = False,
) -> list[Token]:
    """Split ``text`` into tokens; symbols are matched longest-first.

    Blanks are space, tab, carriage return and, unless ``keep_newlines``,
    newline.  With ``signed_ints`` a ``-`` directly followed by digits lexes
    as one integer literal (for grammars without a minus operator).
    """
    blanks = "[ \t\r]*" if keep_newlines else "[ \t\r\n]*"
    sign = "-?" if signed_ints else ""
    ops = "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))
    pattern = (
        rf"{blanks}(?:(?P<newline>\n)|(?P<int>{sign}\d+)|(?P<name>\w+)|(?P<op>{ops})"
        r"|(?P<eof>\Z)|(?P<bad>.))"
    )
    toks: list[Token] = []
    new = tuple.__new__  # a Token without the Python frame of its constructor
    for m in re.finditer(pattern, text):
        group = m.lastindex
        kind, word, pos = _KINDS[group], m[group], m.start(group)
        if kind == "name":
            if word in keywords:
                kind = "keyword"
            elif not (word[0].isalpha() or word[0] == "_"):
                kind, word = "bad", word[0]  # a numeral that is no decimal digit, such as '½'
        if kind == "bad":
            raise _error(text, pos, f"unexpected character {word!r}")
        toks.append(new(Token, (kind, word, pos)))
        if kind == "eof":  # after trailing blanks the end would match again, empty
            break
    return toks


def describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "newline":
        return "end of line"
    return repr(tok.text)


class TokenStream:
    """Cursor over a token list with loud, positioned failures."""

    def __init__(self, tokens: list[Token], text: str):
        self._toks = tokens
        self._text = text
        self._pos = 0
        self.parens = 0  # open parentheses; while positive, advance skips newlines

    def peek(self) -> Token:
        return self._toks[self._pos]

    def advance(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != "eof":
            self._pos += 1
            while self.parens and self._toks[self._pos].kind == "newline":
                self._pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = repr(text) if text is not None else kind
            self.fail(f"expected {want}, found {describe(self.peek())}")
        return self.advance()

    def integer(self) -> int:
        """Consume the integer literal at the cursor; one ``int()`` rejects is a positioned error.

        ``int()`` refuses literals longer than the interpreter's digit limit.
        """
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:
            shown = repr(tok.text) if len(tok.text) <= 20 else f"of {len(tok.text)} characters"
            raise _error(self._text, tok.pos, f"invalid integer literal {shown}") from None

    def skip_newlines(self) -> None:
        while self.at("newline"):
            self.advance()

    def fail(self, message: str) -> NoReturn:
        raise _error(self._text, self.peek().pos, message)

    def too_deep(self, tok: Token, what: str) -> NoReturn:
        """Raise the :class:`DepthError` of a parser that would hold more than
        :data:`MAX_DEPTH` nested ``what`` (the parser's words for its entries)."""
        message = f"more than {MAX_DEPTH} nested {what}"
        raise _error(self._text, tok.pos, message, DepthError)
