"""Tokenizer and token-stream plumbing shared by the bundled concrete syntaxes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NoReturn


class ParseError(ValueError):
    """Concrete-syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "int" | "op" | "keyword" | "newline" | "eof"
    text: str
    line: int
    col: int


def tokenize(
    text: str,
    *,
    symbols: Iterable[str],
    keywords: frozenset[str] = frozenset(),
    keep_newlines: bool = False,
    signed_ints: bool = False,
) -> list[Token]:
    """Split ``text`` into tokens; symbols are matched longest-first.

    With ``signed_ints`` a ``-`` directly followed by digits lexes as one
    integer literal (for grammars without a minus operator).
    """
    ordered = sorted(symbols, key=len, reverse=True)
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            if keep_newlines:
                toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or (signed_ints and ch == "-" and text[i + 1 : i + 2].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in keywords else "name"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in ordered:
            if text.startswith(sym, i):
                toks.append(Token("op", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "newline":
        return "end of line"
    return repr(tok.text)


class TokenStream:
    """Cursor over a token list with loud, positioned failures."""

    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._toks[self._pos]

    def advance(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != "eof":
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

        The tokenizer's ``isdigit`` accepts digits such as ``²``, and ``int()``
        refuses literals longer than the interpreter's digit limit.
        """
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:
            shown = repr(tok.text) if len(tok.text) <= 20 else f"of {len(tok.text)} characters"
            raise ParseError(f"invalid integer literal {shown}", tok.line, tok.col) from None

    def skip_newlines(self) -> None:
        while self.at("newline"):
            self.advance()

    def fail(self, message: str) -> NoReturn:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)
