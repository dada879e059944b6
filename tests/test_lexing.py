"""The tokenizer against the character-at-a-time scanner it replaced, the let
parser's newline rule against the token filter it replaced, its expression
loop against the recursive descent it replaced, and the smell parser and
printer against the precedence ladder they replaced."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import mexps
from oracles import (
    PlainTokenStream,
    let_tokens_reference,
    parse_exp_recursive,
    parse_m_ladder,
    pretty_m_ladder,
    reference_tokens,
)
from zipstrat import letlang, smells
from zipstrat.lexing import ParseError, tokenize

GRAMMARS = {
    "let": dict(symbols=letlang._SYMBOLS, keywords=letlang._KEYWORDS, keep_newlines=True),
    "smell": dict(symbols=smells._SYMBOLS, keywords=smells._KEYWORDS, signed_ints=True),
}

# '٣' is a decimal digit that int() reads, '½' neither a digit nor a letter
# to either scanner, and '²' a digit to ``str.isdigit`` but not to ``\d``.
SOURCES = st.lists(
    st.one_of(
        st.sampled_from(" \t\r\n\x0b"),
        st.sampled_from(sorted(set(letlang._SYMBOLS + smells._SYMBOLS))),
        st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"),
        st.sampled_from("0123456789"),
        st.sampled_from("é٣½²"),
        st.sampled_from(sorted(letlang._KEYWORDS | smells._KEYWORDS)),
    ),
    max_size=30,
).map("".join)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _reference(text: str, opts: dict):
    toks = []
    try:
        for tok in reference_tokens(text, **opts):
            toks.append(tok)
    except ParseError as error:
        return toks, (error.message, error.line, error.col)
    return toks, None


@pytest.mark.parametrize("opts", GRAMMARS.values(), ids=GRAMMARS)
@settings(max_examples=500)
@given(text=SOURCES)
def test_tokenize_agrees_with_the_reference_scanner(opts, text):
    ref, ref_error = _reference(text, opts)
    try:
        toks, error = tokenize(text, **opts), None
    except ParseError as exc:
        toks, error = [], (exc.message, exc.line, exc.col)
    bad = next((t for t in ref if t[0] == "int" and not t[1].lstrip("-").isdecimal()), None)
    if bad is None:
        assert error == ref_error
        if error is None:
            assert [(kind, word, *_line_col(text, pos)) for kind, word, pos in toks] == ref
        return
    # The reference lexes a digit that is no decimal digit, such as '²', into an
    # integer that ``int()`` rejects; the tokenizer stops at it, or at a '-'
    # directly before it, which is then no integer literal either.
    kind, word, line, col = bad
    k = len(re.match(r"(?:-?\d+)?", word)[0])
    assert error == (f"unexpected character {word[k]!r}", line, col + k)


@pytest.mark.parametrize("parse, text, line, col", [
    (letlang.parse, "let a = 1\n  b = 2 +\nin a", 2, 10),
    (letlang.parse, "let a = 1 in\r\n\ta +", 2, 5),
    (letlang.parse, "let a = 1\n  b = " + "9" * 5_000 + " in a", 2, 7),
    (smells.parse_m, "[1,\n  x ++", 2, 7),
], ids=["let-expected", "let-eof", "let-integer", "smell-eof"])
def test_stream_errors_carry_the_line_and_column_of_the_offending_token(parse, text, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)


# Token lists of small let expressions with nested parentheses.
LET_EXPS = st.recursive(
    st.sampled_from(["1", "x", "y"]).map(lambda atom: [atom]),
    lambda sub: st.one_of(
        sub.map(lambda e: ["(", *e, ")"]),
        st.tuples(sub, st.sampled_from("+-"), sub).map(lambda t: [*t[0], t[1], *t[2]]),
        sub.map(lambda e: ["-", *e]),
    ),
    max_leaves=6,
)
# Inside parentheses a blank may hold newlines; outside it mostly does not.
INNER_BLANKS = st.sampled_from(["", " ", "\n", " \n\t", "\n\n", "\r\n "])
OUTER_BLANKS = st.sampled_from([" "] * 9 + ["\n"])
STRAYS = ["(", ")", "\n", "+", "=", ";", "let", "in"]


@st.composite
def let_sources(draw, exps=LET_EXPS, strays=STRAYS):
    """A let program whose blanks inside parentheses hold newlines, some corrupted."""
    decls = draw(st.lists(st.tuples(st.sampled_from("abx"), exps), min_size=1, max_size=3))
    toks = ["let"]
    for i, (name, exp) in enumerate(decls):
        toks += ([draw(st.sampled_from([";", "\n"]))] if i else []) + [name, "=", *exp]
    toks += ["in", *draw(exps)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(toks)))
        if draw(st.booleans()) and i < len(toks):
            del toks[i]
        else:
            toks.insert(i, draw(st.sampled_from(strays)))
    text, depth = [draw(OUTER_BLANKS)], 0
    for tok in toks:
        depth += (tok == "(") - (tok == ")" and depth > 0)
        text += [tok, draw(INNER_BLANKS if depth > 0 else OUTER_BLANKS)]
    return "".join(text)


def _parsed(text: str, parse=letlang.parse):
    try:
        return parse(text)
    except ParseError as error:
        return (error.message, error.line, error.col)


@settings(max_examples=500)
@given(text=let_sources())
def test_let_parse_agrees_with_the_newline_filter(text):
    # The parser reads the tokenizer's output as it is; the reference drops the
    # newlines inside parentheses before a stream that skips nothing hands them on.
    new = _parsed(text)
    with mock.patch.object(letlang, "tokenize", lambda text, **_: let_tokens_reference(text)):
        with mock.patch.object(letlang, "TokenStream", PlainTokenStream):
            old = _parsed(text)
    assert new == old


# Longer expressions, with minuses on literals, and operators and operands among the strays.
LONG_LET_EXPS = st.recursive(
    st.sampled_from(["1", "x", "y", "- 2"]).map(str.split),
    lambda sub: st.one_of(
        sub.map(lambda e: ["(", *e, ")"]),
        st.tuples(sub, st.sampled_from("+-"), sub).map(lambda t: [*t[0], t[1], *t[2]]),
        sub.map(lambda e: ["-", *e]),
    ),
    max_leaves=16,
)


@settings(max_examples=500)
@given(text=st.one_of(let_sources(), let_sources(LONG_LET_EXPS, [*STRAYS, "-", "x", "3"])))
def test_let_parse_agrees_with_the_recursive_descent_parser(text):
    # The same tree, or the same message at the same line and column.
    new = _parsed(text)
    with mock.patch.object(letlang, "_parse_exp", parse_exp_recursive):
        old = _parsed(text)
    assert new == old


SMELL_BLANKS = st.sampled_from([" "] * 6 + ["", "\n", " \n\t"])
SMELL_STRAYS = ["(", ")", "[", "]", ",", "==", ":", "++", "if", "then", "else", "f", "-3"]


@st.composite
def smell_sources(draw):
    """A printed mini expression, its tokens rejoined by blanks, some corrupted."""
    text = smells.pretty_m(draw(mexps))
    toks = [tok.text for tok in tokenize(text, **GRAMMARS["smell"])[:-1]]
    if draw(st.booleans()):  # without parentheses, precedence alone shapes the tree
        toks = [tok for tok in toks if tok not in ("(", ")")]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(toks)))
        if draw(st.booleans()) and i < len(toks):
            del toks[i]
        else:
            toks.insert(i, draw(st.sampled_from(SMELL_STRAYS)))
    return "".join(draw(SMELL_BLANKS) + tok for tok in toks) + draw(SMELL_BLANKS)


@settings(max_examples=500)
@given(text=smell_sources())
def test_smell_parse_agrees_with_the_precedence_ladder(text):
    # The same tree, or the same message at the same line and column.
    new = _parsed(text, smells.parse_m)
    with mock.patch.object(smells, "_parse_exp", parse_m_ladder):
        old = _parsed(text, smells.parse_m)
    assert new == old


@settings(max_examples=500)
@given(e=mexps, prec=st.integers(0, 4))
def test_smell_pretty_agrees_with_the_precedence_ladder(e, prec):
    assert smells.pretty_m(e, prec) == pretty_m_ladder(e, prec)
