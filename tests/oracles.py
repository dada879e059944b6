"""Independent oracles: plain recursions used to cross-check the traversal
and rewrite machinery.  Nothing here runs a strategy combinator (the
closure-based ``adhoc`` chains only build ``TU`` values), and only those
chains and the scope-rule equations go through zippers, since the paper
states them there."""

from __future__ import annotations

import dataclasses

from zipstrat import letlang as L
from zipstrat import smells as S
from zipstrat.lexing import ParseError, TokenStream, describe, tokenize
from zipstrat.strategies import TU
from zipstrat.zipper import Language, Zipper


# -- tokens --------------------------------------------------------------------


def reference_tokens(text, *, symbols, keywords=frozenset(), keep_newlines=False, signed_ints=False):
    """The character-at-a-time scanner that ``lexing.tokenize`` replaced.

    Yields ``(kind, text, line, col)`` tuples, so a caller sees the tokens
    before a :class:`ParseError` too.
    """
    ordered = sorted(symbols, key=len, reverse=True)
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            if keep_newlines:
                yield ("newline", "\n", line, col)
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
            yield ("int", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in keywords else "name"
            yield (kind, word, line, col)
            col += j - i
            i = j
            continue
        for sym in ordered:
            if text.startswith(sym, i):
                yield ("op", sym, line, col)
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("eof", "", line, col)


def let_tokens_reference(text):
    """The let tokens with the newlines inside parentheses dropped: the filter
    that ran between ``tokenize`` and the let parser before the parser
    skipped those newlines itself."""
    toks = tokenize(text, symbols=L._SYMBOLS, keywords=L._KEYWORDS, keep_newlines=True)
    # Newlines separate declarations; inside parentheses they are noise.
    out, depth = [], 0
    for t in toks:
        if t.kind == "op":
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth = max(0, depth - 1)
        if t.kind == "newline" and depth > 0:
            continue
        out.append(t)
    return out


class PlainTokenStream(TokenStream):
    """The token stream the let parser read those filtered tokens from: it skips nothing."""

    def advance(self):
        tok = self._tok
        if tok.kind != "eof":
            self._tok = self._next()
        return tok


def parse_exp_recursive(p: TokenStream) -> L.Exp:
    """The recursive-descent expression parser that ``letlang._parse_exp``
    replaced: one Python frame per precedence level per operand."""
    e = _parse_unary(p)
    while p.at("op", "+") or p.at("op", "-"):
        op = p.advance().text
        rhs = _parse_unary(p)
        e = L.Add(e, rhs) if op == "+" else L.Sub(e, rhs)
    return e


def _parse_unary(p: TokenStream) -> L.Exp:
    if p.at("op", "-"):
        p.advance()
        if p.at("int"):
            return L.Const(-p.integer())
        return L.Neg(_parse_unary(p))
    return _parse_atom(p)


def _parse_atom(p: TokenStream) -> L.Exp:
    if p.at("int"):
        return L.Const(p.integer())
    if p.at("name"):
        return L.Var(p.advance().text)
    if p.at("op", "("):
        p.parens += 1
        p.advance()
        e = parse_exp_recursive(p)
        p.parens -= 1
        p.expect("op", ")")
        return e
    p.fail(f"expected an expression, found {describe(p.peek())}")


def parse_m_ladder(p: TokenStream) -> S.MExp:
    """The smell parser that ``smells._parse_exp`` replaced: one function per
    precedence level, five Python frames per nested bracket."""
    if p.at("keyword", "if"):
        p.advance()
        cond = parse_m_ladder(p)
        p.expect("keyword", "then")
        then = parse_m_ladder(p)
        p.expect("keyword", "else")
        orelse = parse_m_ladder(p)
        return S.If(cond, then, orelse)
    return _m_parse_eq(p)


def _m_parse_eq(p: TokenStream) -> S.MExp:
    left = _m_parse_cons(p)
    if p.at("op", "=="):
        p.advance()
        right = _m_parse_cons(p)
        return S.Infix("==", left, right)
    return left


def _m_parse_cons(p: TokenStream) -> S.MExp:
    left = _m_parse_app(p)
    if p.at("op", ":") or p.at("op", "++"):
        op = p.advance().text
        right = _m_parse_cons(p)
        return S.Infix(op, left, right)
    return left


def _m_at_atom(p: TokenStream) -> bool:
    return (
        p.at("int")
        or p.at("name")
        or p.at("op", "(")
        or p.at("op", "[")
        or p.at("keyword", "True")
        or p.at("keyword", "False")
    )


def _m_parse_app(p: TokenStream) -> S.MExp:
    if p.at("name"):
        name = p.advance().text
        if _m_at_atom(p):
            return S.Call(name, _m_parse_atom(p))
        return S.Var(name)
    return _m_parse_atom(p)


def _m_parse_atom(p: TokenStream) -> S.MExp:
    if p.at("int"):
        return S.IntLit(p.integer())
    if p.at("keyword", "True") or p.at("keyword", "False"):
        return S.BoolLit(p.advance().text == "True")
    if p.at("name"):
        return S.Var(p.advance().text)
    if p.at("op", "("):
        p.advance()
        e = parse_m_ladder(p)
        p.expect("op", ")")
        return e
    if p.at("op", "["):
        p.advance()
        items: list[S.MExp] = []
        if not p.at("op", "]"):
            items.append(parse_m_ladder(p))
            while p.at("op", ","):
                p.advance()
                items.append(parse_m_ladder(p))
        p.expect("op", "]")
        return S.ListLit(tuple(items))
    p.fail(f"expected an expression, found {describe(p.peek())}")


_IF_PREC, _EQ_PREC, _CONS_PREC, _APP_PREC, _ATOM_PREC = 0, 1, 2, 3, 4


def pretty_m_ladder(e: S.MExp, prec: int = 0) -> str:
    """The smell printer before it read ``smells._INFIX``: one case per level."""
    match e:
        case S.Var(name):
            return name
        case S.IntLit(value):
            return str(value)
        case S.BoolLit(value):
            return "True" if value else "False"
        case S.ListLit(items):
            return "[" + ", ".join(pretty_m_ladder(i, _IF_PREC) for i in items) + "]"
        case S.Call(fn, arg):
            s = f"{fn} {pretty_m_ladder(arg, _ATOM_PREC)}"
            return f"({s})" if prec > _APP_PREC else s
        case S.Infix("==", left, right):
            s = f"{pretty_m_ladder(left, _CONS_PREC)} == {pretty_m_ladder(right, _CONS_PREC)}"
            return f"({s})" if prec > _EQ_PREC else s
        case S.Infix(op, left, right):
            s = f"{pretty_m_ladder(left, _APP_PREC)} {op} {pretty_m_ladder(right, _CONS_PREC)}"
            return f"({s})" if prec > _CONS_PREC else s
        case S.If(cond, then, orelse):
            s = (
                f"if {pretty_m_ladder(cond, _IF_PREC)} then {pretty_m_ladder(then, _IF_PREC)}"
                f" else {pretty_m_ladder(orelse, _IF_PREC)}"
            )
            return f"({s})" if prec > _IF_PREC else s
    raise TypeError(f"not an expression: {e!r}")


# -- tree walks ----------------------------------------------------------------


def export_ast_recursive(value, lang: Language) -> dict:
    """The recursive exporter that ``zipper.export_ast`` replaced."""
    if type(value) in (bool, int, str):
        return {"leaf": type(value).__name__, "value": value}
    tag = lang.tag(value)
    return {
        "type": tag.type_name,
        "ctor": tag.ctor_name,
        "children": [export_ast_recursive(c, lang) for c in lang.children(value)],
    }


def reference_children(value) -> list:
    """A node's children read off ``dataclasses.fields``, a variadic field's tuple
    spliced in (registration admits a tuple field only as ``tuple[T, ...]``); a leaf
    has none.  Independent of the accessor ``Language.register`` compiles."""
    if not dataclasses.is_dataclass(value):
        return []
    out = []
    for f in dataclasses.fields(value):
        child = getattr(value, f.name)
        if type(child) is tuple:
            out.extend(child)
        else:
            out.append(child)
    return out


def preorder_values(value, lang: Language) -> list:
    out = [value]
    for c in lang.children(value):
        out.extend(preorder_values(c, lang))
    return out


def postorder_values(value, lang: Language) -> list:
    out = []
    for c in lang.children(value):
        out.extend(postorder_values(c, lang))
    out.append(value)
    return out


def preorder_tags(value, lang: Language) -> list:
    return [lang.tag(v) for v in preorder_values(value, lang)]


def let_names_walk(node) -> list[str]:
    """Declared names of a let tree by direct recursion over the dataclasses."""
    match node:
        case L.Root(let):
            return let_names_walk(let)
        case L.Let(decls, _body):
            return let_names_walk(decls)
        case L.Assign(name, _exp, rest):
            return [name] + let_names_walk(rest)
        case L.NestedLet(name, let, rest):
            return [name] + let_names_walk(let) + let_names_walk(rest)
        case L.EmptyList():
            return []
    raise TypeError(node)


def _decls_of(let: L.Let) -> list:
    out = []
    spine = let.decls
    while not isinstance(spine, L.EmptyList):
        out.append(spine)
        spine = spine.rest
    return out


def scope_errors_walk(root: L.Root) -> list[str]:
    """Scope errors in source order, via hand-rolled environments.

    Independent of zippers and attributes: duplicates fire on a repeated
    name within one block, missing names on uses outside the chain of
    visible blocks; the report follows the preorder of the tree.
    """

    def exp_errors(e: L.Exp, visible: set[str]) -> list[str]:
        match e:
            case L.Var(n):
                return [] if n in visible else [n]
            case L.Add(a, b) | L.Sub(a, b):
                return exp_errors(a, visible) + exp_errors(b, visible)
            case L.Neg(a):
                return exp_errors(a, visible)
            case L.Const(_):
                return []
        raise TypeError(e)

    def block(let: L.Let, visible: set[str]) -> list[str]:
        decls = _decls_of(let)
        inside = visible | {d.name for d in decls}
        errs: list[str] = []
        seen: set[str] = set()
        for d in decls:
            if d.name in seen:
                errs.append(d.name)
            seen.add(d.name)
            if isinstance(d, L.Assign):
                errs.extend(exp_errors(d.exp, inside))
            else:
                errs.extend(block(d.let, inside))
        errs.extend(exp_errors(let.body, inside))
        return errs

    return block(root.let, set())


# -- scope-rule equations -------------------------------------------------------
#
# The paper's equations for ``dcli``/``dclo``/``env``, read literally: each
# call recomputes the block by recursion along the declaration spine.  They
# are the reference for the library's scope attributes.  The inlining rule
# and the two per-node checks as the paper states them, which evaluate ``env``
# or ``dcli`` at the node, are the references for ``exp_c``, ``uses`` and
# ``decls``, which read their binders off the zipper.


def dcli_spec(z: Zipper) -> list:
    node = z.focus
    if isinstance(node, L.Root):
        return []
    if isinstance(node, L.Let):
        parent = z.parent()
        if isinstance(parent.focus, L.Root):
            return []
        return env_spec(parent)
    parent = z.parent()
    pf = parent.focus
    if isinstance(pf, (L.Assign, L.NestedLet)):
        return [(pf.name, parent)] + dcli_spec(parent)
    if isinstance(pf, L.Let):
        return dcli_spec(parent)
    raise L.ScopeDomainError(f"dcli undefined under {type(pf).__name__}")


def dclo_spec(z: Zipper) -> list:
    node = z.focus
    if isinstance(node, (L.Root, L.Let)):
        return dclo_spec(z.child_at(1))
    if isinstance(node, (L.Assign, L.NestedLet)):
        return dclo_spec(z.child_at(3))
    if isinstance(node, L.EmptyList):
        return dcli_spec(z)
    raise L.ScopeDomainError(f"dclo undefined at {type(node).__name__}")


def env_spec(z: Zipper) -> list:
    if isinstance(z.focus, (L.Root, L.Let)):
        return dclo_spec(z)
    return env_spec(z.parent())


def exp_c_spec(e, z: Zipper):
    """The inlining rule read through ``env``: the expression of the first entry
    for the name in the environment at the focus, when a plain assignment binds it."""
    if not isinstance(e, L.Var):
        return None
    for n, site in L.env(z):
        if n == e.name:
            return L.lexeme_assign(site)
    return None


def uses_spec(e, z: Zipper) -> list:
    """The use check read through ``env``: a variable's name must be in it."""
    if isinstance(e, L.Var):
        return L.must_be_in(L.lexeme(z), env_spec(z))
    return []


def decls_spec(n, z: Zipper) -> list:
    """The declaration check read through ``dcli``: no entry of the name at the same level."""
    if isinstance(n, (L.Assign, L.NestedLet)):
        return L.must_not_be_in((L.lexeme(z), z), dcli_spec(z))
    return []


# -- strategy construction -------------------------------------------------------
#
# ``adhoc`` as a stack of closures, one per rule, each testing the focus's
# nominal type with ``get_hole`` before it tries its rule or falls through to
# the layer below: the reference for the library's class-keyed chains.


def adhoc_tp(base, typ, f):
    return adhoc_tpz(base, typ, lambda v, _z: f(v))


def adhoc_tpz(base, typ, f):
    def run(z: Zipper):
        v = z.get_hole(typ)
        if v is not None:
            r = f(v, z)
            if r is not None:
                return z.trans_m(lambda _cur: r)
        return base(z)

    return run


def adhoc_tu(base, typ, f):
    return adhoc_tuz(base, typ, lambda v, _z: f(v))


def adhoc_tuz(base, typ, f):
    def run(z: Zipper):
        v = z.get_hole(typ)
        if v is not None:
            r = f(v, z)
            if r is not None:
                return r
        return base(z)

    return TU(run, base.monoid)


# -- positions and point rewrites ----------------------------------------------


def positions(value, lang: Language) -> list[tuple[int, ...]]:
    """All subtree positions as 0-based child-index paths, in preorder."""
    out = [()]
    for i, c in enumerate(lang.children(value)):
        out.extend((i,) + p for p in positions(c, lang))
    return out


def postorder_positions(value, lang: Language) -> list[tuple[int, ...]]:
    out = []
    for i, c in enumerate(lang.children(value)):
        out.extend((i,) + p for p in postorder_positions(c, lang))
    out.append(())
    return out


def subtree_at(value, pos: tuple[int, ...], lang: Language):
    for i in pos:
        value = lang.children(value)[i]
    return value


def replace_at(value, pos: tuple[int, ...], new, lang: Language):
    if not pos:
        return new
    kids = lang.children(value)
    kids[pos[0]] = replace_at(kids[pos[0]], pos[1:], new, lang)
    return lang.rebuild(lang.tag(value), kids)


def typed_rule(typ, fn):
    """Lift a per-type partial function to a rule on arbitrary subtrees."""

    def rule(value):
        if isinstance(value, typ):
            return fn(value)
        return None

    return rule


def redexes(value, rule, lang: Language) -> list[tuple[tuple[int, ...], object]]:
    """Every (position, result) where the rule applies, in preorder."""
    out = []
    for p in positions(value, lang):
        r = rule(subtree_at(value, p, lang))
        if r is not None:
            out.append((p, r))
    return out


def normalize_anywhere(value, rule, lang: Language, max_steps: int = 10_000):
    """Rewrite at an arbitrary redex until none remains."""
    for _ in range(max_steps):
        found = redexes(value, rule, lang)
        if not found:
            return value
        pos, result = found[0]
        value = replace_at(value, pos, result, lang)
    raise AssertionError("rewrite oracle did not terminate")


def all_normal_forms(value, rule, lang: Language, max_states: int = 50_000) -> set:
    """Explore every rewrite order exhaustively; the set of reachable normal forms."""
    seen = {value}
    frontier = [value]
    normal = set()
    while frontier:
        v = frontier.pop()
        found = redexes(v, rule, lang)
        if not found:
            normal.add(v)
            continue
        for pos, result in found:
            nxt = replace_at(v, pos, result, lang)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                if len(seen) > max_states:
                    raise AssertionError("rewrite state space too large")
    return normal


def diff_positions(a, b, lang: Language) -> list[tuple[int, ...]]:
    """Minimal positions where the trees differ (recursing through equal tags)."""
    if a == b:
        return []
    ka = lang.tag(a)
    kb = lang.tag(b)
    if ka != kb:
        return [()]
    out = []
    for i, (ca, cb) in enumerate(zip(lang.children(a), lang.children(b))):
        out.extend((i,) + p for p in diff_positions(ca, cb, lang))
    return out


# -- smell patterns ---------------------------------------------------------------
#
# Deliberately re-stated with plain isinstance logic, independent of the
# rule functions, so a missed rewrite cannot hide behind a shared matcher.


def _is_eq(e) -> bool:
    return isinstance(e, S.Infix) and e.op == "=="


def _is_length_call(e) -> bool:
    return isinstance(e, S.Call) and e.fn == "length"


def _is_zero(e) -> bool:
    return isinstance(e, S.IntLit) and e.value == 0


def _is_empty_list(e) -> bool:
    return isinstance(e, S.ListLit) and len(e.items) == 0


def _is_bool(e, which: bool) -> bool:
    return isinstance(e, S.BoolLit) and e.value is which


def is_smelly(e) -> bool:
    """Does this single node match any of the cataloged smell shapes?"""
    if isinstance(e, S.Infix) and e.op == "++" and isinstance(e.left, S.ListLit):
        if len(e.left.items) == 1:
            return True
    if _is_eq(e):
        l, r = e.left, e.right
        if (_is_length_call(l) and _is_zero(r)) or (_is_zero(l) and _is_length_call(r)):
            return True
        if _is_empty_list(l) or _is_empty_list(r):
            return True
        if isinstance(l, S.BoolLit) or isinstance(r, S.BoolLit):
            return True
    if isinstance(e, S.If):
        t, f = e.then, e.orelse
        if (_is_bool(t, True) and _is_bool(f, False)) or (_is_bool(t, False) and _is_bool(f, True)):
            return True
    return False


def smelly_subterms(e) -> list:
    """All subterms matching a smell shape, by direct recursion."""
    out = [e] if is_smelly(e) else []
    for c in S.LANG.children(e):
        if isinstance(c, S.MExp):
            out.extend(smelly_subterms(c))
    return out
