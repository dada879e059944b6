"""Zipper navigation, reflection, and the structured export format."""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from generators import let_exps, let_programs, mexps
from oracles import export_ast_recursive, preorder_values, reference_children, replace_at
from programs import RUNNING, RUNNING_ROOT, minus_source
from zipstrat.cli import RECURSION_LIMIT
from zipstrat.letlang import (
    LANG,
    Add,
    Assign,
    Const,
    EmptyList,
    Exp,
    Let,
    List,
    Neg,
    Root,
    Var,
    parse,
)
from zipstrat import smells, zipper
from zipstrat.lexing import MAX_DEPTH
from zipstrat.zipper import (
    ChildIndexError,
    ConstructorTag,
    Language,
    NavigationError,
    RebuildError,
    RegistrationError,
    TypePreservationError,
    Zipper,
    export_ast,
    export_json,
    from_zipper,
    import_ast,
    import_json,
    to_zipper,
)

B_PLUS_ZERO = Add(Var("b"), Const(0))


def test_to_zipper_focuses_whole_tree():
    z = to_zipper(RUNNING, LANG)
    assert z.focus == RUNNING
    assert z.above is None
    assert z.at_root


def test_to_zipper_single_node():
    z = to_zipper(Const(1), LANG)
    assert z.above is None
    assert from_zipper(z) == Const(1)


def test_to_zipper_rejects_unregistered():
    with pytest.raises(RegistrationError, match=r"^value of unregistered type float: 3\.14$"):
        to_zipper(3.14, LANG)


def test_walk_to_b_plus_zero():
    # down to the declarations, down to the name leaf, right to the expression
    z = to_zipper(RUNNING, LANG).down_left().down_left().right()
    assert z.focus == B_PLUS_ZERO


def test_leaves_are_navigable():
    z = to_zipper(RUNNING, LANG).down_left().down_left()
    assert z.focus == "a"
    assert z.down_left() is None


def test_up_at_root_is_none():
    assert to_zipper(RUNNING, LANG).up() is None


def test_up_hands_back_the_zipper_it_came_from():
    # Nothing was replaced, so the parent's zipper already exists: no new one.
    z = to_zipper(RUNNING, LANG).down_left()
    assert z.down_left().up() is z
    assert z.down_left().right().up() is z
    assert z.up().up() is None


def test_navigation_preserves_root():
    z = to_zipper(RUNNING, LANG).down_left().down_left().right()
    assert from_zipper(z) == RUNNING


def test_down_right_mirrors_down_left():
    z = to_zipper(RUNNING, LANG)
    assert z.down_right().focus == RUNNING.body
    assert z.down_left().focus == RUNNING.decls


def test_right_then_left_restores():
    z = to_zipper(RUNNING, LANG).down_left()
    assert z.right().left() == z
    # An equal focus elsewhere is another place: under another class, at another index.
    assert z != z.focus
    one = Const(1)
    assert to_zipper(Neg(one), LANG).down_left() != to_zipper(Add(one, one), LANG).down_left()
    twice = to_zipper(Add(one, one), LANG)
    assert twice.down_left() != twice.down_right()
    assert twice.down_left() != to_zipper(Add(one, Const(2)), LANG).down_left()


def test_get_hole_by_nominal_type():
    z = to_zipper(RUNNING, LANG).down_left().down_left().right()
    assert z.get_hole(Exp) == B_PLUS_ZERO
    assert z.get_hole(Let) is None
    assert to_zipper(RUNNING, LANG).get_hole(Let) == RUNNING


def test_get_hole_leaf():
    z = to_zipper(RUNNING, LANG).down_left().down_left()
    assert z.get_hole(str) == "a"
    assert z.get_hole(int) is None


def test_trans_m_rewrites_focus():
    def inc_constant(v):
        return Const(v.value + 1) if isinstance(v, Const) else None

    # navigate to the constant 2 inside "c = 2" and bump it
    z = to_zipper(RUNNING, LANG)
    z = z.down_left().down_left().right().right().down_left().right()
    assert z.focus == Const(2)
    changed = from_zipper(z.trans_m(inc_constant))
    expected = RUNNING
    assert changed != expected
    assert changed.decls.rest.exp == Const(3)


def test_trans_m_failure_is_none():
    z = to_zipper(RUNNING, LANG)
    assert z.trans_m(lambda _v: None) is None


def test_trans_m_identity():
    z = to_zipper(RUNNING, LANG)
    assert z.trans_m(lambda v: v) == z


def test_trans_m_type_change_raises():
    z = to_zipper(RUNNING, LANG).down_left()  # a List focus
    with pytest.raises(TypePreservationError):
        z.trans_m(lambda _v: Const(1))


def test_a_class_keeping_trans_m_asks_for_no_nominal_type(monkeypatch):
    # One class has one nominal type; only a result of another class is looked up.
    calls = []
    nominal = Language.nominal
    monkeypatch.setattr(Language, "nominal", lambda self, v: calls.append(v) or nominal(self, v))
    z = to_zipper(smells.Infix("++", smells.Var("xs"), smells.Var("ys")), smells.LANG)
    swapped = z.trans_m(lambda e: smells.Infix("++", e.right, e.left))
    assert swapped.focus == smells.Infix("++", smells.Var("ys"), smells.Var("xs"))
    assert calls == []
    z.trans_m(lambda _e: smells.IntLit(1))
    assert len(calls) == 2


def test_child_at_counts_every_argument():
    z = to_zipper(RUNNING, LANG)
    assert z.child_at(1).focus == RUNNING.decls
    assert z.child_at(2).focus == RUNNING.body
    assign = z.child_at(1)
    assert assign.child_at(1).focus == "a"
    assert assign.child_at(2).focus == B_PLUS_ZERO


def test_child_at_out_of_range():
    z = to_zipper(RUNNING, LANG)
    with pytest.raises(ChildIndexError):
        z.child_at(0)
    with pytest.raises(ChildIndexError):
        z.child_at(3)


def test_parent_inverts_child_at():
    z = to_zipper(RUNNING, LANG)
    for i in (1, 2):
        assert z.child_at(i).parent() == z


def test_parent_at_root_raises():
    with pytest.raises(NavigationError):
        to_zipper(RUNNING, LANG).parent()


def test_siblings():
    z = to_zipper(RUNNING, LANG).child_at(1).child_at(2)  # the bound expression
    assert z.sib_left(1).focus == "a"
    assert z.sib_right(1).sib_left(1) == z
    with pytest.raises(NavigationError):
        z.sib_right(2)
    with pytest.raises(NavigationError):
        z.sib_left(-3)


def test_reflection_roundtrip_every_node():
    # Constructor nodes only: a leaf's payload lives in the value, not the tag,
    # so leaves roundtrip through export/import instead.
    for node in preorder_values(RUNNING_ROOT, LANG):
        if not isinstance(node, (str, int, bool)):
            assert LANG.rebuild(LANG.tag(node), LANG.children(node)) == node


def test_child_at_matches_reflection():
    z = to_zipper(RUNNING, LANG).child_at(1)
    kids = LANG.children(z.focus)
    for i in range(1, len(kids) + 1):
        assert z.child_at(i).focus == kids[i - 1]


def test_rebuild_rejects_bad_children():
    tag = LANG.tag(Add(Const(1), Const(2)))
    with pytest.raises(RebuildError):
        LANG.rebuild(tag, [Const(1)])
    with pytest.raises(RebuildError):
        LANG.rebuild(tag, [Const(1), "nope"])
    with pytest.raises(RegistrationError):
        LANG.rebuild(ConstructorTag("Exp", "Mul", 2), [Const(1), Const(2)])
    # A variadic tag's arity is checked against the children before anything is sized by it.
    huge = 10**12
    with pytest.raises(RebuildError, match=f"^ListLit takes {huge} children;"
                                           f" got tag arity {huge} and 1 children$"):
        smells.LANG.rebuild(ConstructorTag("MExp", "ListLit", huge), [smells.IntLit(1)])


def test_a_variadic_field_of_leaves_is_rebuilt():
    @dataclass(frozen=True)
    class Row:
        cells: tuple[int, ...]

    @dataclass(frozen=True)
    class Words:
        words: tuple[str, ...]

    lang = Language("table")
    lang.register(Row)
    lang.register(Words)
    for value, edit, edited in [
        (Row((1, 2, 3)), lambda c: c + 10, Row((1, 12, 3))),
        (Words(("a", "b", "c")), str.upper, Words(("a", "B", "c"))),
    ]:
        assert from_zipper(to_zipper(value, lang).child_at(2).trans_m(edit)) == edited
        assert import_ast(export_ast(value, lang), lang) == value
        assert import_json(export_json(value, lang), lang) == value
    with pytest.raises(RebuildError, match=r"^Row\.cells expects int, got bool$"):
        lang.rebuild(ConstructorTag("Row", "Row", 2), [1, True])
    with pytest.raises(RebuildError, match=r"^Words\.words expects str, got int$"):
        lang.rebuild(ConstructorTag("Words", "Words", 1), [1])


def test_constructor_tags():
    assert LANG.tag(RUNNING_ROOT) == ConstructorTag("Root", "Root", 1)
    assert LANG.tag(RUNNING.decls) == ConstructorTag("List", "Assign", 3)
    assert LANG.tag("a") == ConstructorTag("str", "str", 0)
    # leaves are registered in any language; other unregistered values are loud
    empty = Language("empty")
    assert empty.tag("x") == ConstructorTag("str", "str", 0)
    for read in (empty.nominal, empty.tag, empty.children):
        with pytest.raises(RegistrationError):
            read(3.5)


def test_fixed_arity_tags_are_built_once_and_a_list_literals_tag_reads_its_length():
    for value, other, lang, expected in [
        (RUNNING.decls, Assign("b", Const(2), EmptyList()), LANG, ("List", "Assign", 3)),
        (EmptyList(), EmptyList(), LANG, ("List", "EmptyList", 0)),
        (Neg(Const(1)), Neg(Var("x")), LANG, ("Exp", "Neg", 1)),
        ("a", "b", LANG, ("str", "str", 0)),
        (7, 8, smells.LANG, ("int", "int", 0)),
        (smells.Var("xs"), smells.Var("ys"), smells.LANG, ("MExp", "Var", 1)),
    ]:
        assert lang.tag(value) == ConstructorTag(*expected)
        assert lang.tag(other) is lang.tag(value)
    items = (smells.IntLit(1), smells.Var("xs"), smells.BoolLit(True))
    for n in range(len(items) + 1):
        assert smells.LANG.tag(smells.ListLit(items[:n])) == ConstructorTag("MExp", "ListLit", n)


@given(st.one_of(let_programs().map(lambda r: (r, LANG)), mexps.map(lambda e: (e, smells.LANG))))
@example((smells.ListLit(tuple(smells.IntLit(i) for i in range(9))), smells.LANG))
def test_the_compiled_accessor_reads_the_children(tree_and_lang):
    tree, lang = tree_and_lang
    for value in preorder_values(tree, lang):
        expected = reference_children(value)
        kids, listed = lang._kids(value), lang.children(value)
        assert type(kids) is tuple and kids == tuple(expected)
        assert type(listed) is list and listed == expected and listed is not lang.children(value)
        below = to_zipper(value, lang).down_left()
        listed.reverse()
        listed.append(None)  # a fresh list: editing it changes neither the node nor a zipper
        assert lang._kids(value) == kids and lang.children(value) == expected
        assert below is None or below.siblings == kids
        if kids:  # one tuple for every sibling; a list literal's is its own items
            while (below := below.right()) is not None:
                assert below.siblings is below.left().siblings
            if isinstance(value, smells.ListLit):
                assert to_zipper(value, lang).down_right().siblings is value.items


def test_register_reports_an_unresolvable_annotation():
    # Annotations are strings here; one that names nothing cannot be resolved.
    @dataclass(frozen=True)
    class Dangling:
        child: Undefined  # noqa: F821

    with pytest.raises(RegistrationError, match="Dangling"):
        Language("tiny").register(Dangling)


def test_register_rejects_duplicates_and_nondataclasses():
    lang = Language("tiny")
    lang.register(Root)
    with pytest.raises(RegistrationError):
        lang.register(Root)
    with pytest.raises(RegistrationError):
        lang.register(object)

    @dataclass(frozen=True)
    class Spread:
        items: tuple[Exp, ...]
        last: Exp

    @dataclass(frozen=True)
    class Pair:
        both: tuple[int, str]

    @dataclass(frozen=True)
    class Listed:
        items: list[int]

    for base, cls, message in [(Exp, Root, "not a subclass of Exp"),
                               (Spread, Spread, "exactly one field"),
                               (Pair, Pair, "only tuple"),
                               (Listed, Listed, "unsupported field annotation")]:
        with pytest.raises(RegistrationError, match=message):
            lang.register(base, cls)


def test_register_rejects_a_field_of_a_built_in_class_that_is_not_a_leaf():
    # No language can register a float, so a zipper could move onto one that
    # nothing can read: registration says so, not a later export.
    @dataclass(frozen=True)
    class Point:
        x: float

    @dataclass(frozen=True)
    class Samples:
        values: tuple[float, ...]

    @dataclass(frozen=True)
    class Anything:
        value: object

    lang = Language("tiny")
    for cls, field in [(Point, "x"), (Samples, "values"), (Anything, "value")]:
        with pytest.raises(RegistrationError, match=rf"^{cls.__name__}\.{field}: "):
            lang.register(cls)
        assert not lang.is_registered(cls.__new__(cls))


# -- deep paths -------------------------------------------------------------------


def neg_chain(depth: int) -> Root:
    """``let x = -…-1 in x`` with ``depth`` negations, built without recursion."""
    e = Const(1)
    for _ in range(depth):
        e = Neg(e)
    return Root(Let(Assign("x", e, EmptyList()), Var("x")))


def to_bottom(root: Root):
    """The zipper at the constant under the chain, reached by single moves."""
    z = to_zipper(root, LANG).down_left().down_left().down_left().right()
    while isinstance(z.focus, Neg):
        z = z.down_left()
    return z


def climb(z, types):
    """The nearest ancestor-or-self of a ``types`` node, by ``parent()`` moves."""
    while not isinstance(z.focus, types):
        z = z.parent()
    return z


def test_deep_paths_need_no_recursion():
    depth = 50_000
    root = neg_chain(depth)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b = to_bottom(root), to_bottom(root)
        assert a.above is not b.above
        assert a.position == b.position == (0, 0, 1) + (0,) * depth
        assert a == b and hash(a) == hash(b)
        assert a != a.up() and a.up() == b.up()
        assert from_zipper(a) is root
        assert climb(a, Assign).focus is root.let.decls
        assert climb(a, Assign).position == (0, 0)
        assert climb(a, Root).at_root and climb(a, Const) is a
        assert repr(a) == f"Zipper(focus=Const(value=1), position={a.position!r})"
        # Above a replaced focus every level is stale: parent() rebuilds them all.
        c = a.trans_m(lambda _: Const(2))
        assert c != a
        block = climb(c, Let)
        assert not block.at_root and block.position == (0,)
        assert block.focus is not root.let and block.focus.body == Var("x")
    finally:
        sys.setrecursionlimit(limit)


def flat_block(size: int) -> Root:
    """``let x0 = 0; …; x<size-1> = size-1 in x0``, built without recursion."""
    spine = EmptyList()
    for i in reversed(range(size)):
        spine = Assign(f"x{i}", Const(i), spine)
    return Root(Let(spine, Var("x0")))


def test_hash_reads_no_subtree():
    # The siblings beside the first declaration hold the whole 5,000-deep spine;
    # hashing them would recurse through it.
    root = flat_block(5_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a = to_zipper(root, LANG).down_left().down_left().child_at(2)
        b = to_zipper(root, LANG).child_at(1).child_at(1).down_left().right()
        assert a.above is not b.above and a.focus == Const(0)
        assert hash(a) == hash(b)
        # The focus one level up is the first declaration, the whole spine.
        assert hash(a.up()) == hash(b.up())
        table = {a: "first"}
        assert table[b] == "first" and len({a, b}) == 1
        c = a.trans_m(lambda _: Const(7))
        assert c != a and hash(c) == hash(a)
        assert c not in table
        # 1 == True, but a bool leaf and an int leaf are foci of two classes.
        assert to_zipper(True, LANG) != to_zipper(1, LANG)
    finally:
        sys.setrecursionlimit(limit)


def test_zippers_and_frames_are_immutable():
    z = to_zipper(RUNNING, LANG).down_left()
    with pytest.raises(AttributeError):
        z.focus = Const(1)
    with pytest.raises(AttributeError):
        z.above = None
    with pytest.raises(AttributeError):
        del z.above
    with pytest.raises(AttributeError):
        z.siblings = ()
    with pytest.raises(AttributeError):
        del z.siblings
    with pytest.raises(AttributeError):
        z.index = 1
    with pytest.raises(AttributeError):
        del z.index
    assert z.focus is RUNNING.decls and z.above.focus is RUNNING


def test_a_zipper_is_a_frozen_value_with_its_defaults():
    z = to_zipper(RUNNING, LANG).child_at(1).child_at(2)
    for f in dataclasses.fields(Zipper):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(z, f.name, getattr(z, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(z, f.name)
    same = dataclasses.replace(z)
    assert same is not z and same == z
    assert [getattr(same, f.name) for f in dataclasses.fields(Zipper)] == [
        getattr(z, f.name) for f in dataclasses.fields(Zipper)]
    moved = dataclasses.replace(z, index=0, focus=z.siblings[0])
    assert moved == z.left()
    root = Zipper(RUNNING, LANG)
    assert (root.focus, root.lang, root.above, root.siblings, root.index) == (
        RUNNING, LANG, None, (), 0)
    assert root == to_zipper(RUNNING, LANG)
    assert Zipper(focus=RUNNING, lang=LANG) == root


def test_a_move_at_depth_copies_no_path():
    # A move makes one path cell, whatever the depth; copying the path would
    # allocate eight bytes per frame above the focus.
    z = to_zipper(neg_chain(10_000), LANG).down_left().down_left().down_left().right()
    for _ in range(10_000 - 1):
        z = z.down_left()
    assert len(z.position) == 10_002
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        child = z.down_left()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert child.position == z.position + (0,)
    assert peak - base < 2048


# -- write-back of a replaced focus ----------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``Zipper.up``, ``Language.children`` and ``Language.rebuild`` calls."""
    counts = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((Zipper, "up"), (Language, "children"), (Language, "rebuild")):
        counted(owner, name)
    return counts


def test_a_sibling_move_after_trans_m_makes_one_frame(calls):
    # The sibling's zipper above is made from the rebuilt parent and the children
    # it was built from: no call of up(), no second read of the children.
    z = to_zipper(RUNNING, LANG).child_at(1).child_at(2).trans_m(lambda _: Const(7))
    for side in ("right", "left"):
        calls.clear()
        moved = getattr(z, side)()
        assert calls == {"rebuild": 1}
        assert moved.siblings[1] is z.focus and moved.above.focus.exp is z.focus
        assert moved.focus is moved.siblings[moved.index]
        assert moved.above.above is z.above.above


def test_only_the_write_back_and_import_rebuild():
    # A replaced focus is plugged into its parent in one place; a second copy of
    # that rule would have to be kept in step with it by hand.
    tree = ast.parse(Path(zipper.__file__).read_text(encoding="utf-8"))
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rebuild"
    }
    assert callers == {"_write_back", "import_ast"}


# -- structured export/import -------------------------------------------------


def test_export_shape():
    data = export_ast(Add(Var("x"), Const(1)), LANG)
    assert data == {
        "type": "Exp",
        "ctor": "Add",
        "children": [
            {"type": "Exp", "ctor": "Var", "children": [{"leaf": "str", "value": "x"}]},
            {"type": "Exp", "ctor": "Const", "children": [{"leaf": "int", "value": 1}]},
        ],
    }


@given(st.one_of(let_programs().map(lambda r: (r, LANG)), mexps.map(lambda e: (e, smells.LANG))))
def test_export_agrees_with_the_recursive_exporter(tree_and_lang):
    tree, lang = tree_and_lang
    expected = export_ast_recursive(tree, lang)
    assert export_ast(tree, lang) == expected
    assert export_json(tree, lang) == json.dumps(expected)


def test_export_builds_no_constructor_tag(calls, monkeypatch):
    # The names come off the constructor's spec; the children are read once per node.
    nodes = [v for v in preorder_values(RUNNING_ROOT, LANG) if type(v) not in (str, int, bool)]
    tag = Language.tag
    monkeypatch.setattr(Language, "tag", lambda self, v: calls.update(["tag"]) or tag(self, v))
    calls.clear()
    export_json(RUNNING_ROOT, LANG)
    assert calls == {"children": len(nodes)}


def test_import_export_identity():
    assert import_ast(export_ast(RUNNING_ROOT, LANG), LANG) == RUNNING_ROOT


def test_json_roundtrip_bit_exact():
    text = export_json(RUNNING_ROOT, LANG)
    again = export_json(import_json(text, LANG), LANG)
    assert text == again
    assert json.loads(text) == export_ast(RUNNING_ROOT, LANG)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_export_json_needs_no_frame_per_level():
    # At the parsers' nesting limit, with 200 frames to spare, the text is
    # still what the C encoder writes under a limit raised for it.
    tree = parse(minus_source(MAX_DEPTH))
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(RECURSION_LIMIT)
        expected = json.dumps(export_ast(tree, LANG))
        sys.setrecursionlimit(_stack_depth() + 200)
        text = export_json(tree, LANG)
    finally:
        sys.setrecursionlimit(limit)
    assert text == expected
    assert text.count('"ctor": "Neg"') == MAX_DEPTH


@pytest.mark.parametrize("tree, lang", [
    (parse("let \u00e9 = 1 in \u00e9"), LANG),
    (parse(f"let a = {'9' * 4_300} in a"), LANG),
    (Root(Let(EmptyList(), Const(0))), LANG),
    (smells.parse_m("[True, False, [], x == []]"), smells.LANG),
    (True, LANG),
    ("\u00e9\n\"", LANG),
], ids=["non-ascii-name", "long-constant", "empty-block", "bools-and-empty-lists",
        "bool-root", "str-root"])
def test_export_json_writes_edge_leaves_as_json_dumps_does(tree, lang):
    text = export_json(tree, lang)
    assert text == json.dumps(export_ast(tree, lang))
    assert text.isascii() and import_json(text, lang) == tree


def test_import_rejects_malformed():
    with pytest.raises(RebuildError):
        import_ast({"leaf": "int", "value": "5"}, LANG)
    with pytest.raises(RebuildError):
        import_ast({"type": "Exp", "ctor": "Add"}, LANG)
    # Unhashable kinds, types and constructors, and children that are no list.
    one = [{"leaf": "int", "value": 1}]
    for data in (
        one,
        {"leaf": [], "value": 1},
        {"type": ["Exp"], "ctor": "Const", "children": one},
        {"type": "Exp", "ctor": {}, "children": []},
        {"type": "Exp", "ctor": "Const", "children": {"leaf": "int", "value": 1}},
    ):
        with pytest.raises(RebuildError):
            import_ast(data, LANG)
    # A constructor's own check: the smell language has no "+" operator.
    plus = export_ast(smells.Infix("++", smells.IntLit(1), smells.IntLit(2)), smells.LANG)
    plus["children"][0]["value"] = "+"
    with pytest.raises(RebuildError, match="unknown operator"):
        import_json(json.dumps(plus), smells.LANG)


# -- law properties -------------------------------------------------------------

MOVES = ("down_left", "down_right", "left", "right", "up")


def _random_walk(z, moves):
    for m in moves:
        nxt = getattr(z, m)()
        if nxt is not None:
            z = nxt
    return z


@given(let_programs(), st.lists(st.sampled_from(MOVES), max_size=12))
def test_navigation_never_changes_tree(root, moves):
    z = _random_walk(to_zipper(root, LANG), moves)
    assert from_zipper(z) == root


@given(let_programs(), st.lists(st.sampled_from(MOVES), max_size=12))
def test_inverse_moves(root, moves):
    z = _random_walk(to_zipper(root, LANG), moves)
    down = z.down_left()
    if down is not None:
        assert down.up() == z
    right = z.right()
    if right is not None:
        assert right.left() == z
    kids = LANG.children(z.focus)
    for i in range(1, len(kids) + 1):
        assert z.child_at(i).parent() == z


@given(let_programs(), st.lists(st.sampled_from(MOVES), max_size=12))
def test_moves_without_trans_m_rebuild_nothing(root, moves):
    z = _random_walk(to_zipper(root, LANG), moves)
    ancestors = [root]
    for i in z.position:
        ancestors.append(LANG.children(ancestors[-1])[i])
    assert z.focus is ancestors.pop()
    if ancestors:
        assert z.parent().focus is ancestors[-1]
    assert from_zipper(z) is root
    while (up := z.up()) is not None:
        assert up.focus is ancestors.pop()
        z = up
    assert not ancestors


# One value per nominal type of the let language, outside the generators' ranges.
FRESH = {
    Root: Root(Let(EmptyList(), Const(99))),
    Let: Let(EmptyList(), Const(99)),
    List: EmptyList(),
    Exp: Const(99),
    str: "fresh",
    int: 99,
}


@given(let_programs(), st.lists(st.sampled_from(MOVES), max_size=12))
def test_moves_after_trans_m_keep_the_rewrite(root, moves):
    z = _random_walk(to_zipper(root, LANG), moves)
    new = FRESH[LANG.nominal(z.focus)]
    z = z.trans_m(lambda _: new)
    expected = replace_at(root, z.position, new, LANG)
    assert from_zipper(z) == expected
    for side, back in (("right", "left"), ("left", "right")):
        moved = getattr(z, side)()
        if moved is not None:
            returned = getattr(moved, back)()
            assert returned.focus is new
            assert returned.position == z.position
            assert returned == z and hash(returned) == hash(z)
            assert from_zipper(moved) == expected
    parent = z.up()
    if parent is not None:
        index = z.position[-1]
        assert LANG.children(parent.focus)[index] is new
        assert parent.child_at(index + 1).position == z.position
        assert from_zipper(parent) == expected


@given(let_exps)
def test_roundtrip_every_generated_value(e):
    assert from_zipper(to_zipper(e, LANG)) == e
    assert import_ast(export_ast(e, LANG), LANG) == e


@given(let_programs())
def test_reflection_roundtrip_generated(root):
    for node in preorder_values(root, LANG):
        if not isinstance(node, (str, int, bool)):
            assert LANG.rebuild(LANG.tag(node), LANG.children(node)) == node
