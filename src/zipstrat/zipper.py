"""Generic navigation and local transformation over immutable heterogeneous trees.

Trees are built from frozen dataclasses registered with a :class:`Language`.
Registration compiles each constructor's tag and child accessor from its
dataclass fields, so navigation needs no per-type boilerplate.  Primitive
payloads (``str``, ``int``, ``bool``) are zero-arity leaf nodes: child
indices count every constructor argument, and navigation can reach the name
inside a binding just like any subtree.

A zipper is its focus, the focus's siblings and the zipper one level up that
it was made from, which is Huet's path node ``Node(left, up, right)`` in
"The Zipper" (JFP 1997): a move makes one zipper (down, with the siblings
tuple) and shares everything above it, so it copies nothing and costs O(1)
at any depth; moving back up hands back the zipper above as it is.  A
replaced focus is plugged back into its parent in one place, :func:`_write_back`.

All values here are immutable (zippers are frozen slotted dataclasses);
every "edit" produces a fresh value, so sharing across threads is safe.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")

_LEAF_TYPES: tuple[type, ...] = (bool, int, str)


class RegistrationError(TypeError):
    """A value or type is not covered by the reflection registry."""


class RebuildError(ValueError):
    """A node could not be rebuilt: wrong child count or child type."""


class NavigationError(Exception):
    """A non-optional move was impossible (at the root, or no such sibling)."""


class ChildIndexError(IndexError):
    """Child access out of range.  Child indices are 1-based."""


class TypePreservationError(TypeError):
    """A focus transformation changed the nominal type of the focus."""


@dataclass(frozen=True)
class ConstructorTag:
    """Identity of one constructor: owning nominal type, constructor name, arity."""

    type_name: str
    ctor_name: str
    arity: int


@dataclass(frozen=True)
class _FieldSpec:
    name: str
    typ: type  # a child is a leaf exactly when ``typ`` is in ``_LEAF_TYPES``
    variadic: bool


@dataclass(frozen=True)
class _CtorSpec:
    cls: type
    base: type
    fields: tuple[_FieldSpec, ...]
    kids: Callable[[Any], tuple[Any, ...]]  # the children, as one tuple
    tag: ConstructorTag | None  # ``None`` when variadic: the arity is the node's own


def _ctor_spec(cls: type, base: type, fields: tuple[_FieldSpec, ...]) -> _CtorSpec:
    """The spec of ``cls``, with its child accessor and (fixed-arity) tag compiled once."""
    names, variadic = [f.name for f in fields], any(f.variadic for f in fields)
    if variadic or len(names) > 1:  # a variadic field already holds the tuple
        kids = attrgetter(*names)
    else:  # ``attrgetter`` of one name returns the value itself
        kids = (lambda v, one=attrgetter(*names): (one(v),)) if names else lambda v: ()
    tag = None if variadic else ConstructorTag(base.__name__, cls.__name__, len(fields))
    return _CtorSpec(cls, base, fields, kids, tag)


class Language:
    """Reflection registry for one family of node types.

    A language registers each nominal type together with its constructor
    classes; tags, ordered child lists, and rebuilds are all derived from
    the dataclass fields, including leaf payloads and (single-field)
    variadic constructors such as list literals.  Leaves (``bool``, ``int``,
    ``str``) are zero-field constructors of their own type in every table.
    """

    def __init__(self, name: str):
        self.name = name
        self._ctors: dict[type, _CtorSpec] = {t: _ctor_spec(t, t, ()) for t in _LEAF_TYPES}
        self._by_name: dict[tuple[str, str], _CtorSpec] = {}

    def register(self, base: type, *ctors: type) -> None:
        """Register ``base`` with its constructor classes (``base`` itself if none given)."""
        for cls in ctors or (base,):
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                raise RegistrationError(f"{cls!r} is not a dataclass type")
            if not issubclass(cls, base):
                raise RegistrationError(f"{cls.__name__} is not a subclass of {base.__name__}")
            fields = self._field_specs(cls)
            spec = _ctor_spec(cls, base, fields)
            if spec.tag is None and len(fields) != 1:
                raise RegistrationError(
                    f"{cls.__name__}: a variadic constructor must have exactly one field"
                )
            key = (base.__name__, cls.__name__)
            if cls in self._ctors or key in self._by_name:
                raise RegistrationError(f"{cls.__name__} registered twice")
            self._ctors[cls] = spec
            self._by_name[key] = spec

    @staticmethod
    def _field_specs(cls: type) -> tuple[_FieldSpec, ...]:
        try:
            hints = typing.get_type_hints(cls)
        except (NameError, TypeError) as exc:
            raise RegistrationError(f"{cls.__name__}: unresolvable annotation: {exc}") from exc
        specs = []
        for f in dataclasses.fields(cls):
            ann = hints[f.name]
            variadic = typing.get_origin(ann) is tuple
            if variadic:
                args = typing.get_args(ann)
                if len(args) != 2 or args[1] is not Ellipsis or not isinstance(args[0], type):
                    raise RegistrationError(
                        f"{cls.__name__}.{f.name}: only tuple[T, ...] children are supported"
                    )
                ann = args[0]
            elif not isinstance(ann, type):
                raise RegistrationError(
                    f"{cls.__name__}.{f.name}: unsupported field annotation {ann!r}"
                )
            if ann.__module__ == "builtins" and ann not in _LEAF_TYPES:
                # No language can register a built-in class, so no child of it could be read.
                raise RegistrationError(
                    f"{cls.__name__}.{f.name}: {ann.__name__} is not a leaf type (bool, int, str)"
                )
            specs.append(_FieldSpec(f.name, ann, variadic))
        return tuple(specs)

    def is_registered(self, value: Any) -> bool:
        return type(value) in self._ctors

    def _spec(self, value: Any) -> _CtorSpec:
        """The constructor spec of ``value``; loud when unregistered."""
        spec = self._ctors.get(type(value))
        if spec is None:
            raise RegistrationError(f"value of unregistered type {type(value).__name__}: {value!r}")
        return spec

    def nominal(self, value: Any) -> type:
        """Runtime type identity of a value: its registered base type, or its leaf type."""
        return self._spec(value).base

    def tag(self, value: Any) -> ConstructorTag:
        spec = self._spec(value)
        return spec.tag or ConstructorTag(spec.base.__name__, spec.cls.__name__,
                                          len(spec.kids(value)))

    def children(self, value: Any) -> list[Any]:
        """Ordered children, counting every constructor argument (leaves included); a fresh list."""
        return [*self._spec(value).kids(value)]  # ``list(...)`` would raise the peak memory

    def _kids(self, value: Any) -> tuple[Any, ...]:  # ``children`` as a move's siblings
        return self._spec(value).kids(value)

    def rebuild(self, tag: ConstructorTag, children: Sequence[Any]) -> Any:
        """Reassemble a node; fails loudly on child count or child type mismatch.

        A constructor's own rejection of its children is a :class:`RebuildError` too.
        """
        spec = self._by_name.get((tag.type_name, tag.ctor_name))
        if spec is None:
            raise RegistrationError(f"unknown constructor {tag.type_name}.{tag.ctor_name}")
        arity = tag.arity if spec.tag is None else len(spec.fields)
        if len(children) != arity or tag.arity != arity:
            raise RebuildError(
                f"{tag.ctor_name} takes {arity} children;"
                f" got tag arity {tag.arity} and {len(children)} children"
            )
        # A variadic constructor's one field is repeated, once per child counted above.
        for f, child in zip(spec.fields * arity if spec.tag is None else spec.fields, children):
            kind = type(child)
            if not (kind is f.typ if f.typ in _LEAF_TYPES else
                    kind in self._ctors and kind not in _LEAF_TYPES and isinstance(child, f.typ)):
                raise RebuildError(
                    f"{spec.cls.__name__}.{f.name} expects {f.typ.__name__}, got {kind.__name__}"
                )
        try:
            return spec.cls(tuple(children)) if spec.tag is None else spec.cls(*children)
        except (TypeError, ValueError) as exc:
            raise RebuildError(f"{tag.ctor_name} rejected its children: {exc}") from exc


def _write_back(focus: Any, z: Zipper) -> tuple[Any, tuple[Any, ...]]:
    """``z.above.focus`` rebuilt with ``focus`` at ``z.index``, and the kids it was given."""
    kids = z.siblings[: z.index] + (focus,) + z.siblings[z.index + 1 :]
    return z.lang.rebuild(z.lang.tag(z.above.focus), kids), kids


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Zipper:
    """A focused subtree, its siblings and the zipper one level up that it was made from.

    Optional moves (:meth:`down_left`, :meth:`down_right`, :meth:`left`,
    :meth:`right`, :meth:`up`) return ``None`` when impossible; the indexed
    accessors (:meth:`child_at`, :meth:`parent`, :meth:`sib_left`,
    :meth:`sib_right`) raise instead, making misuse loud.

    ``above`` is ``None`` at the root; below it, ``siblings`` are the children of
    ``above.focus``, shared by every sibling's zipper.  Once the focus is no longer
    ``siblings[index]`` (it was replaced), a move off this level rebuilds the parent
    with it there (:func:`_write_back`), and equality ignores that stale slot.

    Equality leaves ``lang`` out and compares, at each level above, the parent's
    type, the index and the siblings beside the focus; the hash reads only the
    focus's type and :attr:`position`, never a subtree.
    """

    focus: Any
    lang: Language
    above: Zipper | None = None
    siblings: tuple[Any, ...] = ()
    index: int = 0

    def __init__(self, focus, lang, above=None, siblings=(), index=0):  # skips frozen __setattr__
        _set_focus(self, focus)
        _set_lang(self, lang)
        _set_above(self, above)
        _set_siblings(self, siblings)
        _set_index(self, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zipper):
            return NotImplemented
        a, b = self.focus, other.focus
        if not (a is b or type(a) is type(b) and a == b):
            return False
        # One level at a time: comparing the ``above`` zippers would recurse.
        x, y = self, other
        while x is not y:
            if x.above is None or y.above is None:
                return x.above is y.above
            i, kx, ky = x.index, x.siblings, y.siblings
            if type(x.above.focus) is not type(y.above.focus) or i != y.index:
                return False
            if kx is not ky and (kx[:i] != ky[:i] or kx[i + 1 :] != ky[i + 1 :]):
                return False
            x, y = x.above, y.above
        return True

    def __hash__(self) -> int:
        # Equal zippers have foci of one class and equal indices at every level.
        return hash((type(self.focus), self.position))

    def __repr__(self) -> str:
        return f"Zipper(focus={self.focus!r}, position={self.position!r})"

    def _replace(self, focus: Any) -> Zipper:
        return Zipper(focus, self.lang, self.above, self.siblings, self.index)

    def _sibling(self, step: int) -> Zipper | None:
        above, kids, index = self.above, self.siblings, self.index + step
        if above is None or not 0 <= index < len(kids):
            return None
        if self.focus is not kids[self.index]:
            parent, kids = _write_back(self.focus, self)
            above = above._replace(parent)
        return Zipper(kids[index], self.lang, above, kids, index)

    def _sib(self, count: int, side: str) -> Zipper:
        if count < 0:
            raise NavigationError(f"negative sibling count {count}")
        z = self
        for _ in range(count):
            z = getattr(z, side)()
            if z is None:
                raise NavigationError(f"no sibling {count} positions to the {side}")
        return z

    # -- optional moves ----------------------------------------------------

    def down_left(self) -> Zipper | None:
        """Move to the leftmost child."""
        kids = self.lang._kids(self.focus)
        return Zipper(kids[0], self.lang, self, kids, 0) if kids else None

    def down_right(self) -> Zipper | None:
        """Move to the rightmost child."""
        kids = self.lang._kids(self.focus)
        return Zipper(kids[-1], self.lang, self, kids, len(kids) - 1) if kids else None

    def left(self) -> Zipper | None:
        return self._sibling(-1)

    def right(self) -> Zipper | None:
        return self._sibling(1)

    def up(self) -> Zipper | None:
        """The zipper this one was made from, or its parent rebuilt when the focus was replaced."""
        above = self.above
        if above is None or self.focus is self.siblings[self.index]:
            return above
        return above._replace(_write_back(self.focus, self)[0])

    @property
    def at_root(self) -> bool:
        return self.above is None

    @property
    def position(self) -> tuple[int, ...]:
        """Root-to-focus path of 0-based child indices.

        Identifies the focus position independently of subtree content, which
        is what a type-preserving strategy must keep fixed.
        """
        indices = []
        z = self
        while z.above is not None:
            indices.append(z.index)
            z = z.above
        indices.reverse()
        return tuple(indices)

    # -- non-optional accessors --------------------------------------------

    def child_at(self, index: int) -> Zipper:
        """Move to the 1-based ``index``-th child, counting every constructor argument."""
        kids = self.lang._kids(self.focus)
        if not 1 <= index <= len(kids):
            raise ChildIndexError(f"child index {index} out of range 1..{len(kids)}")
        return Zipper(kids[index - 1], self.lang, self, kids, index - 1)

    def parent(self) -> Zipper:
        up = self.up()
        if up is None:
            raise NavigationError("the root has no parent")
        return up

    def sib_left(self, count: int = 1) -> Zipper:
        """Move ``count`` siblings to the left."""
        return self._sib(count, "left")

    def sib_right(self, count: int = 1) -> Zipper:
        """Move ``count`` siblings to the right."""
        return self._sib(count, "right")

    # -- focus access and transformation ------------------------------------

    def get_hole(self, typ: type[T]) -> T | None:
        """The focus as ``typ``; ``None`` when its nominal type differs."""
        return self.focus if self.lang.nominal(self.focus) is typ else None

    def trans_m(self, f: Callable[[Any], Any | None]) -> Zipper | None:
        """Replace the focus with ``f(focus)``; ``None`` when ``f`` declines.

        ``f`` must preserve the focus's nominal type; a type-changing result
        raises :class:`TypePreservationError`.
        """
        result = f(self.focus)
        if result is None:
            return None
        if type(result) is not type(self.focus):  # one class is one nominal type
            after, before = self.lang.nominal(result), self.lang.nominal(self.focus)
            if after is not before:
                raise TypePreservationError(
                    f"transformation changed {before.__name__} into {after.__name__}"
                )
        return self._replace(result)


_set_focus, _set_lang, _set_above, _set_siblings, _set_index = (
    getattr(Zipper, f.name).__set__ for f in dataclasses.fields(Zipper))


def to_zipper(root: Any, lang: Language) -> Zipper:
    """Focus a zipper on ``root``, with nothing above it."""
    lang._spec(root)  # loud when unregistered
    return Zipper(root, lang)


def from_zipper(z: Zipper) -> Any:
    """The root value, rebuilt where a focus was replaced; independent of the focus position."""
    while (up := z.up()) is not None:
        z = up
    return z.focus


# -- structured AST export/import -------------------------------------------

_LEAF_BY_KIND = {t.__name__: t for t in _LEAF_TYPES}


def export_ast(value: Any, lang: Language) -> dict[str, Any]:
    """Serialize a tree: nodes as type/ctor/children objects, leaves as kind/value.

    Walks an explicit stack of ``(kids, entries)`` pairs, each kid exported
    into the ``children`` list it belongs in, so nesting costs heap, not
    Python frames.  The names come off the constructor's spec.
    """
    top: list[dict[str, Any]] = []
    pending = [((value,), top)]
    while pending:
        kids, entries = pending.pop()
        for kid in kids:
            if type(kid) in _LEAF_TYPES:
                entries.append({"leaf": type(kid).__name__, "value": kid})
                continue
            spec, children = lang._spec(kid), []
            entries.append({"type": spec.base.__name__, "ctor": spec.cls.__name__,
                            "children": children})
            pending.append((lang.children(kid), children))
    return top[0]


def import_ast(data: Any, lang: Language) -> Any:
    """Inverse of :func:`export_ast`; ``import_ast(export_ast(v)) == v``."""
    if not isinstance(data, dict):
        raise RebuildError(f"expected an object, got {type(data).__name__}")
    if "leaf" in data:
        kind, value = data.get("leaf"), data.get("value")
        if not isinstance(kind, str) or type(value) is not _LEAF_BY_KIND.get(kind):
            raise RebuildError(f"malformed leaf entry: {data!r}")
        return value
    try:
        type_name, ctor_name, children = data["type"], data["ctor"], data["children"]
    except KeyError as exc:
        raise RebuildError(f"node entry missing key {exc}") from exc
    if not (isinstance(type_name, str) and isinstance(ctor_name, str) and type(children) is list):
        raise RebuildError("a node entry needs a string type and ctor and a list of children")
    kids = [import_ast(c, lang) for c in children]
    return lang.rebuild(ConstructorTag(type_name, ctor_name, len(kids)), kids)


def _leaf_json(leaf: bool | int | str) -> str:
    """A leaf's entry as ``json.dumps`` writes it; ``bool`` is told apart from ``int``."""
    if type(leaf) is str:
        return '{"leaf": "str", "value": ' + _encode_str(leaf) + "}"
    if type(leaf) is int:
        return '{"leaf": "int", "value": ' + int.__repr__(leaf) + "}"
    return '{"leaf": "bool", "value": true}' if leaf else '{"leaf": "bool", "value": false}'


def export_json(value: Any, lang: Language) -> str:
    """``json.dumps(export_ast(value, lang))``, byte for byte, with no dict built.

    One loop over an explicit stack of nodes and ready text (a leaf is written as
    it is read), so nesting costs heap, not Python frames.  A constructor's
    opening text is formatted once per class from its spec."""
    heads: dict[type, str] = {}
    out: list[str] = []
    pending: list[Any] = [_leaf_json(value) if type(value) in _LEAF_TYPES else value]
    while pending:
        node = pending.pop()
        if type(node) is str:
            out.append(node)
            continue
        head = heads.get(type(node))
        if head is None:
            spec = lang._spec(node)
            head = heads[spec.cls] = (f'{{"type": {_encode_str(spec.base.__name__)},'
                                      f' "ctor": {_encode_str(spec.cls.__name__)}, "children": [')
        out.append(head)
        pending.append("]}")
        kids = lang.children(node)
        if kids:  # last kid first, each after its separator; the first has none
            for kid in reversed(kids):
                pending.append(_leaf_json(kid) if type(kid) in _LEAF_TYPES else kid)
                pending.append(", ")
            pending.pop()
    return "".join(out)


def import_json(text: str, lang: Language) -> Any:
    return import_ast(json.loads(text), lang)
