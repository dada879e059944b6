"""Strategy combinators over zippers.

Two strategy shapes cover rewriting and querying:

* a type-preserving strategy (``TP``) partially transforms a zipper in
  place: it is any callable ``Zipper -> Zipper | None``, where ``None``
  signals failure and a successful result keeps the focus position;
* a type-unifying strategy (:class:`TU`) partially reduces a zipper to a
  value in a monoid, so traversals can merge per-node results.

Construction combinators (``adhoc``/``mono``) lift ordinary functions on node
types into strategies; a chain of them is one value, which tries only the
rules of the focus's nominal type.  One kernel, ``_tp``, is the only code here
that moves a zipper.  It walks the subtree under the focus in an order (``td``
visits a node before its children, ``bu`` after; children go left to right)
under a policy for what a success does: ``full`` carries on, ``stop`` prunes
(in ``td`` the node's descendants, in ``bu`` every node above it), ``once``
ends the walk and ``again`` normalizes the new node's children, except those
it kept from the old node, and retries.  Each traversal is one kernel call; a
TU traversal combines its successes in visit order, neighbour with neighbour
in a balanced tree.  ``innermost`` is the ``bu`` walk under ``again``;
``outermost`` iterates a one-shot top-down search to a fixed point.
:func:`scheme` builds the four whole-tree schemes of :data:`SCHEMES`, and a
rewrite budget ("fuel", :data:`DEFAULT_FUEL` by default) enters there alone:
each run meters its rule step once (``_metered``), so divergent rule sets fail
loudly, the kernel only walks, and ``repeat_tp``, ``innermost`` and
``outermost`` take none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Optional, TypeVar

from .zipper import _LEAF_TYPES, Zipper

D = TypeVar("D")
T = TypeVar("T")

#: A type-preserving strategy: partial zipper transformation.
TP = Callable[[Zipper], Optional[Zipper]]

#: The rewrite budget of a :func:`scheme` run whose caller names none.
DEFAULT_FUEL = 1_000_000


class FuelExhaustedError(RuntimeError):
    """An iterated strategy exceeded its rewrite budget; the rules likely diverge."""


@dataclass(frozen=True)
class Monoid:
    """Identity (as a factory) and associative combine for TU results."""

    empty: Callable[[], Any]
    combine: Callable[[Any, Any], Any]


LIST_MONOID = Monoid(list, lambda a, b: a + b)


@dataclass(frozen=True)
class TU:
    """A type-unifying strategy: partial reduction of a zipper into a monoid.

    Traversal combinators only use the carried monoid through its identity
    and combine, never the concrete result type.
    """

    run: Callable[[Zipper], Optional[Any]]
    monoid: Monoid = LIST_MONOID

    def __call__(self, z: Zipper) -> Any | None:
        return self.run(z)


# -- primitive strategies ----------------------------------------------------


def id_tp(z: Zipper) -> Zipper:
    """Always succeeds, unchanged."""
    return z


def fail_tp(z: Zipper) -> None:
    """Always fails."""
    return None


def const_tu(value: Any, monoid: Monoid = LIST_MONOID) -> TU:
    """Always succeeds with ``value``."""
    return TU(lambda z: value, monoid)


def fail_tu(monoid: Monoid = LIST_MONOID) -> TU:
    """Always fails."""
    return TU(lambda z: None, monoid)


def try_tp(s: TP) -> TP:
    """Apply ``s`` if possible; keep the input otherwise.  Never fails."""
    return choice_tp(s, id_tp)


def repeat_tp(s: TP) -> TP:
    """Apply ``s`` until it fails; return the last success (the input if none)."""

    def run(z: Zipper) -> Zipper:
        while (r := s(z)) is not None:
            z = r
        return z

    return run


def _metered(s: TP, fuel: int) -> TP:
    """``s`` for one run, counting its successes (rewrites): the one past ``fuel`` raises."""
    left = fuel

    @wraps(s)  # keeps the step's attributes: perfbench's tracer marks the steps it counts
    def step(z: Zipper) -> Zipper | None:
        nonlocal left
        r = s(z)
        if r is not None:
            if not left:
                raise FuelExhaustedError(
                    f"exceeded {fuel} rewrites without reaching a fixed point; rewrite"
                    f" {fuel + 1} turned {_a(z.focus)} into {_a(r.focus)} at {_where(z)}")
            left -= 1
        return r

    return step


def _a(node: Any) -> str:
    return f"{'an' if type(node).__name__[0] in 'AEIOUaeiou' else 'a'} {type(node).__name__}"


_SHOWN = 8  # the indices a long position shows, so a deep run still gets a short line


def _where(z: Zipper) -> str:
    """``z.position``; past :data:`_SHOWN` levels, its depth and its last indices."""
    position = z.position
    if len(position) <= _SHOWN:
        return str(position)
    return f"depth {len(position)}, (..., {', '.join(map(str, position[-_SHOWN:]))})"


# -- strategy construction ---------------------------------------------------
#
# An ``adhoc`` chain is one value: its rules, last added first, over a base.
# A visit tries the rules of the focus's nominal type, found once per class and
# language; the base handles the rest.  This fallthrough lets a chained step try
# rewrite rules first and fall back to a context-dependent rule on one node type.


@dataclass(frozen=True, slots=True, eq=False)
class _Adhoc:
    """An ``adhoc`` chain: ``(type, function, takes_zipper)`` rules over ``base``."""

    rules: tuple[tuple[type, Callable, bool], ...]
    base: Callable[[Zipper], Any]
    tu: bool
    _tables: dict = field(default_factory=dict, repr=False)

    def __call__(self, z: Zipper) -> Any | None:
        focus = z.focus
        key = (z.lang, type(focus))
        rules = self._tables.get(key)
        if rules is None:
            typ = z.lang.nominal(focus)
            rules = self._tables[key] = tuple((f, zf) for t, f, zf in self.rules if t is typ)
        for f, takes_zipper in rules:
            r = f(focus, z) if takes_zipper else f(focus)
            if r is not None:
                return r if self.tu else z.trans_m(lambda _cur: r)
        return self.base(z)


def _adhoc(base: Callable, typ: type, f: Callable, takes_zipper: bool, tu: bool) -> _Adhoc:
    """``base`` extended with the rule ``f`` on ``typ``, tried before its own rules."""
    if isinstance(base, _Adhoc) and base.tu is tu:
        return _Adhoc(((typ, f, takes_zipper), *base.rules), base.base, tu)
    return _Adhoc(((typ, f, takes_zipper),), base, tu)


def adhoc_tp(base: TP, typ: type, f: Callable[[T], T | None]) -> TP:
    """Extend ``base`` with ``f``, applied when the focus is a ``typ``."""
    return _adhoc(base, typ, f, False, False)


def adhoc_tpz(base: TP, typ: type, f: Callable[[T, Zipper], T | None]) -> TP:
    """Like :func:`adhoc_tp`, but ``f`` also receives the zipper at the focus,
    so it can evaluate attributes there."""
    return _adhoc(base, typ, f, True, False)


def mono_tp(typ: type, f: Callable[[T], T | None]) -> TP:
    return adhoc_tp(fail_tp, typ, f)


def mono_tpz(typ: type, f: Callable[[T, Zipper], T | None]) -> TP:
    return adhoc_tpz(fail_tp, typ, f)


def adhoc_tu(base: TU, typ: type, f: Callable[[T], D | None]) -> TU:
    return TU(_adhoc(base.run, typ, f, False, True), base.monoid)


def adhoc_tuz(base: TU, typ: type, f: Callable[[T, Zipper], D | None]) -> TU:
    return TU(_adhoc(base.run, typ, f, True, True), base.monoid)


def mono_tu(typ: type, f: Callable[[T], D | None], monoid: Monoid = LIST_MONOID) -> TU:
    return adhoc_tu(fail_tu(monoid), typ, f)


def mono_tuz(typ: type, f: Callable[[T, Zipper], D | None], monoid: Monoid = LIST_MONOID) -> TU:
    return adhoc_tuz(fail_tu(monoid), typ, f)


# -- composition and choice ---------------------------------------------------


def seq_tp(a: TP, b: TP) -> TP:
    """Apply ``a`` then ``b``, skipping whichever fails; fails iff both fail."""

    def run(z: Zipper) -> Zipper | None:
        ok = False
        r = a(z)
        if r is not None:
            z, ok = r, True
        r = b(z)
        if r is not None:
            z, ok = r, True
        return z if ok else None

    return run


def choice_tp(a: TP, b: TP) -> TP:
    """``a``'s result if it succeeds, else ``b``'s."""

    def run(z: Zipper) -> Zipper | None:
        r = a(z)
        return r if r is not None else b(z)

    return run


def _monoid(a: TU, b: TU) -> Monoid:
    """The monoid ``a`` and ``b`` share; one's ``combine`` cannot merge the other's results."""
    if a.monoid != b.monoid:
        raise ValueError("cannot compose TU strategies over different monoids")
    return a.monoid


def seq_tu(a: TU, b: TU) -> TU:
    """Evaluate both on the same zipper, appending successes in order."""
    m = _monoid(a, b)

    def run(z: Zipper) -> Any | None:
        ra, rb = a(z), b(z)
        if ra is None and rb is None:
            return None
        if ra is None:
            return rb
        if rb is None:
            return ra
        return m.combine(ra, rb)

    return TU(run, m)


def choice_tu(a: TU, b: TU) -> TU:
    return TU(choice_tp(a, b), _monoid(a, b))


# -- traversal schemes ------------------------------------------------------------


def _tp(s: TP, order: str, policy: str) -> TP:
    """The traversal kernel, the only walk over the tree in this module.

    A leaf is not asked for its children: the walk moves down from a node only.
    A subtree where nothing succeeded yields ``None`` (under ``again``, the
    zipper it came as), and a child that came back as the same zipper is not
    put back into its parent, so neither is rebuilt.  Under ``again``, the new
    node, or a child of it, that is by identity a non-leaf child or grandchild
    of the node ``s`` rewrote is handed back unvisited, and ``s`` is not retried
    at a new node handed back so.
    """

    def go(z: Zipper) -> Zipper | None:
        r = s(z) if order == "td" else None
        if r is not None:
            if policy != "full":
                return r
            z = r
        here = r is not None
        old = kept = None  # under ``again``: the node ``s`` last rewrote, held so no id is reused
        while True:
            below = moved = False
            c = None if type(z.focus) in _LEAF_TYPES else z.down_left()
            while c is not None:
                if old is not None and type(c.focus) not in _LEAF_TYPES:
                    if kept is None:  # built at the first non-leaf child, never for leaves
                        kept = set()
                        for k in z.lang.children(old):
                            if type(k) not in _LEAF_TYPES:
                                kept.add(id(k))
                                kept.update(map(id, z.lang.children(k)))
                        if id(z.focus) in kept:  # ``s`` handed back a normal form whole
                            return z
                    # A child or grandchild of ``old`` was a normal form before the rewrite.
                    r = None if id(c.focus) in kept else go(c)
                else:
                    r = go(c)
                if r is not None:
                    below = True
                    if r is not c:
                        c, moved = r, True
                    if policy == "once":
                        return c.up() if moved else z
                # Up from the last child itself, so no level keeps a second zipper alive.
                r = c.right()
                if r is None and moved:
                    z = c.up()
                c = r
            if order == "td" or (below and policy == "stop"):
                break
            r = s(z)
            if r is None:
                break
            if policy != "again":
                return r
            # Normalize the new node's children, except those it kept; try ``s`` there again.
            old, kept, z, here = z.focus, None, r, True
        return z if here or below or policy == "again" else None

    return go


def _tu(s: TU, order: str, policy: str) -> TU:
    """The TP walk with a step that collects each success of ``s`` in visit
    order and hands the zipper back unchanged.

    The successes are then combined neighbour with neighbour, round after
    round, until one is left: the monoid is associative, so this is the
    visit-order fold, but a result is copied O(log k) times, not O(k).
    """
    m = s.monoid

    def run(z: Zipper) -> Any | None:
        found = []

        def visit(z: Zipper) -> Zipper | None:
            r = s.run(z)
            if r is None:
                return None
            found.append(r)
            return z

        _tp(visit, order, policy)(z)
        if not found:
            return None if policy == "once" else m.empty()
        while len(found) > 1:
            pairs = [m.combine(found[i], found[i + 1]) for i in range(0, len(found) - 1, 2)]
            if len(found) % 2:
                pairs.append(found[-1])
            found = pairs
        return found[0]

    return TU(run, m)


def full_td_tp(s: TP) -> TP:
    """Apply ``s`` at every node in preorder, skipping per-node failures.

    Fails only when no node accepted ``s``.  A node is visited before its
    children, so ``s`` sees children produced by its own rewrite above them.
    """
    return _tp(s, "td", "full")


def full_bu_tp(s: TP) -> TP:
    """Postorder counterpart of :func:`full_td_tp`: children first, node last."""
    return _tp(s, "bu", "full")


def full_td_tu(s: TU) -> TU:
    """Append ``s``'s results over all nodes in preorder.

    Per-node failures contribute the monoid identity, so the traversal as a
    whole always succeeds.
    """
    return _tu(s, "td", "full")


def full_bu_tu(s: TU) -> TU:
    """Postorder counterpart of :func:`full_td_tu`."""
    return _tu(s, "bu", "full")


def once_td_tp(s: TP) -> TP:
    """Apply ``s`` exactly once, at the leftmost-outermost node that accepts it."""
    return _tp(s, "td", "once")


def once_bu_tp(s: TP) -> TP:
    """Apply ``s`` exactly once, at the leftmost-innermost node that accepts it."""
    return _tp(s, "bu", "once")


def once_td_tu(s: TU) -> TU:
    """The first successful reduction in preorder."""
    return _tu(s, "td", "once")


def once_bu_tu(s: TU) -> TU:
    """The first successful reduction in postorder."""
    return _tu(s, "bu", "once")


def stop_td_tp(s: TP) -> TP:
    """Top-down, but success at a node prunes that node's descendants."""
    return _tp(s, "td", "stop")


def stop_bu_tp(s: TP) -> TP:
    """Bottom-up, but any success below a node suppresses the node itself."""
    return _tp(s, "bu", "stop")


def stop_td_tu(s: TU) -> TU:
    """Append results top-down, pruning below every node where ``s`` succeeded."""
    return _tu(s, "td", "stop")


def stop_bu_tu(s: TU) -> TU:
    """Append results bottom-up; a node contributes only if nothing below it did."""
    return _tu(s, "bu", "stop")


# -- normalization and application -------------------------------------------

#: The whole-tree rewriting schemes that :func:`scheme` builds.
SCHEMES = ("innermost", "outermost", "full-td", "full-bu")


def innermost(s: TP) -> TP:
    """Rewrite the leftmost-innermost redex until none remains.

    Always succeeds; the result is a normal form of ``s`` under that search
    order.  The kernel's ``bu`` walk with the ``again`` policy, Stratego's
    ``innermost(s) = bottomup(try(s; innermost(s)))``: a node's children are
    normalized left to right, then ``s`` is tried at the node; after a
    success the new node's children are normalized and ``s`` tried again,
    in a loop rather than a recursion.  A child that is, by identity, a
    non-leaf child or grandchild of the rewritten node is not walked again,
    and a new node that is one (``- - e`` to ``e``) is handed back whole.
    So a rewrite re-normalizes only the subtree it produced, and a subtree
    where nothing rewrote is handed back as it came.  While a rewrite never
    turns a node before it in postorder into a redex, and a subtree that the
    rule keeps is still a normal form at its new place, this makes the same
    rewrites as ``repeat_tp(once_bu_tp(s))``.  The second holds when a
    node's redex status depends only on its subtree and the names in scope,
    and no rule moves a kept subtree across a binder.  A step that always
    succeeds loops forever; :func:`scheme` bounds the rewrites of a run.
    """
    return _tp(s, "bu", "again")


def outermost(s: TP) -> TP:
    """Rewrite the leftmost-outermost redex until none remains."""
    return repeat_tp(once_td_tp(s))


def scheme(name: str, step: TP, fuel: int = DEFAULT_FUEL) -> TP:
    """Scheme ``name`` of :data:`SCHEMES` over ``step``, each run under ``fuel``; ``full-*`` sweep once."""
    # Looked up at call time, so a function replaced in this module (by a tracer) is used.
    walk = {"innermost": innermost, "outermost": outermost,
            "full-td": full_td_tp, "full-bu": full_bu_tp}.get(name)
    if walk is None:
        raise ValueError(f"unknown scheme {name!r}; expected one of {', '.join(SCHEMES)}")
    return lambda z: try_tp(walk(_metered(step, fuel)))(z)


def apply_tp(s: TP, z: Zipper) -> Zipper | None:
    """Run a type-preserving strategy at a zipper."""
    return s(z)


def apply_tu(s: TU, z: Zipper) -> Any | None:
    """Run a type-unifying strategy at a zipper."""
    return s.run(z)
