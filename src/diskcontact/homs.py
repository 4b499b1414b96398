"""Morphism spaces of the contact category of a disk.

Every hom space here is 0- or 1-dimensional over GF(2).  Nonvanishing is
decided by the component count of the curve obtained by stacking the two
dividing sets on the boundary of a cylinder and rounding the two corner
circles.  Rounding shifts every curve end by one marked point at each
corner; the net effect in the shared boundary parametrization is that a
curve leaving the bottom matching at point p continues on the top
matching at point p-2.  Each closed curve is traversed once in each
direction, so the curve count is half the cycle count of

    p  |->  m_top((m_bottom(p) - 2) mod (2n+2)).

The direction of the shift is calibrated: this is the unique convention
(up to conjugation by a rotation) for which identity homs are nonzero,
basic pairs agree with the greedy tightness criterion, and homs into the
rotated object never vanish.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .divset import DividingSet, Matching, basic_of, basic_sets, enumerate_objects, to_matching
from .errors import ComponentMismatch, NotBasic

# bypass, functor and kom import this module, so it imports from them
# only for type checking and, inside the methods that need them, at call time
if TYPE_CHECKING:
    from .bypass import BypassMove, Triangle
    from .functor import FData
    from .kom import ChainMap


def _check_same_component(g: DividingSet, g2: DividingSet) -> None:
    if (g.n, g.e) != (g2.n, g2.e):
        raise ComponentMismatch(f"({g.n},{g.e}) vs ({g2.n},{g2.e})")


def _curves(m: Matching, m2: Matching) -> int:
    """Closed curves after stacking matching m under m2 and edge rounding."""
    size = len(m)
    seen = [False] * size
    cycles = 0
    for start in range(size):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = m2[(m[p] - 2) % size]
    assert cycles % 2 == 0
    return cycles // 2


@lru_cache(maxsize=None)  # the benchmark's tracer reads its cache_info
def rounded_components(g: DividingSet, g2: DividingSet) -> int:
    """Number of closed curves after stacking g under g2 and edge rounding."""
    _check_same_component(g, g2)
    return _curves(to_matching(g), to_matching(g2))


def hom_nonzero(g: DividingSet, g2: DividingSet) -> bool:
    """Hom(g, g2) != 0, read from the component index: the filled hom_in
    row of g2, or else the curve count of the interned matchings."""
    _check_same_component(g, g2)
    comp = component(g.n, g.e)
    return bool(comp._stage_filter(comp.id(g2), into=True)(comp.id(g)))


def tight_basic(g: DividingSet, g2: DividingSet) -> bool:
    """Greedy tightness criterion between basic dividing sets.

    Repeatedly move the smallest label where the based sets disagree: with
    s = min(g* \\ g2*) and s' = min(g2* \\ g*), require s < s' and that g*
    meets [s, s'] only in s, then replace s by s'.
    """
    _check_same_component(g, g2)
    if not (g.is_basic() and g2.is_basic()):
        raise NotBasic("tightness criterion applies to basic dividing sets")
    cur = set(g.star)
    target = set(g2.star)
    while cur != target:
        s = min(cur - target)
        s2 = min(target - cur)
        if s2 < s or any(t in cur for t in range(s + 1, s2 + 1)):
            return False
        cur.remove(s)
        cur.add(s2)
    return True


def composition_nonzero(g: DividingSet, g2: DividingSet, g3: DividingSet) -> bool:
    """Does the composite of the generators of Hom(g,g2) and Hom(g2,g3) survive?

    Decided by searching a chain of single nontrivial bypasses from g to g2
    all of whose stages keep a nonzero hom into g3.
    """
    _check_same_component(g, g2)
    _check_same_component(g2, g3)
    if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3) and hom_nonzero(g, g3)):
        return False
    if g == g2 or g2 == g3:
        return True
    comp = component(g.n, g.e)
    return bool(comp.reach(comp.id(g), comp.id(g3), True) >> comp.id(g2) & 1)


def composition_nonzero_right(g: DividingSet, g2: DividingSet, g3: DividingSet) -> bool:
    """Mirror search, chaining the right factor from g2 to g3 instead."""
    _check_same_component(g, g2)
    _check_same_component(g2, g3)
    if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3) and hom_nonzero(g, g3)):
        return False
    if g == g2 or g2 == g3:
        return True
    comp = component(g.n, g.e)
    return bool(comp.reach(comp.id(g2), comp.id(g), False) >> comp.id(g3) & 1)


def bypass_chain(g: DividingSet, g2: DividingSet) -> Optional[tuple[BypassMove, ...]]:
    """Shortest bypass chain from g to g2 through stages with hom into g2."""
    _check_same_component(g, g2)
    if g == g2:
        return ()
    comp = component(g.n, g.e)
    start, target = comp.id(g), comp.id(g2)
    prev = _bypass_search(comp, start, target, True, stop=target)
    if target not in prev:
        return None
    chain = []
    node = target
    while node != start:
        node, move = prev[node]
        chain.append(move)
    return tuple(reversed(chain))


@lru_cache(maxsize=8)
def component(n: int, e: int) -> Component:
    """The shared index of the (n, e) component."""
    return Component(n, e)


class Component:
    """The one owner of per-object state for one (n, e) component.

    Objects get integer ids on first use, so a point query interns only
    the objects it touches, and every object the library builds inside
    the component (an attach target, a triangle vertex, a rotation) is
    returned as the interned instance.  Moves are interned the same way,
    with their own ids.  A mask is an int whose bit i stands for the
    object with id i.

    Kept here, filled on demand and dropped with the component when
    `component` evicts it: the bypass moves of each object with their
    targets, hom rows, tight rows (basic objects only), reachability
    and composition masks, and the tables other modules fill: bypass
    triangles, F-images with their omitting indices, bypass chain maps
    and induced rotation blocks.  A hom row or a composition mask covers
    the whole component, so asking for one enumerates it.

    Four unbounded caches stay outside: divset's `enumerate_objects` and
    `basic_sets` hold one entry per (n, e), `divset._basic` the one
    instance per basic set that interning relies on, and
    `rounded_components` is read by the benchmark's tracer.
    """

    def __init__(self, n: int, e: int):
        self.n, self.e = n, e
        # stands for this component in data kept outside it (summand ids
        # on a complex), so a rebuilt component never reads them
        self.token = object()
        self.objects: list[DividingSet] = []
        self.matchings: list[Matching] = []
        self._ids: dict[DividingSet, int] = {}
        self._by_address: dict[int, int] = {}
        self._order: Optional[list[int]] = None
        # moves get ids too, on first use; a move's target is filled when asked
        self.move_list: list[BypassMove] = []
        self._move_ids: dict[BypassMove, int] = {}
        self._targets: list[Optional[int]] = []
        self._moves: dict[int, tuple[BypassMove, ...]] = {}  # object id -> its moves
        self._successors: dict[int, tuple[tuple[int, BypassMove], ...]] = {}
        self._out: dict[int, int] = {}  # i -> mask of j with Hom(i, j) != 0
        self._in: dict[int, int] = {}  # j -> mask of i with Hom(i, j) != 0
        self._tight: dict[int, int] = {}  # basic i -> mask of basic j, tight_basic(i, j)
        self._reach: dict[tuple[int, int, bool], int] = {}
        # transposed reachability, keyed by the fixed anchor or start
        self._into_by_anchor: dict[int, dict[int, int]] = {}
        self._into_by_start: dict[int, dict[int, int]] = {}
        self._from_by_anchor: dict[int, dict[int, int]] = {}
        # filled by bypass, functor and kom
        self.triangles: dict[int, Triangle] = {}  # by move id
        self.f_images: dict[int, FData] = {}  # by object id
        self.chain_maps: dict[int, ChainMap] = {}  # by move id
        self.rotation_blocks: dict[tuple[int, int], ChainMap] = {}  # by (src id, dst id)

    def id(self, g: DividingSet) -> int:
        # Only interned instances are recorded by address; self.objects
        # keeps them alive, so an address hit is the object itself.  A
        # basic object is interned as the one instance basic_of returns,
        # whichever equal instance is asked first, so summands hit here.
        i = self._by_address.get(id(g))
        if i is None:
            i = self._ids.get(g)
            if i is None:
                if g.is_basic():
                    g = basic_of(g.n, g.e, g.star)
                i = self._ids[g] = self._by_address[id(g)] = len(self.objects)
                self.objects.append(g)
                self.matchings.append(to_matching(g))
        return i

    def intern(self, g: DividingSet) -> DividingSet:
        """The interned instance equal to g."""
        return self.objects[self.id(g)]

    def ids(self) -> list[int]:
        """Ids of all objects, in the order of enumerate_objects."""
        if self._order is None:
            self._order = [self.id(g) for g in enumerate_objects(self.n, self.e)]
        return self._order

    def move_id(self, move: BypassMove) -> int:
        """The id of the move, interned on first use with the interned
        source; raises InvalidMove unless it is a nontrivial bypass."""
        m = self._move_ids.get(move)
        if m is None:
            from .bypass import validate_move

            validate_move(move)
            m = self._add_move(move)
        return m

    def _add_move(self, move: BypassMove) -> int:
        source = self.intern(move.source)
        if source is not move.source:
            move = dataclasses.replace(move, source=source)
        m = self._move_ids[move] = len(self.move_list)
        self.move_list.append(move)
        self._targets.append(None)
        return m

    def target(self, m: int) -> int:
        """Id of the dividing set after attaching move m."""
        t = self._targets[m]
        if t is None:
            from .bypass import surgery

            t = self._targets[m] = self.id(surgery(self.move_list[m]))
        return t

    def moves(self, i: int) -> tuple[BypassMove, ...]:
        """The nontrivial bypasses on object i, interned, in the order of
        enumerate_bypasses."""
        moves = self._moves.get(i)
        if moves is None:
            from .bypass import find_moves

            found = []
            for mv in find_moves(self.objects[i]):
                m = self._move_ids.get(mv)
                found.append(self.move_list[self._add_move(mv) if m is None else m])
            moves = self._moves[i] = tuple(found)
        return moves

    def successors(self, i: int) -> tuple[tuple[int, BypassMove], ...]:
        """(target id, move) for every nontrivial bypass on object i, in
        the order of enumerate_bypasses."""
        succ = self._successors.get(i)
        if succ is None:
            succ = self._successors[i] = tuple(
                (self.target(self._move_ids[mv]), mv) for mv in self.moves(i)
            )
        return succ

    def hom_out(self, i: int) -> int:
        """Mask of j with Hom(i, j) != 0."""
        row = self._out.get(i)
        if row is None:
            m, ms = self.matchings[i], self.matchings
            row = self._out[i] = _mask(j for j in self.ids() if _curves(m, ms[j]) == 1)
        return row

    def hom_in(self, j: int) -> int:
        """Mask of i with Hom(i, j) != 0."""
        col = self._in.get(j)
        if col is None:
            m, ms = self.matchings[j], self.matchings
            col = self._in[j] = _mask(i for i in self.ids() if _curves(ms[i], m) == 1)
        return col

    def tight_row(self, i: int) -> int:
        """Mask of the basic j with tight_basic(i, j), for a basic object i.

        Filled from basic_sets(n, e), so it interns the basic objects and
        never enumerates the component.
        """
        row = self._tight.get(i)
        if row is None:
            g = self.objects[i]
            row = self._tight[i] = _mask(
                self.id(b) for b in basic_sets(self.n, self.e) if tight_basic(g, b)
            )
        return row

    def _stage_filter(self, anchor: int, into: bool) -> Callable[[int], bool]:
        """Predicate on ids: Hom(X, anchor) != 0 (into) or Hom(anchor, X) != 0.

        Reads the anchor's hom row when it is filled; otherwise counts the
        curves of each stage, so a point query fills no row.
        """
        row = (self._in if into else self._out).get(anchor)
        if row is not None:
            return lambda x: row >> x & 1
        ms, m = self.matchings, self.matchings[anchor]
        if into:
            return lambda x: _curves(ms[x], m) == 1
        return lambda x: _curves(m, ms[x]) == 1

    def reach(self, start: int, anchor: int, into: bool) -> int:
        """Mask of the stages the bypass search from start reaches."""
        key = (start, anchor, into)
        mask = self._reach.get(key)
        if mask is None:
            mask = self._reach[key] = _mask(_bypass_search(self, start, anchor, into))
        return mask

    def _row_reach(self, start: int, anchor: int, into: bool) -> int:
        """reach, after filling the anchor's hom row the search reads."""
        (self.hom_in if into else self.hom_out)(anchor)
        return self.reach(start, anchor, into)

    # Composition masks.  Bit for bit they equal composition_nonzero
    # (middles, sources, targets) and composition_nonzero_right
    # (middles_right) with one position left free.

    def middles(self, i: int, k: int) -> int:
        """Mask of j with composition_nonzero(i, j, k)."""
        if not self.hom_out(i) >> k & 1:
            return 0
        return self.hom_out(i) & self.hom_in(k) & (self._row_reach(i, k, True) | 1 << k)

    def middles_right(self, i: int, k: int) -> int:
        """Mask of j with composition_nonzero_right(i, j, k)."""
        if not self.hom_out(i) >> k & 1:
            return 0
        cols = _cached(
            self._from_by_anchor,
            i,
            lambda: _transpose((j, self._row_reach(j, i, False)) for j in _bits(self.hom_out(i))),
        )
        return self.hom_out(i) & self.hom_in(k) & (cols.get(k, 0) | 1 << i | 1 << k)

    def sources(self, j: int, k: int) -> int:
        """Mask of i with composition_nonzero(i, j, k)."""
        if not self.hom_out(j) >> k & 1:
            return 0
        if j == k:
            return self.hom_in(j)
        cols = _cached(
            self._into_by_anchor,
            k,
            lambda: _transpose((i, self._row_reach(i, k, True)) for i in _bits(self.hom_in(k))),
        )
        return self.hom_in(j) & self.hom_in(k) & (cols.get(j, 0) | 1 << j)

    def targets(self, i: int, j: int) -> int:
        """Mask of k with composition_nonzero(i, j, k)."""
        if not self.hom_out(i) >> j & 1:
            return 0
        if i == j:
            return self.hom_out(i)
        cols = _cached(
            self._into_by_start,
            i,
            lambda: _transpose((k, self._row_reach(i, k, True)) for k in _bits(self.hom_out(i))),
        )
        return self.hom_out(i) & self.hom_out(j) & (cols.get(j, 0) | 1 << j)


def _bypass_search(
    comp: Component,
    start: int,
    anchor: int,
    into: bool,
    stop: Optional[int] = None,
) -> dict:
    """Breadth-first search over nontrivial bypasses from start, on ids.

    A stage X is kept when Hom(X, anchor) != 0 (into) or Hom(anchor, X) != 0
    (not into).  Maps each reached stage to (previous stage, move), start to
    None, and returns as soon as stop is reached.
    """
    keep = comp._stage_filter(anchor, into)
    prev: dict = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, move in comp.successors(cur):
            if nxt in prev or not keep(nxt):
                continue
            prev[nxt] = (cur, move)
            if nxt == stop:
                return prev
            queue.append(nxt)
    return prev


def _mask(ids: Iterable[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Columns of a 0/1 matrix given as (row id, row mask) pairs: bit i of
    column j is bit j of row i.  Empty columns are left out."""
    cols: dict[int, int] = {}
    for i, row in rows:
        bit = 1 << i
        for j in _bits(row):
            cols[j] = cols.get(j, 0) | bit
    return cols


def _cached(store: dict, key, fill):
    value = store.get(key)
    if value is None:
        value = store[key] = fill()
    return value
