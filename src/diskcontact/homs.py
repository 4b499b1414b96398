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

Reachability by bypasses, through stages with a nonzero hom into or
out of an anchor, is read three ways: the exhaustive composition masks
from per-anchor transitive closures, the composition point calls and
the faithful table's trees from `bypass_search` over the successors of
interned stages, and the point chain `bypass_chain` from a level search
on matchings that interns only the chain it returns.

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

from .divset import DividingSet, Matching, basic_sets, enumerate_objects
from .divset import from_matching, to_matching
from .errors import ComponentMismatch, NotBasic

# bypass, functor and kom import this module, so it imports from them
# only for type checking and, inside the methods that need them, at call time
if TYPE_CHECKING:
    from .bypass import BypassMove, Triangle
    from .kom import ChainMap, Complex


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
    """Number of closed curves after stacking g under g2 and edge rounding,
    read off the interned matchings, so that a key this cache holds keeps
    no matching of its own."""
    _check_same_component(g, g2)
    comp = component(g.n, g.e)
    return _curves(comp.matchings[comp.id(g)], comp.matchings[comp.id(g2)])


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
    middle = comp.id(g2)
    return middle in bypass_search(comp, comp.id(g), comp.id(g3), True, stop=middle)


def composition_nonzero_right(g: DividingSet, g2: DividingSet, g3: DividingSet) -> bool:
    """Mirror search, chaining the right factor from g2 to g3 instead."""
    _check_same_component(g, g2)
    _check_same_component(g2, g3)
    if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3) and hom_nonzero(g, g3)):
        return False
    if g == g2 or g2 == g3:
        return True
    comp = component(g.n, g.e)
    last = comp.id(g3)
    return last in bypass_search(comp, comp.id(g2), comp.id(g), False, stop=last)


def bypass_chain(g: DividingSet, g2: DividingSet) -> Optional[tuple[BypassMove, ...]]:
    """Shortest bypass chain from g to g2 through stages with hom into g2,
    or None when there is none.

    g itself is not filtered, only the stages after it: a chain can start
    from a g with Hom(g, g2) = 0 (three pairs at (2,1) have one).

    Of the shortest chains it is the least in the lexicographic order of
    their moves' indices in `Component.moves`, which is the chain that a
    breadth-first search over `Component.successors` keeping the first
    discoverer of each stage finds.  The levels on matchings
    (`_chain_levels`) give the stages on some shortest chain, and the
    walk takes from each the first move onto one a level further; only
    those moves' targets are interned.  Every kept predecessor one level
    up of a stage on a shortest chain is on one too, so such a search
    discovers each of those stages first from another, in the order of
    their least index paths, and reaches g2 along the least one.

    It is also the path to g2 in the tree that bypass_search grows from
    g, with no stop, inside T(g) = {X : Hom(g, X) != 0} (checked on
    every nonzero pair with n <= 8); the faithful table reads its maps
    off that tree.
    """
    _check_same_component(g, g2)
    if g == g2:
        return ()
    from .bypass import surgery

    comp = component(g.n, g.e)
    cur = comp.id(g)
    levels = _chain_levels(comp.matchings[cur], comp.matchings[comp.id(g2)])
    if levels is None:
        return None
    chain = []
    for on_chain in levels[1:]:
        m = comp.matchings[cur]
        move = next(mv for mv in comp.moves(cur) if surgery(mv, m) in on_chain)
        chain.append(move)
        cur = comp.target(comp.move_id(move))
    return tuple(chain)


def _chain_levels(start: Matching, goal: Matching) -> Optional[list[set[Matching]]]:
    """The stages on some shortest bypass chain from start to goal whose
    stages after start have hom into goal, level by level from {start}
    to {goal}, or None when there is no such chain.

    A breadth-first search over `bypass.target_matchings` expands whole
    levels and records every kept predecessor of each stage one level
    up, and the levels are read back from goal along those records.  It
    stops at the first level with a stage one bypass from goal, and
    lists only the targets of such stages there: a bypass re-pairs three
    chords, so its target differs from its source at exactly six points.
    It interns nothing.
    """
    from .bypass import target_matchings

    seen = {start}
    frontier: dict[Matching, list[Matching]] = {start: []}
    preds = []
    while True:
        last = {
            x
            for x in frontier
            if sum(p != q for p, q in zip(x, goal)) == 6 and goal in target_matchings(x)
        }
        if last:
            break
        nxt: dict[Matching, list[Matching]] = {}
        for x in frontier:
            for t in target_matchings(x):
                back = nxt.get(t)
                if back is not None:
                    back.append(x)
                elif t not in seen:
                    seen.add(t)
                    if _curves(t, goal) == 1:
                        nxt[t] = [x]
        if not nxt:
            return None
        preds.append(nxt)
        frontier = nxt
    levels = [{goal}, last]
    for level in reversed(preds):
        levels.append({p for x in levels[-1] for p in level[x]})
    levels.reverse()
    return levels


@lru_cache(maxsize=8)
def component(n: int, e: int) -> Component:
    """The shared index of the (n, e) component."""
    return Component(n, e)


class Component:
    """The one owner of per-object state for one (n, e) component.

    Objects get integer ids on first use, so a point query interns only
    the objects it touches, and every object the library builds inside
    the component (an attach target, a triangle vertex, a rotation) is
    returned as the interned instance; an object, basic or not, is
    interned as the first equal instance asked for.  An id is found by
    address, by equality or by matching; attach targets and rotations are
    found by matching, so only a new matching is decoded.  Moves are
    interned the same way, with their own ids, found by address or by
    equality.  A mask is an int whose bit i stands for the object with
    id i.  A projective summand has no id: it is named by its basic index
    (`divset.basic_index`), and a tight row is keyed by one and is a mask
    over them, so what a complex keeps outlives the component.

    Kept here, filled on demand and dropped with the component when
    `component` evicts it: the bypass moves of each object with their
    targets and, once a move is looked up by its chords, a table from
    their chord triples to their ids (`move_at`), each object's rotation
    (`rotate`), hom rows, tight rows, reachability closures of orbit
    representatives, and the tables other modules fill: bypass
    triangles, F-images, bypass chain maps and induced rotation blocks
    (by pairs of basic indices).  Hom rows are filled only as a whole
    table (`hom_table`, which the first hom_out or hom_in fills), and a
    composition mask covers the whole component too, so asking for
    either enumerates it; a point query reads `_stage_filter`, which
    fills no row.  Each object's moves come from `bypass.find_moves`,
    which builds them valid; `move_id` validates a move it has not seen,
    so a move from outside is checked once.

    The rotation σ (`rotate`, the paper's Serre functor on objects) has
    order n+1, and the exhaustive tables use it.  Each orbit is
    represented by its first object in `ids` order (`representatives`).
    σ conjugates the curve-count permutation by a shift of two, so
    Hom(σi, σj) = Hom(i, j): `hom_table` counts curves for the
    representative rows only and relabels each other row through σ^t.
    Bypass targets rotate with their source (`homs.rotation_equivariant`
    checks this on every object), so an anchor's kept stages and the
    bypass graph on them are σ^t of its representative's, and a closure
    is built for representative anchors only; `_closure_at` reads any
    anchor's mask by relabeling, and stores nothing.

    Reachability has three mechanisms.  The composition masks
    (`middles`, `middles_right`, `sources`, `targets`) read one
    transitive closure of the bypass graph induced on an anchor's kept
    stages, forward or reversed, built once per representative anchor
    from the whole hom table.  `bypass_search`, which keeps nothing,
    runs over the successors of interned stages: the composition point
    calls (`composition_nonzero`, `composition_nonzero_right`) run it
    from one start and stop at their target, and the faithful table
    grows one tree per source with no stop.  `bypass_chain` searches
    levels on matchings (`_chain_levels`), which interns nothing, and
    interns only the stages of the chain it returns.

    Four unbounded caches stay outside: divset's `enumerate_objects` and
    `basic_sets` hold one entry per (n, e), `divset._basic` one instance
    per basic set, whose kept facts it shares, and `rounded_components`
    is read by the benchmark's tracer.
    """

    def __init__(self, n: int, e: int):
        self.n, self.e = n, e
        self.objects: list[DividingSet] = []
        self.matchings: list[Matching] = []
        self._ids: dict[DividingSet, int] = {}
        self._by_address: dict[int, int] = {}
        self._by_matching: dict[Matching, int] = {}
        self._order: Optional[list[int]] = None
        # moves get ids too, on first use; a move's target is filled when asked
        self.move_list: list[BypassMove] = []
        self._move_ids: dict[BypassMove, int] = {}
        self._move_by_address: dict[int, int] = {}
        self._targets: list[Optional[int]] = []
        self._moves: dict[int, tuple[BypassMove, ...]] = {}  # object id -> its moves
        self._move_table: dict[int, dict[int, int]] = {}  # object id -> chord code -> move id
        self._successors: dict[int, tuple[tuple[int, BypassMove], ...]] = {}
        self._out: dict[int, int] = {}  # i -> mask of j with Hom(i, j) != 0
        self._in: dict[int, int] = {}  # j -> mask of i with Hom(i, j) != 0
        self._tight: dict[int, int] = {}  # basic index b -> mask of c with tight_basic(b, c)
        self._rotated: dict[int, int] = {}  # i -> id of σi
        # (representative, shift, powers) once the component is enumerated; see _orbits
        self._orbit_table: Optional[tuple[list[int], list[int], list[list[int]]]] = None
        # (representative anchor, into, reverse) -> kept stage -> mask of the
        # kept stages it reaches (or that reach it, if reverse); see _closure
        self._closures: dict[tuple[int, bool, bool], dict[int, int]] = {}
        # filled by bypass, functor and kom
        self.triangles: dict[int, Triangle] = {}  # by move id
        self.f_images: dict[int, Complex] = {}  # by object id
        self.chain_maps: dict[int, ChainMap] = {}  # by move id
        self.rotation_blocks: dict[tuple[int, int], ChainMap] = {}  # by (src, dst) basic index

    def id(self, g: DividingSet) -> int:
        # Only interned instances are recorded by address; self.objects
        # keeps them alive, so an address hit is the object itself.
        i = self._by_address.get(id(g))
        if i is None:
            i = self._ids.get(g)
            if i is None:
                i = self._add(g, to_matching(g))
        return i

    def matching_id(self, m: Matching) -> int:
        """The id of the object whose matching is m; only a matching not
        seen before is decoded (divset.from_matching)."""
        i = self._by_matching.get(m)
        if i is None:
            i = self._add(from_matching(m, self.n, self.e), m)
        return i

    def _add(self, g: DividingSet, m: Matching) -> int:
        i = self._ids[g] = self._by_address[id(g)] = self._by_matching[m] = len(self.objects)
        self.objects.append(g)
        self.matchings.append(m)
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
        source; a move not seen before is validated, and raises
        InvalidMove unless it is a nontrivial bypass.  As in id,
        move_list keeps interned moves alive for the address lookup."""
        m = self._move_by_address.get(id(move))
        if m is None:
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
        m = self._move_ids[move] = self._move_by_address[id(move)] = len(self.move_list)
        self.move_list.append(move)
        self._targets.append(None)
        return m

    def target(self, m: int) -> int:
        """Id of the dividing set after attaching move m."""
        t = self._targets[m]
        if t is None:
            from .bypass import surgery

            move = self.move_list[m]
            edited = surgery(move, self.matchings[self.id(move.source)])
            t = self._targets[m] = self.matching_id(edited)
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

    def move_at(self, i: int, code: int) -> Optional[int]:
        """The id of the move on object i whose arc crosses the entry, exit
        and target chords packed in `code` (bypass._chord_code), or None
        when no nontrivial bypass crosses them.

        Object i's table is filled from moves(i), which cover every valid
        chord triple, on its first lookup: a bypass search enumerates
        moves but never looks one up, so it keeps no table.
        """
        table = self._move_table.get(i)
        if table is None:
            from .bypass import _move_code

            table = self._move_table[i] = {
                _move_code(mv): self.move_id(mv) for mv in self.moves(i)
            }
        return table.get(code)

    def successors(self, i: int) -> tuple[tuple[int, BypassMove], ...]:
        """(target id, move) for every nontrivial bypass on object i, in
        the order of enumerate_bypasses."""
        succ = self._successors.get(i)
        if succ is None:
            succ = self._successors[i] = tuple(
                (self.target(self.move_id(mv)), mv) for mv in self.moves(i)
            )
        return succ

    def rotate(self, i: int) -> int:
        """Id of σi, the rotation by one positive arc: every label s becomes
        s-1 mod n+1, so the rotated matching is m'[p] = m[p+2] - 2 (mod 2n+2)."""
        r = self._rotated.get(i)
        if r is None:
            m = self.matchings[i]
            size = len(m)
            rotated = tuple((m[(p + 2) % size] - 2) % size for p in range(size))
            r = self._rotated[i] = self.matching_id(rotated)
        return r

    def _orbits(self) -> tuple[list[int], list[int], list[list[int]]]:
        """(rep, shift, powers): object x is σ^shift[x] of rep[x], the first
        object of its orbit in ids() order, and powers[t][x] is σ^t x for
        t in 0..n, so powers[-t] is σ^-t."""
        if self._orbit_table is None:
            ids = self.ids()
            sigma = [self.rotate(i) for i in range(len(ids))]
            powers = [list(range(len(ids)))]
            for _ in range(self.n):
                powers.append([sigma[x] for x in powers[-1]])
            rep, shift = [-1] * len(ids), [0] * len(ids)
            for i in ids:
                x, t = i, 0
                while rep[x] < 0:
                    rep[x], shift[x] = i, t
                    x, t = sigma[x], t + 1
            self._orbit_table = rep, shift, powers
        return self._orbit_table

    def representatives(self) -> list[int]:
        """The first object of each rotation orbit, in ids() order."""
        rep = self._orbits()[0]
        return [i for i in self.ids() if rep[i] == i]

    def hom_out(self, i: int) -> int:
        """Mask of j with Hom(i, j) != 0; the first row asked for fills
        the whole table."""
        if not self._out:
            self.hom_table()
        return self._out[i]

    def hom_in(self, j: int) -> int:
        """Mask of i with Hom(i, j) != 0; the first row asked for fills
        the whole table."""
        if not self._out:
            self.hom_table()
        return self._in[j]

    def hom_table(self) -> None:
        """Fill every hom_out and hom_in row, the only way rows are
        filled, counting curves only for the rows of orbit
        representatives.  Hom(σ^t r, σ^t j) = Hom(r, j), so each other row
        is its representative's relabeled through σ^t; the hom_in rows
        are the transpose."""
        if self._out:
            return
        ids, ms = self.ids(), self.matchings
        rep, shift, powers = self._orbits()
        rows: dict[int, list[int]] = {}
        out: dict[int, int] = {}
        cols: list[list[int]] = [[] for _ in ids]
        for i in ids:  # a representative comes before the rest of its orbit
            if rep[i] == i:
                m = ms[i]
                row = rows[i] = [j for j in ids if _curves(m, ms[j]) == 1]
            else:
                perm = powers[shift[i]]
                row = [perm[j] for j in rows[rep[i]]]
            out[i] = _mask(row)
            for j in row:
                cols[j].append(i)
        self._in = {j: _mask(cols[j]) for j in ids}
        self._out = out  # last: a nonempty _out means the table is filled

    def tight_row(self, b: int) -> int:
        """Mask of the basic indices c with tight_basic(B[b], B[c]), where
        B = basic_sets(n, e) and b is a basic index (divset.basic_index).

        Filled from B alone, so it interns nothing and never enumerates
        the component.
        """
        row = self._tight.get(b)
        if row is None:
            basics = basic_sets(self.n, self.e)
            row = self._tight[b] = _mask(
                c for c, g in enumerate(basics) if tight_basic(basics[b], g)
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

    def _closure(self, anchor: int, into: bool, reverse: bool = False) -> dict[int, int]:
        """For each stage X the anchor's stage filter keeps: the mask of the
        kept stages that X reaches by bypasses through kept stages (or,
        if reverse, that reach X), X itself included.  Kept for the
        representative anchors that _closure_at asks for."""
        key = (anchor, into, reverse)
        closure = self._closures.get(key)
        if closure is None:
            self.hom_table()
            keep = self._stage_filter(anchor, into)
            graph = {
                x: [t for t, _ in self.successors(x) if keep(t)] for x in self.ids() if keep(x)
            }
            if reverse:
                graph = _reverse(graph)
            closure = self._closures[key] = _transitive_closure(graph)
        return closure

    def _closure_at(self, anchor: int, x: int, into: bool, reverse: bool = False) -> int:
        """The anchor's closure mask at stage x, 0 if x is not kept.  With
        anchor = σ^t r for its representative r, the kept stages and the
        bypass graph on them are σ^t of r's, so the mask is r's mask at
        σ^-t x relabeled through σ^t."""
        rep, shift, powers = self._orbits()
        t = shift[anchor]
        mask = self._closure(rep[anchor], into, reverse).get(powers[-t][x], 0)
        if t:
            perm = powers[t]
            mask = _mask(perm[y] for y in _bits(mask))
        return mask

    # Composition masks.  Bit for bit they equal composition_nonzero
    # (middles, sources, targets) and composition_nonzero_right
    # (middles_right) with one position left free.  With the left (or
    # right) factor nonzero, the search starts inside its anchor's kept
    # set, so its anchor's closure at the start is the mask of the stages
    # bypass_search reaches, and one closure per anchor answers every start.

    def middles(self, i: int, k: int) -> int:
        """Mask of j with composition_nonzero(i, j, k)."""
        if not self.hom_out(i) >> k & 1:
            return 0
        return self.hom_out(i) & self.hom_in(k) & (self._closure_at(k, i, True) | 1 << k)

    def middles_right(self, i: int, k: int) -> int:
        """Mask of j with composition_nonzero_right(i, j, k)."""
        if not self.hom_out(i) >> k & 1:
            return 0
        reaching = self._closure_at(i, k, False, reverse=True)
        return self.hom_out(i) & self.hom_in(k) & (reaching | 1 << i | 1 << k)

    def sources(self, j: int, k: int) -> int:
        """Mask of i with composition_nonzero(i, j, k)."""
        if not self.hom_out(j) >> k & 1:
            return 0
        if j == k:
            return self.hom_in(j)
        reaching = self._closure_at(k, j, True, reverse=True)
        return self.hom_in(j) & self.hom_in(k) & (reaching | 1 << j)

    def targets(self, i: int, j: int) -> int:
        """Mask of k with composition_nonzero(i, j, k)."""
        if not self.hom_out(i) >> j & 1:
            return 0
        if i == j:
            return self.hom_out(i)
        both = self.hom_out(i) & self.hom_out(j)
        if any(t == j for t, _ in self.successors(i)):
            return both  # every anchor that keeps j keeps the move i -> j
        reached = _mask(k for k in _bits(both) if self._closure_at(k, i, True) >> j & 1)
        return both & (reached | 1 << j)


def bypass_search(
    comp: Component,
    start: int,
    anchor: int,
    into: bool,
    stop: Optional[int] = None,
) -> dict:
    """Breadth-first search over nontrivial bypasses from start, on ids.

    A stage X is kept when Hom(X, anchor) != 0 (into) or Hom(anchor, X) != 0
    (not into).  Maps each reached stage to (previous stage, move), start to
    None, in discovery order, and returns as soon as stop is reached.
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


def _reverse(graph: dict[int, list[int]]) -> dict[int, list[int]]:
    """The graph with every edge turned around."""
    back: dict[int, list[int]] = {x: [] for x in graph}
    for x, succ in graph.items():
        for t in succ:
            back[t].append(x)
    return back


def _transitive_closure(graph: dict[int, list[int]]) -> dict[int, int]:
    """Each node's mask of the nodes it reaches, itself included; every
    edge must end at a node of the graph.

    Tarjan's strongly connected components (SIAM J. Comput. 1972) are
    finished sinks first, so a component's mask is its own nodes OR'd
    with the masks of the finished components its edges leave to
    (Nuutila 1995); the nodes of one component share one mask.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    closure: dict[int, int] = {}
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(graph[w])))
                    break
                if w not in closure and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    mask = _mask(members)
                    for x in members:
                        for t in graph[x]:
                            mask |= closure.get(t, 0)
                    for x in members:
                        closure[x] = mask
    return closure
