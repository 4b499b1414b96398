"""Bypass moves on dividing sets, bypass triangles, and the rotation functor.

A nontrivial bypass attachment is encoded by the two positive components
it touches and three positions: the attaching arc enters component uv
through one boundary chord, crosses it, leaves through a second chord,
crosses one negative region, and ends on a chord of component ov.  The
positions x, y mark the labels of uv at the bottom-left and top-left
corners of the cut (so the left part of uv is the cyclic run of positions
[[x, y]]), and z marks the bottom-left corner label of ov.

In chord terms, with the clockwise boundary walk chord[j] = (2 s_j + 1,
2 s_{j+1}) of a component: the entry chord of uv is chord[x-1], the exit
chord is chord[y], and the target chord of ov is chord[z-1] (indices mod
the chord count).  The attachment replaces those three chords by

    wall = (entry_left,  exit_left)    bounding the surviving left part,
    p    = (exit_right,  target_right)
    q    = (entry_right, target_left)

where "left" endpoints are the ones adjacent to the left side of the arc.
The induced triangle continues with the move (p, q, wall) on the result.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .divset import (
    STAR,
    DividingSet,
    Geometry,
    NegRegion,
    NestVector,
    chord_key,
    enumerate_objects,
    far_side_labels,
    from_partition,
    geometry,
    side_containing,
)
from .errors import ComponentMismatch, InvalidMove, IsBasic


@dataclass(frozen=True)
class BypassMove:
    """A nontrivial bypass attachment on `source`, encoded by (uv, ov, x, y, z)."""

    source: DividingSet
    uv: NestVector
    ov: NestVector
    x: int
    y: int
    z: int

    @property
    def left_positions(self) -> tuple[int, ...]:
        """The generalized interval [[x, y]] of positions in uv."""
        k = self.source.l(self.uv) + 1
        out = []
        i = self.x
        while True:
            out.append(i)
            if i == self.y:
                return tuple(out)
            i = (i + 1) % k

    @property
    def left_labels(self) -> tuple[int, ...]:
        ls = self.source.labels(self.uv)
        return tuple(sorted(ls[i] for i in self.left_positions))

    @property
    def right_labels(self) -> tuple[int, ...]:
        left = set(self.left_positions)
        ls = self.source.labels(self.uv)
        return tuple(sorted(ls[i] for i in range(len(ls)) if i not in left))

    # oriented chords of the attaching data, in walk direction
    @property
    def entry_chord(self) -> tuple[int, int]:
        k = self.source.l(self.uv) + 1
        return self.source.chords(self.uv)[(self.x - 1) % k]

    @property
    def exit_chord(self) -> tuple[int, int]:
        return self.source.chords(self.uv)[self.y]

    @property
    def target_chord(self) -> tuple[int, int]:
        k = self.source.l(self.ov) + 1
        return self.source.chords(self.ov)[(self.z - 1) % k]


def validate_move(move: BypassMove) -> None:
    ds = move.source
    vs = dict(ds.components)
    if move.uv not in vs or move.ov not in vs or move.uv == move.ov:
        raise InvalidMove("uv and ov must be distinct components of the source")
    if not (0 <= move.x <= ds.l(move.uv) and 0 <= move.y <= ds.l(move.uv)):
        raise InvalidMove("x, y out of range")
    if not 0 <= move.z <= ds.l(move.ov):
        raise InvalidMove("z out of range")
    if (move.x - 1) % (ds.l(move.uv) + 1) == move.y:
        raise InvalidMove("entry and exit chords coincide")
    geo = geometry(ds)
    c2 = chord_key(move.exit_chord)
    c3 = chord_key(move.target_chord)
    if geo.neg_of_chord[c2] != geo.neg_of_chord[c3]:
        raise InvalidMove("exit and target chords do not bound a common negative region")


def move_from_chords(
    ds: DividingSet,
    entry: tuple[int, int],
    exit: tuple[int, int],
    target: tuple[int, int],
) -> BypassMove:
    """Build the move whose attaching arc crosses the three given chords."""
    geo = geometry(ds)
    uv = geo.comp_of_chord[chord_key(entry)]
    if geo.comp_of_chord[chord_key(exit)] != uv:
        raise InvalidMove("entry and exit chords bound different components")
    ov = geo.comp_of_chord[chord_key(target)]
    k = ds.l(uv) + 1
    chords_uv = [chord_key(c) for c in ds.chords(uv)]
    a = chords_uv.index(chord_key(entry))
    b = chords_uv.index(chord_key(exit))
    chords_ov = [chord_key(c) for c in ds.chords(ov)]
    c = chords_ov.index(chord_key(target))
    move = BypassMove(
        ds, uv, ov, (a + 1) % k, b, (c + 1) % (ds.l(ov) + 1)
    )
    validate_move(move)
    return move


def _surgery(move: BypassMove) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """New chord keys (wall, p, q) replacing entry/exit/target chords."""
    e_from, e_to = move.entry_chord
    x_from, x_to = move.exit_chord
    t_from, t_to = move.target_chord
    wall = chord_key((e_to, x_from))
    p = chord_key((x_to, t_from))
    q = chord_key((e_from, t_to))
    return wall, p, q


@lru_cache(maxsize=None)
def attach(ds: DividingSet, move: BypassMove) -> DividingSet:
    """The dividing set after the bypass attachment."""
    if move.source != ds:
        raise InvalidMove("move does not belong to this dividing set")
    validate_move(move)
    left = set(move.left_labels)
    parts = []
    for v, ls in ds.components:
        if v == move.uv:
            parts.append(left)
            continue
        if v == move.ov:
            parts.append(set(ls) | set(move.right_labels))
            continue
        parts.append(set(ls))
    return from_partition(ds.n, ds.e, parts)


@lru_cache(maxsize=None)
def enumerate_bypasses(ds: DividingSet) -> tuple[BypassMove, ...]:
    """All nontrivial bypass moves on ds, deterministically ordered.

    Configurations: pick a negative region, an ordered pair of distinct
    chords on it (exit from uv, target on ov), and any other chord of uv
    as the entry.  Distinct chords of one negative region always bound
    distinct positive components, so uv != ov automatically.
    """
    geo = geometry(ds)
    moves = []
    for region in geo.neg_regions:
        cs = region.chords
        for c2 in cs:
            uv = geo.comp_of_chord[c2]
            for c3 in cs:
                if c3 == c2:
                    continue
                for c1 in ds.chords(uv):
                    if chord_key(c1) == c2:
                        continue
                    moves.append(move_from_chords(ds, c1, c2, c3))
    return tuple(sorted(set(moves), key=lambda b: (b.uv, b.ov, b.x, b.y, b.z)))


@dataclass(frozen=True)
class Triangle:
    """A bypass triangle g1 -> g2 -> g3 -> g1."""

    g1: DividingSet
    g2: DividingSet
    g3: DividingSet
    b1: BypassMove
    b2: BypassMove
    b3: BypassMove


def _next_move(move: BypassMove) -> BypassMove:
    """The induced bypass on attach(source, move) continuing the triangle."""
    wall, p, q = _surgery(move)
    target = attach(move.source, move)
    return move_from_chords(target, p, q, wall)


@lru_cache(maxsize=None)
def triangle(ds: DividingSet, move: BypassMove) -> Triangle:
    b1 = move
    g2 = attach(ds, b1)
    b2 = _next_move(b1)
    g3 = attach(g2, b2)
    b3 = _next_move(b2)
    if attach(g3, b3) != ds:
        raise InvalidMove("triangle does not close")
    return Triangle(ds, g2, g3, b1, b2, b3)


@lru_cache(maxsize=None)
def serre_rotate(ds: DividingSet) -> DividingSet:
    """Rotation by one positive arc: every label s becomes s-1 mod n+1."""
    n1 = ds.n + 1
    parts = [{(s - 1) % n1 for s in ls} for _, ls in ds.components]
    return from_partition(ds.n, ds.e, parts)


def _nonbasic_outer_data(ds: DividingSet) -> tuple[NestVector, Geometry, NegRegion]:
    if ds.is_basic():
        raise IsBasic("dividing set is basic")
    i0 = min(v[0] for v in ds.vnb if len(v) == 1)
    uv = (i0,)
    geo = geometry(ds)
    outer = chord_key(ds.chords(uv)[ds.l(uv)])
    region = geo.neg_regions[geo.neg_of_chord[outer]]
    return uv, geo, region


def canonical_bypass(ds: DividingSet) -> BypassMove:
    """The leftmost bypass whose arc runs from the based component into the
    first non-boundary-parallel top-level component."""
    uv, geo, region = _nonbasic_outer_data(ds)
    outer = ds.chords(uv)[ds.l(uv)]
    star_chords = [c for c in region.chords if geo.comp_of_chord[c] == STAR]
    assert len(star_chords) == 1
    return move_from_chords(ds, ds.chords(uv)[0], outer, star_chords[0])


def obar(ds: DividingSet) -> tuple[DividingSet, BypassMove]:
    """Third vertex and third edge of the canonical triangle, mapping into ds."""
    tri = triangle(ds, canonical_bypass(ds))
    return tri.g3, tri.b3


def m_invariant(ds: DividingSet) -> int:
    """Distance from basic: e + 1 - |based component|."""
    return ds.e + 1 - len(ds.star)


def zero_region(move: BypassMove) -> int:
    """Index in 1..6 of the region of the attaching-arc figure holding label 0.

    The attaching arc and the three chords it meets cut the disk into six
    regions, numbered clockwise from the one beyond the entry chord:
    1 beyond the entry chord; 2/6 left/right of the arc on the uv side of
    the exit chord; 3/5 left/right on the negative-region side; 4 beyond
    the target chord.
    """
    ds = move.source
    if 0 in ds.labels(move.uv):
        return 2 if 0 in move.left_labels else 6
    c1 = chord_key(move.entry_chord)
    c2 = chord_key(move.exit_chord)
    c3 = chord_key(move.target_chord)
    anchor = ds.labels(move.uv)[0]
    if 0 in far_side_labels(ds, c1, anchor):
        return 1
    if 0 in side_containing(ds.n, c3, ds.label_at(move.ov, 0)):
        return 4
    if 0 in side_containing(ds.n, c2, anchor):
        # on the uv side of the exit chord, hanging beyond another chord of
        # uv; left exactly when that chord joins two left labels
        k = ds.l(move.uv) + 1
        left_internal = set()
        i = move.x
        while i != move.y:
            left_internal.add(i)
            i = (i + 1) % k
        for j, ch in enumerate(ds.chords(move.uv)):
            cj = chord_key(ch)
            if cj in (c1, c2):
                continue
            if 0 in far_side_labels(ds, cj, anchor):
                return 2 if j in left_internal else 6
        raise AssertionError("label 0 not found beyond any chord of uv")
    geo = geometry(ds)
    region = geo.neg_regions[geo.neg_of_chord[c2]]
    _, left_chords = region.between(c2, c3)
    for c in left_chords:
        owner = geo.comp_of_chord[c]
        if 0 in side_containing(ds.n, c, ds.label_at(owner, 0)):
            return 3
    _, right_chords = region.between(c3, c2)
    for c in right_chords:
        owner = geo.comp_of_chord[c]
        if 0 in side_containing(ds.n, c, ds.label_at(owner, 0)):
            return 5
    raise AssertionError("label 0 not located in any region")


# ---------------------------------------------------------------------------
# disjointness of pairs of moves
#
# Two attaching arcs can be drawn disjointly when, in every face both of
# them cross, their segments do not interleave around the face boundary.
# Arcs may meet the same chord at different points; the order of those
# points along each shared chord is a free binary choice, and each
# non-crossing choice gives a commuting square of attachments (the chord
# pieces created by one surgery tell where the other arc now runs).


def _triple(move: BypassMove) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    return (
        chord_key(move.entry_chord),
        chord_key(move.exit_chord),
        chord_key(move.target_chord),
    )


def _segments(move: BypassMove):
    """The two face passages of the arc: (face id, chord in, chord out)."""
    geo = geometry(move.source)
    c1, c2, c3 = _triple(move)
    return [
        (("pos", move.uv), c1, c2),
        (("neg", geo.neg_of_chord[c2]), c2, c3),
    ]


def _face_slots(ds: DividingSet, face) -> list[tuple[tuple[int, int], bool]]:
    """Chords around a face in walk order, flagged if walked min->max."""
    geo = geometry(ds)
    kind, which = face
    if kind == "pos":
        return [(chord_key(c), c[0] < c[1]) for c in ds.chords(which)]
    out = []
    size = 2 * ds.n + 2
    for t, c in geo.neg_regions[which].walk:
        start = (2 * t + 2) % size
        out.append((c, start == c[0]))
    return out


def _no_crossing(a: BypassMove, b: BypassMove, order: dict) -> bool:
    """Check the configuration where order[c] means a's point on chord c
    comes before b's point in the chord's min->max direction."""
    ds = a.source
    segs_a = _segments(a)
    segs_b = _segments(b)
    for face_a, in_a, out_a in segs_a:
        for face_b, in_b, out_b in segs_b:
            if face_a != face_b:
                continue
            slots = _face_slots(ds, face_a)
            chords = [c for c, _ in slots]

            def posn(c: tuple[int, int], of_a: bool) -> tuple[int, int]:
                i = chords.index(c)
                if c not in order:
                    return (i, 0)
                a_first = order[c] == slots[i][1]
                return (i, 0 if a_first == of_a else 1)

            cyc = sorted(
                [
                    (posn(in_a, True), "a"),
                    (posn(out_a, True), "a"),
                    (posn(in_b, False), "b"),
                    (posn(out_b, False), "b"),
                ]
            )
            pattern = [t for _, t in cyc]
            if pattern in (["a", "b", "a", "b"], ["b", "a", "b", "a"]):
                return False
    return True


def _transport(move: BypassMove, surg: BypassMove, order: dict, move_is_a: bool) -> BypassMove:
    """Where `move` lands after attaching `surg`, under the given ordering."""
    wall, p, q = _surgery(surg)
    sc1, sc2, sc3 = _triple(surg)
    # left corner endpoints of the three cut chords, and the new chord each
    # piece joins: (L piece, R piece)
    pieces = {
        sc1: (surg.entry_chord[1], wall, q),
        sc2: (surg.exit_chord[0], wall, p),
        sc3: (surg.target_chord[1], q, p),
    }
    target = attach(surg.source, surg)

    def image(c: tuple[int, int]) -> tuple[int, int]:
        if c not in pieces:
            return c
        left_end, left_new, right_new = pieces[c]
        move_first = order[c] == move_is_a
        on_left = (left_end == c[0]) == move_first
        return left_new if on_left else right_new

    mc1, mc2, mc3 = _triple(move)
    return move_from_chords(target, image(mc1), image(mc2), image(mc3))


@dataclass(frozen=True)
class Square:
    """A disjoint configuration of two arcs a, b on one dividing set.

    `after_a` is b transported to attach(src, a) and `after_b` is a
    transported to attach(src, b).  A transported arc that no longer meets
    three distinct curves is recorded as None; with one degenerate side
    this is the bypass-rotation configuration, where attaching a and then
    `after_a` is equivalent to attaching b alone.
    """

    after_a: "BypassMove | None"
    after_b: "BypassMove | None"


def commuting_squares(a: BypassMove, b: BypassMove) -> list[Square]:
    """All disjoint configurations of the two arcs."""
    import itertools as it

    if a.source != b.source:
        raise ComponentMismatch("moves on different dividing sets")
    if a == b:
        return []
    shared = sorted(set(_triple(a)) & set(_triple(b)))
    squares = []
    for bits in it.product((True, False), repeat=len(shared)):
        order = dict(zip(shared, bits))
        if not _no_crossing(a, b, order):
            continue
        try:
            ta = _transport(b, a, order, move_is_a=False)
        except InvalidMove:
            ta = None
        try:
            tb = _transport(a, b, order, move_is_a=True)
        except InvalidMove:
            tb = None
        sq = Square(ta, tb)
        if sq not in squares:
            squares.append(sq)
    return squares


def disjoint_moves(a: BypassMove, b: BypassMove) -> bool:
    return bool(commuting_squares(a, b))


def bypass_graph(n: int, e: int) -> dict[DividingSet, frozenset[DividingSet]]:
    """Directed bypass-edge targets for every object of the (n,e) component."""
    return {
        g: frozenset(attach(g, mv) for mv in enumerate_bypasses(g))
        for g in enumerate_objects(n, e)
    }
