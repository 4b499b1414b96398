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

Moves, their targets and triangles are kept by the component index
(homs.Component): each object's moves are enumerated once, and
`enumerate_bypasses`, `attach`, `triangle`, `serre_rotate` and
`commuting_squares` return the component's interned moves and objects;
`commuting_squares` finds a transported arc by its chords in the
target's move table.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .divset import (
    STAR,
    DividingSet,
    Geometry,
    NegRegion,
    NestVector,
    chord_key,
    far_side_labels,
    from_partition,
    geometry,
    side_containing,
)
from .errors import ComponentMismatch, InvalidMove, IsBasic
from .homs import Component, component


@dataclass(frozen=True, slots=True)
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
    return _new_chords(move.entry_chord, move.exit_chord, move.target_chord)


def _new_chords(entry, exit, target) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """(wall, p, q) for the oriented entry, exit and target chords."""
    return (
        chord_key((entry[1], exit[0])),
        chord_key((exit[1], target[0])),
        chord_key((entry[0], target[1])),
    )


def find_moves(ds: DividingSet) -> list[BypassMove]:
    """Every nontrivial bypass move on ds, deterministically ordered; the
    component index keeps them, and callers read enumerate_bypasses.

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
    return sorted(set(moves), key=lambda b: (b.uv, b.ov, b.x, b.y, b.z))


def surgery(move: BypassMove) -> DividingSet:
    """The dividing set after the attachment, built from its partition; the
    component index keeps its interned instance, and callers read attach."""
    left = set(move.left_labels)
    parts = []
    for v, ls in move.source.components:
        if v == move.uv:
            parts.append(left)
            continue
        if v == move.ov:
            parts.append(set(ls) | set(move.right_labels))
            continue
        parts.append(set(ls))
    return from_partition(move.source.n, move.source.e, parts)


def _move_id(ds: DividingSet, move: BypassMove) -> tuple[Component, int]:
    if move.source != ds:
        raise InvalidMove("move does not belong to this dividing set")
    comp = component(ds.n, ds.e)
    return comp, comp.move_id(move)


def attach(ds: DividingSet, move: BypassMove) -> DividingSet:
    """The dividing set after the bypass attachment."""
    comp, m = _move_id(ds, move)
    return comp.objects[comp.target(m)]


def enumerate_bypasses(ds: DividingSet) -> tuple[BypassMove, ...]:
    """All nontrivial bypass moves on ds, deterministically ordered."""
    comp = component(ds.n, ds.e)
    return comp.moves(comp.id(ds))


@dataclass(frozen=True, slots=True)
class Triangle:
    """A bypass triangle g1 -> g2 -> g3 -> g1."""

    g1: DividingSet
    g2: DividingSet
    g3: DividingSet
    b1: BypassMove
    b2: BypassMove
    b3: BypassMove


def _next_move(comp: Component, m: int) -> int:
    """The induced bypass on the target of move m, continuing the triangle."""
    wall, p, q = _surgery(comp.move_list[m])
    return comp.move_id(move_from_chords(comp.objects[comp.target(m)], p, q, wall))


def triangle(ds: DividingSet, move: BypassMove) -> Triangle:
    comp, m1 = _move_id(ds, move)
    tri = comp.triangles.get(m1)
    if tri is None:
        m2 = _next_move(comp, m1)
        m3 = _next_move(comp, m2)
        b1, b2, b3 = (comp.move_list[m] for m in (m1, m2, m3))
        if comp.target(m3) != comp.id(b1.source):
            raise InvalidMove("triangle does not close")
        tri = Triangle(b1.source, b2.source, b3.source, b1, b2, b3)
        comp.triangles[m1] = tri
    return tri


def serre_rotate(ds: DividingSet) -> DividingSet:
    """Rotation by one positive arc: every label s becomes s-1 mod n+1."""
    n1 = ds.n + 1
    parts = [{(s - 1) % n1 for s in ls} for _, ls in ds.components]
    return component(ds.n, ds.e).intern(from_partition(ds.n, ds.e, parts))


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
    for c in region.between(c2, c3):
        owner = geo.comp_of_chord[c]
        if 0 in side_containing(ds.n, c, ds.label_at(owner, 0)):
            return 3
    for c in region.between(c3, c2):
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


def _chord_code(size: int, c1: tuple[int, int], c2: tuple[int, int], c3: tuple[int, int]) -> int:
    """One int for the chord keys (entry, exit, target) of an arc on a
    disk with `size` marked points: the key of the component's move
    tables."""
    s2 = size * size
    return ((c1[0] * size + c1[1]) * s2 + c2[0] * size + c2[1]) * s2 + c3[0] * size + c3[1]


def _move_code(move: BypassMove) -> int:
    return _chord_code(2 * move.source.n + 2, *_triple(move))


def _arc(comp: Component, m: int):
    """What a pair of arcs needs of move m, computed once per pair: its
    chord triple, the two faces it passes through with the walk slot and
    walk direction (min->max) of the chords it crosses there, the pieces
    its surgery cuts its three chords into, and its target's id."""
    move = comp.move_list[m]
    ds = move.source
    chords_uv = ds.chords(move.uv)
    i1 = (move.x - 1) % len(chords_uv)
    entry, exit = chords_uv[i1], chords_uv[move.y]
    chords_ov = ds.chords(move.ov)
    target = chords_ov[(move.z - 1) % len(chords_ov)]
    c1, c2, c3 = chord_key(entry), chord_key(exit), chord_key(target)
    wall, p, q = _new_chords(entry, exit, target)
    # left corner endpoint of each cut chord, and the new chords its left
    # and right pieces join
    pieces = {c1: (entry[1], wall, q), c2: (exit[0], wall, p), c3: (target[1], q, p)}
    pos_face = ((i1, entry[0] < entry[1], c1), (move.y, exit[0] < exit[1], c2))
    return (c1, c2, c3), move.uv, geometry(ds).neg_of_chord[c2], pos_face, pieces, comp.target(m)


def _neg_face(ds: DividingSet, region: int, cs) -> tuple:
    """(walk slot, walked min->max, chord) of the chords cs around a
    negative region."""
    size = 2 * ds.n + 2
    walk = geometry(ds).neg_regions[region].walk
    slots = {c: (i, (2 * t + 2) % size == c[0]) for i, (t, c) in enumerate(walk)}
    return tuple(slots[c] + (c,) for c in cs)


def _interleaved(face_a, face_b, order: dict) -> bool:
    """Do the two passages cross in one face, when order[c] means a's
    point on chord c comes before b's in the chord's min->max direction?"""
    ends = []
    for face, of_a in ((face_a, True), (face_b, False)):
        for i, up, c in face:
            after = c in order and ((order[c] == up) != of_a)
            ends.append((i, after, of_a))
    ends.sort()
    return ends[0][2] == ends[2][2]


def _transport(
    comp: Component, size: int, triple, pieces: dict, target: int, order: dict, move_is_a: bool
) -> "BypassMove | None":
    """Where the arc with chord triple `triple` lands after the surgery
    with `pieces` and `target`, under the given ordering: the target's
    interned move, or None when no nontrivial bypass crosses the images."""
    cs = []
    for c in triple:
        piece = pieces.get(c)
        if piece is not None:
            left_end, left_new, right_new = piece
            c = left_new if (left_end == c[0]) == (order[c] == move_is_a) else right_new
        cs.append(c)
    m = comp.move_at(target, _chord_code(size, *cs))
    return None if m is None else comp.move_list[m]


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
    """All disjoint configurations of the two arcs.

    Each arc's geometry is computed once for the pair, and a transported
    arc is found in the move table of the other arc's target.
    """
    if a.source != b.source:
        raise ComponentMismatch("moves on different dividing sets")
    if a == b:
        return []
    ds = a.source
    comp = component(ds.n, ds.e)
    triple_a, uv_a, neg_a, pos_a, pieces_a, target_a = _arc(comp, comp.move_id(a))
    triple_b, uv_b, neg_b, pos_b, pieces_b, target_b = _arc(comp, comp.move_id(b))
    faces = []
    if uv_a == uv_b:
        faces.append((pos_a, pos_b))
    if neg_a == neg_b:
        faces.append((_neg_face(ds, neg_a, triple_a[1:]), _neg_face(ds, neg_b, triple_b[1:])))
    shared = sorted(set(triple_a) & set(triple_b))
    size = 2 * ds.n + 2
    squares = []
    for bits in itertools.product((True, False), repeat=len(shared)):
        order = dict(zip(shared, bits))
        if any(_interleaved(fa, fb, order) for fa, fb in faces):
            continue
        sq = Square(
            _transport(comp, size, triple_b, pieces_a, target_a, order, move_is_a=False),
            _transport(comp, size, triple_a, pieces_b, target_b, order, move_is_a=True),
        )
        if sq not in squares:
            squares.append(sq)
    return squares
