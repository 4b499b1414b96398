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

Every face fact here is read off the matching: a negative face is a
cycle of the walk `divset.negative_faces` (one face,
`divset._negative_face`), and nothing about faces is kept.  Over that
walk `_configurations` yields the (entry, exit, target) chords of every
nontrivial bypass: `target_matchings` re-pairs their endpoints, and
`find_moves` reads them through `divset.chord_slots` as
`move_from_chords` does, with no validation.  `BypassMove.chords` is the
one reading of (x, y, z) as chords; `validate_move` checks moves from
outside, in `Component.move_id` on a move it has not seen and at the
CLI, by walking the one negative face through the exit chord.
`canonical_bypass` and `commuting_squares` walk one face each too.

Moves, their targets and triangles are kept by the component index
(homs.Component): each object's moves are enumerated once, and
`enumerate_bypasses`, `attach`, `triangle`, `serre_rotate` and
`commuting_squares` return the component's interned moves and objects.
A target is the source's matching with the endpoints of those three
chords re-paired (`surgery`), and a rotation moves every point p to p-2
(`serre_rotate`, which reads `Component.rotate`); both are looked up by
matching.  `commuting_squares` finds a transported arc by its chords in
the target's move table.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .divset import (
    DividingSet,
    NestVector,
    _negative_face,
    chord_key,
    chord_slots,
    Matching,
    negative_faces,
    to_matching,
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

    @property
    def chords(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """The oriented (entry, exit, target) chords, in walk direction:
        chord[x-1] and chord[y] of uv, chord[z-1] of ov (slot -1 is l)."""
        uv, ov = self.source.chords(self.uv), self.source.chords(self.ov)
        return uv[self.x - 1], uv[self.y], ov[self.z - 1]


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
    _, exit, target = move.chords
    # each chord is oriented (odd, even), and its even end names its negative face
    if target[1] not in _negative_face(to_matching(ds), exit[1]):
        raise InvalidMove("exit and target chords do not bound a common negative region")


def move_from_chords(
    ds: DividingSet,
    entry: tuple[int, int],
    exit: tuple[int, int],
    target: tuple[int, int],
) -> BypassMove:
    """The move whose attaching arc crosses the three given chords.

    It is not validated: Component.move_id validates a move it has not
    seen, so a caller that looks the move up checks it once.
    """
    return _read_move(ds, chord_slots(ds), entry, exit, target)


def _read_move(ds: DividingSet, slots: dict, entry, exit, target) -> BypassMove:
    """The move of the oriented chords through their `chord_slots`: y is
    the exit's slot, x = a + 1 for the entry's slot a, and z = c + 1 for
    the target's slot c."""
    uv, a = slots[chord_key(entry)]
    exit_uv, y = slots[chord_key(exit)]
    if exit_uv != uv:
        raise InvalidMove("entry and exit chords bound different components")
    ov, c = slots[chord_key(target)]
    return BypassMove(ds, uv, ov, (a + 1) % (ds.l(uv) + 1), y, (c + 1) % (ds.l(ov) + 1))


def _surgery(entry, exit, target) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """New chord keys (wall, p, q) replacing the oriented entry, exit and
    target chords of a move (`BypassMove.chords`)."""
    return (
        chord_key((entry[1], exit[0])),
        chord_key((exit[1], target[0])),
        chord_key((entry[0], target[1])),
    )


def find_moves(ds: DividingSet) -> list[BypassMove]:
    """Every nontrivial bypass move on ds, deterministically ordered; the
    component index keeps them, and callers read enumerate_bypasses.
    Distinct configurations of ds's matching give distinct moves, all
    valid, so none is checked."""
    slots = chord_slots(ds)
    moves = [_read_move(ds, slots, *chords) for chords in _configurations(to_matching(ds))]
    return sorted(moves, key=lambda b: (b.uv, b.ov, b.x, b.y, b.z))


def surgery(move: BypassMove, m: Matching) -> Matching:
    """The source's matching m with the entry, exit and target chords
    re-paired as (wall, p, q); callers read attach."""
    return _repaired(m, *move.chords)


def _repaired(m: Matching, entry, exit, target) -> Matching:
    out = list(m)
    for a, b in _surgery(entry, exit, target):
        out[a], out[b] = b, a
    return tuple(out)


def _configurations(m: Matching) -> Iterator[tuple[tuple[int, int], ...]]:
    """The oriented (entry, exit, target) chords of every nontrivial bypass
    on the crossingless matching m, read off m's faces.

    A negative face is a cycle of even points q -> m[q]+1
    (`divset.negative_faces`), and the positive face of an odd point p
    the cycle p -> m[p]+1; a chord is named by its odd endpoint p and
    oriented (p, m[p]), as `BypassMove.chords` orients it.  A move takes
    an ordered pair of distinct chords (exit, target) of one negative face
    and any other chord a of the exit's positive face as the entry.
    Distinct chords of one negative face bound distinct positive
    components, so uv != ov.
    """
    for face in negative_faces(m):
        for q in face:
            b = m[q]
            entries = []
            a = q + 1
            while a != b:
                entries.append((a, m[a]))
                a = m[a] + 1
            exit = (b, q)
            for r in face:
                if r != q:
                    target = (m[r], r)
                    for entry in entries:
                        yield entry, exit, target


def target_matchings(m: Matching) -> list[Matching]:
    """The target matching of every nontrivial bypass on the crossingless
    matching m, without decoding it: the surgery of each of its
    configurations, so as a multiset the targets of find_moves on the
    dividing set of m."""
    return [_repaired(m, *chords) for chords in _configurations(m)]


def _move_id(ds: DividingSet, move: BypassMove) -> tuple[Component, int]:
    if move.source != ds:
        raise InvalidMove("move does not belong to this dividing set")
    comp = component(ds.n, ds.e)
    return comp, comp.move_id(move)


def attach(ds: DividingSet, move: BypassMove) -> DividingSet:
    """The dividing set after the bypass attachment, found by its matching."""
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
    """The induced bypass on the target of move m, continuing the triangle.

    Read from the target's move table when its moves are enumerated;
    otherwise built from the chords, so a point query fills no table.
    """
    wall, p, q = _surgery(*comp.move_list[m].chords)
    t = comp.target(m)
    if t in comp._moves:
        nxt = comp.move_at(t, _chord_code(2 * comp.n + 2, p, q, wall))
        if nxt is None:
            raise InvalidMove("no nontrivial bypass continues the triangle")
        return nxt
    return comp.move_id(move_from_chords(comp.objects[t], p, q, wall))


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
    """Rotation by one positive arc: every label s becomes s-1 mod n+1
    (`homs.Component.rotate`)."""
    comp = component(ds.n, ds.e)
    return comp.objects[comp.rotate(comp.id(ds))]


def canonical_bypass(ds: DividingSet) -> BypassMove:
    """The leftmost bypass whose arc runs from the based component into the
    first non-boundary-parallel top-level component."""
    if ds.is_basic():
        raise IsBasic("dividing set is basic")
    uv = (min(v[0] for v in ds.vnb if len(v) == 1),)
    chords = ds.chords(uv)
    m = to_matching(ds)
    # on the negative face through the even end of uv's outer chord, the
    # chord (m[q], q) of the based component: q/2 is one of its labels
    (q,) = [q for q in _negative_face(m, chords[-1][1]) if q // 2 in ds.star]
    return move_from_chords(ds, chords[0], chords[-1], (m[q], q))


def obar(ds: DividingSet) -> tuple[DividingSet, BypassMove]:
    """Third vertex and third edge of the canonical triangle, mapping into ds."""
    tri = triangle(ds, canonical_bypass(ds))
    return tri.g3, tri.b3


def zero_region(move: BypassMove) -> int:
    """Index in 1..6 of the region of the attaching-arc figure holding label 0.

    The attaching arc and the three chords it meets cut the disk into six
    regions, numbered clockwise from the one beyond the entry chord:
    1 beyond the entry chord; 2/6 left/right of the arc on the uv side of
    the exit chord; 3/5 left/right on the negative-region side; 4 beyond
    the target chord.

    The arc never touches the boundary, so each region meets it in exactly
    one of the six intervals cut by the chords' six distinct endpoints, in
    the same clockwise order; region 1's runs from the entry chord's first
    endpoint to its second.  Label 0's positive arc, from point 0 to point
    1, lies in the interval starting at point 0 when 0 is an endpoint, and
    otherwise in the one that wraps around.
    """
    chords = move.chords
    ends = sorted(p for c in chords for p in c)
    zero = 0 if ends[0] == 0 else 5
    return (zero - ends.index(chords[0][0])) % 6 + 1


# ---------------------------------------------------------------------------
# disjointness of pairs of moves
#
# Two attaching arcs can be drawn disjointly when, in every face both of
# them cross, their segments do not interleave around the face boundary.
# Arcs may meet the same chord at different points; the order of those
# points along each shared chord is a free binary choice, and each
# non-crossing choice gives a commuting square of attachments (the chord
# pieces created by one surgery tell where the other arc now runs).


def _chord_code(size: int, c1: tuple[int, int], c2: tuple[int, int], c3: tuple[int, int]) -> int:
    """One int for the chord keys (entry, exit, target) of an arc on a
    disk with `size` marked points: the key of the component's move
    tables."""
    s2 = size * size
    return ((c1[0] * size + c1[1]) * s2 + c2[0] * size + c2[1]) * s2 + c3[0] * size + c3[1]


def _move_code(move: BypassMove) -> int:
    return _chord_code(2 * move.source.n + 2, *(chord_key(c) for c in move.chords))


def _arc(comp: Component, m: int):
    """What a pair of arcs needs of move m, computed once per pair: its
    chord triple, its crossings in the two faces it passes through (keyed
    by face: uv's by uv, the negative face's by its smallest even point),
    the pieces its surgery cuts its three chords into, and its target's
    id.

    A crossing is (the point where the face's walk enters the chord,
    walked min->max, chord key).  A face's walk meets its chords in the
    clockwise order of those entry points, so they order the crossings
    around the face.  uv's walk enters a chord at its first endpoint; the
    negative region, uv's and ov's neighbour across the exit and target
    chords, walks each of them backwards.
    """
    move = comp.move_list[m]
    entry, exit, target = move.chords
    c1, c2, c3 = chord_key(entry), chord_key(exit), chord_key(target)
    wall, p, q = _surgery(entry, exit, target)
    # left corner endpoint of each cut chord, and the new chords its left
    # and right pieces join
    pieces = {c1: (entry[1], wall, q), c2: (exit[0], wall, p), c3: (target[1], q, p)}
    neg = min(_negative_face(to_matching(move.source), exit[1]))
    faces = {
        ("pos", move.uv): ((entry[0], entry[0] < entry[1], c1), (exit[0], exit[0] < exit[1], c2)),
        ("neg", neg): ((exit[1], exit[1] < exit[0], c2), (target[1], target[1] < target[0], c3)),
    }
    return (c1, c2, c3), faces, pieces, comp.target(m)


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

    Each arc's chords, face crossings and surgery pieces are read once
    for the pair, the negative face's by walking that one face on the
    matching, and a transported arc is found in the move table of the
    other arc's target.
    """
    if a.source != b.source:
        raise ComponentMismatch("moves on different dividing sets")
    if a == b:
        return []
    ds = a.source
    comp = component(ds.n, ds.e)
    triple_a, faces_a, pieces_a, target_a = _arc(comp, comp.move_id(a))
    triple_b, faces_b, pieces_b, target_b = _arc(comp, comp.move_id(b))
    faces = [(fa, faces_b[face]) for face, fa in faces_a.items() if face in faces_b]
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
