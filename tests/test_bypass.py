import itertools
from collections import deque

import pytest

from diskcontact import bypass, homs
from diskcontact.bypass import (
    BypassMove,
    Square,
    attach,
    canonical_bypass,
    commuting_squares,
    enumerate_bypasses,
    move_from_chords,
    obar,
    serre_rotate,
    triangle,
    validate_move,
    zero_region,
)
from diskcontact.divset import (
    STAR,
    DividingSet,
    _negative_face,
    basic_of,
    chord_key,
    enumerate_objects,
    negative_faces,
    to_matching,
    validate,
)
from diskcontact.errors import ComponentMismatch, InvalidMove, IsBasic
from diskcontact.homs import component, hom_nonzero

import oracle
from conftest import pairs_up_to


def m_invariant(ds: DividingSet) -> int:
    """Distance from basic: e + 1 - |based component|."""
    return ds.e + 1 - len(ds.star)


def test_unique_bypass_on_ex_g1(ex_g1):
    moves = enumerate_bypasses(ex_g1)
    assert len(moves) == 1
    assert attach(ex_g1, moves[0]) == basic_of(2, 1, {0, 1})


def test_ex_g1_triangle(ex_g1):
    tri = triangle(ex_g1, enumerate_bypasses(ex_g1)[0])
    assert tri.g2 == basic_of(2, 1, {0, 1})
    assert tri.g3 == basic_of(2, 1, {0, 2})
    assert attach(tri.g3, tri.b3) == ex_g1


def test_canonical_bypass_examples(ex_g2, ex_g3, ex_g4):
    assert attach(ex_g2, canonical_bypass(ex_g2)) == DividingSet.make(
        4, 3, {STAR: (0, 1, 4), (1,): (2, 3)}
    )
    assert attach(ex_g3, canonical_bypass(ex_g3)) == DividingSet.make(
        4, 2, {STAR: (0, 1), (1,): (2,), (2,): (3, 4)}
    )
    tri = triangle(ex_g4, canonical_bypass(ex_g4))
    assert tri.g2 == DividingSet.make(4, 2, {STAR: (0, 1), (1,): (2, 3), (2,): (4,)})
    assert tri.g3 == DividingSet.make(4, 2, {STAR: (0, 4), (1,): (1,), (2,): (2, 3)})


def test_canonical_bypass_requires_nonbasic():
    with pytest.raises(IsBasic):
        canonical_bypass(basic_of(3, 1, {0, 2}))


def test_quiver_arrow_is_an_attach():
    g = basic_of(3, 1, {0, 1})
    g2 = basic_of(3, 1, {0, 2})
    hits = [mv for mv in enumerate_bypasses(g) if attach(g, mv) == g2]
    assert len(hits) == 1
    mv = hits[0]
    assert mv.uv == STAR and mv.left_labels == (1,)


def test_invalid_moves_rejected(ex_g4):
    with pytest.raises(InvalidMove):
        validate_move(BypassMove(ex_g4, (1,), (1,), 0, 1, 0))  # uv == ov
    with pytest.raises(InvalidMove):
        validate_move(BypassMove(ex_g4, (1, 1), (1,), 2, 1, 1))  # x out of range
    with pytest.raises(InvalidMove):
        validate_move(BypassMove(ex_g4, (1, 1), (1,), 0, 1, 1))  # entry == exit chord
    with pytest.raises(InvalidMove):
        # the gap chord of (1,1) does not border the based component's region
        validate_move(BypassMove(ex_g4, (1, 1), STAR, 0, 0, 0))


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_attach_valid_and_tight(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            out = attach(g, mv)
            assert validate(out).ok
            assert (out.n, out.e) == (n, e)
            assert out != g
            assert hom_nonzero(g, out)


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_find_moves_matches_the_validating_oracle(n, e):
    for g in enumerate_objects(n, e):
        moves = bypass.find_moves(g)
        assert moves == oracle.find_moves(g)
        for mv in moves:
            validate_move(mv)


@pytest.mark.parametrize("n,e", pairs_up_to(7))
def test_negative_faces_are_the_reference_faces_and_validate_exactly_the_moves(n, e):
    # the walk on the matching lists the faces of the per-object geometry,
    # in its order and cyclic chord order; the face through any of its
    # points is that face, walked from there; and validate_move accepts
    # every (uv, ov, x, y, z) the oracle builds and no other
    for g in enumerate_objects(n, e):
        m = to_matching(g)
        faces = negative_faces(m)
        reference = oracle._faces(g).neg_regions
        assert [[chord_key((q, m[q])) for q in f] for f in faces] == [list(r.chords) for r in reference]
        for f in faces:
            for k, q in enumerate(f):
                assert _negative_face(m, q) == f[k:] + f[:k]
        accepted = set()
        for (uv, u_labels), (ov, o_labels) in itertools.permutations(g.components, 2):
            for x, y, z in itertools.product(range(len(u_labels)), range(len(u_labels)), range(len(o_labels))):
                move = BypassMove(g, uv, ov, x, y, z)
                try:
                    validate_move(move)
                except InvalidMove:
                    continue
                accepted.add(move)
        assert accepted == set(oracle.find_moves(g))


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_enumerate_bypasses_unique_no_duplicates(n, e):
    for g in enumerate_objects(n, e):
        moves = enumerate_bypasses(g)
        assert len(set(moves)) == len(moves)


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_triangles_close_and_rotate_regions(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            tri = triangle(g, mv)
            assert attach(tri.g1, tri.b1) == tri.g2
            assert attach(tri.g2, tri.b2) == tri.g3
            assert attach(tri.g3, tri.b3) == tri.g1
            zs = [zero_region(b) for b in (tri.b1, tri.b2, tri.b3)]
            assert zs[1] == (zs[0] + 1) % 6 + 1
            assert zs[2] == (zs[1] + 1) % 6 + 1


def test_zero_region_examples(ex_g4):
    # the (ex t1) starting bypass has label 0 beyond the target chord
    bt1 = BypassMove(ex_g4, (1, 1), (1,), 1, 1, 1)
    assert zero_region(bt1) == 4
    # canonical bypasses carry label 0 in the left part of uv
    for n, e in pairs_up_to(4):
        for g in enumerate_objects(n, e):
            if g.is_basic():
                continue
            g3, b3 = obar(g)
            assert 0 in b3.left_labels
            assert zero_region(b3) == 2


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_zero_region_matches_the_chord_side_reference(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            assert zero_region(mv) == oracle.zero_region(mv), mv


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_obar_decreases_m(n, e):
    for g in enumerate_objects(n, e):
        if g.is_basic():
            continue
        tri = triangle(g, canonical_bypass(g))
        assert m_invariant(tri.g2) < m_invariant(g)
        assert m_invariant(tri.g3) < m_invariant(g)
        g3, b3 = obar(g)
        assert g3 == tri.g3 and attach(g3, b3) == g


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_serre_rotation_order_and_sample(n, e):
    if (n, e) == (2, 1):
        assert serre_rotate(basic_of(2, 1, {0, 1})) == basic_of(2, 1, {0, 2})
    for g in enumerate_objects(n, e):
        cur = g
        for _ in range(n + 1):
            cur = serre_rotate(cur)
        assert cur == g


@pytest.mark.parametrize("n,e", pairs_up_to(7))
def test_serre_rotate_matches_the_partition_oracle(n, e):
    comp = component(n, e)
    for g in enumerate_objects(n, e):
        assert serre_rotate(g) is comp.intern(oracle.serre_rotate(g))


@pytest.mark.parametrize("n,e", pairs_up_to(6) + [(7, 3)])
def test_attach_matches_the_partition_surgery_oracle(n, e):
    comp = component(n, e)
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            assert attach(g, mv) is comp.intern(oracle.surgery(mv))


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_target_matchings_are_the_successor_targets(n, e):
    comp = component(n, e)
    for i in comp.ids():
        want = sorted(comp.matchings[t] for t, _ in comp.successors(i))
        assert sorted(bypass.target_matchings(comp.matchings[i])) == want


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_reachability_of_nonzero_homs(n, e):
    objs = enumerate_objects(n, e)
    graph = {g: {attach(g, mv) for mv in enumerate_bypasses(g)} for g in objs}
    for g in objs:
        seen = {g}
        queue = deque([g])
        while queue:
            cur = queue.popleft()
            for t in graph[cur]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        for t in objs:
            if hom_nonzero(g, t):
                assert t in seen


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_bypass_graph_connected(n, e):
    objs = enumerate_objects(n, e)
    und: dict = {g: set() for g in objs}
    for g in objs:
        for mv in enumerate_bypasses(g):
            t = attach(g, mv)
            und[g].add(t)
            und[t].add(g)
    seen = {objs[0]}
    queue = deque([objs[0]])
    while queue:
        cur = queue.popleft()
        for t in und[cur]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    assert len(seen) == len(objs)


def test_octahedron():
    objs = enumerate_objects(3, 1)
    assert len(objs) == 6
    und: dict = {g: set() for g in objs}
    for g in objs:
        for mv in enumerate_bypasses(g):
            t = attach(g, mv)
            und[g].add(t)
            und[t].add(g)
    assert all(len(v) == 4 for v in und.values())
    # the three antipodal pairs are the non-neighbors
    antipodes = {g: [t for t in objs if t != g and t not in und[g]] for g in objs}
    assert all(len(v) == 1 for v in antipodes.values())


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_far_commutativity(n, e):
    for g in enumerate_objects(n, e):
        moves = enumerate_bypasses(g)
        for a, b in itertools.combinations(moves, 2):
            for sq in commuting_squares(a, b):
                if sq.after_a and sq.after_b:
                    assert attach(attach(g, a), sq.after_a) == attach(
                        attach(g, b), sq.after_b
                    )


def test_commuting_squares_mismatched_sources(ex_g1, ex_g4):
    with pytest.raises(ComponentMismatch):
        commuting_squares(
            enumerate_bypasses(ex_g1)[0], enumerate_bypasses(ex_g4)[0]
        )


# Reference commuting squares: every face passage and transport rebuilt
# from the moves' chords, and a transported arc found by move_from_chords
# and validate_move, which raise InvalidMove where the library's
# move-table lookup misses.


def _ref_triple(move):
    return tuple(chord_key(c) for c in move.chords)


def _ref_segments(move):
    geo = oracle.geometry(move.source)
    c1, c2, c3 = _ref_triple(move)
    return [(("pos", move.uv), c1, c2), (("neg", geo.neg_of_chord[c2]), c2, c3)]


def _ref_face_slots(ds, face):
    kind, which = face
    if kind == "pos":
        return [(chord_key(c), c[0] < c[1]) for c in ds.chords(which)]
    size = 2 * ds.n + 2
    return [(c, (2 * t + 2) % size == c[0]) for t, c in oracle.geometry(ds).neg_regions[which].walk]


def _ref_no_crossing(a, b, order):
    for face_a, in_a, out_a in _ref_segments(a):
        for face_b, in_b, out_b in _ref_segments(b):
            if face_a != face_b:
                continue
            slots = _ref_face_slots(a.source, face_a)
            chords = [c for c, _ in slots]

            def posn(c, of_a):
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
            if [t for _, t in cyc] in (["a", "b", "a", "b"], ["b", "a", "b", "a"]):
                return False
    return True


def _ref_images(move, surg, order, move_is_a):
    """The chords `move` crosses after attaching `surg`."""
    (e_from, e_to), (x_from, x_to), (t_from, t_to) = surg.chords
    wall = chord_key((e_to, x_from))
    p = chord_key((x_to, t_from))
    q = chord_key((e_from, t_to))
    sc1, sc2, sc3 = _ref_triple(surg)
    pieces = {sc1: (e_to, wall, q), sc2: (x_from, wall, p), sc3: (t_to, q, p)}

    def image(c):
        if c not in pieces:
            return c
        left_end, left_new, right_new = pieces[c]
        on_left = (left_end == c[0]) == (order[c] == move_is_a)
        return left_new if on_left else right_new

    return tuple(image(c) for c in _ref_triple(move))


def _ref_commuting_squares(a, b, lookups):
    """commuting_squares by the reference path; appends (target, image
    chords, transported move or None) to `lookups` for every transport."""
    if a == b:
        return []
    comp = component(a.source.n, a.source.e)
    shared = sorted(set(_ref_triple(a)) & set(_ref_triple(b)))
    squares = []
    for bits in itertools.product((True, False), repeat=len(shared)):
        order = dict(zip(shared, bits))
        if not _ref_no_crossing(a, b, order):
            continue
        sides = []
        for move, surg, move_is_a in ((b, a, False), (a, b, True)):
            target = attach(surg.source, surg)
            chords = _ref_images(move, surg, order, move_is_a)
            try:
                moved = move_from_chords(target, *chords)
                validate_move(moved)
            except InvalidMove:
                sides.append(None)
            else:
                sides.append(comp.move_list[comp.move_id(moved)])
            lookups.append((target, chords, sides[-1]))
        sq = Square(*sides)
        if sq not in squares:
            squares.append(sq)
    return squares


ORACLE_COMPONENTS = pairs_up_to(5) + [(6, 3)]


@pytest.mark.parametrize("n,e", ORACLE_COMPONENTS)
def test_commuting_squares_match_the_move_from_chords_reference(n, e):
    for g in enumerate_objects(n, e):
        moves = enumerate_bypasses(g)
        for a, b in itertools.product(moves, repeat=2):
            got = commuting_squares(a, b)
            want = _ref_commuting_squares(a, b, [])
            assert got == want
            for sq, ref in zip(got, want):
                assert sq.after_a is ref.after_a and sq.after_b is ref.after_b


@pytest.mark.parametrize("n,e", ORACLE_COMPONENTS)
def test_move_table_misses_exactly_where_move_from_chords_raises(n, e):
    comp = component(n, e)
    size = 2 * n + 2
    lookups = []
    for g in enumerate_objects(n, e):
        for a, b in itertools.combinations(enumerate_bypasses(g), 2):
            _ref_commuting_squares(a, b, lookups)
    # both outcomes occur wherever a pair has a disjoint configuration
    assert {t is None for *_, t in lookups} == ({True, False} if lookups else set())
    for target, chords, moved in lookups:
        m = comp.move_at(comp.id(target), bypass._chord_code(size, *chords))
        if moved is None:
            assert m is None
        else:
            assert comp.move_list[m] is moved


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_next_move_reads_the_move_table_like_move_from_chords(n, e):
    comp = component(n, e)
    for i in comp.ids():
        for mv in comp.moves(i):
            m = comp.move_id(mv)
            t = comp.target(m)
            wall, p, q = bypass._surgery(*mv.chords)
            want = comp.move_id(move_from_chords(comp.objects[t], p, q, wall))
            comp.moves(t)
            assert bypass._next_move(comp, m) == want


def test_point_triangle_fills_no_move_table():
    homs.component.cache_clear()
    try:
        g = DividingSet.make(
            8, 4, {STAR: (0, 1, 7), (1,): (2, 6), (1, 1): (3, 5), (1, 1, 1): (4,), (2,): (8,)}
        )
        tri = triangle(g, canonical_bypass(g))
        comp = component(8, 4)
        assert attach(tri.g3, tri.b3) is comp.intern(g)
        assert not comp._moves and not comp._move_table
    finally:
        homs.component.cache_clear()
