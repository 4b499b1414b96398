import itertools

import pytest

from diskcontact import bypass, kom
from diskcontact.bypass import BypassMove, attach, enumerate_bypasses, triangle
from diskcontact.divset import STAR, DividingSet, basic_of, enumerate_objects, geometry
from diskcontact.functor import (
    F_of_morphism,
    GradedObject,
    build_F,
    canonical_grading_shift,
    chain_map_F,
    deg_F,
    deg_formula,
    gamma_chain_map,
    index_split,
    index_tuples,
    left_shuffling_vectors,
    lift_F,
    lift_morphism,
    negative_region_differential,
)
from diskcontact.homs import hom_nonzero, tight_basic

from conftest import pairs_up_to
from oracle import (
    coh_degree,
    differential_data,
    find_homotopy,
    gamma_of,
    index_image,
    negative_region_differential as ref_region_differential,
    omitted_labels,
    omitting_indices,
    position,
    split_indices,
)


def proj_list(c):
    return sorted((tuple(s.gamma.star), s.h) for s in c.summands)


def test_build_F_ex_g1(ex_g1):
    F = build_F(ex_g1)
    assert proj_list(F) == [((0, 1), -1), ((0, 2), 0)]
    assert len(F.d) == 1


def test_build_F_ex_g2(ex_g2):
    F = build_F(ex_g2)
    assert proj_list(F) == [((0, 1, 2, 4), -2), ((0, 1, 3, 4), -1), ((0, 2, 3, 4), 0)]
    assert len(F.d) == 2


def test_build_F_ex_g3(ex_g3):
    F = build_F(ex_g3)
    assert proj_list(F) == [
        ((0, 1, 3), -2),
        ((0, 1, 4), -1),
        ((0, 2, 3), -1),
        ((0, 2, 4), 0),
    ]
    assert len(F.d) == 4
    assert kom.verify_complex(F)


def test_build_F_ex_g4(ex_g4):
    F = build_F(ex_g4)
    assert proj_list(F) == [
        ((0, 1, 2), -3),
        ((0, 1, 3), -2),
        ((0, 2, 4), -1),
        ((0, 3, 4), 0),
    ]
    # the complex is a single chain
    assert len(F.d) == 3
    hs = sorted(
        (coh_degree(ex_g4, i) for i in omitting_indices(ex_g4)), reverse=True
    )
    assert hs == [3, 2, 1, 0]


def test_omitting_indices_examples(ex_g2, ex_g4):
    idxs = omitting_indices(ex_g4)
    assert len(idxs) == 4
    i11 = {(1,): 1, (1, 1): 1}
    assert i11 in idxs
    assert gamma_of(ex_g4, i11).star == (0, 1, 2)
    assert {gamma_of(ex_g2, i).star for i in omitting_indices(ex_g2)} == {
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
    }
    basic = basic_of(3, 1, {0, 2})
    assert omitting_indices(basic) == [{(1,): 0, (2,): 0}]
    assert gamma_of(basic, omitting_indices(basic)[0]) == basic


def test_coh_degree_zero_index(ex_g3, ex_g4):
    for g in (ex_g3, ex_g4):
        zero = [i for i in omitting_indices(g) if not any(i.values())]
        assert len(zero) == 1 and coh_degree(g, zero[0]) == 0
    # without nesting the degree is the sum of the entries
    for i in omitting_indices(ex_g3):
        assert coh_degree(ex_g3, i) == sum(i.values())


def test_differential_data_ex_g4(ex_g4):
    i10 = {(1,): 1, (1, 1): 0}
    moves = differential_data(ex_g4, i10)
    assert len(moves) == 1
    v, target = moves[0]
    assert v == (1,)  # shuffling vector
    assert target == {(1,): 0, (1, 1): 1}
    i11 = {(1,): 1, (1, 1): 1}
    moves = differential_data(ex_g4, i11)
    assert ((1, 1), {(1,): 1, (1, 1): 0}) in moves
    basic = basic_of(4, 2, {0, 1, 3})
    assert differential_data(basic, omitting_indices(basic)[0]) == []


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_complexes_square_to_zero(n, e):
    for g in enumerate_objects(n, e):
        assert kom.verify_complex(build_F(g))


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_negative_region_split(n, e):
    for g in enumerate_objects(n, e):
        F = build_F(g)
        total: set = set()
        parts = []
        for reg in geometry(g).neg_regions:
            p = negative_region_differential(g, reg.index)
            parts.append(p)
            total ^= p
        assert total == set(F.d)
        for p in parts:
            assert not kom._compose_entries(p, p, F, F)
        for p, q in itertools.combinations(parts, 2):
            assert kom._compose_entries(p, q, F, F) == kom._compose_entries(q, p, F, F)


def test_negative_region_differential_matches_the_per_index_reference():
    for n, e in pairs_up_to(5) + [(6, 3)]:
        for g in enumerate_objects(n, e):
            for reg in geometry(g).neg_regions:
                want = ref_region_differential(g, reg.index)
                assert negative_region_differential(g, reg.index) == want


def ex_t1_triangle(ex_g4):
    return triangle(ex_g4, BypassMove(ex_g4, (1, 1), (1,), 1, 1, 1))


def test_ex_t1_chain_maps(ex_g4):
    tri = ex_t1_triangle(ex_g4)
    f1, f2, f3 = (chain_map_F(b) for b in (tri.b1, tri.b2, tri.b3))
    assert proj_list(f1.dst) == [((0, 1, 2), -2), ((0, 1, 4), -1), ((0, 2, 4), 0)]
    assert proj_list(f2.dst) == [((0, 1, 3), -2), ((0, 1, 4), -1), ((0, 3, 4), 0)]
    assert (f1.k, f2.k, f3.k) == (1, 0, 0)

    def arrows(f):
        return sorted(
            (tuple(f.src.summands[i].gamma.star), tuple(f.dst.summands[j].gamma.star))
            for i, j in f.entries
        )

    assert arrows(f1) == [
        ((0, 1, 2), (0, 1, 2)),
        ((0, 1, 3), (0, 1, 4)),
        ((0, 2, 4), (0, 2, 4)),
    ]
    assert arrows(f2) == [
        ((0, 1, 2), (0, 1, 3)),
        ((0, 1, 4), (0, 1, 4)),
        ((0, 2, 4), (0, 3, 4)),
    ]
    assert arrows(f3) == [
        ((0, 1, 3), (0, 1, 3)),
        ((0, 1, 4), (0, 2, 4)),
        ((0, 3, 4), (0, 3, 4)),
    ]
    for f in (f1, f2, f3):
        assert kom.verify_chain_map(f)


def test_ex_t1_split_indices(ex_g4):
    tri = ex_t1_triangle(ex_g4)
    ii, si, kind, lsv, pivot = split_indices(tri.b1)
    assert kind == "Y" and lsv == () and pivot is None
    assert {gamma_of(ex_g4, i).star for i in ii} == {(0, 1, 2), (0, 2, 4)}
    assert {gamma_of(ex_g4, i).star for i in si} == {(0, 1, 3)}
    # P(3,4) is in neither
    with pytest.raises(ValueError):
        index_image(tri.b1, {(1,): 0, (1, 1): 0})


def test_ex_t2_type_z(ex_t2):
    bt2 = BypassMove(ex_t2, (1, 2), (1, 1), 1, 1, 0)
    ii, si, kind, lsv, pivot = split_indices(bt2)
    assert kind == "Z"
    assert pivot == ((1,), 1)
    assert ex_t2.labels((1,)) == (1, 5)
    assert lsv == ((1,),)
    assert {gamma_of(ex_t2, i).star for i in ii} == {(0, 1, 3), (0, 3, 5)}
    [si_idx] = si
    assert gamma_of(ex_t2, si_idx).star == (0, 1, 4)
    img = index_image(bt2, si_idx)
    assert gamma_of(attach(ex_t2, bt2), img).star == (0, 2, 5)
    tri = triangle(ex_t2, bt2)
    degs = [deg_F(b) for b in (tri.b1, tri.b2, tri.b3)]
    assert sum(degs) == 1 and degs[0] == 1


def test_ex_t1_gamma_identity(ex_g4):
    tri = ex_t1_triangle(ex_g4)
    f1, f2 = chain_map_F(tri.b1), chain_map_F(tri.b2)
    gm = gamma_chain_map(tri)
    d1 = kom.ChainMap(f1.src, f1.src, 1, f1.src.d)
    d3 = kom.ChainMap(gm.dst, gm.dst, 1, gm.dst.d)
    lhs = kom.add_maps(kom.compose(d1, gm), kom.compose(gm, d3))
    assert lhs.entries == kom.compose(f1, f2).entries


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_chain_map_law_and_degree_formula(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            f = chain_map_F(mv)  # construction asserts homogeneity
            assert kom.verify_chain_map(f)
            assert deg_formula(mv) == f.k == deg_F(mv)


def _ref_chain_map_F(move):
    """chain_map_F built one summand at a time through the oracle's
    index_image, with positions found by scanning the indices and each
    entry checked by the greedy tightness criterion."""
    src, dst = build_F(move.source), build_F(attach(move.source, move))
    ii, si = split_indices(move)[:2]
    entries = set()
    for idx in ii + si:
        i = position(move.source, idx)
        j = position(attach(move.source, move), index_image(move, idx))
        assert tight_basic(src.summands[i].gamma, dst.summands[j].gamma)
        entries.add((i, j))
    [k] = {dst.summands[j].h - src.summands[i].h for i, j in entries}
    return kom.ChainMap(src, dst, k, frozenset(entries))


def test_chain_map_F_matches_the_per_index_reference():
    for n, e in pairs_up_to(5) + [(6, 3)]:
        for g in enumerate_objects(n, e):
            for mv in enumerate_bypasses(g):
                assert chain_map_F(mv) == _ref_chain_map_F(mv)


def test_index_split_matches_the_per_index_reference():
    for n, e in pairs_up_to(5) + [(6, 3)]:
        for g in enumerate_objects(n, e):
            every = list(enumerate(index_tuples(g)))
            for mv in enumerate_bypasses(g):
                identity, fixed = index_split(mv)
                ii = {p for p, t in every if identity(t)}
                si = {p for p, t in every if fixed and all(t[c] == x for c, x in fixed.items())} - ii
                ref_ii, ref_si = split_indices(mv)[:2]
                assert ii == {position(g, idx) for idx in ref_ii}
                assert si == {position(g, idx) for idx in ref_si}


def _ref_gamma_chain_map(tri):
    """gamma_chain_map one summand at a time: each index of g1 outside the
    identity indices of b1 goes to the index of g3 omitting the same
    labels, found by scanning g3's indices."""
    src, dst = build_F(tri.g1), build_F(tri.g3)
    ii = split_indices(tri.b1)[0]
    targets = omitting_indices(tri.g3)
    entries = set()
    for i, idx in enumerate(omitting_indices(tri.g1)):
        if idx in ii:
            continue
        omitted = omitted_labels(tri.g1, idx)
        [j] = [j for j, jdx in enumerate(targets) if omitted_labels(tri.g3, jdx) == omitted]
        entries.add((i, j))
    degs = {dst.summands[j].h - src.summands[i].h for i, j in entries}
    assert len(degs) <= 1
    return kom.ChainMap(src, dst, degs.pop() if degs else 0, frozenset(entries))


@pytest.mark.parametrize("n,e", pairs_up_to(5) + [(6, 3)])
def test_gamma_chain_map_matches_the_per_index_reference(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            tri = triangle(g, mv)
            assert gamma_chain_map(tri) == _ref_gamma_chain_map(tri)


@pytest.mark.parametrize("n,e", pairs_up_to(5) + [(6, 3)])
def test_f_data_matches_the_per_index_references(n, e):
    for g in enumerate_objects(n, e):
        F = build_F(g)
        ref = omitting_indices(g)
        assert [dict(zip(g.tpv, t)) for t in index_tuples(g)] == ref
        assert F.summands == tuple(kom.ProjSummand(gamma_of(g, idx), -coh_degree(g, idx)) for idx in ref)
        d = {(ref.index(idx), ref.index(jdx)) for idx in ref for _, jdx in differential_data(g, idx)}
        assert F.d == d


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_triangle_degree_sums_and_gamma(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            tri = triangle(g, mv)
            f1, f2, f3 = (chain_map_F(b) for b in (tri.b1, tri.b2, tri.b3))
            assert f1.k + f2.k + f3.k == 1
            gm = gamma_chain_map(tri)
            d1 = kom.ChainMap(f1.src, f1.src, 1, f1.src.d)
            d3 = kom.ChainMap(gm.dst, gm.dst, 1, gm.dst.d)
            lhs = kom.add_maps(kom.compose(d1, gm), kom.compose(gm, d3))
            assert lhs.entries == kom.compose(f1, f2).entries


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_triangles_are_distinguished(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            tri = triangle(g, mv)
            f1, f2 = chain_map_F(tri.b1), chain_map_F(tri.b2)
            assert kom.is_nullhomotopic(kom.compose(f1, f2))
            cn = kom.cone(lift_morphism(tri.b1, 0))
            target = kom.shift(build_F(tri.g3), f1.k + f2.k)
            assert kom.equivalent(cn, target)


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_disjoint_pairs_commute_up_to_homotopy(n, e):
    for g in enumerate_objects(n, e):
        moves = enumerate_bypasses(g)
        for a, b in itertools.combinations(moves, 2):
            for sq in bypass.commuting_squares(a, b):
                fa, fb = chain_map_F(a), chain_map_F(b)
                if sq.after_a and sq.after_b:
                    lhs = kom.compose(fa, chain_map_F(sq.after_a))
                    rhs = kom.compose(fb, chain_map_F(sq.after_b))
                    assert find_homotopy(lhs, rhs) is not None
                elif sq.after_a and attach(attach(g, a), sq.after_a) == attach(g, b):
                    lhs = kom.compose(fa, chain_map_F(sq.after_a))
                    assert find_homotopy(lhs, fb) is not None
                elif sq.after_b and attach(attach(g, b), sq.after_b) == attach(g, a):
                    lhs = kom.compose(fb, chain_map_F(sq.after_b))
                    assert find_homotopy(lhs, fa) is not None


def test_ex_h_homotopy(ex_t2):
    targets = {
        "g0": DividingSet.make(5, 2, {STAR: (0,), (1,): (1,), (2,): (2,), (3,): (3, 4, 5)}),
        "g1": DividingSet.make(5, 2, {STAR: (0,), (1,): (1, 5), (1, 1): (2, 3), (1, 2): (4,)}),
        "joint": DividingSet.make(5, 2, {STAR: (0,), (1,): (1,), (2,): (2, 3), (3,): (4, 5)}),
    }
    moves = enumerate_bypasses(ex_t2)
    b0 = next(m for m in moves if attach(ex_t2, m) == targets["g0"])
    b1 = next(m for m in moves if attach(ex_t2, m) == targets["g1"])
    [sq] = [s for s in bypass.commuting_squares(b0, b1) if s.after_a and s.after_b]
    assert attach(attach(ex_t2, b0), sq.after_a) == targets["joint"]
    lhs = kom.compose(chain_map_F(b0), chain_map_F(sq.after_a))
    rhs = kom.compose(chain_map_F(b1), chain_map_F(sq.after_b))
    assert find_homotopy(lhs, rhs) is not None
    # the single stated entry P(1,4) -> P(2,4) is itself a valid homotopy
    src, dst = lhs.src, lhs.dst
    i = next(i for i, s in enumerate(src.summands) if s.gamma.star == (0, 1, 4))
    j = next(j for j, s in enumerate(dst.summands) if s.gamma.star == (0, 2, 4))
    dh = kom._compose_entries({(i, j)}, dst.d, src, dst) ^ kom._compose_entries(
        src.d, {(i, j)}, src, dst
    )
    assert dh == (lhs.entries ^ rhs.entries)


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_F_of_morphism_well_defined(n, e):
    objs = enumerate_objects(n, e)
    for g, g2 in itertools.product(objs, repeat=2):
        f = F_of_morphism(g, g2)
        assert kom.verify_chain_map(f)
        if g == g2:
            assert f.entries == {(i, i) for i in range(f.src.size)}
        elif hom_nonzero(g, g2):
            assert not kom.is_nullhomotopic(f)
        else:
            assert not f.entries


def test_F_of_morphism_on_basics():
    g = basic_of(4, 2, {0, 1, 3})
    g2 = basic_of(4, 2, {0, 2, 4})
    f = F_of_morphism(g, g2)
    assert f.k == 0 and f.entries == {(0, 0)}


def test_lifts_and_gradings(ex_g4):
    for mv in enumerate_bypasses(ex_g4):
        c = canonical_grading_shift(mv)
        assert c == deg_F(mv)
        lifted = lift_morphism(mv, 3)
        assert lifted.k == 0
        assert lifted.src == lift_F(GradedObject(ex_g4, 3))
        assert lifted.dst == lift_F(GradedObject(attach(ex_g4, mv), 3 + c))
    # canonical bypasses and quiver arrows sit at grading shift zero
    assert canonical_grading_shift(bypass.obar(ex_g4)[1]) == 0
    g = basic_of(4, 2, {0, 1, 3})
    for mv in enumerate_bypasses(g):
        if attach(g, mv).is_basic():
            assert canonical_grading_shift(mv) == 0


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_lifted_triangle_grading_increases_by_one(n, e):
    for g in enumerate_objects(n, e):
        for mv in enumerate_bypasses(g):
            tri = triangle(g, mv)
            total = sum(canonical_grading_shift(b) for b in (tri.b1, tri.b2, tri.b3))
            assert total == 1


def test_all_shuffling_types_occur():
    # bypasses of type Y and Z and of neither type all occur by n = 5, and
    # typeless bypasses carry no shuffling indices
    seen = set()
    for n, e in pairs_up_to(5):
        for g in enumerate_objects(n, e):
            for mv in enumerate_bypasses(g):
                _, si, kind, _, _ = split_indices(mv)
                seen.add(kind)
                if kind == "none":
                    assert not si
    assert seen == {"Y", "Z", "none"}


def test_left_shuffling_vectors_example(ex_t2):
    bt2 = BypassMove(ex_t2, (1, 2), (1, 1), 1, 1, 0)
    assert left_shuffling_vectors(bt2) == ((1,),)
