"""Acceptance gate: exhaustive verification at desk scale.

Every criterion is exact (GF(2) computations, integer counts); each test
prints one summary line.  Stated scale bounds: combinatorial identities
exhaustive through n = 5 (enumeration oracles through n = 6), homotopy
level statements through n = 4, rotation-functor commutation through
n = 3 with the Calabi-Yau power through n = 4.
"""

import itertools
import time
from math import comb

from diskcontact import bypass, functor, homs, kom
from diskcontact.divset import (
    STAR,
    DividingSet,
    basic_of,
    basic_sets,
    enumerate_objects,
)
from diskcontact.suites import brute_force_counts

from conftest import pairs_up_to
import oracle


def report(name, t0, detail=""):
    print(f"ACCEPTANCE PASS {name} ({time.time() - t0:.1f}s) {detail}")


def test_criterion_1_counts():
    t0 = time.time()
    assert sum(len(enumerate_objects(2, e)) for e in range(3)) == 5
    assert len(enumerate_objects(2, 1)) == 3
    assert len(enumerate_objects(3, 1)) == 6
    for n in range(9):
        for e in range(n + 1):
            assert len(basic_sets(n, e)) == comb(n, e)
    assert time.time() - t0 < 1.0
    report("criterion 1 (object and basic counts)", t0)


def test_criterion_2_worked_complexes(ex_g1, ex_g2, ex_g3, ex_g4):
    t0 = time.time()

    def shape(c):
        return sorted((tuple(s.gamma.star), s.h) for s in c.summands)

    def arrows(c):
        return sorted(
            (tuple(c.summands[i].gamma.star), tuple(c.summands[j].gamma.star))
            for i, j in c.d
        )

    F = functor.build_F(ex_g1)
    assert shape(F) == [((0, 1), -1), ((0, 2), 0)]
    assert arrows(F) == [((0, 1), (0, 2))]

    F = functor.build_F(ex_g2)
    assert shape(F) == [((0, 1, 2, 4), -2), ((0, 1, 3, 4), -1), ((0, 2, 3, 4), 0)]
    assert arrows(F) == [
        ((0, 1, 2, 4), (0, 1, 3, 4)),
        ((0, 1, 3, 4), (0, 2, 3, 4)),
    ]

    F = functor.build_F(ex_g3)
    assert shape(F) == [
        ((0, 1, 3), -2),
        ((0, 1, 4), -1),
        ((0, 2, 3), -1),
        ((0, 2, 4), 0),
    ]
    assert arrows(F) == [
        ((0, 1, 3), (0, 1, 4)),
        ((0, 1, 3), (0, 2, 3)),
        ((0, 1, 4), (0, 2, 4)),
        ((0, 2, 3), (0, 2, 4)),
    ]

    F = functor.build_F(ex_g4)
    assert shape(F) == [
        ((0, 1, 2), -3),
        ((0, 1, 3), -2),
        ((0, 2, 4), -1),
        ((0, 3, 4), 0),
    ]
    assert arrows(F) == [
        ((0, 1, 2), (0, 1, 3)),
        ((0, 1, 3), (0, 2, 4)),
        ((0, 2, 4), (0, 3, 4)),
    ]
    hs = sorted(
        (oracle.coh_degree(ex_g4, i) for i in oracle.omitting_indices(ex_g4)),
        reverse=True,
    )
    assert hs == [3, 2, 1, 0]
    assert time.time() - t0 < 1.0
    report("criterion 2 (worked complexes reproduced exactly)", t0)


def test_criterion_3_structural_identities():
    t0 = time.time()
    complexes = bypasses = triangles = 0
    for n, e in pairs_up_to(5):
        for g in enumerate_objects(n, e):
            F = functor.build_F(g)
            assert kom.verify_complex(F)  # d^2 = 0 and deg d = 1
            complexes += 1
            for mv in bypass.enumerate_bypasses(g):
                f = functor.chain_map_F(mv)  # homogeneity enforced here
                assert kom.verify_chain_map(f)
                assert functor.deg_formula(mv) == f.k
                bypasses += 1
                tri = bypass.triangle(g, mv)
                f1, f2, f3 = (
                    functor.chain_map_F(b) for b in (tri.b1, tri.b2, tri.b3)
                )
                assert f1.k + f2.k + f3.k == 1
                gm = functor.gamma_chain_map(tri)
                d1 = kom.ChainMap(f1.src, f1.src, 1, f1.src.d)
                d3 = kom.ChainMap(gm.dst, gm.dst, 1, gm.dst.d)
                lhs = kom.add_maps(kom.compose(d1, gm), kom.compose(gm, d3))
                assert lhs.entries == kom.compose(f1, f2).entries
                triangles += 1
    assert time.time() - t0 < 120
    report(
        "criterion 3 (structural identities, n <= 5)",
        t0,
        f"[{complexes} complexes, {bypasses} bypass maps, {triangles} triangles]",
    )


def test_criterion_4_homotopy_category(ex_t2):
    t0 = time.time()
    # the worked homotopy example is solvable
    g0t = DividingSet.make(5, 2, {STAR: (0,), (1,): (1,), (2,): (2,), (3,): (3, 4, 5)})
    g1t = DividingSet.make(
        5, 2, {STAR: (0,), (1,): (1, 5), (1, 1): (2, 3), (1, 2): (4,)}
    )
    moves = bypass.enumerate_bypasses(ex_t2)
    b0 = next(m for m in moves if bypass.attach(ex_t2, m) == g0t)
    b1 = next(m for m in moves if bypass.attach(ex_t2, m) == g1t)
    [sq] = [s for s in bypass.commuting_squares(b0, b1) if s.after_a and s.after_b]
    lhs = kom.compose(functor.chain_map_F(b0), functor.chain_map_F(sq.after_a))
    rhs = kom.compose(functor.chain_map_F(b1), functor.chain_map_F(sq.after_b))
    assert oracle.find_homotopy(lhs, rhs) is not None

    triangles = squares = 0
    for n, e in pairs_up_to(4):
        for g in enumerate_objects(n, e):
            mvs = bypass.enumerate_bypasses(g)
            for mv in mvs:
                tri = bypass.triangle(g, mv)
                f1, f2 = functor.chain_map_F(tri.b1), functor.chain_map_F(tri.b2)
                assert kom.is_nullhomotopic(kom.compose(f1, f2))
                cn = kom.cone(functor.lift_morphism(tri.b1, 0))
                target = kom.shift(functor.build_F(tri.g3), f1.k + f2.k)
                assert kom.equivalent(cn, target)
                triangles += 1
            for a, b in itertools.combinations(mvs, 2):
                for sq in bypass.commuting_squares(a, b):
                    if not (sq.after_a and sq.after_b):
                        continue
                    lhs = kom.compose(
                        functor.chain_map_F(a), functor.chain_map_F(sq.after_a)
                    )
                    rhs = kom.compose(
                        functor.chain_map_F(b), functor.chain_map_F(sq.after_b)
                    )
                    assert oracle.find_homotopy(lhs, rhs) is not None
                    squares += 1
    assert time.time() - t0 < 600
    report(
        "criterion 4 (homotopy category, n <= 4)",
        t0,
        f"[{triangles} distinguished triangles, {squares} disjoint squares]",
    )


def test_criterion_5_hom_computations():
    t0 = time.time()
    pairs = 0
    for n, e in pairs_up_to(4):
        objs = enumerate_objects(n, e)
        for g in objs:
            F = functor.build_F(g)
            assert kom.hom_total(F, F) == 1
            for mv in bypass.enumerate_bypasses(g):
                g2 = bypass.attach(g, mv)
                assert kom.hom_total(functor.build_F(g2), functor.build_F(g)) == 0
        for g, g2 in itertools.product(objs, repeat=2):
            want = 1 if homs.hom_nonzero(g, g2) else 0
            assert kom.hom_total(functor.build_F(g), functor.build_F(g2)) == want
            pairs += 1
    assert time.time() - t0 < 900
    report("criterion 5 (hom tables, n <= 4)", t0, f"[{pairs} ordered pairs]")


def test_criterion_6_serre_calabi_yau():
    t0 = time.time()
    for n, e in pairs_up_to(5):
        for g in basic_sets(n, e):
            res = kom.serre_resolution(g)
            sg = bypass.serre_rotate(g)
            if 1 in g.star:
                assert res == kom.projective(sg)
            else:
                F = functor.build_F(sg)
                assert res.size == e + 1
                assert res.summands == F.summands and res.d == F.d
    for n, e in pairs_up_to(3):
        for g in enumerate_objects(n, e):
            sg = bypass.serre_rotate(g)
            c = functor.F_of_morphism(g, sg).k
            lhs = kom.simplify(kom.serre_transform(functor.build_F(g)))
            assert kom.equivalent(lhs, kom.shift(functor.build_F(sg), c))
            if g.is_basic():
                assert c == 0
    for n, e in pairs_up_to(4):
        for g in basic_sets(n, e):
            C = kom.projective(g)
            for _ in range(n + 1):
                C = kom.simplify(kom.serre_transform(C))
            assert kom.equivalent(C, kom.shift(kom.projective(g), e * (n - e)))
    assert time.time() - t0 < 600
    report("criterion 6 (rotation functor and Calabi-Yau power)", t0)


def test_criterion_7_oracles():
    t0 = time.time()
    for n in range(7):
        for e in range(n + 1):
            for g, g2 in itertools.product(basic_sets(n, e), repeat=2):
                assert homs.tight_basic(g, g2) == homs.hom_nonzero(g, g2)
    for n in range(7):
        oracle = brute_force_counts(n)
        for e in range(n + 1):
            assert len(enumerate_objects(n, e)) == oracle.get(e, 0)
    assert time.time() - t0 < 60
    report("criterion 7 (independent oracles, n <= 6)", t0)
