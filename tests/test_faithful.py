"""The faithful hom table: column retracts against the per-pair
HomComplex oracle, the reflection duality that lets the table visit one
pair of each mirrored pair, and mutations the faithful suite must catch."""

import itertools

import pytest

from diskcontact import bypass, functor, homs, kom, reflection, suites
from diskcontact.divset import basic_of, basic_sets, ds_to_json, enumerate_objects
from diskcontact.errors import ComponentMismatch, ShapeMismatch
from diskcontact.kom import (
    ChainMap,
    Complex,
    ProjSummand,
    column_retracts,
    hom_by_degree_from,
    hom_total_from,
    is_nullhomotopic_from,
    projective,
    shift,
)

import oracle
from conftest import pairs_up_to
from oracle import HomComplex, hom_by_degree, hom_total, is_nullhomotopic, nullspace

TABLE = "faithful.hom_table_matches_contact_category"


def direct_sum(a: Complex, b: Complex) -> Complex:
    off = a.size
    return Complex(a.summands + b.summands, a.d | {(i + off, j + off) for i, j in b.d})


def images(n, e):
    return [functor.build_F(g) for g in enumerate_objects(n, e)]


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_retracts_match_hom_complex_on_every_pair_of_images(n, e):
    objs = enumerate_objects(n, e)
    for g in objs:
        retracts = column_retracts(functor.build_F(g))
        for g2 in objs:
            dst = functor.build_F(g2)
            assert hom_total_from(retracts, dst) == hom_total(retracts.src, dst)
            assert hom_by_degree_from(retracts, dst) == hom_by_degree(retracts.src, dst)
            f = functor.F_of_morphism(g, g2)
            assert is_nullhomotopic_from(retracts, f) == is_nullhomotopic(f)


def test_transferred_differential_is_exercised():
    # E1 = sum of the columns' cohomology; where it exceeds the total,
    # d' is nonzero and the rank path decides the answer
    objs = enumerate_objects(5, 2)
    seen = 0
    for g, g2 in itertools.product(objs, repeat=2):
        a, b = functor.build_F(g), functor.build_F(g2)
        e1 = sum(hom_total(a, projective(s.gamma)) for s in b.summands)
        total = hom_total(a, b)
        assert hom_total_from(column_retracts(a), b) == total
        seen += e1 > total
    assert seen > 0


def _cocycles_and_coboundaries(src, dst):
    """Every degree's cocycle basis, the coboundary of each map-basis
    element, and the single-entry maps that are not cocycles."""
    hc = HomComplex(src, dst)
    for k in hc.degrees:
        basis = hc.basis(k)
        for z in nullspace(hc.columns(k)):
            yield "cocycle", ChainMap(src, dst, k, frozenset(basis[t] for t in range(len(basis)) if z >> t & 1))
        for t, col in enumerate(hc.columns(k)):
            if col:
                yield "other", ChainMap(src, dst, k, frozenset({basis[t]}))
                above = hc.basis(k + 1)
                yield "coboundary", ChainMap(
                    src, dst, k + 1, frozenset(above[u] for u in range(len(above)) if col >> u & 1)
                )


def _wide_sources(n, e):
    """Sources whose columns can have cohomology of dimension 2 or more."""
    out = []
    for g in enumerate_objects(n, e):
        F = functor.build_F(g)
        out.append(direct_sum(F, shift(F, 1)))
        out.append(direct_sum(F, F))
        for mv in bypass.enumerate_bypasses(g):
            out.append(kom.cone(functor.lift_morphism(mv, 0)))
    return out


@pytest.mark.parametrize("n,e", [(3, 1), (4, 2)])
def test_retracts_match_hom_complex_on_wide_sources_and_repeated_summands(n, e):
    dsts = images(n, e)
    dsts += [direct_sum(F, F) for F in dsts[:3]]
    dsts += [direct_sum(projective(b), projective(b, 1)) for b in basic_sets(n, e)[:3]]
    widest = 0
    for src in _wide_sources(n, e):
        retracts = column_retracts(src)
        widest = max(widest, *(hom_total(src, projective(b)) for b in basic_sets(n, e)))
        for dst in dsts:
            assert hom_total_from(retracts, dst) == hom_total(src, dst)
            assert hom_by_degree_from(retracts, dst) == hom_by_degree(src, dst)
            for kind, f in _cocycles_and_coboundaries(src, dst):
                got = is_nullhomotopic_from(retracts, f)
                assert got == is_nullhomotopic(f)
                if kind == "coboundary":
                    assert got
                elif kind == "other":
                    assert not got
    assert widest >= 2


def test_each_column_is_a_deformation_retract():
    # pi.iota = 1, iota.pi = 1 + d.eta + eta.d, eta.iota = pi.eta = eta.eta = 0
    for src in _wide_sources(4, 2):
        retracts = column_retracts(src)
        for col in retracts.columns(Complex(tuple(ProjSummand(b, 0) for b in basic_sets(4, 2)), frozenset())):
            bits = [i for i in range(src.size) if col.tight >> i & 1]

            def d(m):
                return kom._apply(retracts._src_in, m) & col.tight

            def eta(m):
                return kom._apply(col.eta, m)

            def pi(m):
                return kom._apply(col.pi, m)

            assert [pi(g) for g in col.iota] == [1 << t for t in range(len(col.iota))]
            assert all(eta(g) == 0 for g in col.iota)
            for i in bits:
                e = 1 << i
                back = kom._apply(col.iota, pi(e))
                assert back == e ^ d(eta(e)) ^ eta(d(e))
                assert pi(eta(e)) == 0 and eta(eta(e)) == 0


def test_retracts_on_empty_and_mismatched_complexes():
    empty = Complex((), frozenset())
    g = basic_sets(3, 1)[0]
    p = projective(g)
    assert hom_total_from(column_retracts(empty), p) == 0
    assert hom_total_from(column_retracts(p), empty) == 0
    assert is_nullhomotopic_from(column_retracts(empty), kom.zero_map(empty, p))
    with pytest.raises(ComponentMismatch):
        hom_total_from(column_retracts(p), projective(basic_sets(2, 1)[0]))
    with pytest.raises(ShapeMismatch):
        is_nullhomotopic_from(column_retracts(p), kom.identity_map(projective(g, 1)))
    # an entry that is not tight is not a map-space vector
    a, b = next(pair for pair in itertools.product(basic_sets(3, 1), repeat=2) if not homs.tight_basic(*pair))
    f = ChainMap(projective(a), projective(b), 0, frozenset({(0, 0)}))
    assert not is_nullhomotopic_from(column_retracts(f.src), f)
    assert not is_nullhomotopic(f)


def test_F_of_morphism_starts_from_the_first_bypass_map():
    for n, e in [(4, 2), (5, 2)]:
        objs = enumerate_objects(n, e)
        for g, g2 in itertools.product(objs, repeat=2):
            if g == g2 or not homs.hom_nonzero(g, g2):
                continue
            ref = kom.identity_map(functor.build_F(g))
            for mv in homs.bypass_chain(g, g2):
                ref = kom.compose(ref, functor.chain_map_F(mv))
            f = functor.F_of_morphism(g, g2)
            assert f == ref and f.src is functor.build_F(g)


# ---------------------------------------------------------------------------
# the reflection r and the dual D: the table visits one pair of each
# mirrored pair {(i, j), (rj, ri)}


def reflected(g):
    """(rg, phi, c): summand p of F(g) goes to summand phi[p] of F(rg),
    and h_p + h_phi[p] = c."""
    comp = homs.component(g.n, g.e)
    rg = comp.objects[comp.reflect(comp.id(g))]
    F, R = functor.build_F(g), functor.build_F(rg)
    phi = reflection.summand_reflection(reflection.reflected_basics(g.n, g.e), F, R)
    return rg, phi, F.summands[0].h + R.summands[phi[0]].h


def dual(f, g, g2):
    """D f: F(rg2) -> F(rg) for f: F(g) -> F(g2), relabelled by the summand bijections."""
    rg, phi, c = reflected(g)
    rg2, phi2, c2 = reflected(g2)
    entries = frozenset((phi2[q], phi[p]) for p, q in f.entries)
    return ChainMap(functor.build_F(rg2), functor.build_F(rg), f.k + c - c2, entries)


def reversed_move(mv):
    """The one bypass r(target) -> r(source) of a bypass source -> target."""
    comp = homs.component(mv.source.n, mv.source.e)
    s, t = comp.id(mv.source), comp.target(comp.move_id(mv))
    (back,) = [m for x, m in comp.successors(comp.reflect(t)) if x == comp.reflect(s)]
    return back


def reflected_chain_map(g, g2):
    """F of the reflected chain from rg2 to rg: F(rb_k), ..., F(rb_1) for
    the chain b_1, ..., b_k that F_of_morphism(g, g2) composes."""
    rg2 = reflected(g2)[0]
    f = kom.identity_map(functor.build_F(rg2))
    for mv in reversed(homs.bypass_chain(g, g2)):
        f = kom.compose(f, functor.chain_map_F(reversed_move(mv)))
    return f


def canonical(comp, i, j):
    return comp.reflect(j) >= i


def assert_mirror_is_exact_dual(g, g2):
    # the table does not visit (rg2, rg); D of its canonical pair's map is
    # F of the reflected chain, exactly
    assert dual(functor.F_of_morphism(g, g2), g, g2) == reflected_chain_map(g, g2)


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_reflection_reverses_moves_and_dualizes_the_summands(n, e):
    comp = homs.component(n, e)
    ids = comp.ids()
    # an involution of the component that maps basic sets to basic sets
    assert sorted(map(comp.reflect, ids)) == sorted(ids)
    assert all(comp.reflect(comp.reflect(i)) == i for i in ids)
    for b in basic_sets(n, e):
        assert comp.objects[comp.reflect(comp.id(b))] == basic_of(n, e, [-s % (n + 1) for s in b.star])
    for i in ids:
        g, rg = comp.objects[i], comp.objects[comp.reflect(i)]
        # each move has exactly one reversed move
        for t, mv in comp.successors(i):
            assert [x for x, _ in comp.successors(comp.reflect(t))].count(comp.reflect(i)) == 1
        # the summand omitting S goes to the one omitting -S, h + h' is
        # constant and every arrow is reversed, one omitting index at a time
        indices, mirrored = oracle.omitting_indices(g), oracle.omitting_indices(rg)
        where = {oracle.omitted_labels(rg, y): q for q, y in enumerate(mirrored)}
        phi = [where[frozenset(-s % (n + 1) for s in oracle.omitted_labels(g, x))] for x in indices]
        assert sorted(phi) == list(range(len(mirrored)))
        heights = {oracle.coh_degree(g, x) + oracle.coh_degree(rg, mirrored[phi[p]]) for p, x in enumerate(indices)}
        assert len(heights) == 1
        arrows = {(q, mirrored.index(y)) for q, x in enumerate(mirrored) for _, y in oracle.differential_data(rg, x)}
        assert arrows == {
            (phi[indices.index(y)], phi[p]) for p, x in enumerate(indices) for _, y in oracle.differential_data(g, x)
        }


def _mirrored_tree_maps(n, e):
    """(D of the tree map of (i, j), the tree map of its mirror (rj, ri))
    for each pair i != j with Hom != 0, canonical or not."""
    comp = homs.component(n, e)
    comp.hom_table()
    ids = comp.ids()
    maps = {}
    for i in ids:
        tree = homs.bypass_search(comp, i, i, False)
        maps[i] = functor.F_of_tree(functor.build_F(comp.objects[i]), tree, tree)
    for i in ids:
        for j in homs._bits(comp.hom_out(i)):
            ri, rj = comp.reflect(i), comp.reflect(j)
            if j != i:
                yield dual(maps[i][j], comp.objects[i], comp.objects[j]), maps[rj][ri]


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_dual_of_each_tree_map_is_homotopic_to_the_mirrored_tree_map(n, e):
    equal = total = 0
    for d, f in _mirrored_tree_maps(n, e):
        assert (d.src, d.dst, d.k) == (f.src, f.dst, f.k)
        assert is_nullhomotopic_from(column_retracts(f.src), kom.add_maps(d, f))
        equal += d == f
        total += 1
    if (n, e) == (6, 3):
        assert (equal, total) == (5914, 7119)  # the count the faithful suite cites


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_reduced_checks_agree_with_the_loops_over_every_pair(n, e):
    checks = {c.check_id: c for c in suites.suite_faithful(n, e).checks}
    for check_id, loop in oracle.FAITHFUL_LOOPS.items():
        assert checks[check_id].ok == (loop(n, e) is None)


@pytest.mark.parametrize("n,e", [(4, 2), (5, 2)])
def test_table_tests_the_maps_F_of_morphism_builds(monkeypatch, n, e):
    tested = []
    original = kom.is_nullhomotopic_from

    def record(retracts, f):
        tested.append(f)
        return original(retracts, f)

    monkeypatch.setattr(kom, "is_nullhomotopic_from", record)
    assert _table_check(n, e).ok
    comp = homs.component(n, e)
    objs = enumerate_objects(n, e)
    nonzero = [(g, g2) for g, g2 in itertools.product(objs, repeat=2) if homs.hom_nonzero(g, g2)]
    pairs = [(g, g2) for g, g2 in nonzero if canonical(comp, comp.id(g), comp.id(g2))]
    assert len(tested) == len(pairs) < len(nonzero)
    for f, (g, g2) in zip(tested, pairs):
        ref = functor.F_of_morphism(g, g2)
        assert f.entries == ref.entries and f.k == ref.k and f.src is ref.src
        assert f.dst == ref.dst
        # every other nonzero pair is the mirror of a tested one, and gets
        # the exact dual of the tested map
        assert dual(f, g, g2) == reflected_chain_map(g, g2)
    mirrors = {(reflected(g2)[0], reflected(g)[0]) for g, g2 in pairs}
    assert mirrors | set(pairs) == set(nonzero)


# ---------------------------------------------------------------------------
# mutations


def _per_pair_table(n, e):
    """The full table as it was decided before the column retracts: one
    HomComplex per pair, in the same order."""
    objs = enumerate_objects(n, e)
    for g, g2 in itertools.product(objs, repeat=2):
        want = int(homs.hom_nonzero(g, g2))
        got = hom_total(functor.build_F(g), functor.build_F(g2))
        if got != want:
            return {"src": ds_to_json(g), "dst": ds_to_json(g2), "got": got}
        if want and is_nullhomotopic(functor.F_of_morphism(g, g2)):
            return {"src": ds_to_json(g), "dst": ds_to_json(g2), "null": True}


def _table_check(n, e):
    return next(c for c in suites.suite_faithful(n, e).checks if c.check_id == TABLE)


def test_faithful_table_passes_unmutated():
    assert _table_check(4, 2).ok
    assert _per_pair_table(4, 2) is None


def _middle_nonzero_pair(n, e):
    """The middle of the canonical pairs (g, g2) with Hom != 0 whose mirror
    is another pair."""
    comp = homs.component(n, e)
    objs = enumerate_objects(n, e)
    nonzero = [
        (g, g2)
        for g, g2 in itertools.product(objs, repeat=2)
        if g != g2 and homs.hom_nonzero(g, g2) and comp.reflect(comp.id(g2)) > comp.id(g)
    ]
    return nonzero[len(nonzero) // 2]


def test_faithful_table_catches_a_zero_image(monkeypatch):
    n, e = 4, 2
    g, g2 = _middle_nonzero_pair(n, e)
    src, j = functor.build_F(g), homs.component(n, e).id(g2)
    original_tree, original = functor.F_of_tree, functor.F_of_morphism
    zeroed = []

    def mutated_tree(F, tree, targets):
        maps = original_tree(F, tree, targets)
        if F is src:
            f = maps[j]
            zeroed.append(f)
            maps[j] = kom.zero_map(f.src, f.dst, f.k)
        return maps

    def mutated(a, b):
        f = original(a, b)
        return kom.zero_map(f.src, f.dst, f.k) if (a, b) == (g, g2) else f

    # the table builds its maps along the bypass trees only
    monkeypatch.setattr(functor, "F_of_tree", mutated_tree)
    check = _table_check(n, e)
    assert len(zeroed) == 1 and zeroed[0] == original(g, g2)
    assert not check.ok
    assert check.counterexample == {"src": ds_to_json(g), "dst": ds_to_json(g2), "null": True}
    monkeypatch.undo()
    assert_mirror_is_exact_dual(g, g2)
    monkeypatch.setattr(functor, "F_of_morphism", mutated)
    assert check.counterexample == _per_pair_table(n, e)


def test_faithful_table_catches_a_target_the_tree_misses(monkeypatch):
    # drop the last stage of one source's tree: a leaf, so the rest of
    # the tree still builds its maps; the source is one whose last stage
    # the table checks, not its mirror
    n, e = 4, 2
    comp = homs.component(n, e)
    g, _ = _middle_nonzero_pair(n, e)
    i = comp.id(g)
    while not canonical(comp, i, list(homs.bypass_search(comp, i, i, False))[-1]):
        i += 1
    g = comp.objects[i]
    original = homs.bypass_search
    missed = []

    def mutated(c, start, anchor, into, stop=None):
        tree = original(c, start, anchor, into, stop)
        if (c, start, anchor, into, stop) == (comp, i, i, False, None):
            missed.append(list(tree)[-1])
            del tree[missed[-1]]
        return tree

    monkeypatch.setattr(homs, "bypass_search", mutated)
    check = _table_check(n, e)
    assert len(missed) == 1 and missed[0] != i and comp.hom_out(i) >> missed[0] & 1
    assert not check.ok
    g2 = comp.objects[missed[0]]
    assert check.counterexample == {"src": ds_to_json(g), "dst": ds_to_json(g2), "reached": False}
    monkeypatch.undo()
    assert_mirror_is_exact_dual(g, g2)


def test_faithful_table_catches_a_flipped_tight_bit(monkeypatch):
    # the checks before the table reduce columns too: flip the first
    # column that the table reduces
    original = kom._retract
    armed, flipped = [], []

    def mutated(tight, src_in):
        if armed and not flipped:
            flipped.append(tight)
            tight ^= tight & -tight
        return original(tight, src_in)

    def arm(check):
        if check.check_id == "faithful.reverse_bypass_hom_vanishes":
            armed.append(check)

    monkeypatch.setattr(kom, "_retract", mutated)
    with suites.reporting(arm):
        check = _table_check(4, 2)
    assert flipped
    assert not check.ok and "got" in check.counterexample
    assert _per_pair_table(4, 2) is None  # HomComplex does not read the retracts
