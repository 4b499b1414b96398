"""The faithful hom table: column retracts against HomComplex, and
mutations the faithful suite must catch."""

import itertools

import pytest

from diskcontact import bypass, functor, gf2, homs, kom, suites
from diskcontact.divset import basic_sets, ds_to_json, enumerate_objects
from diskcontact.errors import ComponentMismatch, ShapeMismatch
from diskcontact.kom import (
    ChainMap,
    Complex,
    HomComplex,
    ProjSummand,
    column_retracts,
    hom_total,
    hom_total_from,
    is_nullhomotopic,
    is_nullhomotopic_from,
    projective,
    shift,
)

from conftest import pairs_up_to

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
        for z in gf2.nullspace(hc.columns(k)):
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


def test_faithful_table_catches_a_zero_image(monkeypatch):
    n, e = 4, 2
    objs = enumerate_objects(n, e)
    nonzero = [(g, g2) for g, g2 in itertools.product(objs, repeat=2) if g != g2 and homs.hom_nonzero(g, g2)]
    g, g2 = nonzero[len(nonzero) // 2]
    original = functor.F_of_morphism

    def mutated(a, b):
        f = original(a, b)
        return kom.zero_map(f.src, f.dst, f.k) if (a, b) == (g, g2) else f

    monkeypatch.setattr(functor, "F_of_morphism", mutated)
    check = _table_check(n, e)
    assert not check.ok
    assert check.counterexample == {"src": ds_to_json(g), "dst": ds_to_json(g2), "null": True}
    assert check.counterexample == _per_pair_table(n, e)


def test_faithful_table_catches_a_flipped_tight_bit(monkeypatch):
    original = kom._retract
    flipped = []

    def mutated(tight, src_in):
        if not flipped:
            flipped.append(tight)
            tight ^= tight & -tight
        return original(tight, src_in)

    monkeypatch.setattr(kom, "_retract", mutated)
    check = _table_check(4, 2)
    assert flipped
    assert not check.ok and "got" in check.counterexample
    assert _per_pair_table(4, 2) is None  # HomComplex does not read the retracts
