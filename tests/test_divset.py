import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcontact.divset import (
    STAR,
    DividingSet,
    basic_index,
    basic_of,
    basic_sets,
    ds_from_json,
    ds_to_json,
    enumerate_objects,
    from_matching,
    is_crossingless_matching,
    nesting_sets,
    noncrossing_matchings,
    positive_faces,
    to_matching,
    validate,
)
from diskcontact.errors import BadBase, EulerMismatch, IndexOutOfRange, NotBasic

import oracle
from conftest import pairs_up_to


def negative_faces(m):
    """Components of the negative region, as indices t of the arcs (2t+1, 2t+2)."""
    n1 = len(m) // 2
    seen = [False] * n1
    out = []
    for s in range(n1):
        if seen[s]:
            continue
        cyc = []
        t = s
        while not seen[t]:
            seen[t] = True
            cyc.append(t)
            t = (m[(2 * t + 2) % (2 * n1)] - 1) // 2
        out.append(frozenset(cyc))
    return out


def test_validate_figure_example():
    ds = DividingSet.make(7, 4, {STAR: (0, 4), (1,): (1, 3), (2,): (5, 6, 7), (1, 1): (2,)})
    assert validate(ds).ok
    assert ds.labels((2,)) == (5, 6, 7)
    assert ds.label_at((2,), 2) == 7


def test_validate_basic_set():
    assert validate(DividingSet.make(2, 1, {STAR: (0, 1), (1,): (2,)})).ok


def test_validate_rejects_zero_outside_base():
    bad = DividingSet.make(2, 1, {STAR: (1, 2), (1,): (0,)})
    rep = validate(bad)
    assert not rep.ok
    assert any("P2" in v for v in rep.violations)


def test_validate_rejects_orphan_and_phantom_gap():
    # a child hanging after the last label of a non-based component is not
    # geometrically realizable even though all labels partition
    bad = DividingSet.make(3, 1, {STAR: (0,), (1,): (1, 2), (1, 1): (3,)})
    assert not validate(bad).ok
    orphan = DividingSet.make(2, 1, {STAR: (0, 1), (1, 1): (2,)})
    assert not validate(orphan).ok


def test_component_count_mismatch_detected():
    bad = DividingSet.make(2, 0, {STAR: (0, 1), (1,): (2,)})
    assert not validate(bad).ok


@pytest.mark.parametrize("n,e,count", [(2, 1, 3), (3, 1, 6), (4, 2, 20)])
def test_enumeration_counts(n, e, count):
    assert len(enumerate_objects(n, e)) == count


def test_total_count_n2():
    assert sum(len(enumerate_objects(2, e)) for e in range(3)) == 5


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_enumerated_objects_validate_and_roundtrip(n, e):
    for ds in enumerate_objects(n, e):
        assert validate(ds).ok
        assert from_matching(to_matching(ds), n, e) == ds


@pytest.mark.parametrize("n", range(0, 6))
def test_matchings_roundtrip(n):
    for m in noncrossing_matchings(n):
        assert is_crossingless_matching(m)
        e = n + 1 - len(positive_faces(m))
        assert to_matching(from_matching(m, n, e)) == m


@pytest.mark.parametrize("n,e", pairs_up_to(7))
def test_enumeration_follows_matching_order(n, e):
    ms = [to_matching(g) for g in enumerate_objects(n, e)]
    assert ms == sorted(ms)


@pytest.mark.parametrize("n", range(0, 8))
def test_from_matching_matches_the_gap_scan_oracle(n):
    for m in noncrossing_matchings(n):
        faces = positive_faces(m)
        e = n + 1 - len(faces)
        assert from_matching(m, n, e) == oracle.from_partition(n, e, faces)


def test_positive_negative_face_counts():
    for n, e in pairs_up_to(5):
        for ds in enumerate_objects(n, e):
            m = to_matching(ds)
            assert len(positive_faces(m)) == n - e + 1
            assert len(negative_faces(m)) == e + 1


def test_from_matching_example_nested():
    # nested arcs around positive arc 2: the non-basic object of (2,1)
    m = (1, 0, 5, 4, 3, 2)
    ds = from_matching(m, 2, 1)
    assert ds == DividingSet.make(2, 1, {STAR: (0,), (1,): (1, 2)})


def test_from_matching_euler_mismatch():
    m = (1, 0, 5, 4, 3, 2)
    with pytest.raises(EulerMismatch):
        from_matching(m, 2, 2)


def test_basic_of_and_counts():
    ds = basic_of(4, 2, {0, 1, 3})
    assert ds.star == (0, 1, 3)
    assert ds.labels((1,)) == (2,)
    assert ds.labels((2,)) == (4,)
    assert len(basic_sets(4, 2)) == 6
    for n, e in pairs_up_to(8):
        assert len(basic_sets(n, e)) == comb(n, e)


def test_basic_of_errors():
    with pytest.raises(BadBase):
        basic_of(4, 2, {1, 2, 3})  # no 0
    with pytest.raises(BadBase):
        basic_of(4, 2, {0, 1})  # wrong size


@pytest.mark.parametrize("n", range(9))
def test_basic_index_is_the_place_in_basic_sets(n):
    for e in range(n + 1):
        for i, g in enumerate(basic_sets(n, e)):
            copy = DividingSet.make(n, e, dict(g.components))
            assert basic_index(g) == basic_index(copy) == i


def test_basic_index_requires_basic(ex_g1):
    with pytest.raises(NotBasic):
        basic_index(ex_g1)


def test_is_basic(ex_g1):
    assert not ex_g1.is_basic()
    assert basic_of(2, 1, {0, 1}).is_basic()


def test_nesting_sets_examples(ex_g3, ex_g4):
    nv, _ = nesting_sets(ex_g4, (1,), 1)
    assert nv == frozenset({(1, 1)})
    assert nesting_sets(ex_g4, (1,), 0) == (frozenset(), frozenset())
    assert nesting_sets(ex_g3, (2,), 1)[0] == frozenset()
    with pytest.raises(IndexOutOfRange):
        nesting_sets(ex_g4, (1,), 5)


def test_json_roundtrip():
    for ds in enumerate_objects(3, 1):
        blob = json.dumps(ds_to_json(ds), sort_keys=True)
        assert ds_from_json(json.loads(blob)) == ds


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_relative_nesting_partition(n, e):
    # the nested-vector sets refine: NV(v,i) splits into NV(v,i-1), the
    # direct nesters at step i, and everything nested inside those
    for g in enumerate_objects(n, e):
        for v in g.vectors:
            for i in range(1, g.l(v) + 1):
                nv_i, dnv = nesting_sets(g, v, i)
                parts = [set(nesting_sets(g, v, i - 1)[0]), set(dnv)]
                parts += [set(nesting_sets(g, w, g.l(w))[0]) for w in dnv]
                union: set = set()
                total = 0
                for p in parts:
                    union |= p
                    total += len(p)
                assert set(nv_i) == union and len(union) == total


def narayana(n, k):
    return comb(n, k) * comb(n, k - 1) // n


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_counts_follow_narayana(n, e):
    # derived observation, cross-checked against the independent oracle in
    # the acceptance suite
    assert len(enumerate_objects(n, e)) == narayana(n + 1, e + 1)


@given(st.integers(min_value=0, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_matching_roundtrip(n, rng):
    matchings = list(noncrossing_matchings(n))
    m = rng.choice(matchings)
    e = n + 1 - len(positive_faces(m))
    ds = from_matching(m, n, e)
    assert validate(ds).ok
    assert to_matching(ds) == m


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=60, deadline=None)
def test_random_basic_sets_validate(n, data):
    e = data.draw(st.integers(min_value=0, max_value=n))
    extra = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=e, max_size=e, unique=True
        )
    )
    ds = basic_of(n, e, [0] + extra)
    assert validate(ds).ok and ds.is_basic()
