import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcontact import algebra
from diskcontact.algebra import (
    AlgebraElement,
    BasisElem,
    algebra_dimension,
    arrows_from,
    basis,
    generator,
    idempotent,
    multiply,
    quiver,
    quiver_dot,
    unit,
    verify_presentation,
)
from diskcontact.divset import basic_of, basic_sets, ds_to_json
from diskcontact.errors import ComponentMismatch, NotBasic
from diskcontact.homs import composition_nonzero, tight_basic

from conftest import pairs_up_to


def test_dimension_2_1():
    assert algebra_dimension(2, 1) == 3


def test_basis_elem_rejects_zero_hom():
    with pytest.raises(ComponentMismatch):
        BasisElem(basic_of(2, 1, {0, 2}), basic_of(2, 1, {0, 1}))
    with pytest.raises(NotBasic):
        from diskcontact.divset import STAR, DividingSet

        g = DividingSet.make(2, 1, {STAR: (0,), (1,): (1, 2)})
        BasisElem(g, g)


def test_idempotents():
    B = basic_sets(2, 1)
    for g, g2 in itertools.product(B, repeat=2):
        prod = multiply(idempotent(g), idempotent(g2))
        if g == g2:
            assert prod.terms == {BasisElem(g, g)}
        else:
            assert prod.is_zero()


def test_arrows_from_example():
    g1 = basic_of(2, 1, {0, 1})
    assert arrows_from(g1) == [(1, basic_of(2, 1, {0, 2}))]
    assert arrows_from(basic_of(2, 1, {0, 2})) == []


def test_descending_arrows_vanish():
    g = basic_of(4, 2, {0, 2, 3})
    (s, g2), = [a for a in arrows_from(g) if a[0] == 3]
    back = [a for a in arrows_from(g2) if a[0] == 2]
    assert back
    prod = multiply(generator(g, g2), generator(g2, back[0][1]))
    assert prod.is_zero()


def test_commuting_square_c42():
    g13 = basic_of(4, 2, {0, 1, 3})
    g23 = basic_of(4, 2, {0, 2, 3})
    g14 = basic_of(4, 2, {0, 1, 4})
    g24 = basic_of(4, 2, {0, 2, 4})
    p1 = multiply(generator(g13, g23), generator(g23, g24))
    p2 = multiply(generator(g13, g14), generator(g14, g24))
    assert p1.terms == p2.terms == {BasisElem(g13, g24)}


def test_single_arrow_generator_2_1():
    arrows = quiver(2, 1)
    assert len(arrows) == 1
    g, s, g2 = arrows[0]
    assert (g.star, s, g2.star) == ((0, 1), 1, (0, 2))


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_presentation(n, e):
    assert verify_presentation(n, e)["ok"]


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_unit_and_associativity(n, e):
    bs = basis(n, e)
    u = unit(n, e)
    for b in bs:
        el = AlgebraElement(frozenset({b}))
        assert multiply(u, el).terms == el.terms
        assert multiply(el, u).terms == el.terms
    for a, b, c in itertools.product(bs, repeat=3):
        A, B, C = (AlgebraElement(frozenset({x})) for x in (a, b, c))
        assert multiply(multiply(A, B), C).terms == multiply(A, multiply(B, C)).terms


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_multiplication_matches_composition(n, e):
    for g, g2, g3 in itertools.product(basic_sets(n, e), repeat=3):
        if not (tight_basic(g, g2) and tight_basic(g2, g3)):
            continue
        prod = multiply(generator(g, g2), generator(g2, g3))
        assert (not prod.is_zero()) == composition_nonzero(g, g2, g3)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_addition_is_gf2(data):
    bs = basis(4, 2)
    terms = data.draw(st.lists(st.sampled_from(bs), max_size=6))
    acc = AlgebraElement(frozenset())
    for t in terms:
        acc = acc + AlgebraElement(frozenset({t}))
    # duplicates cancel in pairs
    odd = {t for t in set(terms) if terms.count(t) % 2}
    assert acc.terms == odd


def test_quiver_dot_shape():
    dot = quiver_dot(2, 1)
    assert dot.count("->") == 1
    assert dot.count("[label=") == 3  # two nodes and one arrow


def algebra_json(n: int, e: int) -> dict:
    """Basis and multiplication table (indices of nonzero products)."""
    bs = basis(n, e)
    index = {b: i for i, b in enumerate(bs)}
    table = []
    for i, a in enumerate(bs):
        for j, b in enumerate(bs):
            prod = algebra._mul_basis(a, b)
            if prod:
                table.append([i, j, index[next(iter(prod))]])
    return {
        "n": n,
        "e": e,
        "dimension": len(bs),
        "basis": [{"src": ds_to_json(b.src), "dst": ds_to_json(b.dst)} for b in bs],
        "products": table,
    }


def test_algebra_json():
    blob = algebra_json(2, 1)
    assert blob["dimension"] == 3
    idx = {
        (tuple(b["src"]["components"][0]["labels"]), tuple(b["dst"]["components"][0]["labels"])): i
        for i, b in enumerate(blob["basis"])
    }
    i_11 = idx[((0, 1), (0, 1))]
    i_12 = idx[((0, 1), (0, 2))]
    assert [i_11, i_12, i_12] in blob["products"]
