"""The GF(2) algebra of tight morphisms between basic dividing sets.

Basis elements are pairs (src | dst) of basic dividing sets with a
nonzero hom, including the idempotents (g) = (g | g).  Multiplication is
composition read left to right: (g|g')(g'|g'') = (g|g'') when the outer
hom is nonzero, else 0.  The quiver presentation has one arrow g -s-> g'
for each elementary move swapping a based label s for s+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divset import DividingSet, basic_index, basic_of, basic_sets
from .errors import ComponentMismatch, NotBasic
from .homs import _check_same_component, component


def _tight(g: DividingSet, g2: DividingSet) -> bool:
    """homs.tight_basic(g, g2) for basic g, g2, read from the component's
    tight rows."""
    _check_same_component(g, g2)
    return bool(component(g.n, g.e).tight_row(basic_index(g)) >> basic_index(g2) & 1)


@dataclass(frozen=True)
class BasisElem:
    src: DividingSet
    dst: DividingSet

    def __post_init__(self):
        if not (self.src.is_basic() and self.dst.is_basic()):
            raise NotBasic("basis elements connect basic dividing sets")
        if not _tight(self.src, self.dst):
            raise ComponentMismatch(f"hom is zero: {self.src} -> {self.dst}")

    @property
    def is_idempotent(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class AlgebraElement:
    """GF(2) combination of basis elements (duplicates cancel)."""

    terms: frozenset[BasisElem]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.terms ^ other.terms)

    def is_zero(self) -> bool:
        return not self.terms


def generator(src: DividingSet, dst: DividingSet) -> AlgebraElement:
    return AlgebraElement(frozenset({BasisElem(src, dst)}))


def idempotent(g: DividingSet) -> AlgebraElement:
    return generator(g, g)


def _mul_basis(a: BasisElem, b: BasisElem) -> frozenset[BasisElem]:
    if a.dst != b.src:
        return frozenset()
    if not _tight(a.src, b.dst):
        return frozenset()
    return frozenset({BasisElem(a.src, b.dst)})


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    out: set[BasisElem] = set()
    for ta in a.terms:
        for tb in b.terms:
            out.symmetric_difference_update(_mul_basis(ta, tb))
    return AlgebraElement(frozenset(out))


def unit(n: int, e: int) -> AlgebraElement:
    return AlgebraElement(frozenset(BasisElem(g, g) for g in basic_sets(n, e)))


def basis(n: int, e: int) -> tuple[BasisElem, ...]:
    out = [
        BasisElem(g, g2)
        for g in basic_sets(n, e)
        for g2 in basic_sets(n, e)
        if _tight(g, g2)
    ]
    return tuple(sorted(out, key=lambda b: (b.src.star, b.dst.star)))


def algebra_dimension(n: int, e: int) -> int:
    return len(basis(n, e))


def arrows_from(g: DividingSet) -> list[tuple[int, DividingSet]]:
    """Quiver arrows out of a basic vertex: swap s in the base for s+1."""
    if not g.is_basic():
        raise NotBasic(repr(g))
    star = set(g.star)
    out = []
    for s in sorted(star):
        if 1 <= s <= g.n - 1 and s + 1 not in star:
            out.append((s, basic_of(g.n, g.e, (star - {s}) | {s + 1})))
    return out


def quiver(n: int, e: int) -> tuple[tuple[DividingSet, int, DividingSet], ...]:
    return tuple(
        (g, s, g2) for g in basic_sets(n, e) for s, g2 in arrows_from(g)
    )


def verify_presentation(n: int, e: int) -> dict:
    """Check the quiver presentation: relations, factorization, path independence."""
    B = basic_sets(n, e)
    report = {"n": n, "e": e, "checks": {}, "ok": True}

    def record(name: str, ok: bool, detail=None):
        report["checks"][name] = {"ok": ok, **({"detail": detail} if detail else {})}
        report["ok"] = report["ok"] and ok

    # (g)(g') = delta (g); unit laws
    ok = all(
        multiply(idempotent(g), idempotent(g2)).terms
        == (frozenset({BasisElem(g, g)}) if g == g2 else frozenset())
        for g in B
        for g2 in B
    )
    record("idempotents_orthogonal", ok)
    u = unit(n, e)
    bs = basis(n, e)
    ok = all(
        multiply(generator(b.src, b.dst), u).terms == {b}
        and multiply(u, generator(b.src, b.dst)).terms == {b}
        for b in bs
    )
    record("unit", ok)

    # (g)(g|g') = (g|g')(g') = (g|g')
    ok = all(
        multiply(idempotent(b.src), generator(b.src, b.dst)).terms == {b}
        and multiply(generator(b.src, b.dst), idempotent(b.dst)).terms == {b}
        for b in bs
    )
    record("idempotent_absorption", ok)

    arrows = quiver(n, e)
    # products of consecutive arrows: s then s-1 vanish; |s-t|>1 commute
    ok_zero, ok_comm = True, True
    for g, s, g2 in arrows:
        for t, g3 in arrows_from(g2):
            prod = multiply(generator(g, g2), generator(g2, g3))
            if t == s - 1 and not prod.is_zero():
                ok_zero = False
            if abs(s - t) > 1:
                other = [
                    (u, h) for u, h in arrows_from(g) if u == t
                ]
                ok_comm = ok_comm and bool(other)
                if other:
                    _, g4 = other[0]
                    swap = multiply(generator(g, g4), generator(g4, g3))
                    ok_comm = ok_comm and swap.terms == prod.terms and not prod.is_zero()
    record("descending_products_vanish", ok_zero)
    record("distant_arrows_commute", ok_comm)

    # every non-idempotent basis element factors into arrows
    arrow_set = {(g, g2) for g, _, g2 in arrows}

    def factors(b: BasisElem) -> bool:
        if b.is_idempotent or (b.src, b.dst) in arrow_set:
            return True
        return any(
            _tight(g2, b.dst) and factors(BasisElem(g2, b.dst))
            for s, g2 in arrows_from(b.src)
        )

    record("generators_factor", all(factors(b) for b in bs))

    # any two paths with equal endpoints give the same element: the product
    # along a path is (src|end) when every prefix hom survives, else 0, so
    # for each (src, end) all paths must agree, and agree with the hom
    ok_paths = True
    for src in B:
        outcomes: dict[DividingSet, set[bool]] = {}
        seen_states: set[tuple[DividingSet, bool]] = set()

        def walk(cur: DividingSet, dead: bool) -> None:
            if (cur, dead) in seen_states:
                return
            seen_states.add((cur, dead))
            for _, nxt in arrows_from(cur):
                now_dead = dead or not _tight(src, nxt)
                outcomes.setdefault(nxt, set()).add(now_dead)
                walk(nxt, now_dead)

        walk(src, False)
        for end, kinds in outcomes.items():
            if len(kinds) > 1 or (False in kinds) != _tight(src, end):
                ok_paths = False
    record("paths_agree", ok_paths)
    return report


# ---------------------------------------------------------------------------
# exports


def quiver_dot(n: int, e: int) -> str:
    def node(g: DividingSet) -> str:
        return "b" + "_".join(str(s) for s in g.star)

    lines = [f'digraph "quiver_{n}_{e}" {{']
    for g in basic_sets(n, e):
        label = "(" + ",".join(str(s) for s in g.star) + ")"
        lines.append(f'  {node(g)} [label="{label}"];')
    for g, s, g2 in quiver(n, e):
        lines.append(f'  {node(g)} -> {node(g2)} [label="{s}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
