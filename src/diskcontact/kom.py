"""Bounded complexes of shifted projectives over the arc algebra.

A complex is a list of summands (basic dividing set, cohomological
degree) with a strictly degree +1 differential.  Hom spaces between
projectives are at most one-dimensional, so every matrix entry is either
zero or the generator of its hom space: matrices are stored as sets of
(row summand, column summand) index pairs, and composition counts paths
mod 2, discarding pairs whose outer hom vanishes.

The shift C[k] lowers all summand degrees by k (so C[k]^i = C^{i+k});
nothing is negated over GF(2).  A chain map of degree k sends degree h
to degree h+k.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate (ProjSummand checks only that a summand is basic),
and an invalid dividing set gives an undefined answer or error.  The
CLI validates at its boundary (cli._load_ds, cli._load_complex) before
it calls in.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import gf2
from .divset import DividingSet, ds_from_json, ds_to_json
from .errors import ComponentMismatch, NotBasic, ShapeMismatch
from .homs import Component, component, tight_basic

Entries = frozenset  # of (i, j) index pairs


@dataclass(frozen=True)
class ProjSummand:
    gamma: DividingSet
    h: int

    def __post_init__(self):
        if not self.gamma.is_basic():
            raise NotBasic(repr(self.gamma))


@dataclass(frozen=True)
class Complex:
    summands: tuple[ProjSummand, ...]
    d: Entries

    @property
    def size(self) -> int:
        return len(self.summands)

    def degrees(self) -> tuple[int, ...]:
        return tuple(s.h for s in self.summands)


@dataclass(frozen=True)
class ChainMap:
    src: Complex
    dst: Complex
    k: int
    entries: Entries


@dataclass(frozen=True)
class Homotopy:
    src: Complex
    dst: Complex
    k: int  # degree as a map; a homotopy for degree-k maps has degree k-1
    entries: Entries


def projective(gamma: DividingSet, h: int = 0) -> Complex:
    return Complex((ProjSummand(gamma, h),), frozenset())


def _entry_ok(a: ProjSummand, b: ProjSummand, k: int) -> bool:
    """Greedy check of one entry; the slow reference for the tight rows."""
    return b.h == a.h + k and tight_basic(a.gamma, b.gamma)


def _component_of(*complexes: Complex) -> Optional[Component]:
    """The component index of every summand, or None when there are none."""
    n = e = None
    for c in complexes:
        for s in c.summands:
            g = s.gamma
            if n is None:
                n, e = g.n, g.e
            elif g.n != n or g.e != e:
                raise ComponentMismatch(f"({n},{e}) vs ({g.n},{g.e})")
    return None if n is None else component(n, e)


def _compose_entries(
    left: Iterable[tuple[int, int]],
    right: Iterable[tuple[int, int]],
    src: Complex,
    dst: Complex,
) -> Entries:
    """Path count mod 2 of left followed by right, killed by vanishing homs."""
    by_mid: dict[int, list[int]] = {}
    for j, k in right:
        by_mid.setdefault(j, []).append(k)
    count: dict[tuple[int, int], int] = {}
    for i, j in left:
        for k in by_mid.get(j, ()):
            count[(i, k)] = count.get((i, k), 0) ^ 1
    live = [p for p, c in count.items() if c]
    if not live:
        return frozenset()
    comp = _component_of(src, dst)
    sa, sb = src.summands, dst.summands
    return frozenset(
        (i, k)
        for i, k in live
        if comp.tight_row(comp.id(sa[i].gamma)) >> comp.id(sb[k].gamma) & 1
    )


def verify_complex(c: Complex) -> bool:
    for i, j in c.d:
        if not (0 <= i < c.size and 0 <= j < c.size):
            return False
        if not _entry_ok(c.summands[i], c.summands[j], 1):
            return False
    return not _compose_entries(c.d, c.d, c, c)


def verify_chain_map(f: ChainMap) -> bool:
    for i, j in f.entries:
        if not _entry_ok(f.src.summands[i], f.dst.summands[j], f.k):
            return False
    lhs = _compose_entries(f.src.d, f.entries, f.src, f.dst)
    rhs = _compose_entries(f.entries, f.dst.d, f.src, f.dst)
    return lhs == rhs


def shift(c: Complex, k: int) -> Complex:
    return Complex(tuple(ProjSummand(s.gamma, s.h - k) for s in c.summands), c.d)


def identity_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, 0, frozenset((i, i) for i in range(c.size)))


def zero_map(src: Complex, dst: Complex, k: int = 0) -> ChainMap:
    return ChainMap(src, dst, k, frozenset())


def add_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    if (f.src, f.dst, f.k) != (g.src, g.dst, g.k):
        raise ShapeMismatch("map sum needs equal shapes and degrees")
    return ChainMap(f.src, f.dst, f.k, f.entries ^ g.entries)


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """First f, then g (diagrammatic order)."""
    if f.dst != g.src:
        raise ShapeMismatch("compose needs f.dst == g.src")
    return ChainMap(
        f.src, g.dst, f.k + g.k, _compose_entries(f.entries, g.entries, f.src, g.dst)
    )


def cone(f: ChainMap) -> Complex:
    """Mapping cone of a degree-0 chain map: src[1] + dst with f glued in."""
    if f.k != 0:
        raise ShapeMismatch("cone needs a degree-0 chain map")
    a, b = f.src, f.dst
    summands = tuple(ProjSummand(s.gamma, s.h - 1) for s in a.summands) + b.summands
    off = a.size
    d = set()
    d.update(f.src.d)
    d.update((i + off, j + off) for i, j in b.d)
    d.update((i, j + off) for i, j in f.entries)
    return Complex(summands, frozenset(d))


def euler_vector(c: Complex) -> dict[DividingSet, int]:
    """Class in the Grothendieck group: signed count of each projective."""
    out: dict[DividingSet, int] = {}
    for s in c.summands:
        out[s.gamma] = out.get(s.gamma, 0) + (-1) ** (s.h % 2)
    return {g: v for g, v in out.items() if v}


# ---------------------------------------------------------------------------
# hom spaces in the homotopy category


def map_basis(src: Complex, dst: Complex) -> list[tuple[int, int, int]]:
    """Every tight summand pair as (k, i, j), k = h_j - h_i, in (i, j) order.

    The one scan of summand pairs: each summand id is looked up once and
    one tight row is read per src summand.  Raises ComponentMismatch
    unless every summand of src and dst lies in one component.
    """
    comp = _component_of(src, dst)
    if comp is None:
        return []
    ids = [(comp.id(b.gamma), b.h) for b in dst.summands]
    out: list[tuple[int, int, int]] = []
    for i, a in enumerate(src.summands):
        row = comp.tight_row(comp.id(a.gamma))
        out.extend((h - a.h, i, j) for j, (x, h) in enumerate(ids) if row >> x & 1)
    return out


def _arrows(d: Iterable[tuple[int, int]], reverse: bool) -> dict[int, list[int]]:
    """Adjacency lists of a differential: i -> targets (or sources when reverse)."""
    out: dict[int, list[int]] = {}
    for i, j in d:
        if reverse:
            i, j = j, i
        out.setdefault(i, []).append(j)
    return out


def _columns(
    src_in: dict[int, list[int]],
    dst_out: dict[int, list[int]],
    basis_k: list,
    pos: dict[tuple[int, int], int],
) -> list[int]:
    """Columns of D on single-entry maps, as masks over the degree-(k+1)
    basis whose pairs pos indexes.

    D(i, j) has the entries (i, j') for j -> j' in d_dst and (i', j) for
    i' -> i in d_src.  The degree-(k+1) basis holds exactly the tight
    pairs of that degree, so an entry survives iff pos has it.
    """
    cols = []
    for i, j in basis_k:
        v = 0
        for j2 in dst_out.get(j, ()):
            t = pos.get((i, j2))
            if t is not None:
                v ^= 1 << t
        for i2 in src_in.get(i, ()):
            t = pos.get((i2, j))
            if t is not None:
                v ^= 1 << t
        cols.append(v)
    return cols


class HomComplex:
    """The graded complex of module maps src -> dst with D(f) = d_dst.f + f.d_src.

    Built for one call and dropped with it.  One map_basis call gives the
    map basis of every degree; `degrees` are the degrees some tight
    summand pair is apart by, and every other degree has an empty basis.
    Each degree's differential columns and rank are computed at most
    once.  Raises ComponentMismatch unless every summand of src and dst
    lies in one component.
    """

    def __init__(self, src: Complex, dst: Complex):
        self.src, self.dst = src, dst
        self._basis: dict[int, list[tuple[int, int]]] = {}
        for k, i, j in map_basis(src, dst):
            self._basis.setdefault(k, []).append((i, j))
        self.degrees = sorted(self._basis)
        self._src_in = _arrows(src.d, True)
        self._dst_out = _arrows(dst.d, False)
        self._pos: dict[int, dict[tuple[int, int], int]] = {}
        self._cols: dict[int, list[int]] = {}
        self._rank: dict[int, int] = {}

    def basis(self, k: int) -> list[tuple[int, int]]:
        """Tight summand pairs (i, j) with h_j - h_i = k, in (i, j) order."""
        return self._basis.get(k, [])

    def position(self, k: int) -> dict[tuple[int, int], int]:
        """Index of each pair in the degree-k basis."""
        pos = self._pos.get(k)
        if pos is None:
            pos = self._pos[k] = {p: t for t, p in enumerate(self.basis(k))}
        return pos

    def columns(self, k: int) -> list[int]:
        """D on the degree-k basis, as masks over the degree-(k+1) basis."""
        cols = self._cols.get(k)
        if cols is None:
            cols = self._cols[k] = _columns(
                self._src_in, self._dst_out, self.basis(k), self.position(k + 1)
            )
        return cols

    def rank(self, k: int) -> int:
        """Rank of D from degree k to degree k + 1."""
        r = self._rank.get(k)
        if r is None:
            empty = not (self.basis(k) and self.basis(k + 1))
            r = self._rank[k] = 0 if empty else gf2.rank(self.columns(k))
        return r

    def dim(self, k: int) -> int:
        """Dimension of degree-k chain maps modulo homotopy."""
        return len(self.basis(k)) - self.rank(k) - self.rank(k - 1)


def hom_dim(src: Complex, dst: Complex, k: int) -> int:
    """Dimension over GF(2) of degree-k chain maps modulo homotopy."""
    return HomComplex(src, dst).dim(k)


def hom_by_degree(src: Complex, dst: Complex) -> dict[int, int]:
    """The nonzero hom_dim(src, dst, k), keyed by ascending degree k.

    A degree no tight summand pair is apart by has an empty map basis, so
    only those degrees are computed; the count is bounded by the input
    size even when the summand degrees are far apart.
    """
    hc = HomComplex(src, dst)
    out = {}
    for k in hc.degrees:
        dim = hc.dim(k)
        if dim:
            out[k] = dim
    return out


def hom_total(src: Complex, dst: Complex) -> int:
    return sum(hom_by_degree(src, dst).values())


def find_homotopy(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    """h with f + g = d.h + h.d, or None ("Absent") if none exists."""
    if (f.src, f.dst, f.k) != (g.src, g.dst, g.k):
        raise ShapeMismatch("homotopy comparison needs equal shapes and degrees")
    hc = HomComplex(f.src, f.dst)
    pos = hc.position(f.k)
    target = 0
    for p in f.entries ^ g.entries:
        t = pos.get(p)
        if t is None:
            return None  # difference is not even a valid map-space vector
        target |= 1 << t
    sol = gf2.solve(hc.columns(f.k - 1), target)
    if sol is None:
        return None
    b_h = hc.basis(f.k - 1)
    return Homotopy(f.src, f.dst, f.k - 1, frozenset(b_h[i] for i in sol))


def is_nullhomotopic(f: ChainMap) -> bool:
    return find_homotopy(f, zero_map(f.src, f.dst, f.k)) is not None


def is_homotopy_equivalence(f: ChainMap) -> bool:
    """A degree-0 chain map is invertible up to homotopy iff its cone is
    contractible, a single linear solve over GF(2)."""
    c = cone(f)
    return find_homotopy(identity_map(c), zero_map(c, c)) is not None


def _hom_class_reps(src: Complex, dst: Complex) -> list[ChainMap]:
    """One representative per degree-0 homotopy class (including zero).

    Cocycle masks over the map basis double as vectors, so a basis of the
    cohomology is extracted by reducing cocycles against the coboundary
    span; all 2^dim class representatives are enumerated.
    """
    hc = HomComplex(src, dst)
    b0 = hc.basis(0)
    cocycles = gf2.nullspace(hc.columns(0))
    span = gf2.Eliminator()
    for c in hc.columns(-1):
        span.add(c)
    chosen: list[int] = []
    for v in cocycles:
        if span.reduce(v) is None:
            chosen.append(v)
            span.add(v)
    if len(chosen) > 8:
        raise ShapeMismatch("degree-0 hom space too large to enumerate")
    reps = [0]
    for v in chosen:
        reps += [r ^ v for r in reps]
    return [
        ChainMap(
            src, dst, 0, frozenset(b0[i] for i in range(len(b0)) if (r >> i) & 1)
        )
        for r in reps
    ]


def equivalent(a: Complex, b: Complex) -> bool:
    """Homotopy equivalence, searched over degree-0 hom classes."""
    if not a.summands and not b.summands:
        return True
    if euler_vector(a) != euler_vector(b):
        return False
    for f in _hom_class_reps(a, b):
        if is_homotopy_equivalence(f):
            return True
    return False


# ---------------------------------------------------------------------------
# simplification (cancellation of identity components)


def simplify(c: Complex) -> Complex:
    """Homotopy-equivalent complex with no identity differential entries.

    Repeatedly cancels a pair connected by an identity map, correcting the
    remaining differential by the zig-zag through the removed pair.
    """
    comp = _component_of(c)
    summands = list(c.summands)
    ids = [comp.id(s.gamma) for s in summands] if comp else []
    rows = [comp.tight_row(x) for x in ids] if comp else []
    d = set(c.d)
    while True:
        pivot = next(((i, j) for (i, j) in sorted(d) if ids[i] == ids[j]), None)
        if pivot is None:
            break
        i, j = pivot
        into_j = [(a, b) for (a, b) in d if b == j and a != i]
        from_i = [(a, b) for (a, b) in d if a == i and b != j]
        for a, _ in into_j:
            for _, b in from_i:
                if rows[a] >> ids[b] & 1:
                    if (a, b) in d:
                        d.remove((a, b))
                    else:
                        d.add((a, b))
        d = {(a, b) for (a, b) in d if i not in (a, b) and j not in (a, b)}
        keep = [t for t in range(len(summands)) if t not in (i, j)]
        renum = {t: s for s, t in enumerate(keep)}
        summands = [summands[t] for t in keep]
        ids = [ids[t] for t in keep]
        rows = [rows[t] for t in keep]
        d = {(renum[a], renum[b]) for (a, b) in d}
    return Complex(tuple(summands), frozenset(d))


# ---------------------------------------------------------------------------
# the algebra-side rotation functor


def serre_resolution(g: DividingSet) -> Complex:
    """Image of P(g) under the dual-bimodule functor, as an explicit complex.

    A single projective on the rotated object when label 1 is in the base;
    otherwise the length e+1 complex of projectives on the rotations'
    omitting sets, with the sliding differentials.
    """
    from .bypass import serre_rotate
    from .functor import build_F

    if not g.is_basic():
        raise NotBasic(repr(g))
    sg = serre_rotate(g)
    if 1 in g.star:
        assert sg.is_basic()
        return projective(sg)
    res = build_F(sg)
    assert res.size == g.e + 1
    return res


@lru_cache(maxsize=None)
def _induced_block(gi: DividingSet, gj: DividingSet) -> ChainMap:
    from .bypass import serre_rotate
    from .functor import F_of_morphism

    f = F_of_morphism(serre_rotate(gi), serre_rotate(gj))
    if f.k != 0:
        raise ShapeMismatch("induced rotation block must have degree 0")
    return f


def serre_transform(c: Complex) -> Complex:
    """Apply the rotation functor to a complex of projectives.

    Each summand is replaced by its resolution and each differential entry
    by the functor image of the rotated generator; when squares only
    commute up to homotopy, correction blocks along longer paths are
    solved for to keep the total differential square-zero.
    """
    blocks = [serre_resolution(s.gamma) for s in c.summands]
    offsets = []
    total: list[ProjSummand] = []
    for s, res in zip(c.summands, blocks):
        offsets.append(len(total))
        total.extend(ProjSummand(t.gamma, t.h + s.h) for t in res.summands)
    out = Complex(tuple(total), frozenset())

    d: set[tuple[int, int]] = set()
    for idx, res in enumerate(blocks):
        off = offsets[idx]
        d.update((off + a, off + b) for a, b in res.d)
    for i, j in c.d:
        f = _induced_block(c.summands[i].gamma, c.summands[j].gamma)
        d.update((offsets[i] + a, offsets[j] + b) for a, b in f.entries)

    result = Complex(tuple(total), frozenset(d))
    return _repair_differential(result, c, blocks, offsets)


def _repair_differential(
    result: Complex, c: Complex, blocks: list[Complex], offsets: list[int]
) -> Complex:
    """Add homotopy-correction blocks until the differential squares to zero."""
    d = set(result.d)
    guard = 0
    while True:
        sq = _compose_entries(d, d, result, result)
        if not sq:
            return Complex(result.summands, frozenset(d))
        guard += 1
        if guard > c.size:
            raise ShapeMismatch("differential repair did not terminate")
        # group failures by block pair and solve for a correction there
        fail_pairs = sorted(
            {
                (_block_of(a, offsets), _block_of(b, offsets))
                for a, b in sq
            }
        )
        for bi, bj in fail_pairs:
            off_i, off_j = offsets[bi], offsets[bj]
            res_i, res_j = blocks[bi], blocks[bj]
            hshift = c.summands[bj].h - c.summands[bi].h
            local = [
                (a - off_i, b - off_j)
                for a, b in sq
                if _block_of(a, offsets) == bi and _block_of(b, offsets) == bj
            ]
            # D(h) must cancel the local failure: solve over single entries
            hc = HomComplex(res_i, res_j)
            basis_h = hc.basis(1 - hshift)
            pos = hc.position(2 - hshift)
            target = 0
            for p in local:
                target |= 1 << pos[p]
            sol = gf2.solve(hc.columns(1 - hshift), target)
            if sol is None:
                raise ShapeMismatch("no homotopy correction for rotation square")
            for t in sol:
                a, b = basis_h[t]
                pair = (off_i + a, off_j + b)
                d.symmetric_difference_update({pair})


def _block_of(index: int, offsets: list[int]) -> int:
    return bisect_right(offsets, index) - 1


# ---------------------------------------------------------------------------
# JSON serialization


def complex_to_json(c: Complex) -> dict:
    return {
        "summands": [{"gamma": ds_to_json(s.gamma), "h": s.h} for s in c.summands],
        "d": sorted([i, j] for i, j in c.d),
    }


def complex_from_json(obj: dict) -> Complex:
    summands = tuple(
        ProjSummand(ds_from_json(s["gamma"]), int(s["h"])) for s in obj["summands"]
    )
    return Complex(summands, frozenset((int(i), int(j)) for i, j in obj["d"]))


def chain_map_to_json(f: ChainMap) -> dict:
    return {
        "src": complex_to_json(f.src),
        "dst": complex_to_json(f.dst),
        "k": f.k,
        "f": sorted([i, j] for i, j in f.entries),
    }
