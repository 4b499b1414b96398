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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import gf2
from .divset import DividingSet, ds_from_json, ds_to_json
from .errors import NotBasic, ShapeMismatch
from .homs import tight_basic

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
    return b.h == a.h + k and tight_basic(a.gamma, b.gamma)


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
    return frozenset(
        (i, k)
        for (i, k), c in count.items()
        if c and tight_basic(src.summands[i].gamma, dst.summands[k].gamma)
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


def map_basis(src: Complex, dst: Complex, k: int) -> list[tuple[int, int]]:
    """Summand pairs supporting a nonzero degree-k module map."""
    return [
        (i, j)
        for i, a in enumerate(src.summands)
        for j, b in enumerate(dst.summands)
        if _entry_ok(a, b, k)
    ]


def _differential_on_maps(
    src: Complex, dst: Complex, k: int, basis_k: list, basis_k1: list
) -> list[int]:
    """Columns of D(f) = d_dst . f + f . d_src on single-entry maps."""
    pos = {p: t for t, p in enumerate(basis_k1)}
    cols = []
    for (i, j) in basis_k:
        img = _compose_entries([(i, j)], dst.d, src, dst) ^ _compose_entries(
            src.d, [(i, j)], src, dst
        )
        v = 0
        for p in img:
            if p in pos:
                v |= 1 << pos[p]
        cols.append(v)
    return cols


def hom_dim(src: Complex, dst: Complex, k: int) -> int:
    """Dimension over GF(2) of degree-k chain maps modulo homotopy."""
    b_prev = map_basis(src, dst, k - 1)
    b_k = map_basis(src, dst, k)
    b_next = map_basis(src, dst, k + 1)
    d_k = _differential_on_maps(src, dst, k, b_k, b_next)
    d_prev = _differential_on_maps(src, dst, k - 1, b_prev, b_k)
    return (len(b_k) - gf2.rank(d_k)) - gf2.rank(d_prev)


def hom_by_degree(src: Complex, dst: Complex) -> dict[int, int]:
    """The nonzero hom_dim(src, dst, k), keyed by ascending degree k.

    A degree no summand pair is apart by has an empty map basis, so only
    those degrees are computed; the count is bounded by the input size
    even when the summand degrees are far apart.
    """
    out = {}
    for k in sorted({b.h - a.h for a in src.summands for b in dst.summands}):
        dim = hom_dim(src, dst, k)
        if dim:
            out[k] = dim
    return out


def hom_total(src: Complex, dst: Complex) -> int:
    return sum(hom_by_degree(src, dst).values())


def find_homotopy(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    """h with f + g = d.h + h.d, or None ("Absent") if none exists."""
    if (f.src, f.dst, f.k) != (g.src, g.dst, g.k):
        raise ShapeMismatch("homotopy comparison needs equal shapes and degrees")
    target_entries = f.entries ^ g.entries
    b_h = map_basis(f.src, f.dst, f.k - 1)
    b_k = map_basis(f.src, f.dst, f.k)
    pos = {p: t for t, p in enumerate(b_k)}
    target = 0
    for p in target_entries:
        if p not in pos:
            return None  # difference is not even a valid map-space vector
        target |= 1 << pos[p]
    cols = _differential_on_maps(f.src, f.dst, f.k - 1, b_h, b_k)
    sol = gf2.solve(cols, target)
    if sol is None:
        return None
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
    b0 = map_basis(src, dst, 0)
    b1 = map_basis(src, dst, 1)
    bm = map_basis(src, dst, -1)
    cocycles = gf2.nullspace(_differential_on_maps(src, dst, 0, b0, b1))
    span = gf2.Eliminator()
    for c in _differential_on_maps(src, dst, -1, bm, b0):
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
    summands = list(c.summands)
    d = set(c.d)
    while True:
        pivot = next(
            (
                (i, j)
                for (i, j) in sorted(d)
                if summands[i].gamma == summands[j].gamma
            ),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        into_j = [(a, b) for (a, b) in d if b == j and a != i]
        from_i = [(a, b) for (a, b) in d if a == i and b != j]
        for a, _ in into_j:
            for _, b in from_i:
                if tight_basic(summands[a].gamma, summands[b].gamma):
                    if (a, b) in d:
                        d.remove((a, b))
                    else:
                        d.add((a, b))
        d = {(a, b) for (a, b) in d if i not in (a, b) and j not in (a, b)}
        keep = [t for t in range(len(summands)) if t not in (i, j)]
        renum = {t: s for s, t in enumerate(keep)}
        summands = [summands[t] for t in keep]
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
            basis_h = map_basis(res_i, res_j, 1 - hshift)
            # D(h) must cancel the local failure: solve over single entries
            pos_basis = map_basis(res_i, res_j, 2 - hshift)
            pos = {p: t for t, p in enumerate(pos_basis)}
            target = 0
            for p in local:
                target |= 1 << pos[p]
            cols = _differential_on_maps(res_i, res_j, 1 - hshift, basis_h, pos_basis)
            sol = gf2.solve(cols, target)
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
