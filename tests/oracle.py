"""Slow references that the tests compare the library against.

`HomComplex(src, dst)` builds the graded complex of module maps with
D(f) = d_dst.f + f.d_src on the single-entry basis that `kom.map_basis`
lists, and reads dimensions off GF(2) ranks of D.  The library answers
every hom dimension and nullhomotopy question from per-source column
retracts instead; the tests compare the two.

`from_partition` rebuilds a nesting tree from its label partition by
scanning the gaps of every candidate parent, and `surgery` and
`serre_rotate` build an attach target and a rotation from the label
partition through it.  The library decodes matchings with one stack scan
(`divset.from_matching`) and finds attach targets and rotations by
editing the matching.
"""

from __future__ import annotations

from typing import Iterable, Optional

from diskcontact import gf2, kom
from diskcontact.bypass import BypassMove
from diskcontact.divset import STAR, DividingSet, NestVector


def rank(vectors: Iterable[int]) -> int:
    """Rank of the span of the given bitmask vectors."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def nullspace(columns: list[int]) -> list[int]:
    """Basis of {x : sum x_i columns[i] = 0}, each x a bitmask over indices."""
    elim = gf2.Eliminator()
    out: list[int] = []
    for i, c in enumerate(columns):
        v, combo = elim._reduce(c, 1 << i)
        if v:
            elim._rows[v.bit_length() - 1] = (v, combo)
            elim._count += 1
        else:
            out.append(combo)
    return out


class HomComplex:
    """The graded complex of module maps src -> dst with D(f) = d_dst.f + f.d_src.

    One map_basis call gives the map basis of every degree; `degrees` are
    the degrees some tight summand pair is apart by, and every other
    degree has an empty basis.  Each degree's differential columns and
    rank are computed at most once.  Raises ComponentMismatch unless every
    summand of src and dst lies in one component.
    """

    def __init__(self, src: kom.Complex, dst: kom.Complex):
        self.src, self.dst = src, dst
        self._basis: dict[int, list[tuple[int, int]]] = {}
        for k, i, j in kom.map_basis(src, dst):
            self._basis.setdefault(k, []).append((i, j))
        self.degrees = sorted(self._basis)
        self._adjacency = (kom._arrows(src.d, True), kom._arrows(dst.d, False))
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
            src_in, dst_out = self._adjacency
            cols = self._cols[k] = kom._columns(src_in, dst_out, self.basis(k), self.position(k + 1))
        return cols

    def rank(self, k: int) -> int:
        """Rank of D from degree k to degree k + 1."""
        r = self._rank.get(k)
        if r is None:
            r = self._rank[k] = rank(self.columns(k))
        return r

    def dim(self, k: int) -> int:
        """Dimension of degree-k chain maps modulo homotopy."""
        return len(self.basis(k)) - self.rank(k) - self.rank(k - 1)


def hom_by_degree(src: kom.Complex, dst: kom.Complex) -> dict[int, int]:
    hc = HomComplex(src, dst)
    return {k: d for k in hc.degrees if (d := hc.dim(k))}


def hom_total(src: kom.Complex, dst: kom.Complex) -> int:
    return sum(hom_by_degree(src, dst).values())


def is_nullhomotopic(f: kom.ChainMap) -> bool:
    """Is f = D(h) for some h of degree f.k - 1?"""
    hc = HomComplex(f.src, f.dst)
    pos = hc.position(f.k)
    if any(p not in pos for p in f.entries):
        return False
    target = sum(1 << pos[p] for p in f.entries)
    return gf2.solve(hc.columns(f.k - 1), target) is not None


def from_partition(n: int, e: int, parts: Iterable[Iterable[int]]) -> DividingSet:
    """Rebuild the nesting tree from the label-set partition of R_+.

    The partition of a valid dividing set determines the tree: a component
    nests inside another exactly when it fits in one of its internal gaps
    (for the based component, also the final gap up to n+1); the direct
    parent is the innermost such, and siblings are numbered by ascending
    minimum label.
    """
    sets = [tuple(sorted(p)) for p in parts]
    based = next(p for p in sets if 0 in p)

    def gap_of(child: tuple, cand: tuple) -> Optional[tuple[int, int]]:
        gaps = list(zip(cand, cand[1:]))
        if cand == based:
            gaps.append((cand[-1], n + 1))
        for a, b in gaps:
            if a < child[0] and child[-1] < b:
                return (a, b)
        return None

    def parent_of(child: tuple) -> tuple:
        best, best_span = based, (-1, n + 1)
        for cand in sets:
            if cand is child or cand == based:
                continue
            g = gap_of(child, cand)
            if g and (g[1] - g[0]) < (best_span[1] - best_span[0]):
                best, best_span = cand, g
        return best

    children: dict[tuple, list[tuple]] = {p: [] for p in sets}
    for p in sets:
        if p != based:
            children[parent_of(p)].append(p)

    comps: dict[NestVector, tuple[int, ...]] = {}

    def assign(v: NestVector, labels: tuple) -> None:
        comps[v] = labels
        for t, ch in enumerate(sorted(children[labels]), start=1):
            assign(v + (t,), ch)

    assign(STAR, based)
    return DividingSet.make(n, e, comps)


def surgery(move: BypassMove) -> DividingSet:
    """The dividing set after the attachment, built from its partition: the
    left labels stay in uv, and the right labels join ov."""
    left = set(move.left_labels)
    parts = []
    for v, ls in move.source.components:
        if v == move.uv:
            parts.append(left)
            continue
        if v == move.ov:
            parts.append(set(ls) | set(move.right_labels))
            continue
        parts.append(set(ls))
    return from_partition(move.source.n, move.source.e, parts)


def serre_rotate(ds: DividingSet) -> DividingSet:
    """Rotation by one positive arc: every label s becomes s-1 mod n+1."""
    n1 = ds.n + 1
    parts = [{(s - 1) % n1 for s in ls} for _, ls in ds.components]
    return from_partition(ds.n, ds.e, parts)
