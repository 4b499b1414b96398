"""Slow references that the tests compare the library against.

`HomComplex(src, dst)` builds the graded complex of module maps with
D(f) = d_dst.f + f.d_src on the single-entry basis that `kom.map_basis`
lists, and reads dimensions off GF(2) ranks of D; `find_homotopy` solves
D for a homotopy between two maps.  The library answers every hom
dimension and nullhomotopy question from per-source column retracts
instead; the tests compare the two.

`find_moves` builds every bypass move from its chords through
`bypass.move_from_chords`, validates each and drops repeats; the library
builds them straight from the chords' walk slots and validates none.

`zero_region` finds the region of label 0 by cases, from the label sets
on the two sides of each chord of the figure and a walk around the
negative region between the exit and target chords.  The library reads
it from the clockwise order of the three chords' endpoints.

`bypass_chain` is a breadth-first search over the cached successors of
each stage, which keeps the first discoverer of each stage and stops at
the target.  The library finds the levels of the shortest chains on
matchings first, then walks the first move that stays on them, and
interns only the stages of the chain it returns.

`enumerate_objects` walks every crossingless matching of 2n+2 points in
lexicographic order (`noncrossing_matchings`), keeps those with n-e+1
positive faces and decodes each with `divset.from_matching`.  The
library generates the noncrossing partitions with n-e+1 blocks directly,
in the same order, with their matchings.

`from_partition` rebuilds a nesting tree from its label partition by
scanning the gaps of every candidate parent, and `surgery` and
`serre_rotate` build an attach target and a rotation from the label
partition through it.  The library decodes matchings with one stack scan
(`divset.from_matching`) and finds attach targets and rotations by
editing the matching.

The functor one omitting index at a time, as the paper defines it: an
index is a dict from each non-based vector to the position of its
omitted label, and `omitting_indices` lists them sorted.  `gamma_of`,
`coh_degree` and `differential_data` give each summand and its
differential, `negative_region_differential` one region's partial,
`split_indices` a bypass's identity and shuffling indices and
`index_image` where each goes.  The library works on tuples of
positions instead and reads a summand's place in F(ds) as a mixed-radix
number (`functor.index_tuples`).

`HOMS_LOOPS` runs three checks of the homs suite with their outer
variable over every object, in enumeration order, and returns the
counterexample each meets first (None if there is none).  The suite
loops over one representative per rotation orbit instead.

`full_table` and `reverse_bypass_zero` are the faithful suite's table
and reverse bypass check over every ordered pair.  The suite checks one
pair of each mirrored pair {(i, j), (rj, ri)} under the reflection r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from diskcontact import bypass, divset, functor, gf2, homs, kom
from diskcontact.bypass import BypassMove, attach
from diskcontact.divset import STAR, DividingSet, Matching, NestVector, basic_of, chord_key, ds_to_json, geometry
from diskcontact.divset import from_matching, nesting_sets, positive_faces
from diskcontact.errors import EulerMismatch, ShapeMismatch
from diskcontact.suites import _move_json, _not_exact


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


@dataclass(frozen=True)
class Homotopy:
    src: kom.Complex
    dst: kom.Complex
    k: int  # degree as a map; a homotopy for degree-k maps has degree k-1
    entries: frozenset


def find_homotopy(f: kom.ChainMap, g: kom.ChainMap) -> Optional[Homotopy]:
    """h with f + g = d.h + h.d, or None if there is none: one GF(2) solve
    of D on the degree f.k - 1 map basis.  Raises ShapeMismatch unless f
    and g have one shape and degree, and ComponentMismatch unless their
    summands lie in one component."""
    if (f.src, f.dst, f.k) != (g.src, g.dst, g.k):
        raise ShapeMismatch("homotopy comparison needs equal shapes and degrees")
    hc = HomComplex(f.src, f.dst)
    pos = hc.position(f.k)
    diff = f.entries ^ g.entries
    if any(p not in pos for p in diff):
        return None  # the difference is not a map-space vector of degree f.k
    sol = gf2.solve(hc.columns(f.k - 1), sum(1 << pos[p] for p in diff))
    if sol is None:
        return None
    basis = hc.basis(f.k - 1)
    return Homotopy(f.src, f.dst, f.k - 1, frozenset(basis[i] for i in sol))


def is_nullhomotopic(f: kom.ChainMap) -> bool:
    """Is f = D(h) for some h of degree f.k - 1?"""
    return find_homotopy(f, kom.zero_map(f.src, f.dst, f.k)) is not None


def find_moves(ds: DividingSet) -> list[BypassMove]:
    """Every (region, exit, target, entry) configuration of bypass.find_moves,
    each built by move_from_chords and validated, repeats dropped."""
    geo = geometry(ds)
    moves = []
    for region in geo.neg_regions:
        for c2 in region.chords:
            uv = geo.comp_of_chord[c2]
            for c3 in region.chords:
                if c3 == c2:
                    continue
                for c1 in ds.chords(uv):
                    if chord_key(c1) != c2:
                        move = bypass.move_from_chords(ds, c1, c2, c3)
                        bypass.validate_move(move)
                        moves.append(move)
    return sorted(set(moves), key=lambda b: (b.uv, b.ov, b.x, b.y, b.z))


def bypass_chain(g: DividingSet, g2: DividingSet) -> Optional[tuple[BypassMove, ...]]:
    """Shortest bypass chain from g to g2 through stages with hom into g2:
    a breadth-first search over `Component.successors` that keeps the
    first discoverer of each stage and stops at g2."""
    if g == g2:
        return ()
    comp = homs.component(g.n, g.e)
    start, target = comp.id(g), comp.id(g2)
    prev = homs.bypass_search(comp, start, target, True, stop=target)
    if target not in prev:
        return None
    chain = []
    node = target
    while node != start:
        node, move = prev[node]
        chain.append(move)
    return tuple(reversed(chain))


def noncrossing_matchings(n: int) -> Iterator[Matching]:
    """All crossingless matchings of 2(n+1) points, lexicographically."""
    size = 2 * n + 2
    m = [-1] * size

    def place(i: int) -> Iterator[Matching]:
        while i < size and m[i] >= 0:
            i += 1
        if i == size:
            yield tuple(m)
            return
        for j in range(i + 1, size, 2):
            if m[j] < 0:
                m[i], m[j] = j, i
                inner = all(m[k] < 0 or i < m[k] < j for k in range(i + 1, j))
                if inner:
                    yield from place(i + 1)
                m[i], m[j] = -1, -1

    yield from place(0)


def enumerate_objects(n: int, e: int) -> tuple[DividingSet, ...]:
    """The dividing sets of the (n, e) component, ordered by their matching."""
    if not 0 <= e <= n:
        raise EulerMismatch(f"need 0 <= e <= n, got e={e}, n={n}")
    return tuple(
        from_matching(m, n, e)
        for m in noncrossing_matchings(n)
        if len(positive_faces(m)) == n - e + 1
    )


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


def chord_sides(n: int, c: tuple[int, int]) -> tuple[frozenset[int], frozenset[int]]:
    """Partition of the labels by the two sides of a chord.

    A positive arc (2s, 2s+1) lies on the side swept by the clockwise walk
    from c[0] to c[1] exactly when its start point 2s is reached before
    c[1]; the two sides partition all n+1 labels.
    """
    size = 2 * n + 2
    a, b = c
    d = (b - a) % size
    side1 = frozenset(s for s in range(n + 1) if (2 * s - a) % size < d)
    return side1, frozenset(range(n + 1)) - side1


def side_containing(n: int, c: tuple[int, int], label: int) -> frozenset[int]:
    a, b = chord_sides(n, c)
    return a if label in a else b


def far_side_labels(ds: DividingSet, c: tuple[int, int], near_label: int) -> frozenset[int]:
    """Labels on the opposite side of chord c from the one holding near_label."""
    a, b = chord_sides(ds.n, c)
    return b if near_label in a else a


def chords_between(cs, c_in, c_out) -> list:
    """The chords strictly between c_in and c_out in the cyclic order cs."""
    k, j = len(cs), cs.index(c_out)
    p = (cs.index(c_in) + 1) % k
    out = []
    while p != j:
        out.append(cs[p])
        p = (p + 1) % k
    return out


def zero_region(move: BypassMove) -> int:
    """bypass.zero_region by cases: which side of each chord of the figure
    holds label 0, and, on the negative-region side of the exit chord,
    which chord of the region it hangs beyond, walking from the exit
    chord to the target chord (region 3) or back (region 5)."""
    ds = move.source
    if 0 in ds.labels(move.uv):
        return 2 if 0 in move.left_labels else 6
    c1, c2, c3 = (chord_key(c) for c in move.chords)
    anchor = ds.labels(move.uv)[0]
    if 0 in far_side_labels(ds, c1, anchor):
        return 1
    if 0 in side_containing(ds.n, c3, ds.label_at(move.ov, 0)):
        return 4
    if 0 in side_containing(ds.n, c2, anchor):
        # on the uv side of the exit chord, hanging beyond another chord of
        # uv; left exactly when that chord joins two left labels
        left_internal = move.left_positions[:-1]
        for j, ch in enumerate(ds.chords(move.uv)):
            cj = chord_key(ch)
            if cj in (c1, c2):
                continue
            if 0 in far_side_labels(ds, cj, anchor):
                return 2 if j in left_internal else 6
        raise AssertionError("label 0 not found beyond any chord of uv")
    geo = geometry(ds)
    cs = geo.neg_regions[geo.neg_of_chord[c2]].chords
    for region, (c_in, c_out) in ((3, (c2, c3)), (5, (c3, c2))):
        for c in chords_between(cs, c_in, c_out):
            owner = geo.comp_of_chord[c]
            if 0 in side_containing(ds.n, c, ds.label_at(owner, 0)):
                return region
    raise AssertionError("label 0 not located in any region")


# ---------------------------------------------------------------------------
# omitting indices one at a time


def omitting_indices(ds: DividingSet) -> list[dict]:
    """Every omitting index of ds, built one by one and sorted."""
    ranges = [range(ds.l(v) + 1) for v in ds.tpv]
    out = [dict(zip(ds.tpv, t)) for t in itertools.product(*ranges)]
    return sorted(out, key=lambda idx: sorted(idx.items()))


def position(ds: DividingSet, idx: dict) -> int:
    """The place of idx among the omitting indices; ValueError if none."""
    return omitting_indices(ds).index(idx)


def omitted_labels(ds: DividingSet, idx: dict) -> frozenset[int]:
    return frozenset(ds.label_at(v, i) for v, i in idx.items())


def gamma_of(ds: DividingSet, idx: dict) -> DividingSet:
    """The basic dividing set omitting one label per non-based component."""
    return basic_of(ds.n, ds.e, set(range(ds.n + 1)) - omitted_labels(ds, idx))


def coh_degree(ds: DividingSet, idx: dict) -> int:
    """The height h(i), the sum of i + l(NV(v, i)) over the index's entries;
    summands sit at complex degree -h(i)."""
    return sum(i + sum(ds.l(w) for w in nesting_sets(ds, v, i)[0]) for v, i in idx.items())


def differential_data(ds: DividingSet, idx: dict) -> list[tuple[NestVector, dict]]:
    """All (vector, modified index) moves out of one omitting index, by
    vector.  A vector v at position i > 0 moves to i - 1 when every vector
    of DNV(v, i) sits at 0: sliding when DNV(v, i) is empty, shuffling
    otherwise, and a shuffling move sends DNV(v, i) to their last labels."""
    out = []
    for v, i in sorted(idx.items()):
        dnv = nesting_sets(ds, v, i)[1]
        if i > 0 and all(idx[w] == 0 for w in dnv):
            out.append((v, {**idx, v: i - 1, **{w: ds.l(w) for w in dnv}}))
    return out


def negative_region_differential(ds: DividingSet, region_index: int) -> frozenset:
    """The partial differential of one negative region.  Every positive
    component on its rim must be non-based and one not boundary-parallel;
    an index is admissible when each omits the label at the walk-entry
    corner of its rim chord, and it goes to the index omitting the rim
    chords' own labels."""
    geo = geometry(ds)
    rim = []
    for c in geo.neg_regions[region_index].chords:
        v = geo.comp_of_chord[c]
        if v == STAR:
            return frozenset()
        rim.append((v, [chord_key(ch) for ch in ds.chords(v)].index(c)))
    if all(ds.l(v) == 0 for v, _ in rim):
        return frozenset()
    indices = omitting_indices(ds)
    return frozenset(
        (t, indices.index({**idx, **dict(rim)}))
        for t, idx in enumerate(indices)
        if all(idx[v] == (j + 1) % (ds.l(v) + 1) for v, j in rim)
    )


def split_indices(move: BypassMove):
    """(identity indices, shuffling indices, type, LSV, pivot or None).
    An identity index sits left of the arc: label 0 is left of it when uv
    is based, else uv's omitted position lies in [[x, y]].  A shuffling
    index is any other with ov at z and the left shuffling vectors at 0,
    except a type Z pivot, which sits at its position."""
    ds = move.source
    lsv = functor.left_shuffling_vectors(move)
    kind, wb, kb = functor._shuffling_type(move, lsv)

    def left(idx: dict) -> bool:
        if 0 in ds.labels(move.uv):
            return 0 in move.left_labels
        return idx[move.uv] in move.left_positions

    def shuffling(idx: dict) -> bool:
        if move.ov == STAR or kind == "none" or left(idx) or idx[move.ov] != move.z:
            return False
        want = {w: 0 for w in lsv}
        if kind == "Z":
            want[wb] = kb
        return all(idx[w] == x for w, x in want.items())

    indices = omitting_indices(ds)
    return (
        [idx for idx in indices if left(idx)],
        [idx for idx in indices if shuffling(idx)],
        kind,
        lsv,
        (wb, kb) if kind == "Z" else None,
    )


def index_image(move: BypassMove, idx: dict) -> dict:
    """The omitting index of the target complex hit by this summand: an
    identity index omits the same labels after the move.  A shuffling
    index gives up the labels of ov and of uv, and omits y's label of uv,
    the last label of each left shuffling vector (the label before its
    position for a type Z pivot) and, when label 0 is not right of the
    arc, uv's old label.  Raises ValueError for any other index."""
    ds = move.source
    ii, si, kind, lsv, pivot = split_indices(move)
    if idx in ii:
        omitted = set(omitted_labels(ds, idx))
    elif idx in si:
        lab = {move.uv: ds.label_at(move.uv, move.y)}
        for w in lsv:
            lab[w] = ds.label_at(w, ds.l(w))
        if pivot is not None:
            lab[pivot[0]] = ds.label_at(pivot[0], pivot[1] - 1)
        omitted = set(lab.values())
        omitted.update(ds.label_at(v, i) for v, i in idx.items() if v not in lab and v != move.ov)
        if 0 not in move.right_labels:
            omitted.add(ds.label_at(move.uv, idx[move.uv]))
    else:
        raise ValueError(f"{idx} is not an identity or shuffling index")
    target = attach(ds, move)
    hits = [(v, i) for v in target.tpv for i, s in enumerate(target.labels(v)) if s in omitted]
    image = dict(hits)
    assert len(hits) == len(image) == len(target.tpv), (target, omitted)
    return image


# ---------------------------------------------------------------------------
# the homs suite's checks, looping over every object


def _first(comp: homs.Component, mask: int) -> int:
    return next(i for i in comp.ids() if mask >> i & 1)


def serre_iff(n: int, e: int) -> Optional[dict]:
    comp = homs.component(n, e)
    comp.hom_table()
    for i in comp.ids():
        rotated = comp.id(serre_rotate(comp.objects[i]))
        bad = comp.hom_out(i) ^ comp.hom_in(rotated)
        if bad:
            return {"src": ds_to_json(comp.objects[i]), "dst": ds_to_json(comp.objects[_first(comp, bad)])}
    return None


def chain_order_insensitive(n: int, e: int) -> Optional[dict]:
    comp = homs.component(n, e)
    ids = comp.ids()
    for i in ids:
        bad = 0
        for k in ids:
            bad |= comp.middles(i, k) ^ comp.middles_right(i, k)
        if bad:
            j = _first(comp, bad)
            k = next(k for k in ids if (comp.middles(i, k) ^ comp.middles_right(i, k)) >> j & 1)
            return dict(zip(("g", "g2", "g3"), (ds_to_json(comp.objects[x]) for x in (i, j, k))))
    return None


def exactness(n: int, e: int) -> Optional[dict]:
    comp = homs.component(n, e)
    tris: dict = {}
    for g in divset.enumerate_objects(n, e):
        for mv in bypass.enumerate_bypasses(g):
            t = bypass.triangle(g, mv)
            tris[t.g1, t.g2, t.g3] = None
    for cyc in tris:
        t = [comp.id(x) for x in cyc]
        bad = 0
        for s in range(3):
            a, b, c = t[s], t[(s + 1) % 3], t[(s + 2) % 3]
            bad |= _not_exact(comp.sources(a, b), comp.sources(b, c), comp.hom_in(b))
            bad |= _not_exact(comp.targets(b, c), comp.targets(a, b), comp.hom_out(b))
        if bad:
            x = comp.objects[_first(comp, bad)]
            return {"x": ds_to_json(x), "triangle": [ds_to_json(y) for y in cyc]}
    return None


HOMS_LOOPS = {
    "homs.serre_duality_iff": serre_iff,
    "homs.stack_order_insensitive": chain_order_insensitive,
    "homs.triangle_exactness": exactness,
}


# ---------------------------------------------------------------------------
# the faithful suite's pair checks, over every ordered pair


def full_table(n: int, e: int) -> Optional[dict]:
    comp = homs.component(n, e)
    comp.hom_table()
    objs = divset.enumerate_objects(n, e)
    row = list(zip(objs, comp.ids(), map(functor.build_F, objs)))
    for g, i, F in row:
        retracts = kom.column_retracts(F)
        out = comp.hom_out(i)
        tree = homs.bypass_search(comp, i, i, False)
        maps = functor.F_of_tree(F, tree, tree)
        for g2, j, F2 in row:
            want = out >> j & 1
            got = kom.hom_total_from(retracts, F2)
            if got != want:
                return {"src": ds_to_json(g), "dst": ds_to_json(g2), "got": got}
            if want:
                f = maps.get(j)
                if f is None:
                    return {"src": ds_to_json(g), "dst": ds_to_json(g2), "reached": False}
                if kom.is_nullhomotopic_from(retracts, f):
                    return {"src": ds_to_json(g), "dst": ds_to_json(g2), "null": True}
    return None


def reverse_bypass_zero(n: int, e: int) -> Optional[dict]:
    for g in divset.enumerate_objects(n, e):
        for mv in bypass.enumerate_bypasses(g):
            if kom.hom_total(functor.build_F(attach(g, mv)), functor.build_F(g)) != 0:
                return {"ds": ds_to_json(g), "move": _move_json(mv)}
    return None


FAITHFUL_LOOPS = {
    "faithful.hom_table_matches_contact_category": full_table,
    "faithful.reverse_bypass_hom_vanishes": reverse_bypass_zero,
}
