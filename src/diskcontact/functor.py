"""The functor from dividing sets to complexes of projectives.

Each dividing set yields one projective summand per omitting index (one
omitted label in every non-based component).  The displayed height
h(i) is nonnegative with the top term at 0; summands are placed at
cohomological degree -h(i) so that the differential, which lowers h by
one, raises the complex degree by one.

A nontrivial bypass move induces a chain map: identity indices transfer
their omitted labels unchanged, shuffling indices move the omitted labels
across the attaching arc, all other summands map to zero.  The degree of
the chain map equals the drop in h, is constant across the surviving
summands, and is given by a closed three-case formula depending on where
label 0 sits relative to the arc.

F-images with their omitting indices and bypass chain maps are kept by
the component index (homs.Component), keyed by object id and move id.
They are built on positions: an omitting index is a tuple of positions,
one per non-based vector, and its place among the sorted indices is that
tuple read as a mixed-radix number.  The per-index functions below
(coh_degree, differential_data, index_image) are the slow references.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bypass import BypassMove, Triangle, attach, zero_region
from .divset import (
    STAR,
    DividingSet,
    NestVector,
    basic_of,
    chord_key,
    geometry,
    nesting_sets,
)
from .errors import IndexNotApplicable, InvalidMove
# tight_basic stays bound here for bench/test_bench.py, which asserts the tracer rebinds it
from .homs import Component, bypass_chain, component, hom_nonzero, tight_basic
from .kom import ChainMap, Complex, ProjSummand, compose, identity_map, shift, zero_map


@dataclass(frozen=True)
class OmittingIndex:
    """One omitted position per non-based component, keyed by vector."""

    entries: tuple[tuple[NestVector, int], ...]

    @staticmethod
    def make(mapping: dict[NestVector, int]) -> "OmittingIndex":
        return OmittingIndex(tuple(sorted(mapping.items())))

    def entry(self, v: NestVector) -> int:
        for w, i in self.entries:
            if w == v:
                return i
        raise KeyError(v)

    def replace(self, changes: dict[NestVector, int]) -> "OmittingIndex":
        return OmittingIndex.make({**dict(self.entries), **changes})

    @property
    def is_zero(self) -> bool:
        return all(i == 0 for _, i in self.entries)


@dataclass(frozen=True)
class GradedObject:
    """A dividing set with an integer homotopy grading relative to the
    canonical one (which is 0 for every object)."""

    gamma: DividingSet
    a: int


def omitting_indices(ds: DividingSet) -> tuple[OmittingIndex, ...]:
    return f_data(ds).indices


def _index_tuples(labels: list[tuple[int, ...]]):
    """The omitting indices as tuples of positions, given the labels of
    each vector of tpv, in sorted order: a mixed-radix count over the
    radices l(v) + 1, the last vector fastest, so a tuple's rank is its
    index's position."""
    return itertools.product(*(range(len(ls)) for ls in labels))


def omitted_labels(ds: DividingSet, idx: OmittingIndex) -> frozenset[int]:
    return frozenset(ds.label_at(v, i) for v, i in idx.entries)


def gamma_of(ds: DividingSet, idx: OmittingIndex) -> DividingSet:
    """The basic dividing set omitting one label per non-based component."""
    base = set(range(ds.n + 1)) - omitted_labels(ds, idx)
    return basic_of(ds.n, ds.e, base)


def nesting_degree(ds: DividingSet, v: NestVector, i: int) -> int:
    nv, _ = nesting_sets(ds, v, i)
    return sum(ds.l(w) for w in nv)


def coh_degree(ds: DividingSet, idx: OmittingIndex) -> int:
    """The nonnegative height h(i); summands sit at complex degree -h(i)."""
    return sum(i + nesting_degree(ds, v, i) for v, i in idx.entries)


# ---------------------------------------------------------------------------
# the differential


def sliding_vectors(ds: DividingSet, idx: OmittingIndex) -> tuple[NestVector, ...]:
    out = []
    for v, i in idx.entries:
        if i > 0 and not nesting_sets(ds, v, i)[1]:
            out.append(v)
    return tuple(out)


def shuffling_vectors(ds: DividingSet, idx: OmittingIndex) -> tuple[NestVector, ...]:
    out = []
    for v, i in idx.entries:
        if i == 0:
            continue
        dnv = nesting_sets(ds, v, i)[1]
        if dnv and all(idx.entry(w) == 0 for w in dnv):
            out.append(v)
    return tuple(out)


def modified_index(ds: DividingSet, idx: OmittingIndex, v: NestVector) -> OmittingIndex:
    i = idx.entry(v)
    dnv = nesting_sets(ds, v, i)[1]
    changes = {v: i - 1}
    if dnv:  # shuffling: nested components jump to their last label
        for w in dnv:
            changes[w] = ds.l(w)
    return idx.replace(changes)


def differential_data(
    ds: DividingSet, idx: OmittingIndex
) -> tuple[tuple[NestVector, OmittingIndex], ...]:
    """All (vector, modified index) moves out of one omitting index."""
    out = []
    for v in sliding_vectors(ds, idx) + shuffling_vectors(ds, idx):
        out.append((v, modified_index(ds, idx, v)))
    return tuple(sorted(out, key=lambda p: p[0]))


@dataclass(frozen=True)
class FData:
    ds: DividingSet
    complex: Complex
    indices: tuple[OmittingIndex, ...]

    def position(self, idx: OmittingIndex) -> int:
        """The place of idx in indices, read as a mixed-radix number."""
        tpv = self.ds.tpv
        if len(idx.entries) != len(tpv):
            raise ValueError(f"{idx} is not an omitting index of {self.ds}")
        p = 0
        for (v, i), w in zip(idx.entries, tpv):
            r = len(self.ds.labels(w))
            if v != w or not 0 <= i < r:
                raise ValueError(f"{idx} is not an omitting index of {self.ds}")
            p = p * r + i
        return p


def f_data(ds: DividingSet) -> FData:
    """F(ds) with its omitting indices, kept by the component index."""
    comp = component(ds.n, ds.e)
    i = comp.id(ds)
    data = comp.f_images.get(i)
    if data is None:
        data = comp.f_images[i] = _f_data(comp.objects[i])
    return data


def _f_data(ds: DividingSet) -> FData:
    """coh_degree, gamma_of and differential_data on every omitting index,
    read from one table per non-based vector v and position i: the height
    term i + sum of l(w) over NV(v, i), and the position change of the
    differential move at (v, i) with the vectors of DNV(v, i) it needs at 0."""
    comp = component(ds.n, ds.e)
    tpv = ds.tpv
    col = {v: c for c, v in enumerate(tpv)}
    labels = [ds.labels(v) for v in tpv]
    strides = [1] * len(tpv)
    for c in range(len(tpv) - 2, -1, -1):
        strides[c] = strides[c + 1] * len(labels[c + 1])
    heights, moves = [], []
    for c, v in enumerate(tpv):
        hs, ms = [], []
        for i in range(len(labels[c])):
            nv, dnv = nesting_sets(ds, v, i)
            hs.append(i + sum(ds.l(w) for w in nv))
            nested = tuple(col[w] for w in dnv)
            # sliding lowers i; shuffling also sends DNV(v, i) to their last labels
            ms.append((nested, sum(ds.l(w) * strides[col[w]] for w in dnv) - strides[c]))
        heights.append(hs)
        moves.append(ms)
    everything = frozenset(range(ds.n + 1))
    indices, summands = [], []
    for t in _index_tuples(labels):
        indices.append(OmittingIndex(tuple(zip(tpv, t))))
        base = everything.difference([ls[i] for ls, i in zip(labels, t)])
        h = sum(hs[i] for hs, i in zip(heights, t))
        summands.append(ProjSummand(basic_of(ds.n, ds.e, base), -h))
    ids = [comp.id(s.gamma) for s in summands]
    d = set()
    for p, t in enumerate(_index_tuples(labels)):
        for c, i in enumerate(t):
            if i == 0:
                continue
            nested, jump = moves[c][i]
            if all(t[w] == 0 for w in nested):
                q = p + jump
                assert comp.tight_row(ids[p]) >> ids[q] & 1
                d.add((p, q))
    return FData(ds, Complex(tuple(summands), frozenset(d)), tuple(indices))


def build_F(ds: DividingSet) -> Complex:
    return f_data(ds).complex


# ---------------------------------------------------------------------------
# the differential split by negative regions


def c_admissible(ds: DividingSet, region_index: int, idx: OmittingIndex) -> bool:
    """Is the omitting index admissible for this negative region?

    Every positive component on the region's rim must be non-based, at
    least one must be non-boundary-parallel, and each one's omitted label
    must sit at the walk-entry corner of its rim chord.
    """
    geo = geometry(ds)
    region = geo.neg_regions[region_index]
    rim = []
    for c in region.chords:
        v = geo.comp_of_chord[c]
        if v == STAR:
            return False
        j = [chord_key(ch) for ch in ds.chords(v)].index(c)
        rim.append((v, j))
    if all(ds.l(v) == 0 for v, _ in rim):
        return False
    return all(idx.entry(v) == (j + 1) % (ds.l(v) + 1) for v, j in rim)


def c_modified(ds: DividingSet, region_index: int, idx: OmittingIndex) -> OmittingIndex:
    geo = geometry(ds)
    region = geo.neg_regions[region_index]
    changes = {}
    for c in region.chords:
        v = geo.comp_of_chord[c]
        j = [chord_key(ch) for ch in ds.chords(v)].index(c)
        changes[v] = j
    return idx.replace(changes)


def negative_region_differential(ds: DividingSet, region_index: int) -> frozenset:
    """Entries of the partial differential attached to one negative region."""
    data = f_data(ds)
    out = set()
    for t, idx in enumerate(data.indices):
        if c_admissible(ds, region_index, idx):
            out.add((t, data.position(c_modified(ds, region_index, idx))))
    return frozenset(out)


# ---------------------------------------------------------------------------
# chain maps of bypasses


def left_shuffling_vectors(move: BypassMove) -> tuple[NestVector, ...]:
    """Components strung along the left of the arc between uv and ov."""
    ds = move.source
    geo = geometry(ds)
    a = ds.label_at(move.uv, move.y)
    b = ds.label_at(move.ov, move.z)
    n1 = ds.n + 1
    if a <= b:
        window = set(range(a, b + 1))
    else:
        window = set(range(a, n1)) | set(range(0, b + 1))
    out = []
    for w in ds.tpv:
        if w in (move.uv, move.ov) or ds.l(w) == 0:
            continue
        if not set(ds.labels(w)) <= window:
            continue
        if geo.adjacent(w, move.uv) and geo.adjacent(w, move.ov):
            out.append(w)
    return tuple(sorted(out))


def _shuffling_type(move: BypassMove, lsv: tuple[NestVector, ...]):
    ds = move.source
    a = ds.label_at(move.uv, move.y)
    b = ds.label_at(move.ov, move.z)
    if a < b:
        return ("Y", None, None)
    both = set(ds.labels(move.uv)) | set(ds.labels(move.ov))
    for w in lsv:
        ls = ds.labels(w)
        for k in range(1, len(ls)):
            if all(ls[k - 1] < s < ls[k] for s in both):
                return ("Z", w, k)
    return ("none", None, None)


def _left_of_arc(move: BypassMove, tpv: tuple[NestVector, ...]):
    """Predicate on omitting indices as tuples of positions over tpv: does
    the summand sit left of the arc (label 0 left of it when uv is based,
    else uv's omitted position inside [[x, y]])?  These are the identity
    indices; shuffling indices are drawn from the others."""
    if 0 in move.source.labels(move.uv):
        zero_left = 0 in move.left_labels
        return lambda t: zero_left
    u = tpv.index(move.uv)
    left = frozenset(move.left_positions)
    return lambda t: t[u] in left


def identity_indices(move: BypassMove) -> tuple[OmittingIndex, ...]:
    left = _left_of_arc(move, move.source.tpv)
    return tuple(
        idx for idx in omitting_indices(move.source) if left([i for _, i in idx.entries])
    )


def _shuffling_indices(move: BypassMove, shuffle, lsv) -> tuple[OmittingIndex, ...]:
    kind, wb, kb = shuffle
    if move.ov == STAR or kind == "none":
        return ()
    left = _left_of_arc(move, move.source.tpv)
    out = []
    for idx in omitting_indices(move.source):
        if left([i for _, i in idx.entries]) or idx.entry(move.ov) != move.z:
            continue
        if kind == "Y":
            if any(idx.entry(w) != 0 for w in lsv):
                continue
        else:
            if idx.entry(wb) != kb:
                continue
            if any(idx.entry(w) != 0 for w in lsv if w != wb):
                continue
        out.append(idx)
    return tuple(out)


def split_indices(move: BypassMove):
    """(identity indices, shuffling indices, type, LSV, pivot or None)."""
    lsv = left_shuffling_vectors(move)
    shuffle = _shuffling_type(move, lsv)
    kind, wb, kb = shuffle
    return (
        identity_indices(move),
        _shuffling_indices(move, shuffle, lsv),
        kind,
        lsv,
        (wb, kb) if kind == "Z" else None,
    )


def _shuffled_omitted(move: BypassMove, shuffle, lsv):
    """The labels a shuffling index omits after the move, as a function of
    the index; the part common to every index is computed once."""
    ds = move.source
    common, skip, merged = _shuffled_common(move, shuffle, lsv)

    def omitted(idx: OmittingIndex) -> frozenset[int]:
        keep = {ds.label_at(v, i) for v, i in idx.entries if v not in skip}
        if merged:
            keep.add(ds.label_at(move.uv, idx.entry(move.uv)))
        return common.union(keep)

    return omitted


def _shuffled_common(move: BypassMove, shuffle, lsv):
    """(labels every shuffling index omits after the move, the vectors
    whose omitted labels those replace, whether uv's omitted label stays)."""
    ds = move.source
    kind, wb, kb = shuffle
    lab = {move.uv: ds.label_at(move.uv, move.y)}
    for w in lsv:
        lab[w] = ds.label_at(w, ds.l(w))
    if kind == "Z":
        lab[wb] = ds.label_at(wb, kb - 1)
    # the merged component is non-based and omits uv's old label
    return frozenset(lab.values()), set(lab) | {move.ov}, 0 not in move.right_labels


def _index_of_omitted(target: DividingSet):
    """The omitting index of target that omits the given labels."""
    where = {s: (v, i) for v in target.tpv for i, s in enumerate(target.labels(v))}
    count = len(target.tpv)

    def index(omitted: frozenset[int]) -> OmittingIndex:
        changes = {}
        for s in omitted:
            hit = where.get(s)
            if hit is not None:
                assert hit[0] not in changes, (target, omitted)
                changes[hit[0]] = hit[1]
        assert len(changes) == count, (target, omitted)
        return OmittingIndex.make(changes)

    return index


def index_image(move: BypassMove, idx: OmittingIndex) -> OmittingIndex:
    """The omitting index of the target complex hit by this summand."""
    ds = move.source
    lsv = left_shuffling_vectors(move)
    shuffle = _shuffling_type(move, lsv)
    if idx in identity_indices(move):
        omitted = omitted_labels(ds, idx)
    elif idx in _shuffling_indices(move, shuffle, lsv):
        omitted = _shuffled_omitted(move, shuffle, lsv)(idx)
    else:
        raise IndexNotApplicable(f"{idx} not an identity or shuffling index")
    return _index_of_omitted(attach(ds, move))(omitted)


def chain_map_F(move: BypassMove) -> ChainMap:
    """The chain map induced by a nontrivial bypass, kept by the component
    index under the move's id."""
    ds = move.source
    comp = component(ds.n, ds.e)
    m = comp.move_id(move)
    f = comp.chain_maps.get(m)
    if f is None:
        f = comp.chain_maps[m] = _chain_map_F(comp, m)
    return f


def _chain_map_F(comp: Component, m: int) -> ChainMap:
    """index_image on every identity and shuffling index of move m, with
    the per-move data computed once and every index a tuple of positions."""
    move = comp.move_list[m]
    ds = move.source
    src = f_data(ds)
    dst = f_data(comp.objects[comp.target(m)])
    tpv = ds.tpv
    col = {v: c for c, v in enumerate(tpv)}
    labels = [ds.labels(v) for v in tpv]
    identity = _left_of_arc(move, tpv)
    lsv = left_shuffling_vectors(move)
    shuffle = kind, wb, kb = _shuffling_type(move, lsv)
    fixed = None  # the (column, position) pairs every shuffling index has
    if move.ov != STAR and kind != "none":
        at = {col[w]: 0 for w in lsv}
        if kind == "Z":
            at[col[wb]] = kb
        at[col[move.ov]] = move.z
        fixed = tuple(at.items())
        common, skip, merged = _shuffled_common(move, shuffle, lsv)
        keep = [c for c, v in enumerate(tpv) if v not in skip]
        # a based uv is merged only with label 0 left of the arc, when
        # every index is an identity index
        if merged and move.uv in col:
            keep.append(col[move.uv])
    place = _placer(dst.ds)
    entries = set()
    for i, t in enumerate(_index_tuples(labels)):
        if identity(t):
            j = place([ls[x] for ls, x in zip(labels, t)])
        elif fixed is not None and all(t[c] == x for c, x in fixed):
            j = place(common.union([labels[c][t[c]] for c in keep]))
        else:
            continue
        a = comp.id(src.complex.summands[i].gamma)
        assert comp.tight_row(a) >> comp.id(dst.complex.summands[j].gamma) & 1
        entries.add((i, j))
    k = _constant_degree(src, dst, entries)
    return ChainMap(src.complex, dst.complex, k, frozenset(entries))


def _placer(target: DividingSet):
    """The position in F(target) of the omitting index that omits the
    given labels; labels of the based component are passed over."""
    tpv = target.tpv
    where = {}
    stride = 1
    for c in range(len(tpv) - 1, -1, -1):
        ls = target.labels(tpv[c])
        for i, s in enumerate(ls):
            where[s] = (1 << c, i * stride)
        stride *= len(ls)
    full = (1 << len(tpv)) - 1

    def position(omitted) -> int:
        p = hit = 0
        for s in omitted:
            w = where.get(s)
            if w is not None:
                assert not hit & w[0], (target, omitted)
                hit |= w[0]
                p += w[1]
        assert hit == full, (target, omitted)
        return p

    return position


def _constant_degree(src: FData, dst: FData, entries: set) -> int:
    degs = {
        dst.complex.summands[j].h - src.complex.summands[i].h for i, j in entries
    }
    if len(degs) != 1:
        raise InvalidMove(f"bypass map is not homogeneous: degrees {sorted(degs)}")
    return next(iter(degs))


def deg_F(move: BypassMove) -> int:
    """Drop in the height h across the bypass map (constant by homogeneity)."""
    return chain_map_F(move).k


def deg_formula(move: BypassMove) -> int:
    """Closed form for deg_F by the position of label 0."""
    ds = move.source
    region = zero_region(move)
    if region in (1, 2):
        return 0

    def l_between(a: int, b: int) -> int:
        n1 = ds.n + 1
        if a <= b:
            window = set(range(a + 1, b))
        else:
            window = set(range(a + 1, n1)) | set(range(0, b))
        return sum(
            ds.l(v)
            for v, ls in ds.components
            if set(ls) <= window and set(ls)
        )

    x_label = ds.label_at(move.uv, move.x)
    if region in (3, 4):
        first = ds.label_at(move.uv, 0)
        return len(move.right_labels) + l_between(first, x_label)
    z_label = ds.label_at(move.ov, move.z)
    return 1 - len(move.left_labels) - l_between(x_label, z_label)


def canonical_grading_shift(move: BypassMove) -> int:
    """The grading offset of the lifted map; equals the degree of the map."""
    return deg_F(move)


def lift_F(obj: GradedObject) -> Complex:
    return shift(build_F(obj.gamma), obj.a)


def lift_morphism(move: BypassMove, a: int) -> ChainMap:
    """The bypass map between lifted objects, a degree-0 chain map from
    grading a to grading a + c(move)."""
    f = chain_map_F(move)
    return ChainMap(
        shift(f.src, a), shift(f.dst, a + f.k), 0, f.entries
    )


# ---------------------------------------------------------------------------
# triangles and general morphisms


def gamma_chain_map(tri: Triangle) -> ChainMap:
    """Identity-summand map from the first to the third vertex.

    Summands outside the identity indices of the first edge recur in the
    third complex with the same projective; the map is the sum of those
    identities and satisfies D(gamma) = F(b2) . F(b1) on the nose.
    """
    src = f_data(tri.g1)
    dst = f_data(tri.g3)
    tpv = tri.g1.tpv
    labels = [tri.g1.labels(v) for v in tpv]
    identity = _left_of_arc(tri.b1, tpv)
    # distinct indices omit distinct label sets: components are disjoint;
    # with as many non-based vectors on both sides, no label is passed over
    same = len(tpv) == len(tri.g3.tpv)
    place = _placer(tri.g3)
    entries = set()
    for i, t in enumerate(_index_tuples(labels)):
        if identity(t):
            continue
        assert same
        entries.add((i, place([ls[x] for ls, x in zip(labels, t)])))
    k = _constant_degree(src, dst, entries) if entries else 0
    return ChainMap(src.complex, dst.complex, k, frozenset(entries))


def F_of_morphism(g: DividingSet, g2: DividingSet) -> ChainMap:
    """Image of the generator of Hom(g, g2); the zero map when the hom is."""
    if g == g2:
        return identity_map(build_F(g))
    if not hom_nonzero(g, g2):
        return zero_map(build_F(g), build_F(g2))
    chain = bypass_chain(g, g2)
    assert chain is not None, "tight morphism with no bypass decomposition"
    f = chain_map_F(chain[0])
    for mv in chain[1:]:
        f = compose(f, chain_map_F(mv))
    return f


def F_of_tree(F: Complex, tree: dict) -> dict:
    """F_of_morphism's map from the root of a homs.bypass_search tree,
    whose image is F, to each stage of the tree, by stage id.  A stage's
    map is its parent's composed with the move onto it."""
    maps: dict = {}
    for t, step in tree.items():
        if step is None:
            maps[t] = identity_map(F)
        else:
            parent, mv = step
            b = chain_map_F(mv)
            maps[t] = b if tree[parent] is None else compose(maps[parent], b)
    return maps
