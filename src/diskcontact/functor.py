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

An omitting index is a tuple of positions, one per non-based vector of
tpv, and its summand's place in F(ds) is that tuple read as a
mixed-radix number (`index_tuples`), so a summand's position is
arithmetic, not a lookup.  F-images and bypass chain maps are kept by
the component index (homs.Component), keyed by object id and move id.
The definitions they are checked against, one omitting index at a time,
live in tests/oracle.py.

Library entry points here trust their DividingSet arguments: they do not
run divset.validate, and an invalid dividing set gives an undefined
answer or error.  The CLI validates at its boundary (cli._load_ds,
cli._load_complex) before it calls in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .bypass import BypassMove, Triangle, zero_region
from .divset import (
    STAR,
    DividingSet,
    NestVector,
    _negative_face,
    basic_index,
    basic_of,
    chord_key,
    chord_slots,
    negative_faces,
    nesting_sets,
    to_matching,
)
from .errors import InvalidMove
# tight_basic stays bound here for bench/test_bench.py, which asserts the tracer rebinds it
from .homs import Component, bypass_chain, component, hom_nonzero, tight_basic
from .kom import ChainMap, Complex, ProjSummand, compose, identity_map, shift, zero_map


@dataclass(frozen=True)
class GradedObject:
    """A dividing set with an integer homotopy grading relative to the
    canonical one (which is 0 for every object)."""

    gamma: DividingSet
    a: int


def index_tuples(ds: DividingSet):
    """The omitting indices of ds as tuples of positions, one per vector of
    tpv, in the order of F(ds)'s summands: a mixed-radix count over the
    radices l(v) + 1, the last vector fastest."""
    return itertools.product(*(range(len(ds.labels(v))) for v in ds.tpv))


def _strides(ds: DividingSet) -> list[int]:
    """Each column's weight: index t sits at sum of t[c] * stride[c]."""
    tpv = ds.tpv
    strides = [1] * len(tpv)
    for c in range(len(tpv) - 2, -1, -1):
        strides[c] = strides[c + 1] * len(ds.labels(tpv[c + 1]))
    return strides


def build_F(ds: DividingSet) -> Complex:
    """F(ds), kept by the component index under the object's id."""
    comp = component(ds.n, ds.e)
    i = comp.id(ds)
    F = comp.f_images.get(i)
    if F is None:
        F = comp.f_images[i] = _build_F(comp, comp.objects[i])
    return F


def _build_F(comp: Component, ds: DividingSet) -> Complex:
    """One summand per index tuple and the differential out of it, read
    from one table per column c and position i: the height term i + sum of
    l(w) over NV(v, i), and the differential move at (v, i) as the columns
    of DNV(v, i) that must sit at 0 with the position change.  DNV(v, i)
    nests in v, so its columns come after c and every move lowers the
    position: its target's summand is already built."""
    tpv = ds.tpv
    col = {v: c for c, v in enumerate(tpv)}
    labels = [ds.labels(v) for v in tpv]
    strides = _strides(ds)
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
    summands, d = [], set()
    for p, t in enumerate(index_tuples(ds)):
        base = everything.difference([ls[i] for ls, i in zip(labels, t)])
        h = sum(hs[i] for hs, i in zip(heights, t))
        summands.append(ProjSummand(basic_of(ds.n, ds.e, base), -h))
        for c, i in enumerate(t):
            if i == 0:
                continue
            nested, jump = moves[c][i]
            if all(t[w] == 0 for w in nested):
                q = p + jump
                b, b2 = summands[p].gamma, summands[q].gamma
                assert comp.tight_row(basic_index(b)) >> basic_index(b2) & 1
                d.add((p, q))
    return Complex(tuple(summands), frozenset(d))


# ---------------------------------------------------------------------------
# the differential split by negative regions


def _rim(ds: DividingSet, region_index: int) -> Optional[list[tuple[int, int]]]:
    """(column, chord) for each chord on the rim of a negative region: the
    column of its positive component in tpv and the chord's place in that
    component's walk.  None when the based component is on the rim: the
    region's partial is then zero.  A region whose rim components are all
    boundary-parallel is the disk less their bigons, so the based
    component is on its rim too: the condition that some rim component is
    not boundary-parallel needs no test here.

    The region is face `region_index` of `divset.negative_faces`, walked
    on the matching, and each chord's component and place come from
    `divset.chord_slots`."""
    m, slots = to_matching(ds), chord_slots(ds)
    col = {v: c for c, v in enumerate(ds.tpv)}
    rim = []
    for q in negative_faces(m)[region_index]:
        v, j = slots[chord_key((q, m[q]))]
        if v == STAR:
            return None
        rim.append((col[v], j))
    return rim


def negative_region_differential(ds: DividingSet, region_index: int) -> frozenset:
    """Entries of the partial differential attached to one negative region.

    An index t is admissible when each rim component omits the label at
    the walk-entry corner of its rim chord j, t[c] == (j + 1) % (l + 1),
    and it goes to the index with t[c] = j on the rim, so every image lies
    the same distance from its index."""
    rim = _rim(ds, region_index)
    if rim is None:
        return frozenset()
    strides = _strides(ds)
    corner = {c: (j + 1) % len(ds.labels(ds.tpv[c])) for c, j in rim}
    shift = sum((j - corner[c]) * strides[c] for c, j in rim)
    return frozenset(
        (p, p + shift)
        for p, t in enumerate(index_tuples(ds))
        if all(t[c] == i for c, i in corner.items())
    )


# ---------------------------------------------------------------------------
# chain maps of bypasses


def left_shuffling_vectors(move: BypassMove) -> tuple[NestVector, ...]:
    """Components strung along the left of the arc between uv and ov."""
    ds = move.source
    m = to_matching(ds)
    # The even points of the negative faces on uv's rim and on ov's: a
    # chord (2s'+1, 2s) of w ends at 2s for each label s of w, so w shares
    # a negative face with v when one of those points is on v's.
    rims = [{q for c in ds.chords(v) for q in _negative_face(m, c[1])} for v in (move.uv, move.ov)]
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
        if all(any(2 * s in rim for s in ds.labels(w)) for rim in rims):
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


def _left_of_arc(move: BypassMove):
    """Predicate on index tuples of the move's source: does the summand
    sit left of the arc (label 0 left of it when uv is based, else uv's
    omitted position inside [[x, y]])?"""
    if 0 in move.source.labels(move.uv):
        zero_left = 0 in move.left_labels
        return lambda t: zero_left
    u = move.source.tpv.index(move.uv)
    left = frozenset(move.left_positions)
    return lambda t: t[u] in left


def index_split(move: BypassMove) -> tuple[Callable, Optional[dict[int, int]]]:
    """(identity, fixed), the split of the source's index tuples by the
    move.  The identity indices are the tuples t with identity(t), those
    left of the arc.  The shuffling indices are the other tuples with
    t[c] == fixed[c] on every column c of fixed: ov at z, the left
    shuffling vectors at 0 and a type Z pivot at its position.  fixed is
    None when the move has no shuffling indices."""
    identity = _left_of_arc(move)
    lsv = left_shuffling_vectors(move)
    kind, wb, kb = _shuffling_type(move, lsv)
    if move.ov == STAR or kind == "none":
        return identity, None
    col = {v: c for c, v in enumerate(move.source.tpv)}
    fixed = {col[w]: 0 for w in lsv}
    if kind == "Z":
        fixed[col[wb]] = kb
    fixed[col[move.ov]] = move.z
    return identity, fixed


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
    """Each identity index of move m goes to the index of the target that
    omits the same labels.  A shuffling index passes over ov's omitted
    label and uv's, unless label 0 is not right of the arc; it omits y's
    label of uv instead, and each other fixed column trades its label for
    the one before it (the last label for a column at 0)."""
    move = comp.move_list[m]
    ds = move.source
    target = comp.objects[comp.target(m)]
    src, dst = build_F(ds), build_F(target)
    tpv = ds.tpv
    labels = [ds.labels(v) for v in tpv]
    identity, fixed = index_split(move)
    if fixed is not None:
        o = tpv.index(move.ov)
        common = {labels[c][x - 1] for c, x in fixed.items() if c != o}
        common.add(ds.label_at(move.uv, move.y))
        merged = 0 not in move.right_labels
        keep = [c for c, v in enumerate(tpv) if c not in fixed and (v != move.uv or merged)]
    place = _placer(target)
    entries = set()
    for i, t in enumerate(index_tuples(ds)):
        if identity(t):
            j = place([ls[x] for ls, x in zip(labels, t)])
        elif fixed is not None and all(t[c] == x for c, x in fixed.items()):
            j = place(common.union([labels[c][t[c]] for c in keep]))
        else:
            continue
        b, b2 = src.summands[i].gamma, dst.summands[j].gamma
        assert comp.tight_row(basic_index(b)) >> basic_index(b2) & 1
        entries.add((i, j))
    k = _constant_degree(src, dst, entries)
    return ChainMap(src, dst, k, frozenset(entries))


def _placer(target: DividingSet):
    """The position in F(target) of the omitting index that omits the
    given labels; labels of the based component are passed over."""
    strides = _strides(target)
    where = {
        s: (1 << c, i * strides[c])
        for c, v in enumerate(target.tpv)
        for i, s in enumerate(target.labels(v))
    }
    full = (1 << len(strides)) - 1

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


def _constant_degree(src: Complex, dst: Complex, entries: set) -> int:
    degs = {dst.summands[j].h - src.summands[i].h for i, j in entries}
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
    src, dst = build_F(tri.g1), build_F(tri.g3)
    labels = [tri.g1.labels(v) for v in tri.g1.tpv]
    identity = _left_of_arc(tri.b1)
    # distinct indices omit distinct label sets: components are disjoint;
    # with as many non-based vectors on both sides, no label is passed over
    same = len(tri.g1.tpv) == len(tri.g3.tpv)
    place = _placer(tri.g3)
    entries = set()
    for i, t in enumerate(index_tuples(tri.g1)):
        if identity(t):
            continue
        assert same
        entries.add((i, place([ls[x] for ls, x in zip(labels, t)])))
    k = _constant_degree(src, dst, entries) if entries else 0
    return ChainMap(src, dst, k, frozenset(entries))


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


def F_of_tree(F: Complex, tree: dict, targets: Iterable[int]) -> dict:
    """F_of_morphism's map from the root of a homs.bypass_search tree,
    whose image is F, to each target the tree reaches and each stage on
    the way, by stage id.  A stage's map is its parent's composed with
    the move onto it."""
    wanted = set()
    for t in targets:
        while t in tree and t not in wanted:
            wanted.add(t)
            t = tree[t][0] if tree[t] else t  # the root, already wanted, ends the walk
    maps: dict = {}
    for t, step in tree.items():  # a parent is discovered before its children
        if t not in wanted:
            continue
        if step is None:
            maps[t] = identity_map(F)
        else:
            parent, mv = step
            b = chain_map_F(mv)
            maps[t] = b if tree[parent] is None else compose(maps[parent], b)
    return maps
