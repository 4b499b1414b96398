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
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from . import gf2
from .divset import DividingSet, basic_index, ds_from_json, ds_to_json, int_from_json, list_from_json
from .errors import ComponentMismatch, NotBasic, ShapeMismatch
from .homs import Component, _bits, component, tight_basic

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


def projective(gamma: DividingSet, h: int = 0) -> Complex:
    return Complex((ProjSummand(gamma, h),), frozenset())


def _entry_ok(a: ProjSummand, b: ProjSummand, k: int) -> bool:
    """Greedy check of one entry; the slow reference for the tight rows."""
    return b.h == a.h + k and tight_basic(a.gamma, b.gamma)


def _mismatch(ne: tuple[int, int], ne2: tuple[int, int]) -> ComponentMismatch:
    return ComponentMismatch("({},{}) vs ({},{})".format(*ne, *ne2))


def _summand_ids(c: Complex) -> tuple[Optional[tuple[int, int]], tuple[int, ...]]:
    """The (n, e) of c's summands and each summand's basic index, or
    (None, ()) for an empty complex, kept on c once computed: they name
    no component index, so they outlive it.  Raises ComponentMismatch
    when the summands lie in more than one component."""
    kept = c.__dict__.get("_ids")
    if kept is None:
        if not c.summands:
            return None, ()
        g = c.summands[0].gamma
        for s in c.summands:
            if (s.gamma.n, s.gamma.e) != (g.n, g.e):
                raise _mismatch((g.n, g.e), (s.gamma.n, s.gamma.e))
        ids = tuple(basic_index(s.gamma) for s in c.summands)
        kept = c.__dict__["_ids"] = ((g.n, g.e), ids)
    return kept


def _pair_ids(
    src: Complex, dst: Complex
) -> tuple[Optional[Component], tuple[int, ...], tuple[int, ...]]:
    """The component index of two complexes, which must share one (None
    when both are empty), and their summands' basic indices."""
    ne, a = _summand_ids(src)
    ne2, b = _summand_ids(dst)
    if ne is None:
        ne = ne2
    elif ne2 is not None and ne2 != ne:
        raise _mismatch(ne, ne2)
    return (None if ne is None else component(*ne)), a, b


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
    comp, a, b = _pair_ids(src, dst)
    return frozenset((i, k) for i, k in live if comp.tight_row(a[i]) >> b[k] & 1)


def verify_complex(c: Complex) -> bool:
    for i, j in c.d:
        if not (0 <= i < c.size and 0 <= j < c.size):
            return False
        if not _entry_ok(c.summands[i], c.summands[j], 1):
            return False
    return not _compose_entries(c.d, c.d, c, c)


def verify_chain_map(f: ChainMap) -> bool:
    for i, j in f.entries:
        if not (0 <= i < f.src.size and 0 <= j < f.dst.size):
            return False
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


# ---------------------------------------------------------------------------
# hom spaces in the homotopy category
#
# Every hom dimension and nullhomotopy question is answered from the
# column retracts below, one per source.  Two callers still solve D on
# the single-entry map basis, because they need an explicit map, not
# only its class: equivalent solves for an isomorphism between minimal
# complexes, until the checks that call it verify a named witness map
# instead; _repair_differential solves for a correction block, and the
# order in which map_basis lists the pairs fixes which solution
# gf2.solve returns, and so which complex serre_transform builds.


def map_basis(src: Complex, dst: Complex) -> list[tuple[int, int, int]]:
    """Every tight summand pair as (k, i, j), k = h_j - h_i, in (i, j) order.

    The one scan of summand pairs: one tight row is read per src summand.
    Raises ComponentMismatch unless every summand of src and dst lies in
    one component.
    """
    comp, a, b = _pair_ids(src, dst)
    if comp is None:
        return []
    targets = [(x, s.h) for x, s in zip(b, dst.summands)]
    out: list[tuple[int, int, int]] = []
    for i, (x, s) in enumerate(zip(a, src.summands)):
        row = comp.tight_row(x)
        out.extend((h - s.h, i, j) for j, (y, h) in enumerate(targets) if row >> y & 1)
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


def _differential(
    src: Complex, dst: Complex, k: int
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int], list[int]]:
    """The degree-k map basis, the index of each pair of the degree-(k+1)
    basis, and D on the first as masks over the second, from one
    map_basis scan."""
    basis: list[tuple[int, int]] = []
    above: list[tuple[int, int]] = []
    for deg, i, j in map_basis(src, dst):
        if deg == k:
            basis.append((i, j))
        elif deg == k + 1:
            above.append((i, j))
    pos = {p: t for t, p in enumerate(above)}
    cols = _columns(_arrows(src.d, True), _arrows(dst.d, False), basis, pos)
    return basis, pos, cols


def hom_by_degree(src: Complex, dst: Complex) -> dict[int, int]:
    """Dimension over GF(2) of degree-k chain maps modulo homotopy, for
    each degree k where it is nonzero, keyed by ascending k."""
    return hom_by_degree_from(column_retracts(src), dst)


def hom_dim(src: Complex, dst: Complex, k: int) -> int:
    """Dimension over GF(2) of degree-k chain maps modulo homotopy."""
    return hom_by_degree(src, dst).get(k, 0)


def hom_total(src: Complex, dst: Complex) -> int:
    return hom_total_from(column_retracts(src), dst)


def is_nullhomotopic(f: ChainMap) -> bool:
    return is_nullhomotopic_from(column_retracts(f.src), f)


def is_homotopy_equivalence(f: ChainMap) -> bool:
    """A degree-0 chain map is invertible up to homotopy iff its cone is
    contractible, that is iff the cone's identity is nullhomotopic."""
    c = cone(f)
    return is_nullhomotopic(identity_map(c))


def equivalent(a: Complex, b: Complex) -> bool:
    """Homotopy equivalence, decided on minimal complexes by one linear solve.

    Both sides are reduced by `simplify`.  Homs between distinct basic
    projectives lie in the radical and End(P_g) is one-dimensional, so
    homotopy-equivalent minimal complexes are isomorphic and have the
    same multiset of (summand, degree).  When that multiset repeats no
    pair, match each summand of a to the one of b with the same dividing
    set and degree: a degree-0 chain map between the minimal complexes
    is an isomorphism exactly when its entry is 1 on every matched pair
    (Nakayama), and one gf2.solve finds a cocycle with those entries or
    shows there is none.  Raises ShapeMismatch when the equal multisets
    repeat a (summand, degree), where a matching is not determined, and
    ComponentMismatch when a complex mixes components.
    """
    a, b = simplify(a), simplify(b)
    ne_a, ids_a = _summand_ids(a)
    ne_b, ids_b = _summand_ids(b)
    if ne_a is not None and ne_b is not None and ne_a != ne_b:
        return False
    keys_a = [(x, s.h) for x, s in zip(ids_a, a.summands)]
    keys_b = [(x, s.h) for x, s in zip(ids_b, b.summands)]
    if sorted(keys_a) != sorted(keys_b):
        return False
    match = {key: j for j, key in enumerate(keys_b)}
    if len(match) < len(keys_b):
        raise ShapeMismatch("minimal complex repeats a summand in one degree")
    # unknowns: the degree-0 basis; equations: D = 0 on the degree-1
    # basis (high bits) and entry 1 on matched pair i (bit i)
    basis, _, cols = _differential(a, b, 0)
    m = len(keys_a)
    cols = [c << m for c in cols]
    at = {p: t for t, p in enumerate(basis)}
    for i, key in enumerate(keys_a):
        cols[at[(i, match[key])]] |= 1 << i
    return gf2.solve(cols, (1 << m) - 1) is not None


# ---------------------------------------------------------------------------
# per-source column retracts
#
# Hom(C, D) is a double complex: its column j is Hom(C, P_b) for the
# summand (b, h_j) of D, with the differential f -> f.d_C, and the
# postcomposition delta with d_D takes column j to column j' for each
# j -> j'.  Each column is reduced once per source to a deformation
# retract onto its cohomology (Bar-Natan, arXiv:math/0606318), and the
# homological perturbation lemma (Crainic, arXiv:math/0403266) moves
# delta onto the sum of the cohomologies, the E1 page.  A vector of
# Hom(C, D) is kept as one mask over C's summand indices per column.


def _apply(table: list[int], m: int) -> int:
    """The linear map whose value on bit i is table[i], applied to m."""
    out = 0
    while m:
        low = m & -m
        out ^= table[low.bit_length() - 1]
        m ^= low
    return out


@dataclass(frozen=True)
class _Column:
    """A deformation retract (iota, pi, eta) of one column onto its cohomology.

    The column's basis is the mask `tight` of C's summands tight to b.
    `iota[t]` is the t-th cohomology generator as a mask over the column;
    `pi[i]` (a mask over the generators) and `eta[i]` (a mask over the
    column) are the images of summand i.  With d the column differential:
    pi.iota = 1, iota.pi = 1 + d.eta + eta.d, and eta.iota, pi.eta and
    eta.eta vanish.
    """

    tight: int
    iota: tuple[int, ...]
    pi: tuple[int, ...]
    eta: tuple[int, ...]


def _retract(tight: int, src_in: list[int]) -> _Column:
    """The column on the summands in `tight`, whose differential takes i to
    the tight i' with i' -> i in d_C (`src_in[i]`), reduced by Gaussian
    elimination.

    Elimination of the differential splits the column as W + B + H: W
    spanned by the eliminated vectors w, B by their images d(w), and H
    by cycles independent modulo B.  eta inverts d from B onto W and pi
    reads the H coordinate, so no dimension of H is assumed.  d lowers
    the degree of C's summands by one and each reduction step cancels a
    pivot of the same degree, so every w, d(w) and generator lies in one
    degree.
    """
    size = len(src_in)
    rows: dict[int, tuple[int, int]] = {}  # pivot of d(w) -> (d(w), w)
    cycles = []
    for i in _bits(tight):
        v, w = src_in[i] & tight, 1 << i
        while v:
            row = rows.get(v.bit_length() - 1)
            if row is None:
                rows[v.bit_length() - 1] = (v, w)
                break
            v ^= row[0]
            w ^= row[1]
        else:
            cycles.append(w)
    ws = [w for _, w in rows.values()]
    bs = [v for v, _ in rows.values()]
    span = gf2.Eliminator()
    for v in bs:
        span.add(v)
    gens = []
    for z in cycles:
        if span.reduce(z) is None:
            span.add(z)
            gens.append(z)
    # coordinates in the basis ws + bs + gens, read off one elimination
    coords = gf2.Eliminator()
    for u in ws + bs + gens:
        coords.add(u)
    r = len(rows)
    pi, eta = [0] * size, [0] * size
    for i in _bits(tight):
        c = coords.reduce(1 << i)
        pi[i] = c >> 2 * r
        eta[i] = _apply(ws, c >> r & ((1 << r) - 1))
    return _Column(tight, tuple(gens), tuple(pi), tuple(eta))


_EMPTY_COLUMN = _Column(0, (), (), ())


class ColumnRetracts:
    """The columns Hom(src, P_b) of one source, each reduced on first use.

    Built by `column_retracts` and read by `hom_by_degree_from`,
    `hom_total_from` and `is_nullhomotopic_from`.  Columns are keyed by
    basic index, so the retracts hold no component index and outlive it.
    """

    def __init__(self, src: Complex):
        self.src = src
        self._ne, ids = _summand_ids(src)
        self._rows = list(map(component(*self._ne).tight_row, ids)) if ids else []
        self.degrees = src.degrees()
        self._src_in = [0] * src.size
        for i, j in src.d:
            self._src_in[j] |= 1 << i
        self._columns: dict[int, _Column] = {}

    def columns(self, dst: Complex) -> list[_Column]:
        """The reduced column of each summand of dst, in dst's order."""
        ne, ids = _summand_ids(dst)
        if ne != self._ne:
            if ne is not None and self._ne is not None:
                raise _mismatch(self._ne, ne)
            return [_EMPTY_COLUMN] * dst.size
        cache = self._columns
        try:
            return [cache[b] for b in ids]
        except KeyError:
            for b in ids:
                if b not in cache:
                    tight = sum(1 << i for i, row in enumerate(self._rows) if row >> b & 1)
                    cache[b] = _retract(tight, self._src_in) if tight else _EMPTY_COLUMN
            return [cache[b] for b in ids]


def column_retracts(src: Complex) -> ColumnRetracts:
    """Per-source data that answers hom questions about maps out of src,
    one destination at a time.

    A module-level entry point, as the per-pair ones are, because the
    benchmark's per-layer tracer times module-level functions only.
    """
    return ColumnRetracts(src)


def _upward(c: Complex) -> tuple[dict[int, list[int]], list[int]]:
    """The targets of each summand in d_c, and the summands by ascending
    degree; kept on c once computed."""
    kept = c.__dict__.get("_upward")
    if kept is None:
        order = sorted(range(c.size), key=lambda j: c.summands[j].h)
        kept = c.__dict__["_upward"] = (_arrows(c.d, False), order)
    return kept


def _post(cols: list[_Column], dst_out: dict[int, list[int]], vec: dict[int, int]) -> dict[int, int]:
    """delta: postcomposition with d_dst; an entry survives iff it is tight."""
    out: dict[int, int] = {}
    for j, m in vec.items():
        for j2 in dst_out.get(j, ()):
            m2 = m & cols[j2].tight
            if m2:
                out[j2] = out.get(j2, 0) ^ m2
    return out


def _project(cols: list[_Column], offsets: list[int], vec: dict[int, int]) -> int:
    """pi on a vector, as a mask over the E1 page."""
    out = 0
    for j, m in vec.items():
        out ^= _apply(cols[j].pi, m) << offsets[j]
    return out


def _transfer(
    cols: list[_Column], dst_out: dict[int, list[int]], offsets: list[int], vec: dict[int, int]
) -> int:
    """pi.delta.sum_n (eta.delta)^n on vec, as a mask over the E1 page; the
    sum is finite since delta climbs dst's differential."""
    out = 0
    while vec:
        vec = _post(cols, dst_out, vec)
        out ^= _project(cols, offsets, vec)
        vec = {j: e for j, m in vec.items() if (e := _apply(cols[j].eta, m))}
    return out


def _page(cols: list[_Column]) -> list[int]:
    """Offset of each column's cohomology in the E1 page, then its dimension."""
    return list(accumulate([len(col.iota) for col in cols], initial=0))


def _transferred(
    retracts: ColumnRetracts, cols: list[_Column], dst: Complex, offsets: list[int]
) -> Iterator[tuple[int, int]]:
    """(k, d'(g)) for each E1 generator g, of degree k as a map, with
    d' = pi.delta.sum_n (eta.delta)^n.iota; lowest dst degree first: d'
    raises the degree, so the generators it does not kill come early."""
    dst_out, ascending = _upward(dst)
    src_h = retracts.degrees
    for j in ascending:
        h = dst.summands[j].h
        for g in cols[j].iota:
            yield h - src_h[(g & -g).bit_length() - 1], _transfer(cols, dst_out, offsets, {j: g})


def hom_by_degree_from(retracts: ColumnRetracts, dst: Complex) -> dict[int, int]:
    """hom_by_degree(retracts.src, dst).

    Each E1 generator is homogeneous and d' raises the degree by one, so
    the degree-k hom has dimension dim E1^k - rank d'_k - rank d'_(k-1).
    Raises ComponentMismatch unless every summand of src and dst lies in
    one component.
    """
    cols = retracts.columns(dst)
    gens = [(j, g) for j, col in enumerate(cols) for g in col.iota]
    if not gens:
        return {}
    src_h, dst_s = retracts.degrees, dst.summands
    dims: dict[int, int] = {}
    for j, g in gens:
        k = dst_s[j].h - src_h[(g & -g).bit_length() - 1]
        dims[k] = dims.get(k, 0) + 1
    dim = len(gens)
    if dim >= 2:
        # d' of a degree-k generator lies in degree k + 1, so one
        # elimination counts the rank of every degree
        span = gf2.Eliminator()
        for k, v in _transferred(retracts, cols, dst, _page(cols)):
            rank = span.rank
            span.add(v)
            if span.rank > rank:
                dims[k] -= 1
                dims[k + 1] -= 1
                if 2 * span.rank == dim:
                    break  # d'^2 = 0 bounds the rank of d' by dim / 2
    return {k: d for k, d in sorted(dims.items()) if d}


def hom_total_from(retracts: ColumnRetracts, dst: Complex) -> int:
    """hom_total(retracts.src, dst): dim E1 - 2 rank d'.

    The sum of hom_by_degree_from without its degree bookkeeping, for
    the faithful table's many pairs.
    """
    cols = retracts.columns(dst)
    dim = sum([len(col.iota) for col in cols])
    if dim < 2:
        return dim
    span = gf2.Eliminator()
    for _, v in _transferred(retracts, cols, dst, _page(cols)):
        span.add(v)
        if 2 * span.rank == dim:
            break  # d'^2 = 0 bounds the rank of d' by dim / 2
    return dim - 2 * span.rank


def is_nullhomotopic_from(retracts: ColumnRetracts, f: ChainMap) -> bool:
    """is_nullhomotopic(f) for a map out of retracts.src.

    f must be a cocycle of the Hom-complex: otherwise no homotopy h has
    d.h + h.d = f.  A cocycle is nullhomotopic iff
    pi'(f) = pi.f + pi.delta.sum_n (eta.delta)^n.eta.f lies in the image
    of d' on the degree f.k - 1 generators.  A map with no entries is
    answered before any column of f.dst is reduced: the triangles suite
    passes the sum of a square's two sides, and most squares have equal
    sides.
    """
    if f.src is not retracts.src and f.src != retracts.src:
        raise ShapeMismatch("map does not start at the retracts' source")
    dst = f.dst
    if not f.entries:
        _pair_ids(retracts.src, dst)  # rejects two components, as columns does
        return True
    cols = retracts.columns(dst)
    src_h, dst_s = retracts.degrees, dst.summands
    vec: dict[int, int] = {}
    for i, j in f.entries:
        valid = 0 <= i < len(src_h) and 0 <= j < len(cols) and cols[j].tight >> i & 1
        if not valid or dst_s[j].h - src_h[i] != f.k:
            return False  # not a map-space vector of degree f.k
        vec[j] = vec.get(j, 0) | 1 << i
    dst_out, _ = _upward(dst)
    image = _post(cols, dst_out, vec)
    for j, m in vec.items():
        # the column differential, f -> f.d_src
        image[j] = image.get(j, 0) ^ _apply(retracts._src_in, m) & cols[j].tight
    if any(image.values()):
        return False  # not a cocycle
    offsets = _page(cols)
    eta_f = {j: e for j, m in vec.items() if (e := _apply(cols[j].eta, m))}
    target = _project(cols, offsets, vec) ^ _transfer(cols, dst_out, offsets, eta_f)
    if not target:
        return True
    if offsets[-1] < 2:
        return False  # d' = 0
    images = [v for k, v in _transferred(retracts, cols, dst, offsets) if k == f.k - 1]
    return gf2.solve(images, target) is not None


# ---------------------------------------------------------------------------
# simplification (cancellation of identity components)


def simplify(c: Complex) -> Complex:
    """Homotopy-equivalent complex with no identity differential entries.

    Repeatedly cancels a pair connected by an identity map, correcting the
    remaining differential by the zig-zag through the removed pair.
    """
    ne, ids = _summand_ids(c)
    summands = list(c.summands)
    ids = list(ids)
    rows = list(map(component(*ne).tight_row, ids)) if ids else []
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
    """Image of P(g) under the dual-bimodule functor: F of the rotated object.

    A single projective on the rotated object when label 1 is in the base;
    otherwise the length e+1 complex of projectives on the rotations'
    omitting sets, with the sliding differentials.
    """
    from .bypass import serre_rotate
    from .functor import build_F

    if not g.is_basic():
        raise NotBasic(repr(g))
    return build_F(serre_rotate(g))


def _induced_block(gi: DividingSet, gj: DividingSet) -> ChainMap:
    """F of the rotated generator of Hom(gi, gj), kept by the component index."""
    from .bypass import serre_rotate
    from .functor import F_of_morphism

    comp = component(gi.n, gi.e)
    key = (basic_index(gi), basic_index(gj))
    f = comp.rotation_blocks.get(key)
    if f is None:
        f = F_of_morphism(serre_rotate(gi), serre_rotate(gj))
        if f.k != 0:
            raise ShapeMismatch("induced rotation block must have degree 0")
        comp.rotation_blocks[key] = f
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
            basis_h, pos, cols = _differential(res_i, res_j, 1 - hshift)
            target = 0
            for p in local:
                target |= 1 << pos[p]
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
    """The complex of a JSON object; raises TypeError or ValueError where a
    value is not of its JSON type, as ds_from_json does."""
    summands = tuple(
        ProjSummand(ds_from_json(s["gamma"]), int_from_json(s["h"]))
        for s in list_from_json(obj["summands"])
    )
    pairs = map(list_from_json, list_from_json(obj["d"]))
    return Complex(summands, frozenset((int_from_json(i), int_from_json(j)) for i, j in pairs))


def chain_map_to_json(f: ChainMap) -> dict:
    return {
        "src": complex_to_json(f.src),
        "dst": complex_to_json(f.dst),
        "k": f.k,
        "f": sorted([i, j] for i, j in f.entries),
    }
