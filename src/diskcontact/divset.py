"""Dividing sets on a marked disk, as nesting trees of label sets.

Conventions, fixed once and used by every other module:

* The disk boundary carries 2(n+1) marked points labeled 0..2n+1 in
  clockwise order.  Positive boundary arc s occupies the interval between
  points 2s and 2s+1; the negative arc after it runs from 2s+1 to 2s+2
  (mod 2n+2).

* A dividing set is a crossingless matching of the marked points (a
  fixed-point-free non-crossing involution).  Its positive region falls
  into n-e+1 disk pieces, each determined by the set of arc labels it
  touches; e is the count with chi_+ = n-e+1 and Euler class n-2e.

* Components are indexed by nesting vectors: the component containing
  arc 0 is based and indexed by the empty tuple (drawn as "*"); the
  components directly nesting inside a component, taken clockwise from
  arc 0 (equivalently by ascending minimum label), are indexed
  v+(1,), v+(2,), ...

* Walking the boundary of a positive component with labels s_0<...<s_l
  clockwise gives the chord sequence chord[j] = (2*s_j+1, 2*s_{j+1}),
  indices mod l+1, so chord[l] is the outer chord closing the component.
  Chords are oriented in walk direction; the unordered pair is the chord
  key used to match chords across the two faces they separate.

The tree form (`DividingSet`) drives the algebra; the matching form, m[p]
the point paired with p, drives curve counts, and bypass surgery and
rotation edit a few of its entries.  `to_matching` encodes a tree, and
`from_matching`, one stack scan over the labels, is the one decoder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BadBase, EulerMismatch, IndexOutOfRange, NotBasic

NestVector = tuple  # () is the based symbol; otherwise a tuple of positive ints
STAR: NestVector = ()

Matching = tuple  # involution on {0..2n+1} as a tuple of ints


@dataclass(frozen=True)
class DividingSet:
    """A dividing set of the component with parameters (n, e).

    `components` is a sorted tuple of (nesting vector, ascending label
    tuple) pairs partitioning {0..n}.
    """

    n: int
    e: int
    components: tuple[tuple[NestVector, tuple[int, ...]], ...]

    @staticmethod
    def make(n: int, e: int, comps: Mapping[NestVector, Iterable[int]]) -> "DividingSet":
        items = tuple(sorted((tuple(v), tuple(sorted(labels))) for v, labels in comps.items()))
        return DividingSet(n, e, items)

    # The label map, the chords, the non-based and non-boundary-parallel
    # vectors, the basic index and the geometry are facts of the dividing
    # set alone, so each is computed once per instance and kept in its
    # __dict__, as the hash is.  The component index hands out one
    # interned instance per object, so these are not computed twice.

    def labels(self, v: NestVector) -> tuple[int, ...]:
        table = self.__dict__.get("_labels")
        if table is None:
            table = self.__dict__["_labels"] = dict(self.components)
        return table[v]

    @property
    def vectors(self) -> tuple[NestVector, ...]:
        """V(Gamma): all nesting vectors, sorted."""
        return tuple(v for v, _ in self.components)

    @property
    def tpv(self) -> tuple[NestVector, ...]:
        """Non-based vectors."""
        out = self.__dict__.get("_tpv")
        if out is None:
            out = self.__dict__["_tpv"] = tuple(v for v, _ in self.components if v != STAR)
        return out

    @property
    def vnb(self) -> tuple[NestVector, ...]:
        """Vectors of non-boundary-parallel components (more than one label)."""
        out = self.__dict__.get("_vnb")
        if out is None:
            out = self.__dict__["_vnb"] = tuple(
                v for v, ls in self.components if v != STAR and len(ls) > 1
            )
        return out

    @property
    def star(self) -> tuple[int, ...]:
        return self.labels(STAR)

    def l(self, v: NestVector) -> int:
        return len(self.labels(v)) - 1

    def label_at(self, v: NestVector, i: int) -> int:
        ls = self.labels(v)
        if not 0 <= i < len(ls):
            raise IndexOutOfRange(f"position {i} outside 0..{len(ls) - 1} of {v}")
        return ls[i]

    def chords(self, v: NestVector) -> tuple[tuple[int, int], ...]:
        """Oriented boundary chords of component v, in clockwise walk order."""
        table = self.__dict__.get("_chords")
        if table is None:
            table = self.__dict__["_chords"] = {}
        out = table.get(v)
        if out is None:
            ls = self.labels(v)
            k = len(ls)
            out = table[v] = tuple((2 * ls[j] + 1, 2 * ls[(j + 1) % k]) for j in range(k))
        return out

    def is_basic(self) -> bool:
        return not self.vnb

    def __hash__(self) -> int:
        # computed once per instance: dividing sets key most tables here
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.n, self.e, self.components))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = ", ".join(
            ("*" if v == STAR else str(list(v))) + ":" + str(set(ls))
            for v, ls in self.components
        )
        return f"DividingSet({self.n},{self.e}; {body})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def parent(v: NestVector) -> NestVector:
    return v[:-1]


def validate(ds: DividingSet) -> ValidationReport:
    """Check the five structural properties of a dividing set encoding.

    (1) n-e+1 components; (2) the based vector is present and owns label 0;
    (3) every non-based component sits in a single open gap of its parent
    (the final gap, read up to n+1, exists only for the based component);
    (4) sibling indices are gapless, numbered clockwise from label 0;
    (5) the components partition {0..n}.
    """
    bad: list[str] = []
    comps = dict(ds.components)
    if len(comps) != len(ds.components):
        bad.append("P5: duplicate nesting vectors")
    if not (0 <= ds.e <= ds.n):
        bad.append("P1: e outside 0..n")
    if len(comps) != ds.n - ds.e + 1:
        bad.append("P1: component count is not n-e+1")
    if any(v != STAR and (not v or any(t < 1 for t in v)) for v in comps):
        bad.append("P3: nesting vector entries must be positive")
    if STAR not in comps or 0 not in comps.get(STAR, ()):
        bad.append("P2: based component missing or does not contain 0")

    all_labels = [s for _, ls in ds.components for s in ls]
    # the length test first keeps a huge n from building a huge range
    if len(all_labels) != ds.n + 1 or sorted(all_labels) != list(range(ds.n + 1)):
        bad.append("P5: components do not partition {0..n}")
    if any(tuple(sorted(ls)) != ls or not ls for _, ls in ds.components):
        bad.append("P5: component label tuples must be nonempty ascending")
    if not all(ls for _, ls in ds.components):
        return ValidationReport(False, tuple(bad))  # the gap checks need labels

    for v, ls in ds.components:
        if v == STAR:
            continue
        if parent(v) not in comps:
            bad.append(f"P3: {v} has no parent component")
            continue
        pls = comps[parent(v)]
        gaps = list(zip(pls, pls[1:]))
        if parent(v) == STAR:
            gaps.append((pls[-1], ds.n + 1))
        hit = [g for g in gaps if g[0] < min(ls) and max(ls) < g[1]]
        if len(hit) != 1:
            bad.append(f"P3: {v} does not fit a single open gap of its parent")

    for v, ls in ds.components:
        if v == STAR:
            continue
        t = v[-1]
        if t > 1 and parent(v) + (t - 1,) not in comps:
            bad.append(f"P4: sibling {parent(v) + (t - 1,)} of {v} missing")
        sib = parent(v) + (t + 1,)
        if sib in comps and not max(ls) < min(comps[sib]):
            bad.append(f"P4: {v} and {sib} not in clockwise order")

    return ValidationReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# matchings


def is_crossingless_matching(m: Sequence[int]) -> bool:
    """Fixed-point-free involution with no interleaved pairs a<b<m(a)<m(b)."""
    size = len(m)
    if size % 2:
        return False
    if not all(0 <= m[i] < size and m[i] != i and m[m[i]] == i for i in range(size)):
        return False
    stack: list[int] = []
    for i in range(size):
        if i < m[i]:
            stack.append(m[i])
        elif stack.pop() != i:
            return False
    return True


def positive_faces(m: Matching) -> list[frozenset[int]]:
    """Components of the positive region, as label sets (cycles of s -> m(2s+1)/2)."""
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
            t = m[2 * t + 1] // 2
        out.append(frozenset(cyc))
    return out


def to_matching(ds: DividingSet) -> Matching:
    m = [-1] * (2 * ds.n + 2)
    for v, _ in ds.components:
        for a, b in ds.chords(v):
            m[a], m[b] = b, a
    return tuple(m)


def from_matching(m: Matching, n: int, e: int) -> DividingSet:
    """Decode a crossingless matching on 2n+2 points into its nesting tree.

    The positive faces are the label blocks.  A left-to-right scan over
    the labels keeps a stack of the open blocks (open up to their largest
    label; the based block up to n+1): a new block's parent is the open
    block on top, and siblings are numbered in the order they are met.
    """
    if len(m) != 2 * n + 2 or not is_crossingless_matching(m):
        raise EulerMismatch("not a crossingless matching on 2n+2 points")
    faces = positive_faces(m)
    if len(faces) != n - e + 1:
        raise EulerMismatch(
            f"matching has {len(faces)} positive components, expected {n - e + 1}"
        )
    block = [0] * (n + 1)
    for b, face in enumerate(faces):
        for s in face:
            block[s] = b
    closes = [max(face) for face in faces]
    closes[block[0]] = n + 1
    vectors: list[Optional[NestVector]] = [None] * len(faces)
    vectors[block[0]] = STAR
    children = [0] * len(faces)
    stack = [block[0]]
    for s in range(1, n + 1):
        while closes[stack[-1]] < s:
            stack.pop()
        b, top = block[s], stack[-1]
        if vectors[b] is None:
            children[top] += 1
            vectors[b] = vectors[top] + (children[top],)
            stack.append(b)
    ds = DividingSet.make(n, e, dict(zip(vectors, faces)))
    if to_matching(ds) != tuple(m):
        raise EulerMismatch("matching is not realized by its face partition")
    return ds


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


@lru_cache(maxsize=None)  # one entry per (n, e): at most 45 under --max-n 8
def enumerate_objects(n: int, e: int) -> tuple[DividingSet, ...]:
    """All dividing sets of the (n, e) component, ordered by their matching
    (noncrossing_matchings yields the matchings in lexicographic order)."""
    if not 0 <= e <= n:
        raise EulerMismatch(f"need 0 <= e <= n, got e={e}, n={n}")
    out = []
    for m in noncrossing_matchings(n):
        if len(positive_faces(m)) == n - e + 1:
            out.append(from_matching(m, n, e))
    return tuple(out)


# ---------------------------------------------------------------------------
# basic dividing sets


def basic_of(n: int, e: int, based: Iterable[int]) -> DividingSet:
    """The basic dividing set with this based label set.

    Equal arguments give the same instance, so the facts kept on it
    (see DividingSet) are computed once per basic set.
    """
    return _basic(n, e, tuple(sorted(based)))


@lru_cache(maxsize=None)  # one instance per basic set, sharing its kept facts
def _basic(n: int, e: int, s: tuple[int, ...]) -> DividingSet:
    if len(s) != e + 1 or not s or s[0] != 0 or s[-1] > n:
        raise BadBase(f"based set must contain 0 and have e+1={e + 1} labels in 0..n")
    comps: dict[NestVector, tuple[int, ...]] = {STAR: s}
    rest = [t for t in range(n + 1) if t not in s]
    for j, t in enumerate(sorted(rest), start=1):
        comps[(j,)] = (t,)
    return DividingSet.make(n, e, comps)


@lru_cache(maxsize=None)  # one entry per (n, e): at most 45 under --max-n 8
def basic_sets(n: int, e: int) -> tuple[DividingSet, ...]:
    """B_{n,e}, ordered by based label set; has binomial(n, e) elements."""
    out = [basic_of(n, e, (0,) + c) for c in itertools.combinations(range(1, n + 1), e)]
    assert len(out) == comb(n, e)
    return tuple(sorted(out, key=lambda d: d.star))


def basic_index(ds: DividingSet) -> int:
    """The place of a basic ds in basic_sets(n, e), which names its
    projective summand: the lexicographic rank of its based set among the
    e-subsets of 1..n, counted by binomials and kept on the instance."""
    r = ds.__dict__.get("_basic_index")
    if r is None:
        if not ds.is_basic():
            raise NotBasic(repr(ds))
        r, prev, left = 0, 0, ds.e
        for s in ds.star[1:]:
            left -= 1  # count the subsets that agree before s and hold a t < s there
            r += sum(comb(ds.n - t, left) for t in range(prev + 1, s))
            prev = s
        ds.__dict__["_basic_index"] = r
    return r


# ---------------------------------------------------------------------------
# nesting combinatorics


def nesting_sets(
    ds: DividingSet, v: NestVector, i: int
) -> tuple[frozenset[NestVector], frozenset[NestVector]]:
    """(NV(v,i), DNV(v,i)).

    NV(v,i) collects vectors of non-boundary-parallel components lying in
    the open interval (label_at(v,0), label_at(v,i)); DNV(v,i) those that
    directly nest inside v between its (i-1)st and ith labels.  DNV(v,0)
    is returned empty.
    """
    ls = ds.labels(v)
    if not 0 <= i <= len(ls) - 1:
        raise IndexOutOfRange(f"i={i} outside 0..{len(ls) - 1}")
    nv = frozenset(
        w
        for w in ds.vnb
        if w != v and ls[0] < min(ds.labels(w)) and max(ds.labels(w)) < ls[i]
    )
    if i == 0:
        return nv, frozenset()
    dnv = frozenset(
        w
        for w in ds.vnb
        if parent(w) == v and ls[i - 1] < min(ds.labels(w)) and max(ds.labels(w)) < ls[i]
    )
    return nv, dnv


# ---------------------------------------------------------------------------
# geometry: faces of the chord diagram, shared by bypass and hom machinery


def chord_key(c: tuple[int, int]) -> tuple[int, int]:
    return (c[0], c[1]) if c[0] < c[1] else (c[1], c[0])


def chord_slots(ds: DividingSet) -> dict[tuple[int, int], tuple[NestVector, int]]:
    """Chord key -> (v, j): the positive component v the chord bounds and
    its slot j in v's walk, so the chord is v's chord[j].  Built per
    call, not kept."""
    return {chord_key(c): (v, j) for v, _ in ds.components for j, c in enumerate(ds.chords(v))}


@dataclass(frozen=True)
class NegRegion:
    """A negative-region face: its cyclic walk of (arc index, chord key).

    Entry (t, c) means the walk traverses the negative boundary arc
    (2t+1, 2t+2) and then leaves along chord c.  Chord order around the
    region is the order of this tuple.
    """

    index: int
    walk: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def chords(self) -> tuple[tuple[int, int], ...]:
        return tuple(c for _, c in self.walk)

    def between(self, c_in: tuple[int, int], c_out: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        """Chords strictly between c_in and c_out in walk order."""
        cs = self.chords
        k, j = len(cs), cs.index(c_out)
        p = (cs.index(c_in) + 1) % k
        out = []
        while p != j:
            out.append(cs[p])
            p = (p + 1) % k
        return tuple(out)


@dataclass(frozen=True)
class Geometry:
    """The chord diagram's face structure, kept once per instance."""

    ds: DividingSet
    comp_of_chord: Mapping[tuple[int, int], NestVector]
    neg_regions: tuple[NegRegion, ...]
    neg_of_chord: Mapping[tuple[int, int], int]

    def adjacent(self, v: NestVector, w: NestVector) -> bool:
        """Do two positive components share a negative region?"""
        rv = {self.neg_of_chord[chord_key(c)] for c in self.ds.chords(v)}
        rw = {self.neg_of_chord[chord_key(c)] for c in self.ds.chords(w)}
        return bool(rv & rw)


def geometry(ds: DividingSet) -> Geometry:
    geo = ds.__dict__.get("_geometry")
    if geo is None:
        geo = ds.__dict__["_geometry"] = _faces(ds)
    return geo


def _faces(ds: DividingSet) -> Geometry:
    m = to_matching(ds)
    comp_of_chord = {c: v for c, (v, _) in chord_slots(ds).items()}

    size = len(m)
    seen = [False] * (size // 2)
    regions: list[NegRegion] = []
    neg_of_chord: dict[tuple[int, int], int] = {}
    for start in range(size // 2):
        if seen[start]:
            continue
        walk = []
        t = start
        while not seen[t]:
            seen[t] = True
            p = (2 * t + 2) % size
            c = chord_key((p, m[p]))
            walk.append((t, c))
            t = (m[p] - 1) // 2
        region = NegRegion(len(regions), tuple(walk))
        for _, c in walk:
            neg_of_chord[c] = region.index
        regions.append(region)
    return Geometry(ds, comp_of_chord, tuple(regions), neg_of_chord)


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


# ---------------------------------------------------------------------------
# JSON serialization


def vector_to_json(v: NestVector):
    return "*" if v == STAR else list(v)


def int_from_json(x) -> int:
    """x when it is a JSON integer; a float, a string or a boolean (which
    Python counts as an int) raises TypeError instead of being coerced."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _ints_from_json(xs) -> tuple[int, ...]:
    """xs as a tuple when it is a JSON list of integers (see int_from_json)."""
    if not isinstance(xs, list) or any(type(x) is not int for x in xs):
        raise TypeError(f"expected a list of integers, got {xs!r}")
    return tuple(xs)


def vector_from_json(x) -> NestVector:
    return STAR if x == "*" else _ints_from_json(x)


def ds_to_json(ds: DividingSet) -> dict:
    return {
        "n": ds.n,
        "e": ds.e,
        "components": [
            {"v": vector_to_json(v), "labels": list(ls)} for v, ls in ds.components
        ],
    }


def ds_from_json(obj: Mapping) -> DividingSet:
    """The dividing set of a JSON object; raises ValueError or TypeError on
    a value that is not of its JSON type or a vector listed twice."""
    comps: dict[NestVector, tuple[int, ...]] = {}
    for c in obj["components"]:
        v = vector_from_json(c["v"])
        if v in comps:
            raise ValueError(f"component {vector_to_json(v)} listed twice")
        comps[v] = _ints_from_json(c["labels"])
    return DividingSet.make(int_from_json(obj["n"]), int_from_json(obj["e"]), comps)
