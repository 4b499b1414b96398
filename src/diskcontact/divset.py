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
the point paired with p, drives curve counts and the walk of the
negative faces, and bypass surgery and rotation edit a few of its
entries.  `to_matching` encodes a tree.  One
stack scan over the labels at which the blocks of a noncrossing
partition open (`_nesting_tree`) builds every tree: `from_matching`
decodes a matching's positive faces with it, and `enumerate_objects`
the partitions it generates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

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

    # The label map, the chords, the matching, the non-based and
    # non-boundary-parallel vectors and the basic index are facts of the
    # dividing set alone, so each is computed once per instance and kept
    # in its __dict__, as the hash is.  The component index hands out one
    # interned instance per object, so these are not computed twice.  The
    # negative faces are not kept: they are walked on the matching
    # (`negative_faces`) by each caller.

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
    """Components of the positive region, as label sets (cycles of s -> m(2s+1)/2),
    listed by their smallest labels."""
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


def negative_faces(m: Matching) -> list[list[int]]:
    """Components of the negative region, each as the even points q at
    which its boundary walk leaves along the chord (q, m(q)), in walk
    order (q -> m(q)+1).  Listed, and each walked, from the first of the
    even points 2, 4, ..., 2n, 0 it holds, so a face's index is fixed by
    m alone."""
    size = len(m)
    seen = [False] * size
    out = []
    for q in range(2, size + 2, 2):
        q %= size
        if not seen[q]:
            face = _negative_face(m, q)
            for p in face:
                seen[p] = True
            out.append(face)
    return out


def _negative_face(m: Matching, q: int) -> list[int]:
    """The even points of the negative face through the even point q, in
    walk order from q."""
    size = len(m)
    face = [q]
    p = (m[q] + 1) % size
    while p != q:
        face.append(p)
        p = (m[p] + 1) % size
    return face


def to_matching(ds: DividingSet) -> Matching:
    """The matching of ds, kept on the instance (enumerate_objects and
    from_matching set it as they build it)."""
    m = ds.__dict__.get("_matching")
    if m is None:
        out = [-1] * (2 * ds.n + 2)
        for v, _ in ds.components:
            for a, b in ds.chords(v):
                out[a], out[b] = b, a
        m = ds.__dict__["_matching"] = tuple(out)
    return m


def _nesting_tree(blocks: Sequence[Sequence[int]]) -> tuple:
    """The sorted components of a noncrossing partition of {0..n}, given
    as its blocks' ascending labels, listed by their smallest labels (so
    label 0's, the based block, first).

    A left-to-right scan over the labels at which blocks open keeps a
    stack of the open blocks (open up to their largest label; the based
    block up to n+1): a new block's parent is the open block on top, and
    siblings are numbered in the order they are met.  Blocks are met in
    preorder of the tree, which is the order of their vectors.
    """
    vectors: list[NestVector] = [STAR]
    children = [0] * len(blocks)
    stack = [0]
    for b in range(1, len(blocks)):
        first = blocks[b][0]
        while stack[-1] and blocks[stack[-1]][-1] < first:
            stack.pop()
        top = stack[-1]
        children[top] += 1
        vectors.append(vectors[top] + (children[top],))
        stack.append(b)
    return tuple(zip(vectors, map(tuple, blocks)))


def from_matching(m: Matching, n: int, e: int) -> DividingSet:
    """Decode a crossingless matching on 2n+2 points into its nesting tree.

    The positive faces are the blocks, and `_nesting_tree` scans them
    into the tree.  The result keeps m as its matching.
    """
    m = tuple(m)
    if len(m) != 2 * n + 2 or not is_crossingless_matching(m):
        raise EulerMismatch("not a crossingless matching on 2n+2 points")
    faces = positive_faces(m)
    if len(faces) != n - e + 1:
        raise EulerMismatch(
            f"matching has {len(faces)} positive components, expected {n - e + 1}"
        )
    ds = DividingSet(n, e, _nesting_tree([sorted(face) for face in faces]))
    if to_matching(ds) != m:
        raise EulerMismatch("matching is not realized by its face partition")
    ds.__dict__["_matching"] = m  # the caller's tuple, which it may keep too
    return ds


def _partitions(n: int, k: int) -> Iterator[tuple[Matching, list[list[int]]]]:
    """The noncrossing partitions of {0..n} into k blocks, in the
    lexicographic order of their matchings.

    Yields (matching, blocks) with blocks as `_nesting_tree` reads them;
    the lists are reused, so read them before asking for the next.  Each
    step fixes the partner of the first point whose partner is open,
    trying partners in ascending order, as a lexicographic walk over
    matchings does.  The open points fall into pending intervals of two
    kinds, kept on a stack, the next one on top:

    * a disk lo..hi of labels no chord has entered: label lo opens a new
      block, and point 2lo pairs with 2a+1 for its largest label a; then
      come the rest of that block from lo up to a and the disk a+1..hi;
    * the rest of block b from its label t up to its largest label a:
      point 2t+1 pairs with 2u for the next label u of b; then come the
      disk t+1..u-1 and the rest of b from u.

    Blocks open in the order of their smallest labels.  A branch is taken
    only if k stays between the blocks opened plus one per pending disk
    and the blocks opened plus one per label not yet placed.
    """
    m = [0] * (2 * n + 2)
    blocks: list[list[int]] = []
    todo: list[tuple[int, int, int]] = [(0, n, -1)]  # (lo, hi, -1) or (t, a, b)

    def walk(free: int, disks: int) -> Iterator[tuple[Matching, list[list[int]]]]:
        if not todo:
            yield tuple(m), blocks
            return
        task = lo, hi, b = todo.pop()
        if b < 0:  # a disk
            b = len(blocks)
            blocks.append([lo])
            free, disks = free - 1, disks - 1
            for a in range(lo, hi + 1):
                rest, outer = a > lo, a < hi
                if len(blocks) + disks + outer <= k <= len(blocks) + free - rest:
                    m[2 * lo], m[2 * a + 1] = 2 * a + 1, 2 * lo
                    if outer:
                        todo.append((a + 1, hi, -1))
                    if rest:
                        todo.append((lo, a, b))
                    yield from walk(free - rest, disks + outer)
                    del todo[len(todo) - rest - outer :]
            blocks.pop()
        else:  # the rest of block b from lo up to hi
            labels = blocks[b]
            for u in range(lo + 1, hi + 1):
                inner, rest = u > lo + 1, u < hi
                if len(blocks) + disks + inner <= k <= len(blocks) + free - rest:
                    labels.append(u)
                    m[2 * lo + 1], m[2 * u] = 2 * u, 2 * lo + 1
                    if rest:
                        todo.append((u, hi, b))
                    if inner:
                        todo.append((lo + 1, u - 1, -1))
                    yield from walk(free - rest, disks + inner)
                    del todo[len(todo) - rest - inner :]
                    labels.pop()
        todo.append(task)

    yield from walk(n + 1, 1)


@lru_cache(maxsize=None)  # one entry per (n, e): at most 45 under --max-n 8
def enumerate_objects(n: int, e: int) -> tuple[DividingSet, ...]:
    """All dividing sets of the (n, e) component, ordered by their matching.

    They are the noncrossing partitions of {0..n} into n-e+1 blocks, which
    `_partitions` generates in matching order with their matchings; each
    keeps its matching (see to_matching).
    """
    if not 0 <= e <= n:
        raise EulerMismatch(f"need 0 <= e <= n, got e={e}, n={n}")
    out = []
    for m, blocks in _partitions(n, n - e + 1):
        ds = DividingSet(n, e, _nesting_tree(blocks))
        ds.__dict__["_matching"] = m
        out.append(ds)
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
# chords: keys and walk slots, shared by bypass and functor


def chord_key(c: tuple[int, int]) -> tuple[int, int]:
    return (c[0], c[1]) if c[0] < c[1] else (c[1], c[0])


def chord_slots(ds: DividingSet) -> dict[tuple[int, int], tuple[NestVector, int]]:
    """Chord key -> (v, j): the positive component v the chord bounds and
    its slot j in v's walk, so the chord is v's chord[j].  Built per
    call, not kept."""
    return {chord_key(c): (v, j) for v, _ in ds.components for j, c in enumerate(ds.chords(v))}


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


def list_from_json(xs) -> list:
    """xs when it is a JSON list; a string or an object, which Python would
    iterate as well, raises TypeError instead."""
    if not isinstance(xs, list):
        raise TypeError(f"expected a list, got {xs!r}")
    return xs


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
    for c in list_from_json(obj["components"]):
        v = vector_from_json(c["v"])
        if v in comps:
            raise ValueError(f"component {vector_to_json(v)} listed twice")
        comps[v] = _ints_from_json(c["labels"])
    return DividingSet.make(int_from_json(obj["n"]), int_from_json(obj["e"]), comps)
