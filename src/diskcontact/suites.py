"""Exhaustive verification suites over one (n, e) component.

Each suite runs named checks and collects a report; a failing check
carries a JSON-serializable counterexample.  The suites are the
executable form of the structural facts the library is built on:
enumeration versus an independent oracle, curve counts versus the greedy
criterion, chain-map laws, triangle identities, homotopy-level
statements, the rotation functor, and faithfulness.

This module imports only what the divset and homs suites call; the
other suites import `kom`, `functor` and `algebra` when they run, so a
homs run never compiles them.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator, Optional

from . import bypass, homs
from .divset import (
    DividingSet,
    basic_sets,
    ds_to_json,
    enumerate_objects,
    from_matching,
    geometry,
    is_crossingless_matching,
    nesting_sets,
    positive_faces,
    to_matching,
    validate,
)


@dataclass
class Check:
    check_id: str
    ok: bool
    counterexample: object = None
    duration: float = 0.0


@dataclass
class SuiteReport:
    suite: str
    n: int
    e: int
    checks: list[Check] = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "e": self.e,
            "ok": self.ok,
            "duration": round(self.duration, 3),
            "checks": [
                {
                    "id": c.check_id,
                    "ok": c.ok,
                    "duration": round(c.duration, 3),
                    **(
                        {"counterexample": c.counterexample}
                        if c.counterexample is not None
                        else {}
                    ),
                }
                for c in self.checks
            ],
        }


# Set by `reporting`, rather than passed to run_suite, so that callers
# and wrappers of run_suite(name, n, e) keep its signature.
_on_check: ContextVar[Optional[Callable[[Check], None]]] = ContextVar("on_check", default=None)


@contextmanager
def reporting(on_check: Callable[[Check], None]) -> Iterator[None]:
    """Within the block, every suite calls on_check with each check as it finishes."""
    token = _on_check.set(on_check)
    try:
        yield
    finally:
        _on_check.reset(token)


class _Runner:
    def __init__(self, suite: str, n: int, e: int):
        self.report = SuiteReport(suite, n, e)

    def run(self, check_id: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            bad = fn()  # None if fine, else a counterexample payload
            check = Check(check_id, bad is None, bad, time.perf_counter() - t0)
        except Exception as exc:  # a crash is a failure with the error recorded
            check = Check(check_id, False, {"error": repr(exc)}, time.perf_counter() - t0)
        self.report.checks.append(check)
        on_check = _on_check.get()
        if on_check is not None:
            on_check(check)


def brute_force_counts(n: int) -> dict[int, int]:
    """Independent oracle: all fixed-point-free involutions filtered by
    crossings, bucketed by positive component count (keyed by e)."""
    size = 2 * n + 2
    counts: dict[int, int] = {}

    def involutions(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        a = points[0]
        for i in range(1, len(points)):
            b = points[i]
            rest = points[1:i] + points[i + 1 :]
            for pairs in involutions(rest):
                yield ((a, b),) + pairs

    for pairs in involutions(tuple(range(size))):
        m = [0] * size
        for a, b in pairs:
            m[a], m[b] = b, a
        if is_crossingless_matching(m):
            e = n + 1 - len(positive_faces(tuple(m)))
            counts[e] = counts.get(e, 0) + 1
    return counts


def brute_force_count(n: int, e: int) -> int:
    return brute_force_counts(n).get(e, 0)


def suite_divset(n: int, e: int) -> SuiteReport:
    r = _Runner("divset", n, e)
    objs = enumerate_objects(n, e)

    def all_valid():
        for g in objs:
            rep = validate(g)
            if not rep.ok:
                return {"ds": ds_to_json(g), "violations": list(rep.violations)}

    def roundtrip():
        for g in objs:
            if from_matching(to_matching(g), n, e) != g:
                return {"ds": ds_to_json(g)}

    def oracle_count():
        want = brute_force_count(n, e)
        if len(objs) != want:
            return {"enumerated": len(objs), "oracle": want}

    def basic_count():
        if len(basic_sets(n, e)) != comb(n, e):
            return {"got": len(basic_sets(n, e)), "want": comb(n, e)}

    def relative_nesting():
        for g in objs:
            for v in g.vectors:
                for i in range(1, g.l(v) + 1):
                    nv_i, dnv = nesting_sets(g, v, i)
                    nv_prev = nesting_sets(g, v, i - 1)[0]
                    parts = [set(nv_prev), set(dnv)]
                    parts += [set(nesting_sets(g, w, g.l(w))[0]) for w in dnv]
                    union: set = set()
                    total = 0
                    for p in parts:
                        union |= p
                        total += len(p)
                    if set(nv_i) != union or len(union) != total:
                        return {"ds": ds_to_json(g), "v": list(v), "i": i}

    r.run("divset.enumerated_all_valid", all_valid)
    r.run("divset.matching_roundtrip", roundtrip)
    if n <= 6:
        r.run("divset.count_vs_bruteforce", oracle_count)
    r.run("divset.basic_count_binomial", basic_count)
    r.run("divset.relative_nesting_partition", relative_nesting)
    return r.report


def suite_homs(n: int, e: int) -> SuiteReport:
    r = _Runner("homs", n, e)
    objs = enumerate_objects(n, e)

    def identity_tight():
        for g in objs:
            if homs.rounded_components(g, g) != 1:
                return {"ds": ds_to_json(g)}

    def tight_vs_rounding():
        for g, g2 in itertools.product(basic_sets(n, e), repeat=2):
            if homs.tight_basic(g, g2) != homs.hom_nonzero(g, g2):
                return {"src": ds_to_json(g), "dst": ds_to_json(g2)}

    # The checks below compare whole rows of the component index at once;
    # bit i of a mask stands for comp.objects[i].  Each one after
    # rotation_equivariant is invariant under the rotation σ, so its outer
    # loop runs over the orbit representatives only.  A representative is
    # the first object of its orbit in enumeration order, and a failure at
    # σ^t x is σ^t of one at x, so each reports the counterexample that its
    # loop over every object (tests/oracle.py) meets first.
    comp = homs.component(n, e)
    ids = comp.ids()

    def js(i: int) -> dict:
        return ds_to_json(comp.objects[i])

    def first(mask: int) -> int:
        return next(i for i in ids if mask >> i & 1)

    def equivariant():
        # what the reductions rely on, checked on every object
        for i in ids:
            rotated = {comp.rotate(t) for t, _ in comp.successors(i)}
            if {t for t, _ in comp.successors(comp.rotate(i))} != rotated:
                return {"ds": js(i)}
        tris = _triangles(comp, ids)
        for tri in tris:
            if tuple(map(comp.rotate, tri)) not in tris:
                return {"triangle": [js(x) for x in tri]}

    def serre_iff():
        # hom_out(σi) ^ hom_in(σσi) is σ of hom_out(i) ^ hom_in(σi)
        comp.hom_table()
        for i in comp.representatives():
            bad = comp.hom_out(i) ^ comp.hom_in(comp.rotate(i))
            if bad:
                return {"src": js(i), "dst": js(first(bad))}

    def chain_order_insensitive():
        # middles(σi, σk) = σ middles(i, k), and so for middles_right
        for i in comp.representatives():
            bad = 0
            for k in ids:
                bad |= comp.middles(i, k) ^ comp.middles_right(i, k)
            if bad:
                j = first(bad)
                k = next(
                    k for k in ids if (comp.middles(i, k) ^ comp.middles_right(i, k)) >> j & 1
                )
                return {"g": js(i), "g2": js(j), "g3": js(k)}

    def exactness():
        # the triangles with g1 = σi are σ of those with g1 = i, and the
        # sources, targets and hom masks of σ of a triangle are σ of its own
        for tri in _triangles(comp, comp.representatives()):
            bad = 0
            for s in range(3):
                a, b, c = tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3]
                # Hom(x, -) and Hom(-, x) applied to the triangle, over all x
                bad |= _not_exact(comp.sources(a, b), comp.sources(b, c), comp.hom_in(b))
                bad |= _not_exact(comp.targets(b, c), comp.targets(a, b), comp.hom_out(b))
            if bad:
                return {"x": js(first(bad)), "triangle": [js(x) for x in tri]}

    r.run("homs.rotation_equivariant", equivariant)
    r.run("homs.identity_one_curve", identity_tight)
    r.run("homs.greedy_matches_rounding", tight_vs_rounding)
    r.run("homs.serre_duality_iff", serre_iff)
    r.run("homs.stack_order_insensitive", chain_order_insensitive)
    r.run("homs.triangle_exactness", exactness)
    return r.report


def _triangles(comp: homs.Component, sources: list[int]) -> dict[tuple[int, int, int], None]:
    """Vertex ids (g1, g2, g3) of the bypass triangles whose g1 is among
    sources, in the order of the sources and their moves."""
    tris: dict[tuple[int, int, int], None] = {}
    for i in sources:
        for mv in comp.moves(i):
            t = bypass.triangle(comp.objects[i], mv)
            tris[comp.id(t.g1), comp.id(t.g2), comp.id(t.g3)] = None
    return tris


def _not_exact(first: int, second: int, hom: int) -> int:
    """Bits where first + second != hom, each mask read as 0/1 per bit."""
    return (first & second) | ((first | second) ^ hom)


def suite_functor(n: int, e: int) -> SuiteReport:
    from . import functor, kom

    r = _Runner("functor", n, e)
    objs = enumerate_objects(n, e)

    def complexes():
        for g in objs:
            if not kom.verify_complex(functor.build_F(g)):
                return {"ds": ds_to_json(g)}

    def region_split():
        for g in objs:
            total: set = set()
            for reg in geometry(g).neg_regions:
                total ^= functor.negative_region_differential(g, reg.index)
            if total != set(functor.build_F(g).d):
                return {"ds": ds_to_json(g)}

    def partials_commute():
        for g in objs:
            F = functor.build_F(g)
            regions = geometry(g).neg_regions
            parts = [
                kom.ChainMap(F, F, 1, functor.negative_region_differential(g, reg.index))
                for reg in regions
            ]
            for p in parts:
                if kom.compose(p, p).entries:
                    return {"ds": ds_to_json(g)}
            for p, q in itertools.combinations(parts, 2):
                if kom.compose(p, q).entries != kom.compose(q, p).entries:
                    return {"ds": ds_to_json(g)}

    def chain_maps():
        for g in objs:
            for mv in bypass.enumerate_bypasses(g):
                f = functor.chain_map_F(mv)
                if not kom.verify_chain_map(f):
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                if functor.deg_formula(mv) != f.k:
                    return {
                        "ds": ds_to_json(g),
                        "move": _move_json(mv),
                        "formula": functor.deg_formula(mv),
                        "actual": f.k,
                    }

    def index_split_laws():
        for g in objs:
            every = list(enumerate(functor.index_tuples(g)))
            for mv in bypass.enumerate_bypasses(g):
                identity, fixed = functor.index_split(mv)
                ii = {p for p, t in every if identity(t)}
                si = set()
                if fixed is not None:
                    si = {p for p, t in every if all(t[c] == x for c, x in fixed.items())} - ii
                if not (ii or si):
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                if 0 in mv.left_labels and (len(ii) != len(every) or si):
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                if 0 in mv.right_labels and ii:
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                if 0 in g.labels(mv.ov) and si:
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}

    r.run("functor.differential_squares_to_zero", complexes)
    r.run("functor.differential_splits_by_negative_region", region_split)
    r.run("functor.region_partials_commute", partials_commute)
    r.run("functor.bypass_chain_maps_with_degree_formula", chain_maps)
    r.run("functor.index_split_laws", index_split_laws)
    return r.report


def suite_triangles(n: int, e: int) -> SuiteReport:
    from . import functor, kom

    r = _Runner("triangles", n, e)
    objs = enumerate_objects(n, e)

    def closure_and_degrees():
        for g in objs:
            for mv in bypass.enumerate_bypasses(g):
                tri = bypass.triangle(g, mv)
                if bypass.attach(tri.g3, tri.b3) != g:
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                degs = [functor.deg_F(b) for b in (tri.b1, tri.b2, tri.b3)]
                if sum(degs) != 1:
                    return {"ds": ds_to_json(g), "degs": degs}
                zs = [bypass.zero_region(b) for b in (tri.b1, tri.b2, tri.b3)]
                if zs[1] != (zs[0] + 1) % 6 + 1 or zs[2] != (zs[1] + 1) % 6 + 1:
                    return {"ds": ds_to_json(g), "regions": zs}

    def vanishing_compositions():
        for g in objs:
            for mv in bypass.enumerate_bypasses(g):
                tri = bypass.triangle(g, mv)
                for a, b, c in (
                    (tri.g1, tri.g2, tri.g3),
                    (tri.g2, tri.g3, tri.g1),
                    (tri.g3, tri.g1, tri.g2),
                ):
                    if homs.composition_nonzero(a, b, c):
                        return {"triangle": [ds_to_json(x) for x in (a, b, c)]}

    def gamma_identity():
        for g in objs:
            for mv in bypass.enumerate_bypasses(g):
                tri = bypass.triangle(g, mv)
                f1 = functor.chain_map_F(tri.b1)
                f2 = functor.chain_map_F(tri.b2)
                gm = functor.gamma_chain_map(tri)
                d1 = kom.ChainMap(f1.src, f1.src, 1, f1.src.d)
                d3 = kom.ChainMap(gm.dst, gm.dst, 1, gm.dst.d)
                lhs = kom.add_maps(kom.compose(d1, gm), kom.compose(gm, d3))
                if lhs.entries != kom.compose(f1, f2).entries:
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}

    def distinguished():
        for g in objs:
            retracts = kom.column_retracts(functor.build_F(g))
            for mv in bypass.enumerate_bypasses(g):
                tri = bypass.triangle(g, mv)
                f1 = functor.chain_map_F(tri.b1)
                f2 = functor.chain_map_F(tri.b2)
                comp = kom.compose(f1, f2)
                if not kom.is_nullhomotopic_from(retracts, comp):
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}
                cn = kom.cone(functor.lift_morphism(tri.b1, 0))
                target = kom.shift(functor.build_F(tri.g3), f1.k + f2.k)
                if not kom.equivalent(cn, target):
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}

    def far_commutativity():
        # A square commutes in K^b(proj A) iff the sum of its two sides is
        # nullhomotopic.  Every side is F(a) or F(b), maybe followed by one
        # more map, and a, b are moves out of g, so every side starts at
        # F(g): one column retracts of F(g) answer all of g's squares, and
        # each column Hom(F(g), P_b) is reduced once for all their targets.
        for g in objs:
            moves = bypass.enumerate_bypasses(g)
            retracts = kom.column_retracts(functor.build_F(g))
            for a, b in itertools.combinations(moves, 2):
                squares = bypass.commuting_squares(a, b)
                if not squares:
                    continue
                fa, fb = functor.chain_map_F(a), functor.chain_map_F(b)
                ga, gb = bypass.attach(g, a), bypass.attach(g, b)
                for sq in squares:
                    if sq.after_a and sq.after_b:
                        if bypass.attach(ga, sq.after_a) != bypass.attach(gb, sq.after_b):
                            return {"ds": ds_to_json(g)}
                        lhs = kom.compose(fa, functor.chain_map_F(sq.after_a))
                        rhs = kom.compose(fb, functor.chain_map_F(sq.after_b))
                        if not kom.is_nullhomotopic_from(retracts, kom.add_maps(lhs, rhs)):
                            return {"ds": ds_to_json(g), "kind": "square"}
                    elif sq.after_a and bypass.attach(ga, sq.after_a) == gb:
                        lhs = kom.compose(fa, functor.chain_map_F(sq.after_a))
                        if not kom.is_nullhomotopic_from(retracts, kom.add_maps(lhs, fb)):
                            return {"ds": ds_to_json(g), "kind": "rotation"}
                    elif sq.after_b and bypass.attach(gb, sq.after_b) == ga:
                        lhs = kom.compose(fb, functor.chain_map_F(sq.after_b))
                        if not kom.is_nullhomotopic_from(retracts, kom.add_maps(lhs, fa)):
                            return {"ds": ds_to_json(g), "kind": "rotation"}

    r.run("triangles.closure_degree_sum_region_rotation", closure_and_degrees)
    r.run("triangles.consecutive_compositions_vanish", vanishing_compositions)
    r.run("triangles.gamma_solves_composite", gamma_identity)
    r.run("triangles.image_distinguished", distinguished)
    r.run("triangles.disjoint_pairs_commute", far_commutativity)
    return r.report


def suite_serre(n: int, e: int) -> SuiteReport:
    from . import functor, kom

    r = _Runner("serre", n, e)
    objs = enumerate_objects(n, e)

    def rotation_order():
        for g in objs:
            cur = g
            for _ in range(n + 1):
                cur = bypass.serre_rotate(cur)
            if cur != g:
                return {"ds": ds_to_json(g)}

    def hom_into_rotation():
        for g in objs:
            if not homs.hom_nonzero(g, bypass.serre_rotate(g)):
                return {"ds": ds_to_json(g)}

    def resolution_branches():
        for g in basic_sets(n, e):
            res = kom.serre_resolution(g)
            sg = bypass.serre_rotate(g)
            if 1 in g.star:
                if res.size != 1 or res.summands[0].gamma != sg:
                    return {"ds": ds_to_json(g)}
            else:
                F = functor.build_F(sg)
                if res.size != e + 1 or res.summands != F.summands or res.d != F.d:
                    return {"ds": ds_to_json(g)}

    def transform_commutes():
        for g in objs:
            sg = bypass.serre_rotate(g)
            c = functor.F_of_morphism(g, sg).k
            lhs = kom.simplify(kom.serre_transform(functor.build_F(g)))
            rhs = kom.shift(functor.build_F(sg), c)
            if not kom.equivalent(lhs, rhs):
                return {"ds": ds_to_json(g), "shift": c}
            if g.is_basic() and c != 0:
                return {"ds": ds_to_json(g), "shift": c}

    def calabi_yau():
        for g in basic_sets(n, e):
            C = kom.projective(g)
            for _ in range(n + 1):
                C = kom.simplify(kom.serre_transform(C))
            if not kom.equivalent(C, kom.shift(kom.projective(g), e * (n - e))):
                return {"ds": ds_to_json(g)}

    r.run("serre.rotation_has_order_n_plus_1", rotation_order)
    r.run("serre.hom_into_rotation_nonzero", hom_into_rotation)
    r.run("serre.resolution_matches_lemma", resolution_branches)
    if n <= 3:
        r.run("serre.transform_commutes_with_functor", transform_commutes)
    r.run("serre.calabi_yau_power", calabi_yau)
    return r.report


def suite_faithful(n: int, e: int) -> SuiteReport:
    from . import functor, kom

    r = _Runner("faithful", n, e)
    objs = enumerate_objects(n, e)

    def ends():
        for g in objs:
            F = functor.build_F(g)
            if kom.hom_by_degree(F, F) != {0: 1}:
                return {"ds": ds_to_json(g)}

    def reverse_bypass_zero():
        # grouped by bypass target, so one column retracts serves each source
        into: dict[DividingSet, dict[DividingSet, bypass.BypassMove]] = {}
        for g in objs:
            for mv in bypass.enumerate_bypasses(g):
                into.setdefault(bypass.attach(g, mv), {}).setdefault(g, mv)
        for g2, moves in into.items():
            retracts = kom.column_retracts(functor.build_F(g2))
            for g, mv in moves.items():
                if kom.hom_total_from(retracts, functor.build_F(g)) != 0:
                    return {"ds": ds_to_json(g), "move": _move_json(mv)}

    def full_table():
        # one source's column retracts and bypass tree serve its whole row
        comp = homs.component(n, e)
        comp.hom_table()
        ids = comp.ids()
        images = [functor.build_F(g) for g in objs]
        row = list(zip(objs, ids, images))
        for g, i, F in row:
            retracts = kom.column_retracts(F)
            out = comp.hom_out(i)
            maps = functor.F_of_tree(F, homs.bypass_search(comp, i, i, False))
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

    r.run("faithful.endomorphisms_one_dimensional", ends)
    r.run("faithful.reverse_bypass_hom_vanishes", reverse_bypass_zero)
    r.run("faithful.hom_table_matches_contact_category", full_table)
    return r.report


def suite_algebra(n: int, e: int) -> SuiteReport:
    from . import algebra

    r = _Runner("algebra", n, e)

    def presentation():
        rep = algebra.verify_presentation(n, e)
        if not rep["ok"]:
            return {k: v for k, v in rep["checks"].items() if not v["ok"]}

    def matches_composition():
        # a basic set's place in B is its basic index, which tight rows read
        B = basic_sets(n, e)
        rows = list(map(homs.component(n, e).tight_row, range(len(B))))
        for a, b, c in itertools.product(range(len(B)), repeat=3):
            if not (rows[a] >> b & 1 and rows[b] >> c & 1):
                continue
            g, g2, g3 = B[a], B[b], B[c]
            prod = algebra.multiply(algebra.generator(g, g2), algebra.generator(g2, g3))
            if (not prod.is_zero()) != homs.composition_nonzero(g, g2, g3):
                return {"g": ds_to_json(g), "g2": ds_to_json(g2), "g3": ds_to_json(g3)}

    r.run("algebra.presentation", presentation)
    r.run("algebra.multiplication_matches_composition", matches_composition)
    return r.report


SUITES = {
    "divset": suite_divset,
    "homs": suite_homs,
    "algebra": suite_algebra,
    "functor": suite_functor,
    "triangles": suite_triangles,
    "serre": suite_serre,
    "faithful": suite_faithful,
}


def run_suite(name: str, n: int, e: int) -> list[SuiteReport]:
    if name == "all":
        reports = [fn(n, e) for fn in SUITES.values()]
    else:
        reports = [SUITES[name](n, e)]
    for rep in reports:
        rep.duration = sum(c.duration for c in rep.checks)
    return reports


def _move_json(mv: bypass.BypassMove) -> dict:
    return {
        "uv": list(mv.uv),
        "ov": list(mv.ov),
        "x": mv.x,
        "y": mv.y,
        "z": mv.z,
    }
