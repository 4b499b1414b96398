"""The reflection r on both sides, checked exactly.

r reverses the [0, 1] factor of the product with the disk and reflects
the disk keeping arc 0 in place, so it sends a morphism i -> j to one
rj -> ri.  On objects it is `homs.Component.reflect`.  On complexes of
projectives it is the A-dual followed by relabelling each summand P_b by
P_rb, where the based labels s of b become -s mod n+1.

The faithful suite runs the two checks here before its pair checks,
which visit one pair of each mirrored pair {(i, j), (rj, ri)}; the
argument is in `suites.suite_faithful`.  Each check returns None or a
counterexample.  The suite imports this module when it runs, so a run
of another suite never compiles it.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import functor
from .divset import basic_index, basic_of, basic_sets, ds_to_json
from .homs import Component, _bits, _mask
from .kom import Complex
from .suites import _move_json


def reverses_homs(comp: Component, ids: list[int]) -> Optional[dict]:
    """The contact side: r is an involution, Hom(i, j) = Hom(rj, ri), and
    each bypass i -> t is the only one from i to t and has exactly one
    reversed bypass rt -> ri."""
    comp.hom_table()
    ref = {i: comp.reflect(i) for i in ids}
    for i in ids:
        if ref.get(ref[i]) != i:
            return {"ds": ds_to_json(comp.objects[i])}
    for i in ids:
        bad = _mask(ref[j] for j in _bits(comp.hom_out(i))) ^ comp.hom_in(ref[i])
        if bad:  # Hom(i, rx) != Hom(x, ri)
            x = next(_bits(bad))
            return {"src": ds_to_json(comp.objects[i]), "dst": ds_to_json(comp.objects[ref[x]])}
    for i in ids:
        targets = [t for t, _ in comp.successors(i)]
        for t, mv in comp.successors(i):
            back = [x for x, _ in comp.successors(ref[t])]
            if targets.count(t) != 1 or back.count(ref[i]) != 1:
                return {"ds": ds_to_json(comp.objects[i]), "move": _move_json(mv)}
    return None


def dualizes_images(comp: Component, ids: list[int]) -> Optional[dict]:
    """The algebra side, strictly and with no homotopy: tight(b, c) =
    tight(rc, rb) on every basic pair, every F(i) is the dual of F(ri) up
    to a shift under the summand bijection (`summand_reflection`), and
    for one move b of each pair {b, rb}, F(rb) has the entries of F(b)
    reversed and relabelled."""
    n, e = comp.n, comp.e
    basics, reflected = basic_sets(n, e), reflected_basics(n, e)
    rows = [comp.tight_row(b) for b in range(len(basics))]
    for b, c in itertools.product(range(len(basics)), repeat=2):
        if rows[b] >> c & 1 != rows[reflected[c]] >> reflected[b] & 1:
            return {"src": ds_to_json(basics[b]), "dst": ds_to_json(basics[c])}
    ref = {i: comp.reflect(i) for i in ids}
    phi = {}
    for i in ids:
        F, R = functor.build_F(comp.objects[i]), functor.build_F(comp.objects[ref[i]])
        phi[i] = summand_reflection(reflected, F, R)
        if phi[i] is None:
            return {"ds": ds_to_json(comp.objects[i])}
    for i in ids:
        for t, mv in comp.successors(i):
            if ref[t] < i:
                continue  # the move onto ri from rt stands for both
            want = {(phi[t][q], phi[i][p]) for p, q in functor.chain_map_F(mv).entries}
            back = next((b for x, b in comp.successors(ref[t]) if x == ref[i]), None)
            if back is None or functor.chain_map_F(back).entries != want:
                return {"ds": ds_to_json(comp.objects[i]), "move": _move_json(mv)}
    return None


def reflected_basics(n: int, e: int) -> list[int]:
    """The basic index of rb for each basic index b."""
    return [
        basic_index(basic_of(n, e, [-s % (n + 1) for s in b.star])) for b in basic_sets(n, e)
    ]


def summand_reflection(reflected: list[int], F: Complex, R: Complex) -> Optional[list[int]]:
    """phi with phi[p] the summand of R on the reflection of the basic set
    of F's summand p, that is the summand omitting -S where p omits S; or
    None unless phi is a bijection that reverses every arrow of the
    differentials and h_p + h_phi[p] is one constant."""
    a = [basic_index(s.gamma) for s in F.summands]
    b = [basic_index(s.gamma) for s in R.summands]
    where = {x: q for q, x in enumerate(b)}
    phi = [where.get(reflected[x]) for x in a]
    if len(b) != len(a) or None in phi or len(set(phi)) != len(a):
        return None
    if len({s.h + R.summands[q].h for s, q in zip(F.summands, phi)}) > 1:
        return None
    if {(phi[q], phi[p]) for p, q in F.d} != R.d:
        return None
    return phi
