"""Named mutants of the functor and homs suites.

Each mutant replaces one library function with a copy that breaks one
stated fact, and pins the set of its suite's checks that fail under it
at (3,1), (4,2) and (5,2).  A check that no mutant makes fail may test
nothing; a mutant that stops failing marks a check that got weaker.

The homs checks that loop over one representative per rotation orbit
must fail exactly as their loops over every object do (oracle.HOMS_LOOPS)
under every mutant that keeps the rotation equivariance; a mutant that
breaks it must fail homs.rotation_equivariant.
"""

import dataclasses

import pytest

import oracle
from diskcontact import bypass, functor, homs, suites
from diskcontact.divset import geometry

IDENTITY = "homs.identity_one_curve"
SPLITS = "functor.differential_splits_by_negative_region"
COMMUTE = "functor.region_partials_commute"
CHAIN_MAPS = "functor.bypass_chain_maps_with_degree_formula"
SPLIT_LAWS = "functor.index_split_laws"
EQUIVARIANT = "homs.rotation_equivariant"
GREEDY = "homs.greedy_matches_rounding"
SERRE = "homs.serre_duality_iff"
STACK_ORDER = "homs.stack_order_insensitive"
EXACTNESS = "homs.triangle_exactness"


def rim_corner_off_by_one(rim):
    def mutated(ds, region_index):
        out = rim(ds, region_index)
        return out and [(c, (j + 1) % len(ds.labels(ds.tpv[c]))) for c, j in out]

    return mutated


def identity_flipped(index_split):
    def mutated(move):
        identity, fixed = index_split(move)
        return (lambda t: not identity(t)), fixed

    return mutated


def entry_filed_under_another_region(partial):
    def mutated(ds, region_index):
        parts = {reg.index: partial(ds, reg.index) for reg in geometry(ds).neg_regions}
        live = [r for r, p in parts.items() if p]
        if len(live) < 2 or region_index not in (live[0], live[-1]):
            return parts[region_index]
        return parts[region_index] ^ {min(parts[live[0]])}

    return mutated


def curve_shift_plus_two(curves):
    def mutated(m, m2):
        size = len(m)
        seen = [False] * size
        cycles = 0
        for start in range(size):
            if not seen[start]:
                cycles += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    p = m2[(m[p] + 2) % size]
        return cycles // 2

    return mutated


def curves_not_halved(curves):
    def mutated(m, m2):
        return 2 * curves(m, m2)  # the cycle count: each curve is walked both ways

    return mutated


def closure_keeps_direct_successors(transitive_closure):
    def mutated(graph):
        return {x: homs._mask([x, *graph[x]]) for x in graph}

    return mutated


def last_move_dropped(moves):
    def mutated(self, i):
        found = moves(self, i)
        return found[:-1] if i == self.ids()[-1] else found

    return mutated


def target_slot_off_by_one(find_moves):
    def mutated(ds):
        return [
            dataclasses.replace(mv, z=(mv.z + 1) % (ds.l(mv.ov) + 1)) for mv in find_moves(ds)
        ]

    return mutated


# name: (the fact it breaks, suite, owner and name of the function replaced,
# mutation, failing checks per (n, e))
MUTANTS = {
    "rim_corner_off_by_one": (
        "a region's partial starts at the walk-entry corner of each rim chord",
        "functor",
        (functor, "_rim"),
        rim_corner_off_by_one,
        {(3, 1): {SPLITS}, (4, 2): {SPLITS}, (5, 2): {SPLITS}},
    ),
    "identity_flipped": (
        "the identity indices of a bypass are those left of its arc",
        "functor",
        (functor, "index_split"),
        identity_flipped,
        {(3, 1): {CHAIN_MAPS, SPLIT_LAWS}, (4, 2): {CHAIN_MAPS, SPLIT_LAWS}, (5, 2): {CHAIN_MAPS, SPLIT_LAWS}},
    ),
    "entry_filed_under_another_region": (
        "each entry of d belongs to the partial of its own region",
        "functor",
        (functor, "negative_region_differential"),
        entry_filed_under_another_region,
        {(3, 1): set(), (4, 2): {COMMUTE}, (5, 2): {COMMUTE}},
    ),
    "curve_shift_plus_two": (
        "rounding shifts a curve leaving the bottom matching at p to p-2 on the top",
        "homs",
        (homs, "_curves"),
        curve_shift_plus_two,
        {
            (3, 1): {GREEDY, SERRE, EXACTNESS},
            (4, 2): {GREEDY, SERRE, STACK_ORDER, EXACTNESS},
            (5, 2): {GREEDY, SERRE, STACK_ORDER, EXACTNESS},
        },
    ),
    "curves_not_halved": (
        "each closed curve is walked once in each direction, so curves are half the cycles",
        "homs",
        (homs, "_curves"),
        curves_not_halved,
        {
            (3, 1): {IDENTITY, GREEDY},
            (4, 2): {IDENTITY, GREEDY},
            (5, 2): {IDENTITY, GREEDY},
        },
    ),
    "closure_keeps_direct_successors": (
        "a composition mask reads every stage reached by a chain of bypasses",
        "homs",
        (homs, "_transitive_closure"),
        closure_keeps_direct_successors,
        {(3, 1): set(), (4, 2): {STACK_ORDER, EXACTNESS}, (5, 2): {STACK_ORDER, EXACTNESS}},
    ),
    "last_move_dropped": (
        "the bypass targets of a rotated object are the rotated bypass targets",
        "homs",
        (homs.Component, "moves"),
        last_move_dropped,
        # only the first check is sound here; at (5,2) it is the only one to fail
        {(3, 1): {EQUIVARIANT, EXACTNESS}, (4, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS}, (5, 2): {EQUIVARIANT}},
    ),
    "target_slot_off_by_one": (
        "a move's z is one past its target chord's walk slot",
        "homs",
        (bypass, "find_moves"),
        target_slot_off_by_one,
        # find_moves validates no move, so the shifted moves reach the suite;
        # at (3,1) every move's ov has one chord, so no z moves
        {(3, 1): set(), (4, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS}, (5, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS}},
    ),
}
# the mutants under which the homs checks may not loop over representatives
NOT_EQUIVARIANT = {"last_move_dropped", "target_slot_off_by_one"}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_exactly_its_checks(name, monkeypatch):
    fact, suite, (owner, attr), mutate, want = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    homs.component.cache_clear()
    homs.rounded_components.cache_clear()
    try:
        got, loops = {}, {}
        for n, e in want:
            (report,) = suites.run_suite(suite, n, e)
            got[n, e] = {c.check_id for c in report.checks if not c.ok}
            if suite == "homs" and name not in NOT_EQUIVARIANT:
                reduced = {c.check_id: c.counterexample for c in report.checks}
                for check_id, loop in oracle.HOMS_LOOPS.items():
                    loops[n, e, check_id] = (reduced[check_id], loop(n, e))
    finally:
        homs.component.cache_clear()
        homs.rounded_components.cache_clear()
    assert got == want, fact
    for key, (reduced, unreduced) in loops.items():
        assert reduced == unreduced, key
