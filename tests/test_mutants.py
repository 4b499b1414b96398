"""Named mutants of the library, each run against every suite it touches.

Each mutant replaces one library function with a copy that breaks one
stated fact.  It names every suite in which some check fails under it,
and pins the set of those suites' checks that fail at (3,1), (4,2) and
(5,2).  A check that no mutant makes fail may test nothing; a mutant
that stops failing marks a check that got weaker.  Every check the
suites emit there is pinned by some mutant or listed in UNCOVERED, the
checks no mutant here makes fail yet.

The homs checks that loop over one representative per rotation orbit
must fail exactly as their loops over every object do (oracle.HOMS_LOOPS)
under every mutant that keeps the rotation and its equivariance; a
mutant that breaks the equivariance must fail homs.rotation_equivariant.
"""

import dataclasses

import pytest

import oracle
from diskcontact import bypass, divset, functor, homs, kom, suites
from diskcontact.divset import basic_sets, geometry

ALL_VALID = "divset.enumerated_all_valid"
ROUNDTRIP = "divset.matching_roundtrip"
COUNT = "divset.count_vs_bruteforce"
IDENTITY = "homs.identity_one_curve"
SPLITS = "functor.differential_splits_by_negative_region"
COMMUTE = "functor.region_partials_commute"
CHAIN_MAPS = "functor.bypass_chain_maps_with_degree_formula"
SPLIT_LAWS = "functor.index_split_laws"
SQUARES = "functor.differential_squares_to_zero"
EQUIVARIANT = "homs.rotation_equivariant"
GREEDY = "homs.greedy_matches_rounding"
SERRE = "homs.serre_duality_iff"
STACK_ORDER = "homs.stack_order_insensitive"
EXACTNESS = "homs.triangle_exactness"
PRESENTATION = "algebra.presentation"
PRODUCT = "algebra.multiplication_matches_composition"
ENDS = "faithful.endomorphisms_one_dimensional"
REVERSE = "faithful.reverse_bypass_hom_vanishes"
TABLE = "faithful.hom_table_matches_contact_category"
FAITHFUL = {ENDS, REVERSE, TABLE}
INTO_ROTATION = "serre.hom_into_rotation_nonzero"
RESOLUTION = "serre.resolution_matches_lemma"
CALABI_YAU = "serre.calabi_yau_power"
TRANSFORM = "serre.transform_commutes_with_functor"  # run at n <= 3 only
ORDER = "serre.rotation_has_order_n_plus_1"
ROTATION = {INTO_ROTATION, RESOLUTION, CALABI_YAU}
CLOSURE = "triangles.closure_degree_sum_region_rotation"
COMPOSITIONS = "triangles.consecutive_compositions_vanish"
GAMMA = "triangles.gamma_solves_composite"
DISTINGUISHED = "triangles.image_distinguished"
DISJOINT = "triangles.disjoint_pairs_commute"
# what a wrong curve count breaks beyond the homs suite
CURVE_COUNT_USERS = {PRODUCT, INTO_ROTATION, CALABI_YAU, TABLE}
UNCOVERED = {
    "divset.basic_count_binomial",
    "divset.relative_nesting_partition",
}
# what objects that keep another object's matching break beyond the divset suite
WRONG_MATCHING_USERS = {PRODUCT, SPLITS, COMMUTE, CHAIN_MAPS, SPLIT_LAWS, REVERSE, TABLE}
WRONG_MATCHING_USERS |= {GREEDY, EQUIVARIANT, SERRE, STACK_ORDER, EXACTNESS, ORDER, CALABI_YAU, RESOLUTION}
WRONG_MATCHING_USERS |= {CLOSURE, COMPOSITIONS, DISJOINT, GAMMA, DISTINGUISHED}


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


def tight_row_transposed(tight_row):
    def mutated(self, b):
        size = len(basic_sets(self.n, self.e))
        return homs._mask(c for c in range(size) if tight_row(self, c) >> b & 1)

    return mutated


def rotation_reversed(rotate):
    def mutated(self, i):
        m = self.matchings[i]
        size = len(m)
        return self.matching_id(tuple((m[(p - 2) % size] + 2) % size for p in range(size)))

    return mutated


def null_only_when_zero(is_nullhomotopic_from):
    def mutated(retracts, f):
        return not f.entries and is_nullhomotopic_from(retracts, f)

    return mutated


def gamma_entry_dropped(gamma_chain_map):
    def mutated(tri):
        f = gamma_chain_map(tri)
        return f if not f.entries else dataclasses.replace(f, entries=f.entries - {min(f.entries)})

    return mutated


def simplify_without_zigzag(simplify):
    def mutated(c):
        summands, d = list(c.summands), set(c.d)
        while True:
            pivot = next(((i, j) for i, j in sorted(d) if summands[i].gamma == summands[j].gamma), None)
            if pivot is None:
                return kom.Complex(tuple(summands), frozenset(d))
            keep = [t for t in range(len(summands)) if t not in pivot]
            renum = {t: s for s, t in enumerate(keep)}
            summands = [summands[t] for t in keep]
            d = {(renum[a], renum[b]) for a, b in d if a in renum and b in renum}

    return mutated


def zero_region_counterclockwise(zero_region):
    def mutated(move):
        return (1 - zero_region(move)) % 6 + 1

    return mutated


def deg_formula_off_in_region_5(deg_formula):
    def mutated(move):
        return deg_formula(move) + (bypass.zero_region(move) == 5)

    return mutated


def last_label_never_opens_a_block(partitions):
    def mutated(n, k):
        for m, blocks in partitions(n, k):
            if blocks[-1][0] < n:  # the blocks are listed by their smallest labels
                yield m, blocks

    return mutated


def matching_of_the_previous_partition(partitions):
    def mutated(n, k):
        previous = None
        for m, blocks in partitions(n, k):
            yield previous or m, blocks
            previous = m

    return mutated


def one_sibling_counter_for_all_parents(nesting_tree):
    def mutated(blocks):
        comps = nesting_tree(blocks)  # in preorder, the based component first
        renumbered = {(): ()}
        for t, (v, _) in enumerate(comps[1:], start=1):
            renumbered[v] = renumbered[v[:-1]] + (t,)
        return tuple((renumbered[v], labels) for v, labels in comps)

    return mutated


# name: (the fact it breaks, the suites it touches, owner and name of the
# function replaced, mutation, failing checks per (n, e))
MUTANTS = {
    "last_label_never_opens_a_block": (
        "every noncrossing partition into n-e+1 blocks is an object, those with {n} a block included",
        ("divset", "homs", "faithful"),
        (divset, "_partitions"),
        last_label_never_opens_a_block,
        {
            (3, 1): {COUNT, EQUIVARIANT, SERRE, STACK_ORDER, EXACTNESS, TABLE},
            (4, 2): {COUNT, EQUIVARIANT, SERRE, STACK_ORDER, EXACTNESS, TABLE},
            (5, 2): {COUNT, EQUIVARIANT, SERRE, STACK_ORDER, EXACTNESS, TABLE},
        },
    ),
    "matching_of_the_previous_partition": (
        "each enumerated object keeps the matching of its own partition",
        ("divset", "homs", "algebra", "functor", "triangles", "serre", "faithful"),
        (divset, "_partitions"),
        matching_of_the_previous_partition,
        {
            (3, 1): {ROUNDTRIP, TRANSFORM} | WRONG_MATCHING_USERS,
            (4, 2): {ROUNDTRIP} | WRONG_MATCHING_USERS,
            (5, 2): {ROUNDTRIP} | WRONG_MATCHING_USERS,
        },
    ),
    "one_sibling_counter_for_all_parents": (
        "a component's index counts the components met before it directly inside the same parent",
        ("divset",),
        (divset, "_nesting_tree"),
        one_sibling_counter_for_all_parents,
        # the basic sets, whose components all nest directly in the based
        # one, keep their numbering
        {(3, 1): {ALL_VALID}, (4, 2): {ALL_VALID}, (5, 2): {ALL_VALID}},
    ),
    "rim_corner_off_by_one": (
        "a region's partial starts at the walk-entry corner of each rim chord",
        ("functor",),
        (functor, "_rim"),
        rim_corner_off_by_one,
        {(3, 1): {SPLITS}, (4, 2): {SPLITS}, (5, 2): {SPLITS}},
    ),
    "identity_flipped": (
        "the identity indices of a bypass are those left of its arc",
        ("functor", "triangles", "serre", "faithful"),
        (functor, "index_split"),
        identity_flipped,
        {
            (3, 1): {CHAIN_MAPS, SPLIT_LAWS, CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, CALABI_YAU, TRANSFORM, TABLE},
            (4, 2): {CHAIN_MAPS, SPLIT_LAWS, CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, CALABI_YAU, TABLE},
            (5, 2): {CHAIN_MAPS, SPLIT_LAWS, CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, CALABI_YAU, TABLE},
        },
    ),
    "entry_filed_under_another_region": (
        "each entry of d belongs to the partial of its own region",
        ("functor",),
        (functor, "negative_region_differential"),
        entry_filed_under_another_region,
        {(3, 1): set(), (4, 2): {COMMUTE}, (5, 2): {COMMUTE}},
    ),
    "curve_shift_plus_two": (
        "rounding shifts a curve leaving the bottom matching at p to p-2 on the top",
        ("homs", "algebra", "serre", "faithful"),
        (homs, "_curves"),
        curve_shift_plus_two,
        {
            (3, 1): {GREEDY, SERRE, EXACTNESS, TRANSFORM} | CURVE_COUNT_USERS,
            (4, 2): {GREEDY, SERRE, STACK_ORDER, EXACTNESS} | CURVE_COUNT_USERS,
            (5, 2): {GREEDY, SERRE, STACK_ORDER, EXACTNESS} | CURVE_COUNT_USERS,
        },
    ),
    "curves_not_halved": (
        "each closed curve is walked once in each direction, so curves are half the cycles",
        ("homs", "algebra", "serre", "faithful"),
        (homs, "_curves"),
        curves_not_halved,
        {
            (3, 1): {IDENTITY, GREEDY, TRANSFORM} | CURVE_COUNT_USERS,
            (4, 2): {IDENTITY, GREEDY} | CURVE_COUNT_USERS,
            (5, 2): {IDENTITY, GREEDY} | CURVE_COUNT_USERS,
        },
    ),
    "closure_keeps_direct_successors": (
        "a composition mask reads every stage reached by a chain of bypasses",
        ("homs",),
        (homs, "_transitive_closure"),
        closure_keeps_direct_successors,
        {(3, 1): set(), (4, 2): {STACK_ORDER, EXACTNESS}, (5, 2): {STACK_ORDER, EXACTNESS}},
    ),
    "last_move_dropped": (
        "the bypass targets of a rotated object are the rotated bypass targets",
        ("homs", "faithful"),
        (homs.Component, "moves"),
        last_move_dropped,
        # of the homs checks only the first is sound here; at (5,2) it is
        # the only check to fail
        {
            (3, 1): {EQUIVARIANT, EXACTNESS},
            (4, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS, TABLE},
            (5, 2): {EQUIVARIANT},
        },
    ),
    "target_slot_off_by_one": (
        "a move's z is one past its target chord's walk slot",
        ("homs", "algebra", "functor", "triangles", "faithful"),
        (bypass, "find_moves"),
        target_slot_off_by_one,
        # find_moves validates no move, so the shifted moves reach the suites;
        # at (3,1) every move's ov has one chord, so no z moves
        {
            (3, 1): set(),
            (4, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS, CHAIN_MAPS, REVERSE, TABLE}
            | {CLOSURE, COMPOSITIONS, GAMMA, DISTINGUISHED, DISJOINT},
            (5, 2): {EQUIVARIANT, STACK_ORDER, EXACTNESS, PRODUCT, CHAIN_MAPS, REVERSE, TABLE}
            | {CLOSURE, COMPOSITIONS, GAMMA, DISTINGUISHED, DISJOINT},
        },
    ),
    "tight_row_transposed": (
        "the tight row of b holds the c with Hom(P_b, P_c) != 0, not those with Hom(P_c, P_b) != 0",
        ("algebra", "functor", "triangles", "serre", "faithful"),
        (homs.Component, "tight_row"),
        tight_row_transposed,
        {
            (3, 1): {PRESENTATION, PRODUCT, SQUARES, SPLITS, COMMUTE, CHAIN_MAPS}
            | {CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, RESOLUTION, CALABI_YAU, TRANSFORM}
            | FAITHFUL,
            (4, 2): {PRESENTATION, PRODUCT, SQUARES, SPLITS, COMMUTE, CHAIN_MAPS}
            | {CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, RESOLUTION, CALABI_YAU}
            | FAITHFUL,
            (5, 2): {PRESENTATION, PRODUCT, SQUARES, SPLITS, COMMUTE, CHAIN_MAPS}
            | {CLOSURE, GAMMA, DISTINGUISHED, DISJOINT, RESOLUTION, CALABI_YAU}
            | FAITHFUL,
        },
    ),
    "rotation_reversed": (
        "the rotation σ moves every label s to s-1, so m'[p] = m[p+2] - 2",
        ("homs", "serre"),
        (homs.Component, "rotate"),
        rotation_reversed,
        {
            (3, 1): {SERRE, TRANSFORM} | ROTATION,
            (4, 2): {SERRE} | ROTATION,
            (5, 2): {SERRE} | ROTATION,
        },
    ),
    "null_only_when_zero": (
        "a cocycle is nullhomotopic iff its transfer lies in the image of d' on the E1 page",
        ("triangles",),
        (kom, "is_nullhomotopic_from"),
        null_only_when_zero,
        # (3,1) has no square with unequal sides
        {
            (3, 1): {DISTINGUISHED},
            (4, 2): {DISTINGUISHED, DISJOINT},
            (5, 2): {DISTINGUISHED, DISJOINT},
        },
    ),
    "gamma_entry_dropped": (
        "d.gamma + gamma.d is F(b1) followed by F(b2), the triangle's first two maps",
        ("triangles",),
        (functor, "gamma_chain_map"),
        gamma_entry_dropped,
        {(3, 1): {GAMMA}, (4, 2): {GAMMA}, (5, 2): {GAMMA}},
    ),
    "simplify_without_zigzag": (
        "cancelling an identity entry adds the zig-zag through it to the differential",
        ("triangles",),
        (kom, "simplify"),
        simplify_without_zigzag,
        {(3, 1): {DISTINGUISHED}, (4, 2): {DISTINGUISHED}, (5, 2): {DISTINGUISHED}},
    ),
    "zero_region_counterclockwise": (
        "the regions of the arc figure are numbered clockwise, so a triangle's next move has label 0 two regions on",
        ("triangles",),
        (bypass, "zero_region"),
        zero_region_counterclockwise,
        {(3, 1): {CLOSURE}, (4, 2): {CLOSURE}, (5, 2): {CLOSURE}},
    ),
    "deg_formula_off_in_region_5": (
        "deg_formula gives the degree of every bypass map, label 0 in region 5 included",
        ("functor",),
        (functor, "deg_formula"),
        deg_formula_off_in_region_5,
        {(3, 1): {CHAIN_MAPS}, (4, 2): {CHAIN_MAPS}, (5, 2): {CHAIN_MAPS}},
    ),
}
# the mutants under which the homs checks need not fail as their loops over
# every object do: four break the rotation equivariance (two drop a move
# or objects from a rotation orbit, two give objects moves or matchings
# that are not theirs), and
# rotation_reversed replaces the rotation the reduced checks read, while
# the loops read their own (oracle.serre_rotate)
LOOPS_MAY_DIFFER = {"last_move_dropped", "target_slot_off_by_one", "rotation_reversed"}
LOOPS_MAY_DIFFER |= {"last_label_never_opens_a_block", "matching_of_the_previous_partition"}


def clear_caches():
    """Drop what a mutant may have built: the enumerated components and
    everything the component index keeps."""
    divset.enumerate_objects.cache_clear()
    homs.component.cache_clear()
    homs.rounded_components.cache_clear()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_exactly_its_checks(name, monkeypatch):
    fact, touched, (owner, attr), mutate, want = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    clear_caches()
    try:
        got, loops = {}, {}
        for n, e in want:
            got[n, e] = set()
            for suite in touched:
                (report,) = suites.run_suite(suite, n, e)
                got[n, e] |= {c.check_id for c in report.checks if not c.ok}
                if suite == "homs" and name not in LOOPS_MAY_DIFFER:
                    reduced = {c.check_id: c.counterexample for c in report.checks}
                    for check_id, loop in oracle.HOMS_LOOPS.items():
                        loops[n, e, check_id] = (reduced[check_id], loop(n, e))
    finally:
        clear_caches()
    assert got == want, fact
    for key, (reduced, unreduced) in loops.items():
        assert reduced == unreduced, key


def test_every_touched_suite_fails_somewhere():
    for name, (_, touched, *_, want) in MUTANTS.items():
        failing = {c.split(".")[0] for ids in want.values() for c in ids}
        assert failing == set(touched), name


def test_every_check_is_pinned_or_uncovered():
    catalogue = {ne for *_, want in MUTANTS.values() for ne in want}
    homs.component.cache_clear()
    try:
        emitted = {
            c.check_id for n, e in catalogue for rep in suites.run_suite("all", n, e) for c in rep.checks
        }
    finally:
        homs.component.cache_clear()
    pinned = {c for *_, want in MUTANTS.values() for ids in want.values() for c in ids}
    assert not pinned & UNCOVERED
    assert pinned | UNCOVERED == emitted
