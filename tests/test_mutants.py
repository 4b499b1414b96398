"""Named mutants of the functor suite.

Each mutant replaces one library function with a copy that breaks one
stated fact, and pins the set of functor checks that fail under it at
(3,1), (4,2) and (5,2).  A check that no mutant makes fail may test
nothing; a mutant that stops failing marks a check that got weaker.
"""

import pytest

from diskcontact import functor, homs, suites
from diskcontact.divset import geometry

SPLITS = "functor.differential_splits_by_negative_region"
COMMUTE = "functor.region_partials_commute"
CHAIN_MAPS = "functor.bypass_chain_maps_with_degree_formula"
SPLIT_LAWS = "functor.index_split_laws"


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


# name: (the fact it breaks, function replaced, mutation, failing checks per (n, e))
MUTANTS = {
    "rim_corner_off_by_one": (
        "a region's partial starts at the walk-entry corner of each rim chord",
        "_rim",
        rim_corner_off_by_one,
        {(3, 1): {SPLITS}, (4, 2): {SPLITS}, (5, 2): {SPLITS}},
    ),
    "identity_flipped": (
        "the identity indices of a bypass are those left of its arc",
        "index_split",
        identity_flipped,
        {(3, 1): {CHAIN_MAPS, SPLIT_LAWS}, (4, 2): {CHAIN_MAPS, SPLIT_LAWS}, (5, 2): {CHAIN_MAPS, SPLIT_LAWS}},
    ),
    "entry_filed_under_another_region": (
        "each entry of d belongs to the partial of its own region",
        "negative_region_differential",
        entry_filed_under_another_region,
        {(3, 1): set(), (4, 2): {COMMUTE}, (5, 2): {COMMUTE}},
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_exactly_its_checks(name, monkeypatch):
    fact, attr, mutate, want = MUTANTS[name]
    monkeypatch.setattr(functor, attr, mutate(getattr(functor, attr)))
    homs.component.cache_clear()
    try:
        got = {}
        for n, e in want:
            (report,) = suites.run_suite("functor", n, e)
            got[n, e] = {c.check_id for c in report.checks if not c.ok}
    finally:
        homs.component.cache_clear()
    assert got == want, fact
