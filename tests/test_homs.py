import gc
import importlib
import itertools
import pkgutil
import random

import pytest

import diskcontact
from diskcontact import bypass, homs, kom, suites
from diskcontact.divset import (
    STAR,
    DividingSet,
    basic_of,
    basic_sets,
    ds_to_json,
    enumerate_objects,
)
from diskcontact.errors import ComponentMismatch, NotBasic
from diskcontact.functor import F_of_morphism
from diskcontact.homs import (
    bypass_chain,
    component,
    composition_nonzero,
    composition_nonzero_right,
    hom_nonzero,
    rounded_components,
    tight_basic,
)

import oracle
from conftest import pairs_up_to


def test_identity_has_one_curve():
    for n, e in pairs_up_to(5):
        for g in enumerate_objects(n, e):
            assert rounded_components(g, g) == 1


def test_example_pairs():
    g13 = basic_of(4, 2, {0, 1, 3})
    g24 = basic_of(4, 2, {0, 2, 4})
    g34 = basic_of(4, 2, {0, 3, 4})
    g12 = basic_of(4, 2, {0, 1, 2})
    assert hom_nonzero(g13, g24)
    assert not hom_nonzero(g13, g34)
    assert rounded_components(g12, g24) > 1
    g1 = basic_of(2, 1, {0, 1})
    g2 = basic_of(2, 1, {0, 2})
    assert hom_nonzero(g1, g2) and not hom_nonzero(g2, g1)


def test_component_mismatch():
    with pytest.raises(ComponentMismatch):
        hom_nonzero(basic_of(2, 1, {0, 1}), basic_of(3, 1, {0, 1}))


def test_tight_basic_examples():
    g13 = basic_of(4, 2, {0, 1, 3})
    assert tight_basic(g13, basic_of(4, 2, {0, 2, 4}))
    assert not tight_basic(g13, basic_of(4, 2, {0, 3, 4}))
    assert tight_basic(g13, g13)


def test_tight_basic_requires_basic(ex_g1):
    with pytest.raises(NotBasic):
        tight_basic(ex_g1, basic_of(2, 1, {0, 1}))


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_greedy_criterion_matches_edge_rounding(n, e):
    for g, g2 in itertools.product(basic_sets(n, e), repeat=2):
        assert tight_basic(g, g2) == hom_nonzero(g, g2)


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_serre_duality(n, e):
    objs = enumerate_objects(n, e)
    for g in objs:
        assert hom_nonzero(g, bypass.serre_rotate(g))
    for g, g2 in itertools.product(objs, repeat=2):
        assert hom_nonzero(g, g2) == hom_nonzero(g2, bypass.serre_rotate(g))


def test_composition_basic_triple():
    g1 = basic_of(4, 2, {0, 1, 3})
    g2 = basic_of(4, 2, {0, 2, 3})
    g3 = basic_of(4, 2, {0, 2, 4})
    assert composition_nonzero(g1, g2, g3)


def test_composition_triangle_edges_vanish(ex_g1):
    tri = bypass.triangle(ex_g1, bypass.enumerate_bypasses(ex_g1)[0])
    assert not composition_nonzero(tri.g1, tri.g2, tri.g3)
    assert not composition_nonzero(tri.g2, tri.g3, tri.g1)


def test_composition_blocked_label():
    # a label in both outer bases but missing from the middle base kills it
    g1 = basic_of(3, 1, {0, 1})
    g2 = basic_of(3, 1, {0, 2})
    g3 = basic_of(3, 1, {0, 1})
    assert not composition_nonzero(g1, g2, g3)


def _levels_into(g, g2):
    """Frontier-by-frontier distances from g over bypass stages with hom into g2."""
    dist = {g: 0}
    frontier = {g}
    step = 0
    while frontier:
        step += 1
        nxt = {bypass.attach(x, mv) for x in frontier for mv in bypass.enumerate_bypasses(x)}
        frontier = {y for y in nxt if y not in dist and hom_nonzero(y, g2)}
        dist.update(dict.fromkeys(frontier, step))
    return dist


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_bypass_chain_is_a_shortest_chain_into_target(n, e):
    objs = enumerate_objects(n, e)
    for g, g2 in itertools.product(objs, repeat=2):
        if not hom_nonzero(g, g2):
            continue
        chain = bypass_chain(g, g2)
        assert chain is not None
        stage = g
        for mv in chain:
            assert mv.source == stage
            stage = bypass.attach(stage, mv)
            assert hom_nonzero(stage, g2)
        assert stage == g2
        assert len(chain) == _levels_into(g, g2)[g2]


@pytest.mark.parametrize("n,e", pairs_up_to(5) + [(6, 3)])
def test_bypass_tree_paths_are_bypass_chain(n, e):
    # a tree grown without the T(i) filter gives other chains on 1 of the
    # 758 nonzero pairs i != j of (5,3) and on 18 of the 7,119 of (6,3)
    comp = component(n, e)
    comp.hom_table()
    objs = enumerate_objects(n, e)
    for g, i in zip(objs, comp.ids()):
        tree = homs.bypass_search(comp, i, i, False)
        assert homs._mask(tree) == comp.hom_out(i)
        for j in tree:
            steps, node = [], j
            while tree[node] is not None:
                steps.append((node, tree[node][1]))
                node = tree[node][0]
            steps.reverse()
            chain = bypass_chain(g, comp.objects[j])
            assert tuple(mv for _, mv in steps) == chain
            assert [t for t, _ in steps] == [comp.target(comp.move_id(mv)) for mv in chain]


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_composition_order_insensitive(n, e):
    objs = enumerate_objects(n, e)
    for g, g2, g3 in itertools.product(objs, repeat=3):
        assert composition_nonzero(g, g2, g3) == composition_nonzero_right(g, g2, g3)


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_composition_matches_functor_image(n, e):
    # the search's stage filter is what makes some composites of nonzero
    # homs vanish; the image complexes decide the same question independently
    objs = enumerate_objects(n, e)
    for g, g2, g3 in itertools.product(objs, repeat=3):
        if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3)):
            continue
        f = kom.compose(F_of_morphism(g, g2), F_of_morphism(g2, g3))
        nonzero = not kom.is_nullhomotopic(f)
        assert composition_nonzero(g, g2, g3) == nonzero
        assert composition_nonzero_right(g, g2, g3) == nonzero


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_hom_functors_exact_on_triangles(n, e):
    objs = enumerate_objects(n, e)
    triangles = set()
    for g in objs:
        for mv in bypass.enumerate_bypasses(g):
            t = bypass.triangle(g, mv)
            triangles.add((t.g1, t.g2, t.g3))
    for cyc in triangles:
        for x in objs:
            for i in range(3):
                a, b, c = cyc[i], cyc[(i + 1) % 3], cyc[(i + 2) % 3]
                assert int(composition_nonzero(x, a, b)) == int(
                    hom_nonzero(x, b)
                ) - int(composition_nonzero(x, b, c))
                assert int(composition_nonzero(b, c, x)) == int(
                    hom_nonzero(b, x)
                ) - int(composition_nonzero(a, b, x))


# --- the component index ----------------------------------------------------


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_component_rows_match_curve_counts(n, e):
    comp = component(n, e)
    objs = enumerate_objects(n, e)
    for g in objs:
        i = comp.id(g)
        out, into = comp.hom_out(i), comp.hom_in(i)
        for g2 in objs:
            j = comp.id(g2)
            assert bool(out >> j & 1) == (rounded_components(g, g2) == 1)
            assert bool(into >> j & 1) == (rounded_components(g2, g) == 1)


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_orbit_filled_rows_match_a_direct_fill(n, e):
    table = homs.Component(n, e)
    table.hom_table()
    ids, ms = table.ids(), table.matchings
    rep, shift, powers = table._orbits()
    for i in ids:
        assert powers[shift[i]][rep[i]] == i and rep[i] in table.representatives()
        assert ids.index(rep[i]) <= ids.index(i)
        assert table.hom_out(i) == homs._mask(j for j in ids if homs._curves(ms[i], ms[j]) == 1)
        assert table.hom_in(i) == homs._mask(j for j in ids if homs._curves(ms[j], ms[i]) == 1)


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_hom_table_counts_each_pair_once_for_both_rows(n, e, monkeypatch):
    rows, table = homs.Component(n, e), homs.Component(n, e)
    ids = rows.ids()
    curves = homs._curves
    counted = []
    monkeypatch.setattr(homs, "_curves", lambda m, m2: counted.append(1) or curves(m, m2))
    table.hom_table()
    # curves are counted only for the rows of the orbit representatives
    reps = table.representatives()
    assert len(counted) == len(reps) * len(ids)
    assert table.ids() == ids
    # reading the rows, of a filled table or of a fresh one, fills the
    # whole table at most once
    for i in ids:
        table.hom_out(i), table.hom_in(i), rows.hom_in(i), rows.hom_out(i)
    assert len(counted) == 2 * len(reps) * len(ids)


def test_hom_nonzero_reads_a_filled_row(monkeypatch):
    def refuse(m, m2):
        raise AssertionError("curves counted for a filled row")

    objs = enumerate_objects(5, 2)
    homs.component.cache_clear()
    try:
        comp = component(5, 2)
        for j in (0, len(objs) // 2, len(objs) - 1):
            g2 = objs[j]
            want = [rounded_components(g, g2) == 1 for g in objs]
            comp.hom_in(comp.id(g2))
            rounded_components.cache_clear()  # so a recount cannot hide in the cache
            with monkeypatch.context() as m:
                m.setattr(homs, "_curves", refuse)
                assert [hom_nonzero(g, g2) for g in objs] == want
    finally:
        homs.component.cache_clear()


def test_matching_index_is_a_bijection_after_the_hom_table():
    comp = homs.Component(6, 3)
    comp.hom_table()
    assert len(comp._by_matching) == len(comp.matchings) == len(comp.objects)
    for i, m in enumerate(comp.matchings):
        assert comp._by_matching[m] == i and comp.matching_id(m) == i


def test_point_attach_interns_only_the_objects_it_touches():
    homs.component.cache_clear()
    try:
        g = DividingSet.make(
            8, 4, {STAR: (0, 1, 7), (1,): (2, 6), (1, 1): (3, 5), (1, 1, 1): (4,), (2,): (8,)}
        )
        t = bypass.attach(g, bypass.canonical_bypass(g))
        comp = component(8, 4)
        assert comp.objects == [g, t] and comp._order is None and not comp._moves
        assert comp._by_matching == {comp.matchings[0]: 0, comp.matchings[1]: 1}
    finally:
        homs.component.cache_clear()


@pytest.mark.parametrize("n,e", pairs_up_to(5) + [(6, 2)])
def test_closures_match_the_bypass_search(n, e):
    # the closure masks of every anchor at every start, relabeled from its
    # representative's, against one breadth-first search per (start,
    # anchor): a kept start's mask is what the search reaches, and a start
    # that is not kept has no mask
    comp = component(n, e)
    ids = comp.ids()
    for anchor, into in itertools.product(ids, (True, False)):
        searched = {s: homs._mask(homs.bypass_search(comp, s, anchor, into)) for s in ids}
        keep = comp._stage_filter(anchor, into)
        kept = [s for s in ids if keep(s)]
        for s in ids:
            forward = comp._closure_at(anchor, s, into)
            reaching = comp._closure_at(anchor, s, into, reverse=True)
            if keep(s):
                assert forward == searched[s]
                assert reaching == homs._mask(x for x in kept if searched[x] >> s & 1)
            else:
                assert forward == reaching == 0
    assert {anchor for anchor, _, _ in comp._closures} <= set(comp.representatives())


def test_transitive_closure_on_cyclic_graphs():
    # no bypass graph induced on an anchor's stages has had a cycle, so
    # the strongly connected components are checked on random digraphs
    rng = random.Random(0)
    for _ in range(300):
        nodes = rng.sample(range(40), rng.randint(1, 12))
        graph = {x: [t for t in nodes if rng.random() < 0.2] for x in nodes}
        want = {}
        for x in nodes:
            seen, todo = {x}, [x]
            while todo:
                for t in graph[todo.pop()]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            want[x] = homs._mask(seen)
        assert homs._transitive_closure(graph) == want
        assert homs._transitive_closure(homs._reverse(graph)) == {
            x: homs._mask(s for s in nodes if want[s] >> x & 1) for x in nodes
        }


@pytest.mark.parametrize("n,e", pairs_up_to(5))
def test_composition_masks_match_searches(n, e):
    comp = component(n, e)
    objs = enumerate_objects(n, e)
    for g, g2, g3 in itertools.product(objs, repeat=3):
        i, j, k = comp.id(g), comp.id(g2), comp.id(g3)
        left = composition_nonzero(g, g2, g3)
        assert bool(comp.middles(i, k) >> j & 1) == left
        assert bool(comp.sources(j, k) >> i & 1) == left
        assert bool(comp.targets(i, j) >> k & 1) == left
        assert bool(comp.middles_right(i, k) >> j & 1) == composition_nonzero_right(g, g2, g3)


@pytest.mark.parametrize("n,e", pairs_up_to(4))
def test_homs_suite_passes(n, e):
    (report,) = suites.run_suite("homs", n, e)
    assert report.ok, report.to_json()
    assert report.checks[0].check_id == "homs.rotation_equivariant"


@pytest.mark.parametrize("n,e", pairs_up_to(6))
def test_reduced_homs_checks_match_the_loops_over_every_object(n, e):
    (report,) = suites.run_suite("homs", n, e)
    got = {c.check_id: c.counterexample for c in report.checks}
    assert {check_id: loop(n, e) for check_id, loop in oracle.HOMS_LOOPS.items()} == {
        check_id: got[check_id] for check_id in oracle.HOMS_LOOPS
    }


def test_point_queries_do_not_enumerate_the_component(monkeypatch):
    def refuse(n, e):
        raise AssertionError("point query enumerated the component")

    monkeypatch.setattr(homs, "enumerate_objects", refuse)
    homs.component.cache_clear()
    try:
        g = basic_of(8, 4, {0, 1, 2, 3, 4})
        g2 = DividingSet.make(
            8, 4, {STAR: (0, 1, 7), (1,): (2, 6), (1, 1): (3, 5), (1, 1, 1): (4,), (2,): (8,)}
        )
        assert hom_nonzero(g, g2)
        chain = bypass_chain(g, g2)
        assert len(chain) == 3 and F_of_morphism(g, g2).entries
        middle = bypass.attach(g, chain[0])
        assert composition_nonzero(g, middle, g2)
        assert composition_nonzero_right(g, middle, g2)
    finally:
        homs.component.cache_clear()


def test_stack_order_check_sees_a_dropped_stage_filter(monkeypatch):
    # Without the stage filter on the into=False side, the two composition
    # searches disagree on some triples at (5,2).  The masked check must fail
    # and report the triple a loop over all triples meets first.
    stage_filter = homs.Component._stage_filter
    monkeypatch.setattr(
        homs.Component,
        "_stage_filter",
        lambda self, anchor, into: stage_filter(self, anchor, into) if into else (lambda x: True),
    )
    homs.component.cache_clear()
    try:
        (report,) = suites.run_suite("homs", 5, 2)
        objs = enumerate_objects(5, 2)
        first = next(
            t
            for t in itertools.product(objs, repeat=3)
            if composition_nonzero(*t) != composition_nonzero_right(*t)
        )
    finally:
        homs.component.cache_clear()
    check = next(c for c in report.checks if c.check_id == "homs.stack_order_insensitive")
    assert not check.ok
    assert check.counterexample == dict(zip(("g", "g2", "g3"), map(ds_to_json, first)))


# --- the component owns per-object state --------------------------------------


def test_component_owns_moves_complexes_and_chain_maps():
    homs.component.cache_clear()
    try:
        assert all(r.ok for r in suites.run_suite("all", 4, 2))
        comp = component(4, 2)
        for g in enumerate_objects(4, 2):
            rotated = bypass.serre_rotate(g)
            assert rotated is comp.objects[comp.id(rotated)]
            for mv in bypass.enumerate_bypasses(g):
                assert mv.source is comp.objects[comp.id(g)]
                x = bypass.attach(g, mv)
                assert x is comp.objects[comp.id(x)]
                tri = bypass.triangle(g, mv)
                for x in (tri.g1, tri.g2, tri.g3):
                    assert x is comp.objects[comp.id(x)]
                for b in (tri.b1, tri.b2, tri.b3):
                    assert b is comp.move_list[comp.move_id(b)]
        del comp, g, mv, x, tri, b, rotated
    finally:
        homs.component.cache_clear()
    # rounded_components keeps whichever instances its callers passed
    rounded_components.cache_clear()
    gc.collect()
    alive = gc.get_objects()
    assert not [o for o in alive if type(o) in (bypass.BypassMove, kom.ChainMap)]
    assert not [
        o
        for o in alive
        if type(o) is kom.Complex and any((s.gamma.n, s.gamma.e) == (4, 2) for s in o.summands)
    ]
    kept = [o for o in alive if type(o) is DividingSet and (o.n, o.e) == (4, 2)]
    assert len(kept) <= len(enumerate_objects(4, 2)) + len(basic_sets(4, 2)) == 26


def test_only_the_four_kept_caches_are_unbounded():
    # An unbounded cache outlives every component; adding one means adding
    # it here with the reason it may grow.
    caches = {}
    for info in pkgutil.iter_modules(diskcontact.__path__, "diskcontact."):
        for obj in vars(importlib.import_module(info.name)).values():
            if hasattr(obj, "cache_info"):
                caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert caches == {
        "diskcontact.divset._basic": None,  # one instance per basic set, for interning
        "diskcontact.divset.enumerate_objects": None,  # one entry per (n, e)
        "diskcontact.divset.basic_sets": None,  # one entry per (n, e)
        "diskcontact.homs.rounded_components": None,  # bench/tracer.py reads its cache_info
        "diskcontact.homs.component": 8,
    }
