"""Answer digests for every object, pair and bypass move with n <= 5.

Each digest is the sha256 of one sorted-keys JSON line per item, in the
order of enumerate_objects over (n, e) with n ascending, then e, and
each object's moves in the order of enumerate_bypasses.  A change that
keeps every answer byte for byte keeps these digests; a change of any
answer, of a basis order a homotopy is read from, or of a serialization
changes them.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from diskcontact import bypass, cli, functor, kom
from diskcontact.divset import ds_to_json, enumerate_objects

from conftest import pairs_up_to

COMPONENTS = [enumerate_objects(n, e) for n, e in pairs_up_to(5)]
OBJECTS = [g for objs in COMPONENTS for g in objs]
PAIRS = [p for objs in COMPONENTS for p in itertools.product(objs, repeat=2)]


# Moves are not kept at module level: the component index owns them, and
# tests/test_homs.py checks that none outlives it.
def _moves():
    return [mv for g in OBJECTS for mv in bypass.enumerate_bypasses(g)]


def _move_pairs():
    return [p for g in OBJECTS for p in itertools.combinations(bypass.enumerate_bypasses(g), 2)]


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update((json.dumps(x, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def _serre_images():
    for g in OBJECTS:
        yield kom.complex_to_json(kom.serre_transform(functor.build_F(g)))


def _F_images():
    for g in OBJECTS:
        yield kom.complex_to_json(functor.build_F(g))


def _gamma_maps():
    for mv in _moves():
        yield kom.chain_map_to_json(functor.gamma_chain_map(bypass.triangle(mv.source, mv)))


def _morphism_images():
    for g, g2 in PAIRS:
        yield kom.chain_map_to_json(functor.F_of_morphism(g, g2))


def _homs_by_degree():
    for g, g2 in PAIRS:
        yield kom.hom_by_degree(functor.build_F(g), functor.build_F(g2))


def _move_json(mv):
    return None if mv is None else {"uv": list(mv.uv), "ov": list(mv.ov), "x": mv.x, "y": mv.y, "z": mv.z}


def _chain_maps():
    for mv in _moves():
        yield kom.chain_map_to_json(functor.chain_map_F(mv))


def _triangles():
    for mv in _moves():
        tri = bypass.triangle(mv.source, mv)
        yield {
            "vertices": [ds_to_json(x) for x in (tri.g1, tri.g2, tri.g3)],
            "moves": [_move_json(b) for b in (tri.b1, tri.b2, tri.b3)],
            "degrees": [functor.deg_F(b) for b in (tri.b1, tri.b2, tri.b3)],
        }


def _commuting_squares():
    for a, b in _move_pairs():
        yield [[_move_json(sq.after_a), _move_json(sq.after_b)] for sq in bypass.commuting_squares(a, b)]


def _bypass_graphs():
    for n, e in pairs_up_to(5):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["export-dot", "bypass-graph", "--n", str(n), "--e", str(e)]) == 0
        yield out.getvalue()


def test_item_counts():
    assert (len(OBJECTS), len(PAIRS)) == (196, 6142)
    assert len(_moves()) == 822
    assert sum(len(bypass.commuting_squares(a, b)) for a, b in _move_pairs()) == 1871


@pytest.mark.parametrize(
    "items,digest",
    [
        (_serre_images, "18ae79ccc19d472902ae36335d00d6a0ceaf1def20335a8af10186071cc51e6e"),
        (_morphism_images, "c3fa405665b9ad5d2da9e04533f5cff84c4f393c29a76dddd2d2bc26fda65750"),
        (_homs_by_degree, "3701c124b92bea97c98adcb241b62e1a9145f21a78fba5ffe29480e6cd018a33"),
        (_chain_maps, "3b2efd32c34c5518105f23d4095de3d4edb713e334c7b326ccbef0accc25f676"),
        (_triangles, "0cd18a4a3de2faa74cffefa3235f411cca4a78956bfd9cab1e1867a5c385cfd5"),
        (_commuting_squares, "959ec9b5f6253c09792b2c7b921cc20d2589adeeedbaf18285977a1f7c7ce697"),
        (_bypass_graphs, "22b51d58352ea31f6b15a31ab1d01d05cbe2c73c4543bfaa49c75ec40aa5c481"),
        (_F_images, "db1aa4dbc42e3e839340dca2eb410e0e2bc9e9ff227d62ea2cccd908b38da47e"),
        (_gamma_maps, "9dcd5e3c04d85f312f96c1e58ca4f872160c8d2f5ea4d8cbf153f66417bbb834"),
    ],
    ids=[
        "serre_transform",
        "F_of_morphism",
        "hom_by_degree",
        "chain_map_F",
        "triangle",
        "commuting_squares",
        "export_dot_bypass_graph",
        "build_F",
        "gamma_chain_map",
    ],
)
def test_answer_digest(items, digest):
    assert _digest(items()) == digest
