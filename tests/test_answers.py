"""Answer digests for every object and pair with n <= 5.

Each digest is the sha256 of one sorted-keys JSON line per item, in the
order of enumerate_objects over (n, e) with n ascending, then e.  A
change that keeps every answer byte for byte keeps these digests; a
change of any answer, of a basis order a homotopy is read from, or of a
serialization changes them.
"""

import hashlib
import itertools
import json

import pytest

from diskcontact import functor, kom
from diskcontact.divset import enumerate_objects

from conftest import pairs_up_to

COMPONENTS = [enumerate_objects(n, e) for n, e in pairs_up_to(5)]
OBJECTS = [g for objs in COMPONENTS for g in objs]
PAIRS = [p for objs in COMPONENTS for p in itertools.product(objs, repeat=2)]


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update((json.dumps(x, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def _serre_images():
    for g in OBJECTS:
        yield kom.complex_to_json(kom.serre_transform(functor.build_F(g)))


def _morphism_images():
    for g, g2 in PAIRS:
        yield kom.chain_map_to_json(functor.F_of_morphism(g, g2))


def _homs_by_degree():
    for g, g2 in PAIRS:
        yield kom.hom_by_degree(functor.build_F(g), functor.build_F(g2))


def test_item_counts():
    assert (len(OBJECTS), len(PAIRS)) == (196, 6142)


@pytest.mark.parametrize(
    "items,digest",
    [
        (_serre_images, "18ae79ccc19d472902ae36335d00d6a0ceaf1def20335a8af10186071cc51e6e"),
        (_morphism_images, "c3fa405665b9ad5d2da9e04533f5cff84c4f393c29a76dddd2d2bc26fda65750"),
        (_homs_by_degree, "3701c124b92bea97c98adcb241b62e1a9145f21a78fba5ffe29480e6cd018a33"),
    ],
    ids=["serre_transform", "F_of_morphism", "hom_by_degree"],
)
def test_answer_digest(items, digest):
    assert _digest(items()) == digest
