"""Point queries on one (n, e) component: generation, answering, checking.

A query is one of six kinds, each mirroring a CLI subcommand:

    hom        Hom(g, g2) dimension and curve count     (diskcontact hom)
    complex    the complex F(g)                          (diskcontact complex)
    chainmap   the chain map F(b) of a bypass move b     (diskcontact chainmap)
    triangle   the bypass triangle of a move and degrees (diskcontact triangle)
    morphism   F of the generator of Hom(g, g2)          (F_of_morphism)
    homdim     total Hom between the images F(g), F(g2)  (hom_total)

Inputs are JSON text, as a CLI user passes them, so parsing and
`validate` are part of each answer.  The generator draws objects
uniformly with its own seeded `random.Random`; the library only supplies
the component's object list and each drawn object's bypass moves.

Answers are checked afterwards against statements of the paper, never by
recomputing the same call: Serre duality for `hom`, d^2 = 0 for
`complex`, the chain-map law and the closed degree formula for
`chainmap`, degree sum 1 for `triangle`, the chain-map law for
`morphism`, and faithfulness (Hom of images equals Hom of objects) for
`homdim`.
"""

from __future__ import annotations

import json
import random

from diskcontact import bypass, divset, functor, homs, kom

KINDS = ("hom", "complex", "chainmap", "triangle", "morphism", "homdim")


# ---------------------------------------------------------------------------
# generation (outside any timed interval)


def _move_json(mv: bypass.BypassMove) -> str:
    return json.dumps(
        {
            "uv": divset.vector_to_json(mv.uv),
            "ov": divset.vector_to_json(mv.ov),
            "x": mv.x,
            "y": mv.y,
            "z": mv.z,
        }
    )


def generate(n: int, e: int, seed: int, count: int) -> list[dict]:
    """`count` queries, an equal share of each kind in seeded random order.

    Each query is {"kind": ..., "args": {name: JSON text}}.  The same
    (n, e, seed, count) always gives the same list.
    """
    rng = random.Random(seed)
    objs = divset.enumerate_objects(n, e)
    kinds = [KINDS[i % len(KINDS)] for i in range(count)]
    rng.shuffle(kinds)

    def draw() -> str:
        return json.dumps(divset.ds_to_json(rng.choice(objs)))

    def draw_with_move() -> dict:
        while True:
            g = rng.choice(objs)
            moves = bypass.enumerate_bypasses(g)
            if moves:
                return {
                    "ds": json.dumps(divset.ds_to_json(g)),
                    "move": _move_json(rng.choice(moves)),
                }

    out = []
    for kind in kinds:
        if kind == "complex":
            args = {"ds": draw()}
        elif kind in ("chainmap", "triangle"):
            args = draw_with_move()
        else:
            args = {"src": draw(), "dst": draw()}
        out.append({"kind": kind, "args": args})
    return out


# ---------------------------------------------------------------------------
# answering (the timed part); library calls go through module attributes so
# that a tracer rebinding them sees every call


def _load_ds(text: str) -> divset.DividingSet:
    ds = divset.ds_from_json(json.loads(text))
    rep = divset.validate(ds)
    if not rep.ok:
        raise ValueError("invalid dividing set: " + "; ".join(rep.violations))
    return ds


def _load_move(ds: divset.DividingSet, text: str) -> bypass.BypassMove:
    obj = json.loads(text)
    mv = bypass.BypassMove(
        ds,
        divset.vector_from_json(obj["uv"]),
        divset.vector_from_json(obj["ov"]),
        int(obj["x"]),
        int(obj["y"]),
        int(obj["z"]),
    )
    bypass.validate_move(mv)
    return mv


def _hom(args: dict) -> dict:
    g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
    dim = 1 if homs.hom_nonzero(g, g2) else 0
    return {"dim": dim, "curves": homs.rounded_components(g, g2)}


def _complex(args: dict) -> dict:
    return kom.complex_to_json(functor.build_F(_load_ds(args["ds"])))


def _chainmap(args: dict) -> dict:
    g = _load_ds(args["ds"])
    return kom.chain_map_to_json(functor.chain_map_F(_load_move(g, args["move"])))


def _triangle(args: dict) -> dict:
    g = _load_ds(args["ds"])
    tri = bypass.triangle(g, _load_move(g, args["move"]))
    return {
        "vertices": [divset.ds_to_json(x) for x in (tri.g1, tri.g2, tri.g3)],
        "degrees": [functor.deg_F(b) for b in (tri.b1, tri.b2, tri.b3)],
    }


def _morphism(args: dict) -> dict:
    g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
    return kom.chain_map_to_json(functor.F_of_morphism(g, g2))


def _homdim(args: dict) -> dict:
    g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
    return {"total": kom.hom_total(functor.build_F(g), functor.build_F(g2))}


_ANSWER = {
    "hom": _hom,
    "complex": _complex,
    "chainmap": _chainmap,
    "triangle": _triangle,
    "morphism": _morphism,
    "homdim": _homdim,
}


def answer(query: dict) -> str:
    """The query's answer as the JSON text the CLI would print."""
    return json.dumps(_ANSWER[query["kind"]](query["args"]), sort_keys=True)


# ---------------------------------------------------------------------------
# checking (after the stream; never timed)


def _chain_map_from_json(obj: dict) -> kom.ChainMap:
    return kom.ChainMap(
        kom.complex_from_json(obj["src"]),
        kom.complex_from_json(obj["dst"]),
        int(obj["k"]),
        frozenset((int(i), int(j)) for i, j in obj["f"]),
    )


def check(query: dict, text: str) -> bool:
    """Does the answer text satisfy the paper's statement for its kind?"""
    args = query["args"]
    out = json.loads(text)
    kind = query["kind"]
    if kind == "hom":
        g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
        serre = homs.hom_nonzero(g2, bypass.serre_rotate(g))
        return out["dim"] == int(serre) and out["dim"] == int(out["curves"] == 1)
    if kind == "complex":
        c = kom.complex_from_json(out)
        return bool(c.summands) and kom.verify_complex(c)
    if kind == "chainmap":
        g = _load_ds(args["ds"])
        f = _chain_map_from_json(out)
        return kom.verify_chain_map(f) and f.k == functor.deg_formula(
            _load_move(g, args["move"])
        )
    if kind == "triangle":
        g = _load_ds(args["ds"])
        return sum(out["degrees"]) == 1 and out["vertices"][0] == divset.ds_to_json(g)
    if kind == "morphism":
        g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
        f = _chain_map_from_json(out)
        return kom.verify_chain_map(f) and bool(f.entries) == homs.hom_nonzero(g, g2)
    if kind == "homdim":
        g, g2 = _load_ds(args["src"]), _load_ds(args["dst"])
        return out["total"] == int(homs.hom_nonzero(g, g2))
    raise ValueError(f"unknown query kind {kind}")
