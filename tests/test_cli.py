import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcontact import bypass, functor, kom, suites
from diskcontact.cli import main
from diskcontact.divset import basic_of, ds_from_json, ds_to_json, enumerate_objects, vector_to_json

DS_EXG4 = json.dumps(
    {
        "n": 4,
        "e": 2,
        "components": [
            {"v": "*", "labels": [0]},
            {"v": [1], "labels": [1, 4]},
            {"v": [1, 1], "labels": [2, 3]},
        ],
    }
)
MV_T1 = json.dumps({"uv": [1, 1], "ov": [1], "x": 1, "y": 1, "z": 1})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--e", "1", "--format", "count")
    assert code == 0 and out.strip() == "3"
    code, out = run(capsys, "enumerate", "--n", "3", "--e", "1", "--format", "count")
    assert code == 0 and out.strip() == "6"


@pytest.mark.parametrize(
    "argv,count",
    [
        (("--max-n", "9", "enumerate", "--n", "9", "--e", "4"), 5292),
        (("enumerate", "--n", "0", "--e", "0"), 1),
        (("enumerate", "--n", "8", "--e", "0"), 1),  # one block per label
        (("enumerate", "--n", "8", "--e", "8"), 1),  # one block
    ],
)
def test_enumerate_counts_at_the_extreme_block_counts(capsys, argv, count):
    code, out = run(capsys, *argv, "--format", "count")
    assert code == 0 and out.strip() == str(count)


def test_enumerate_deterministic(capsys):
    _, out1 = run(capsys, "enumerate", "--n", "3", "--e", "1")
    _, out2 = run(capsys, "enumerate", "--n", "3", "--e", "1")
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 6


def test_enumerate_bad_args(capsys):
    assert run(capsys, "enumerate", "--n", "2", "--e", "5")[0] == 2
    assert run(capsys, "enumerate", "--n", "9", "--e", "1")[0] == 2
    code, _ = run(capsys, "--max-n", "9", "enumerate", "--n", "9", "--e", "0", "--format", "count")
    assert code == 0


def test_complex_matches_example(capsys):
    code, out = run(capsys, "complex", "--ds", DS_EXG4)
    assert code == 0
    blob = json.loads(out)
    heights = sorted(s["h"] for s in blob["summands"])
    assert heights == [-3, -2, -1, 0]
    assert len(blob["d"]) == 3


def test_hom_command(capsys):
    g12 = json.dumps(
        {
            "n": 4,
            "e": 2,
            "components": [
                {"v": "*", "labels": [0, 1, 2]},
                {"v": [1], "labels": [3]},
                {"v": [2], "labels": [4]},
            ],
        }
    )
    g24 = json.dumps(
        {
            "n": 4,
            "e": 2,
            "components": [
                {"v": "*", "labels": [0, 2, 4]},
                {"v": [1], "labels": [1]},
                {"v": [2], "labels": [3]},
            ],
        }
    )
    code, out = run(capsys, "hom", "--src", g12, "--dst", g24)
    assert code == 0 and json.loads(out)["dim"] == 0


def test_homdim_self_total_one(capsys):
    _, cx = run(capsys, "complex", "--ds", DS_EXG4)
    code, out = run(capsys, "homdim", "--src", cx.strip(), "--dst", cx.strip())
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_triangle_command(capsys):
    code, out = run(capsys, "triangle", "--ds", DS_EXG4, "--move", MV_T1)
    assert code == 0
    blob = json.loads(out)
    assert blob["degrees"] == [1, 0, 0]
    assert len(blob["vertices"]) == 3


def test_chainmap_command(capsys):
    code, out = run(capsys, "chainmap", "--ds", DS_EXG4, "--move", MV_T1)
    assert code == 0
    blob = json.loads(out)
    assert blob["k"] == 1 and len(blob["f"]) == 3


def test_invalid_inputs_exit_3(capsys):
    bad_ds = json.dumps(
        {
            "n": 2,
            "e": 1,
            "components": [
                {"v": "*", "labels": [1, 2]},
                {"v": [1], "labels": [0]},
            ],
        }
    )
    assert main(["complex", "--ds", bad_ds]) == 3
    capsys.readouterr()
    bad_mv = json.dumps({"uv": [1], "ov": [1], "x": 0, "y": 0, "z": 0})
    assert main(["chainmap", "--ds", DS_EXG4, "--move", bad_mv]) == 3
    capsys.readouterr()


def test_unparseable_exits_2(capsys):
    assert main(["complex", "--ds", "{not json"]) == 2
    capsys.readouterr()


def _mutated(text, change):
    obj = json.loads(text)
    change(obj)
    return json.dumps(obj)


def _set(path, value):
    def change(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return change


def _twice(obj):
    obj["components"].append(dict(obj["components"][-1]))


CX_EXG4 = json.dumps(kom.complex_to_json(functor.build_F(ds_from_json(json.loads(DS_EXG4)))))

# Each mutation reads as a valid input under int() coercion or str iteration.
_MALFORMED = [
    ("complex", DS_EXG4, _set(["components", 1, "labels"], [1, 4.5])),
    ("complex", DS_EXG4, _set(["components", 1, "labels"], ["1", 4])),
    ("complex", DS_EXG4, _set(["components", 0, "labels"], [False])),
    ("complex", DS_EXG4, _set(["components", 1, "labels"], "14")),
    ("complex", DS_EXG4, _set(["components", 1, "v"], "1")),
    ("complex", DS_EXG4, _set(["components", 2, "v"], [1, True])),
    ("complex", DS_EXG4, _set(["n"], 4.9)),
    ("complex", DS_EXG4, _set(["e"], "2")),
    ("complex", DS_EXG4, _twice),
    ("chainmap", MV_T1, _set(["x"], 1.9)),
    ("chainmap", MV_T1, _set(["y"], True)),
    ("chainmap", MV_T1, _set(["z"], "1")),
    ("chainmap", MV_T1, _set(["uv"], "11")),
    ("chainmap", MV_T1, _set(["ov"], [1.0])),
    ("homdim", CX_EXG4, _set(["summands", 0, "h"], 0.0)),
    ("homdim", CX_EXG4, _set(["d"], [[1.0, 0], [2, 1], [3, 2]])),
    ("homdim", CX_EXG4, _set(["summands", 0, "gamma", "n"], 4.0)),
]


def _argv(command, text):
    if command == "complex":
        return ["complex", "--ds", text]
    if command == "chainmap":
        return ["chainmap", "--ds", DS_EXG4, "--move", text]
    return ["homdim", "--src", text, "--dst", text]


@pytest.mark.parametrize(
    "command,valid,change", _MALFORMED, ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(_MALFORMED)]
)
def test_values_of_the_wrong_json_type_exit_2(capsys, command, valid, change):
    assert main(_argv(command, valid)) == 0
    capsys.readouterr()
    assert main(_argv(command, _mutated(valid, change))) == 2
    assert "unparseable" in capsys.readouterr().err


def test_verify_suite_pass(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--e", "1", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS suite=all" in out


def test_verify_prints_each_check_as_it_finishes(capsys, monkeypatch):
    def killed(n, e):
        raise KeyboardInterrupt

    monkeypatch.setitem(suites.SUITES, "serre", killed)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--n", "2", "--e", "1", "--suite", "all"])
    lines = capsys.readouterr().out.splitlines()
    finished = [
        c.check_id
        for name in ("divset", "homs", "algebra", "functor", "triangles")
        for c in suites.SUITES[name](2, 1).checks
    ]
    assert [line.split()[1] for line in lines] == finished
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--n", "2", "--e", "1", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_export_quiver(capsys):
    code, out = run(capsys, "export-dot", "quiver", "--n", "2", "--e", "1")
    assert code == 0
    assert out.count("->") == 1


def test_export_bypass_graph_octahedron(capsys):
    code, out = run(capsys, "export-dot", "bypass-graph", "--n", "3", "--e", "1")
    assert code == 0
    # twelve arrows of the octahedron skeleton
    assert out.count("->") == 12
    _, out2 = run(capsys, "export-dot", "bypass-graph", "--n", "3", "--e", "1")
    assert out == out2


def test_export_triangle(capsys):
    code, out = run(capsys, "export-dot", "triangle", "--ds", DS_EXG4, "--move", MV_T1)
    assert code == 0
    lines = [l for l in out.splitlines() if "->" in l]
    assert len(lines) == 3


N9 = json.dumps(ds_to_json(basic_of(9, 1, {0, 1})))
N9_CX = json.dumps({"summands": [{"gamma": json.loads(N9), "h": 0}], "d": []})


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "--src", N9, "--dst", N9],
        ["complex", "--ds", N9],
        ["chainmap", "--ds", N9, "--move", MV_T1],
        ["triangle", "--ds", N9, "--move", MV_T1],
        ["homdim", "--src", N9_CX, "--dst", N9_CX],
        ["export-dot", "triangle", "--ds", N9, "--move", MV_T1],
    ],
    ids=lambda argv: argv[0] if argv[0] != "export-dot" else "export-dot-triangle",
)
def test_max_n_bounds_json_inputs(capsys, argv):
    assert main(argv) == 2
    assert "n=9 above the configured bound 8 (raise with --max-n)" in capsys.readouterr().err


def test_max_n_can_be_raised_for_json_inputs(capsys):
    code, out = run(capsys, "--max-n", "9", "complex", "--ds", N9)
    assert code == 0 and len(json.loads(out)["summands"]) == 1
    code, out = run(capsys, "--max-n", "9", "hom", "--src", N9, "--dst", N9)
    assert code == 0 and json.loads(out)["dim"] == 1


BAD_GAMMA = {"n": 1, "e": 0, "components": [{"v": "*", "labels": [0, 1, 5]}]}
P_N1 = {"n": 1, "e": 1, "components": [{"v": "*", "labels": [0, 1]}]}


def _cx(*gammas):
    return json.dumps({"summands": [{"gamma": g, "h": 0} for g in gammas], "d": []})


def test_homdim_rejects_invalid_summand(capsys):
    assert main(["homdim", "--src", _cx(BAD_GAMMA), "--dst", _cx(BAD_GAMMA)]) == 3
    assert main(["homdim", "--src", _cx(BAD_GAMMA), "--dst", _cx(P_N1)]) == 3
    assert "invalid dividing set" in capsys.readouterr().err


def test_homdim_non_basic_summand_exits_3(capsys):
    non_basic = {
        "n": 2,
        "e": 1,
        "components": [{"v": "*", "labels": [0]}, {"v": [1], "labels": [1, 2]}],
    }
    assert main(["homdim", "--src", _cx(non_basic), "--dst", _cx(non_basic)]) == 3
    assert "not basic" in capsys.readouterr().err


def test_homdim_far_apart_degrees(capsys):
    far = json.dumps(
        {"summands": [{"gamma": P_N1, "h": 0}, {"gamma": P_N1, "h": 10**18}], "d": []}
    )
    code, out = run(capsys, "homdim", "--src", far, "--dst", far)
    assert code == 0
    assert json.loads(out) == {"by_degree": {"0": 2, str(-(10**18)): 1, str(10**18): 1}, "total": 4}


P_21 = ds_to_json(basic_of(2, 1, {0, 1}))
P_31 = ds_to_json(basic_of(3, 1, {0, 1}))
EMPTY_CX = json.dumps({"summands": [], "d": []})


def _cx_at(*pairs):
    return json.dumps({"summands": [{"gamma": g, "h": h} for g, h in pairs], "d": []})


@pytest.mark.parametrize(
    "src,dst",
    [
        (_cx(P_21), _cx(P_31)),
        (_cx_at((P_21, 0)), _cx_at((P_31, 4))),
        (_cx(P_21, P_31), _cx(P_21)),
        (_cx(P_21), _cx_at((P_21, 0), (P_31, 2))),
    ],
    ids=["two-components", "two-components-apart", "mixed-src", "mixed-dst"],
)
def test_homdim_components_must_agree(capsys, src, dst):
    assert main(["homdim", "--src", src, "--dst", dst]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "(2,1)" in captured.err and "(3,1)" in captured.err


def test_homdim_empty_complex_is_zero(capsys):
    for src, dst in ((EMPTY_CX, _cx(P_21)), (_cx(P_21), EMPTY_CX), (EMPTY_CX, EMPTY_CX)):
        code, out = run(capsys, "homdim", "--src", src, "--dst", dst)
        assert code == 0 and json.loads(out) == {"by_degree": {}, "total": 0}


_ONE_SUMMAND_NO_D = json.dumps({"summands": [{"gamma": P_N1, "h": 0}], "d": ""})
_D_AS_OBJECT = json.dumps({"summands": [], "d": {}})


# Each input was read as an empty list (exit 0, or 3 for the dividing sets)
# before the JSON list fields were required to be lists.
@pytest.mark.parametrize(
    "argv",
    [
        ["homdim", "--src", json.dumps({"summands": "", "d": ""}), "--dst", EMPTY_CX],
        ["homdim", "--src", _D_AS_OBJECT, "--dst", EMPTY_CX],
        ["homdim", "--src", EMPTY_CX, "--dst", _D_AS_OBJECT],
        ["homdim", "--src", _ONE_SUMMAND_NO_D, "--dst", _ONE_SUMMAND_NO_D],
        ["complex", "--ds", json.dumps({"n": 0, "e": 0, "components": ""})],
        ["complex", "--ds", json.dumps({"n": 0, "e": 0, "components": {}})],
    ],
    ids=["summands-and-d-strings", "src-d-object", "dst-d-object", "one-summand-d-string",
         "components-string", "components-object"],
)
def test_json_list_fields_must_be_lists(capsys, argv):
    assert main(argv) == 2
    assert "unparseable" in capsys.readouterr().err


def test_removed_options_are_rejected(capsys):
    assert main(["--jobs", "2", "enumerate", "--n", "1", "--e", "0"]) == 2
    assert main(["--seed", "1", "enumerate", "--n", "1", "--e", "0"]) == 2
    capsys.readouterr()


# --- fuzzing: arbitrary JSON, near-valid shapes and valid inputs --------------

_OBJS = [g for n in range(4) for e in range(n + 1) for g in enumerate_objects(n, e)]
_VALID_DS = [ds_to_json(g) for g in _OBJS]
_VALID_MOVES = [
    (
        ds_to_json(g),
        {"uv": vector_to_json(mv.uv), "ov": vector_to_json(mv.ov), "x": mv.x, "y": mv.y, "z": mv.z},
    )
    for g in _OBJS
    for mv in bypass.enumerate_bypasses(g)
]
_VALID_CX = [kom.complex_to_json(functor.build_F(g)) for g in _OBJS]

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_number = st.integers(-1, 6) | st.integers() | st.floats()
_vector = st.just("*") | st.lists(st.integers(0, 3), max_size=3) | _json
_ds = st.sampled_from(_VALID_DS) | _json | st.fixed_dictionaries(
    {
        "n": _number,
        "e": _number,
        "components": st.lists(
            st.fixed_dictionaries(
                {"v": _vector, "labels": st.lists(st.integers(-1, 6), max_size=4)}
            ),
            max_size=4,
        ),
    }
)
_move = _json | st.fixed_dictionaries(
    {"uv": _vector, "ov": _vector, "x": _number, "y": _number, "z": _number}
)
_cx_like = st.sampled_from(_VALID_CX) | _json | st.fixed_dictionaries(
    {
        "summands": st.lists(st.fixed_dictionaries({"gamma": _ds, "h": _number}), max_size=3),
        "d": st.lists(st.tuples(_number, _number) | _json, max_size=3),
    }
)

_ds_and_move = (st.sampled_from(_VALID_MOVES) | st.tuples(_ds, _move)).map(
    lambda p: {"--ds": p[0], "--move": p[1]}
)
_ARGS = {
    "hom": st.tuples(_ds, _ds).map(lambda p: {"--src": p[0], "--dst": p[1]}),
    "complex": _ds.map(lambda g: {"--ds": g}),
    "chainmap": _ds_and_move,
    "triangle": _ds_and_move,
    "homdim": st.tuples(_cx_like, _cx_like).map(lambda p: {"--src": p[0], "--dst": p[1]}),
    "export-dot triangle": _ds_and_move,
}


@pytest.mark.parametrize("command", sorted(_ARGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_json_exits_cleanly(command, data):
    argv = command.split()
    for flag, value in data.draw(_ARGS[command]).items():
        argv += [flag, json.dumps(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
