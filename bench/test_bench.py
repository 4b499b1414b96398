"""Tests of the benchmark itself, at tiny sizes (n <= 3).

Run with the repository's tests: PYTHONPATH=src python -m pytest -q
"""

import json
from pathlib import Path

import pytest

import queries
import run
from tracer import Tracer

from diskcontact import functor, homs, kom, suites

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_component_size_is_the_enumerated_count():
    from diskcontact.divset import enumerate_objects

    for n in range(5):
        for e in range(n + 1):
            assert run.component_size(n, e) == len(enumerate_objects(n, e))
    assert run.component_size(8, 4) == 1764


def test_generator_is_deterministic_and_balanced():
    a = queries.generate(3, 1, 7, 60)
    assert a == queries.generate(3, 1, 7, 60)
    assert a != queries.generate(3, 1, 8, 60)
    assert queries.KINDS == run.QUERY_KINDS
    kinds = [q["kind"] for q in a]
    assert {k: kinds.count(k) for k in queries.KINDS} == dict.fromkeys(queries.KINDS, 10)


def test_answers_pass_their_checks_and_wrong_answers_fail():
    todo = queries.generate(3, 1, 1, 30)
    for q in todo:
        assert queries.check(q, queries.answer(q))
    homdim = next(q for q in todo if q["kind"] == "homdim")
    total = json.loads(queries.answer(homdim))["total"]
    assert not queries.check(homdim, json.dumps({"total": 1 - total}))
    tri = next(q for q in todo if q["kind"] == "triangle")
    out = json.loads(queries.answer(tri))
    out["degrees"][0] += 1
    assert not queries.check(tri, json.dumps(out))


def test_wrappers_return_identical_answers_and_keep_cache_info():
    todo = queries.generate(3, 1, 2, 60)
    plain = [queries.answer(q) for q in todo]
    plain_suite = [c.ok for r in suites.run_suite("triangles", 3, 1) for c in r.checks]
    original = homs.tight_basic
    tracer = Tracer()
    tracer.install()
    try:
        assert kom.tight_basic is homs.tight_basic is functor.tight_basic
        assert kom.tight_basic is not original
        assert [queries.answer(q) for q in todo] == plain
        with tracer.span("run_suite"):
            traced_suite = [c.ok for r in suites.run_suite("triangles", 3, 1) for c in r.checks]
        assert traced_suite == plain_suite and all(traced_suite)
        assert homs.rounded_components.cache_info() == homs.rounded_components.__wrapped__.cache_info()
        assert homs.rounded_components.cache_info().currsize > 0
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert homs.tight_basic is original and kom.tight_basic is original
    assert snap["calls"]["divset.validate"] == 90  # one per dividing-set argument
    assert snap["calls"]["kom.equivalent"] > 0
    assert snap["counts"]["kom.map_basis.entries"] > 0
    assert snap["spans"][0]["layers"]["kom"]["calls"] > 0
    assert all(v >= 0 for v in snap["layer_self_s"].values())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    checks = run.WORKLOADS["triangles-n7e3"].checks
    monkeypatch.setitem(run.WORKLOADS, "tiny-suite", run.Workload("tiny-suite", 3, 1, "triangles", checks))
    monkeypatch.setitem(run.WORKLOADS, "tiny-queries", run.Workload("tiny-queries", 3, 1, None, queries=60))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "workload,trace",
    [("tiny-queries", 0), ("tiny-suite", 1), ("tiny-suite", 0), ("tiny-queries", 1)],
)
def test_smoke_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith(f"{workload} fail_frac = 0 ") for line in lines)
    if trace:
        assert (tiny / f"trace-{workload}-seed3.json").is_file()
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in ("wall_s", "setup_s", "peak_rss_mb"))


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "homs-n6e2", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
