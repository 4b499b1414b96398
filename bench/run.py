"""Cold-process benchmark of diskcontact.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter, because the library's
lru_caches are process-global and a CLI user pays for them cold on every
run.  This process only generates inputs, starts the repetitions one at
a time (a closed loop with one client), reads each child's own rusage
through os.wait4, and checks every answer.

Workloads (see BENCHMARK.json for why each was chosen):

    homs-n6e2       diskcontact verify --n 6 --e 2 --suite homs
    faithful-n6e3   diskcontact verify --n 6 --e 3 --suite faithful
    triangles-n7e3  diskcontact verify --n 7 --e 3 --suite triangles
    queries-n8e4    streams of 2000 point queries on the (8, 4) component

--trace 0 measures for about S seconds after set-up and prints the
end-to-end metrics; --trace 1 runs one traced set-up, one traced and one
untraced repetition, prints the per-layer metrics, and writes the spans
to .bench_out/trace-NAME-seedN.json.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it repeat the metrics for a reader, with fail_frac and sample
counts.  Exit 0 when every check passed, 1 when one failed, 2 when the
program under test is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # fresh `enumerate` processes per run, after one warm-up
HARD_LIMIT_S = 165.0  # every child is killed past this point of the run
CLI = "import sys; from diskcontact.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    e: int
    suite: str | None  # None for the point-query stream
    checks: tuple[str, ...] = ()  # check ids the suite must report as PASS
    queries: int = 0  # queries per repetition of a point-query stream


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "homs-n6e2",
            6,
            2,
            "homs",
            (
                "homs.identity_one_curve",
                "homs.greedy_matches_rounding",
                "homs.serre_duality_iff",
                "homs.stack_order_insensitive",
                "homs.triangle_exactness",
            ),
        ),
        Workload(
            "faithful-n6e3",
            6,
            3,
            "faithful",
            (
                "faithful.endomorphisms_one_dimensional",
                "faithful.reverse_bypass_hom_vanishes",
                "faithful.hom_table_matches_contact_category",
            ),
        ),
        Workload(
            "triangles-n7e3",
            7,
            3,
            "triangles",
            (
                "triangles.closure_degree_sum_region_rotation",
                "triangles.consecutive_compositions_vanish",
                "triangles.gamma_solves_composite",
                "triangles.image_distinguished",
                "triangles.disjoint_pairs_commute",
            ),
        ),
        Workload("queries-n8e4", 8, 4, None, queries=2000),
    )
}

QUERY_KINDS = ("hom", "complex", "chainmap", "triangle", "morphism", "homdim")  # equal to queries.KINDS, which imports the library
CACHED_LAYERS = ("divset", "bypass", "homs", "functor", "kom")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
)

# Per-layer metric -> unit.  Calls and work counts come from the traced
# library; check.*.s from the SuiteReport; query.*.p50_ms from the
# untraced repetition of the traced run.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("homs.hom_nonzero.calls", "count"),
    ("homs.composition.calls", "count"),
    ("homs.rounded_components.hit_ratio", "ratio"),
    ("homs.tight_basic.calls", "count"),
    ("kom.hom_total.calls", "count"),
    ("kom.map_basis.calls", "count"),
    ("kom.map_basis.entries", "count"),
    ("gf2.rank.calls", "count"),
    ("gf2.vectors_reduced", "count"),
    ("kom.equivalent.calls", "count"),
    ("kom.equivalence_tries_per_call", "ratio"),
    ("kom.find_homotopy.calls", "count"),
    ("kom.compose.calls", "count"),
    ("bypass.enumerate_bypasses.calls", "count"),
    ("bypass.attach.calls", "count"),
    ("bypass.commuting_squares.calls", "count"),
    ("functor.chain_map_F.calls", "count"),
    ("functor.build_F.calls", "count"),
    ("functor.F_of_morphism.calls", "count"),
    *((f"query.{kind}.p50_ms", "ms") for kind in QUERY_KINDS),
    ("divset.enumerate_objects.s", "s"),
    ("divset.validate.calls", "count"),
    ("cli.import_s", "s"),
    *((f"{layer}.cache_entries", "count") for layer in CACHED_LAYERS),
    *((f"check.{c}.s", "s") for w in WORKLOADS.values() for c in w.checks),
    ("trace.overhead_s", "s"),
)


def component_size(n: int, e: int) -> int:
    """Objects in the (n, e) component: the Narayana number N(n+1, e+1)."""
    return math.comb(n + 1, e + 1) * math.comb(n + 1, e) // (n + 1)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# child processes


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time inside a private scratch directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self._serial = 0

    def path(self, stem: str) -> str:
        self._serial += 1
        return str(self.workdir / f"{self._serial:04d}-{stem}")

    def spawn(self, argv: list[str]) -> Child:
        out_path, err_path = self.path("stdout"), self.path("stderr")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Child(-signal.SIGKILL, 0.0, 0.0, "", "not started: out of time")
        with open(out_path, "w+") as out, open(err_path, "w+") as err:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            status = usage = None
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if status is None:  # timed out or interrupted: stop it, then reap
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out.read(), err.read())


# ---------------------------------------------------------------------------
# one workload


class Bench:
    def __init__(self, wl: Workload, seed: int, runner: Runner):
        self.wl = wl
        self.seed = seed
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    def _count_args(self) -> list[str]:
        return ["enumerate", "--n", str(self.wl.n), "--e", str(self.wl.e), "--format", "count"]

    def _suite_args(self) -> list[str]:
        wl = self.wl
        return ["verify", "--n", str(wl.n), "--e", str(wl.e), "--suite", wl.suite]

    # -- set-up ------------------------------------------------------------

    def setup(self, child: Child) -> None:
        self.attempted += 1
        want = str(component_size(self.wl.n, self.wl.e))
        if child.code != 0 or child.stdout.strip() != want:
            self._fail(1, f"enumerate exit {child.code}, printed {child.stdout.strip()!r}, want {want}")

    def setup_times(self) -> list[float]:
        walls = []
        for i in range(SETUP_SAMPLES + 1):
            child = self.runner.spawn(["-c", CLI, *self._count_args()])
            self.setup(child)
            if i:  # the first one writes bytecode caches and warms the file cache
                walls.append(child.wall_s)
        return walls

    # -- one repetition ------------------------------------------------------

    def suite_rep(self, trace_path: str | None = None) -> Child:
        """One verify process; counts a failure for each expected check not PASS."""
        if trace_path:
            child = self.runner.spawn([str(BENCH / "child.py"), "cli", trace_path, *self._suite_args()])
        else:
            child = self.runner.spawn(["-c", CLI, *self._suite_args()])
        self.attempted += len(self.wl.checks)
        status = {}
        for line in child.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0] in ("PASS", "FAIL") and not parts[1].startswith("suite="):
                status[parts[1]] = parts[0]
        if child.code != 0:
            self._fail(len(self.wl.checks), f"verify exit {child.code}: {child.stderr.strip()[-300:]}")
            return child
        bad = [c for c in self.wl.checks if status.get(c) != "PASS"]
        bad += [c for c, s in status.items() if s != "PASS" and c not in self.wl.checks]
        if bad:
            self._fail(len(bad), f"checks not passed: {bad}")
        return child

    def query_rep(self, index: int, trace_path: str | None = None) -> tuple[Child, dict | None]:
        """One query stream process; returns the child and its meta record
        (wall_s, latencies_s, kinds), or None when it did not finish."""
        import queries

        todo = queries.generate(self.wl.n, self.wl.e, f"{self.seed}/{index}", self.wl.queries)
        inputs, outputs = self.runner.path("inputs.jsonl"), self.runner.path("outputs.jsonl")
        with open(inputs, "w") as fh:
            fh.writelines(json.dumps(q) + "\n" for q in todo)
        argv = [str(BENCH / "child.py"), "stream", inputs, outputs]
        if trace_path:
            argv += ["--trace", trace_path]
        child = self.runner.spawn(argv)
        self.attempted += len(todo)
        try:
            with open(outputs + ".meta") as fh:
                meta = json.load(fh)
            with open(outputs) as fh:
                answers = fh.read().splitlines()
        except (OSError, ValueError):
            meta, answers = None, []
        if child.code != 0 or meta is None or len(answers) != len(todo):
            self._fail(len(todo), f"query stream exit {child.code}: {child.stderr.strip()[-300:]}")
            return child, None
        bad = 0
        for query, text in zip(todo, answers):
            try:
                ok = not text.startswith("!") and queries.check(query, text)
            except Exception:  # a malformed answer is a wrong answer
                ok = False
            if not ok:
                bad += 1
                if bad == 1:
                    self.notes.append(f"first wrong answer: {query['kind']} {query['args']} -> {text[:300]}")
        if bad:
            self._fail(bad, f"{bad} wrong query answers")
        meta["kinds"] = [q["kind"] for q in todo]
        return child, meta

    # -- the two modes -------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        setup = self.setup_times()
        walls, rss, latencies = [], [], []
        start = time.monotonic()
        index = 0
        while True:
            t0 = time.monotonic()
            if self.wl.suite:
                child = self.suite_rep()
                walls.append(child.wall_s)
            else:
                child, meta = self.query_rep(index)
                if meta is not None:
                    walls.append(meta["wall_s"])
                    latencies += meta["latencies_s"]
            rss.append(child.maxrss_mb)
            index += 1
            now = time.monotonic()
            if self.failed or now - start + (now - t0) > seconds:
                break
        samples = walls if self.wl.suite else latencies
        self.samples = {
            "repetitions": index,
            "setup": len(setup),
            "latency": len(samples),
            "repetition_wall_s": [round(w, 3) for w in walls],
        }
        if not samples:  # every repetition failed, and each failure is counted
            return dict.fromkeys((name for name, _ in END_TO_END), 0.0)
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "query_p50_ms": percentile(samples, 0.50) * 1e3,
            "query_p99_ms": percentile(samples, 0.99) * 1e3,
        }

    def traced(self, trace_file: Path) -> dict:
        wl = self.wl
        setup_trace, wl_trace = self.runner.path("setup.trace.json"), self.runner.path("trace.json")
        child = self.runner.spawn([str(BENCH / "child.py"), "cli", setup_trace, *self._count_args()])
        self.setup(child)
        per_kind = {kind: [] for kind in QUERY_KINDS}
        if wl.suite:
            traced_wall = self.suite_rep(wl_trace).wall_s
            plain_wall = self.suite_rep().wall_s
        else:
            _, meta = self.query_rep(0, wl_trace)
            traced_wall = meta["wall_s"] if meta else 0.0
            _, meta = self.query_rep(0)
            plain_wall = meta["wall_s"] if meta else 0.0
            if meta:
                for kind, lat in zip(meta["kinds"], meta["latencies_s"]):
                    per_kind[kind].append(lat)
        self.samples = {"repetitions": 2}
        try:
            with open(setup_trace) as fh:
                snaps = [json.load(fh)]
            with open(wl_trace) as fh:
                snaps.append(json.load(fh))
        except (OSError, ValueError):
            self._fail(1, "traced run wrote no trace")
            return dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        with open(trace_file, "w") as fh:
            json.dump({"workload": wl.name, "seed": self.seed, "setup": snaps[0], "workload_run": snaps[1]}, fh)
        m = layer_metrics(snaps[0], snaps[1])
        for kind, lat in per_kind.items():
            m[f"query.{kind}.p50_ms"] = percentile(lat, 0.5) * 1e3 if lat else 0.0
        m["trace.overhead_s"] = traced_wall - plain_wall
        return m


def layer_metrics(setup: dict, work: dict) -> dict:
    """Per-layer metrics from the traced set-up and workload snapshots."""

    def total(field: str, key: str) -> float:
        return sum(s[field].get(key, 0) for s in (setup, work))

    def calls(key: str) -> float:
        return total("calls", key)

    m = {f"{layer}.self_s": total("layer_self_s", layer) for layer in LAYERS}
    m.update(
        {
            "homs.hom_nonzero.calls": calls("homs.hom_nonzero"),
            "homs.composition.calls": calls("homs.composition_nonzero")
            + calls("homs.composition_nonzero_right"),
            "homs.rounded_components.hit_ratio": work["rounded_components_hit_ratio"],
            "homs.tight_basic.calls": calls("homs.tight_basic"),
            "kom.hom_total.calls": calls("kom.hom_total"),
            "kom.map_basis.calls": calls("kom.map_basis"),
            "kom.map_basis.entries": total("counts", "kom.map_basis.entries"),
            "gf2.rank.calls": calls("gf2.rank"),
            "gf2.vectors_reduced": total("counts", "gf2.vectors_reduced"),
            "kom.equivalent.calls": calls("kom.equivalent"),
            "kom.equivalence_tries_per_call": (
                calls("kom.is_homotopy_equivalence") / calls("kom.equivalent")
                if calls("kom.equivalent")
                else 0.0
            ),
            "kom.find_homotopy.calls": calls("kom.find_homotopy"),
            "kom.compose.calls": calls("kom.compose"),
            "bypass.enumerate_bypasses.calls": calls("bypass.enumerate_bypasses"),
            "bypass.attach.calls": calls("bypass.attach"),
            "bypass.commuting_squares.calls": calls("bypass.commuting_squares"),
            "functor.chain_map_F.calls": calls("functor.chain_map_F"),
            "functor.build_F.calls": calls("functor.build_F"),
            "functor.F_of_morphism.calls": calls("functor.F_of_morphism"),
            "divset.enumerate_objects.s": total("inclusive_s", "divset.enumerate_objects"),
            "divset.validate.calls": calls("divset.validate"),
            "cli.import_s": setup["import_s"],
        }
    )
    for layer in CACHED_LAYERS:
        m[f"{layer}.cache_entries"] = work["cache_entries"][layer]
    checks = work.get("checks", {})
    for w in WORKLOADS.values():
        for c in w.checks:
            m[f"check.{c}.s"] = checks.get(c, 0.0)
    return m


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds the query generator")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diskcontact" / "cli.py").is_file():
        print(f"error: the program under test is missing: no {SRC / 'diskcontact'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Run this process and every child on one CPU, the last one allowed: on a
    # shared host the virtual CPUs can differ in speed, and repetitions that
    # land on different ones spread wider.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    bench = Bench(wl, args.seed, Runner(workdir, time.monotonic() + HARD_LIMIT_S))
    try:
        if args.trace:
            values = bench.traced(OUT / f"trace-{wl.name}-seed{args.seed}.json")
            units = PER_LAYER
        else:
            values = bench.timed(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, allowed)

    correct = bench.failed == 0
    for name, unit in units:
        print(f"{wl.name} {name} = {values[name]:.6g} {unit}")
    print(
        f"{wl.name} fail_frac = {bench.failed / max(bench.attempted, 1):.6g} ratio"
        f" ({bench.failed} of {bench.attempted} checks and queries)"
    )
    print(f"{wl.name} samples: {bench.samples}")
    for note in bench.notes[:5]:
        print(f"{wl.name} FAIL {note}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
