"""One benchmark repetition, run in a fresh interpreter by run.py.

    child.py stream INPUTS OUTPUTS [--trace TRACE]
        Answer the queries in INPUTS (JSON lines) in a closed loop, one at
        a time.  Each query's timed interval runs from its JSON input text
        to its JSON answer text written to OUTPUTS.  After the stream,
        OUTPUTS.meta holds the per-query latencies and the stream's wall
        time.  With --trace, the library is traced and TRACE receives the
        trace snapshot, with one span per query.

    child.py cli TRACE ARGV...
        Import diskcontact.cli, trace the library, and run the CLI's
        main(ARGV) in-process, with one span per run_suite call.  TRACE
        receives the snapshot, the import time and the suite reports.

The diskcontact package comes from PYTHONPATH, which run.py points at
the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext


def stream(inputs: str, outputs: str, trace_path: str | None) -> int:
    import queries

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(inputs) as fh:
        todo = [json.loads(line) for line in fh]
    latencies = []
    clock = time.perf_counter
    with open(outputs, "w") as out:
        start = clock()
        for i, query in enumerate(todo):
            t0 = clock()
            with tracer.span("query", index=i, kind=query["kind"]) if tracer else nullcontext():
                try:
                    text = queries.answer(query)
                except Exception as exc:  # recorded as a failed answer
                    text = "!" + repr(exc)
            out.write(text + "\n")
            latencies.append(clock() - t0)
        wall = clock() - start
    with open(outputs + ".meta", "w") as fh:
        json.dump({"wall_s": wall, "latencies_s": latencies}, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return 0


def cli(trace_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from diskcontact import cli as dc_cli, suites

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    reports = []
    run_suite = suites.run_suite

    def run_suite_in_span(name, n, e):
        with tracer.span("run_suite", suite=name, n=n, e=e):
            result = run_suite(name, n, e)
        reports.extend(result)
        return result

    suites.run_suite = run_suite_in_span
    code = dc_cli.main(argv)
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    snap["checks"] = {c.check_id: c.duration for r in reports for c in r.checks}
    with open(trace_path, "w") as fh:
        json.dump(snap, fh)
    return code


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("stream")
    p.add_argument("inputs")
    p.add_argument("outputs")
    p.add_argument("--trace")
    p = sub.add_parser("cli")
    p.add_argument("trace")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "stream":
        return stream(args.inputs, args.outputs, args.trace)
    return cli(args.trace, args.argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
