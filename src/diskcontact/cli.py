"""Command-line front end.

Subcommands
    enumerate    list or count the objects of one component
    hom          dimension of the hom space between two dividing sets
    complex      the complex of projectives attached to a dividing set
    chainmap     the chain map of a bypass move
    triangle     the bypass triangle starting at a move
    homdim       hom dimensions between two complexes in the homotopy category
    verify       run a verification suite
    export-dot   quiver / bypass graph / triangle as DOT text

Dividing sets are read as JSON objects {"n":..,"e":..,"components":[...]}
with components carrying "v" ("*" or a list of positive integers) and
"labels".  Bypass moves are {"uv":[...],"ov":[...],"x":..,"y":..,"z":..}.
Exit codes: 0 success, 1 suite failure, 2 bad arguments, 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import algebra, bypass, functor, homs, kom, suites
from .divset import (
    DividingSet,
    ds_from_json,
    ds_to_json,
    enumerate_objects,
    to_matching,
    validate,
    vector_from_json,
)
from .errors import DiskContactError, NotBasic

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# what malformed JSON values raise while being parsed; int() of a JSON
# number too large for a float (read as inf) raises OverflowError
_UNPARSEABLE = (ValueError, KeyError, TypeError, OverflowError)


def _check_ds(ds: DividingSet) -> None:
    rep = validate(ds)
    if not rep.ok:
        print(f"error: invalid dividing set: {'; '.join(rep.violations)}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_ds(text: str, max_n: int) -> DividingSet:
    try:
        ds = ds_from_json(json.loads(text))
    except _UNPARSEABLE as exc:
        print(f"error: unparseable dividing set: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    _check_max_n(ds.n, max_n)
    _check_ds(ds)
    return ds


def _load_complex(text: str, max_n: int) -> kom.Complex:
    try:
        c = kom.complex_from_json(json.loads(text))
    except NotBasic as exc:
        print(f"error: complex summand is not basic: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    except _UNPARSEABLE as exc:
        print(f"error: unparseable complex: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    for s in c.summands:
        _check_max_n(s.gamma.n, max_n)
        _check_ds(s.gamma)
    return c


def _load_move(ds: DividingSet, text: str) -> bypass.BypassMove:
    try:
        obj = json.loads(text)
        mv = bypass.BypassMove(
            ds,
            vector_from_json(obj["uv"]),
            vector_from_json(obj["ov"]),
            int(obj["x"]),
            int(obj["y"]),
            int(obj["z"]),
        )
    except _UNPARSEABLE as exc:
        print(f"error: unparseable bypass move: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        bypass.validate_move(mv)
    except DiskContactError as exc:
        print(f"error: invalid bypass move: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return mv


def _check_bounds(n: int, e: int, max_n: int) -> None:
    if not 0 <= e <= n:
        print("error: need 0 <= e <= n", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    _check_max_n(n, max_n)


def _check_max_n(n: int, max_n: int) -> None:
    if n > max_n:
        print(
            f"error: n={n} above the configured bound {max_n} (raise with --max-n)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)


def cmd_enumerate(args) -> int:
    _check_bounds(args.n, args.e, args.max_n)
    objs = enumerate_objects(args.n, args.e)
    if args.format == "count":
        print(len(objs))
    else:
        for g in objs:
            _emit(ds_to_json(g))
    return 0


def cmd_hom(args) -> int:
    g = _load_ds(args.src, args.max_n)
    g2 = _load_ds(args.dst, args.max_n)
    try:
        dim = 1 if homs.hom_nonzero(g, g2) else 0
    except DiskContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit({"dim": dim, "curves": homs.rounded_components(g, g2)})
    return 0


def cmd_complex(args) -> int:
    g = _load_ds(args.ds, args.max_n)
    _emit(kom.complex_to_json(functor.build_F(g)))
    return 0


def cmd_chainmap(args) -> int:
    g = _load_ds(args.ds, args.max_n)
    mv = _load_move(g, args.move)
    f = functor.chain_map_F(mv)
    _emit(kom.chain_map_to_json(f))
    return 0


def cmd_triangle(args) -> int:
    g = _load_ds(args.ds, args.max_n)
    mv = _load_move(g, args.move)
    tri = bypass.triangle(g, mv)
    _emit(
        {
            "vertices": [ds_to_json(x) for x in (tri.g1, tri.g2, tri.g3)],
            "degrees": [functor.deg_F(b) for b in (tri.b1, tri.b2, tri.b3)],
        }
    )
    return 0


def cmd_homdim(args) -> int:
    a = _load_complex(args.src, args.max_n)
    b = _load_complex(args.dst, args.max_n)
    if not (kom.verify_complex(a) and kom.verify_complex(b)):
        print("error: input is not a complex (d^2 != 0 or bad entries)", file=sys.stderr)
        return EXIT_INVALID
    by_degree = {str(k): d for k, d in kom.hom_by_degree(a, b).items()}
    _emit({"total": sum(by_degree.values()), "by_degree": by_degree})
    return 0


def cmd_verify(args) -> int:
    _check_bounds(args.n, args.e, args.max_n)
    if args.suite not in set(suites.SUITES) | {"all"}:
        print(f"error: unknown suite {args.suite}", file=sys.stderr)
        return EXIT_USAGE
    heavy = {"functor", "triangles", "serre", "faithful"}
    if args.n > 4 and (args.suite in heavy or args.suite == "all"):
        print(
            f"warning: homotopy-level suites at n={args.n} may be slow", file=sys.stderr
        )

    def show(c: suites.Check) -> None:
        # flushed per check, so a killed run still leaves what it finished
        print(f"{'PASS' if c.ok else 'FAIL'} {c.check_id} ({c.duration:.2f}s)", flush=True)
        if not c.ok and c.counterexample is not None:
            print("     " + json.dumps(c.counterexample, sort_keys=True), flush=True)

    t0 = time.perf_counter()
    with suites.reporting(show):
        reports = suites.run_suite(args.suite, args.n, args.e)
    ok = all(rep.ok for rep in reports)
    print(f"{'PASS' if ok else 'FAIL'} suite={args.suite} n={args.n} e={args.e} ({time.perf_counter() - t0:.2f}s)")
    return 0 if ok else EXIT_FAIL


def _dot_name(g: DividingSet) -> str:
    return "m" + "_".join(str(p) for p in to_matching(g))


def cmd_export_dot(args) -> int:
    if args.what == "quiver":
        _check_bounds(args.n, args.e, args.max_n)
        sys.stdout.write(algebra.quiver_dot(args.n, args.e))
        return 0
    if args.what == "bypass-graph":
        _check_bounds(args.n, args.e, args.max_n)
        lines = [f'digraph "bypass_{args.n}_{args.e}" {{']
        comp = homs.component(args.n, args.e)
        lines += [f"  {_dot_name(comp.objects[i])};" for i in comp.ids()]
        for i in comp.ids():
            targets = {comp.objects[t] for t, _ in comp.successors(i)}
            for t in sorted(targets, key=to_matching):
                lines.append(f"  {_dot_name(comp.objects[i])} -> {_dot_name(t)};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    if args.what == "triangle":
        if not args.ds or not args.move:
            print("error: triangle export needs --ds and --move", file=sys.stderr)
            return EXIT_USAGE
        g = _load_ds(args.ds, args.max_n)
        mv = _load_move(g, args.move)
        tri = bypass.triangle(g, mv)
        lines = ['digraph "triangle" {']
        for x in (tri.g1, tri.g2, tri.g3):
            lines.append(f"  {_dot_name(x)};")
        for a, b in ((tri.g1, tri.g2), (tri.g2, tri.g3), (tri.g3, tri.g1)):
            lines.append(f"  {_dot_name(a)} -> {_dot_name(b)};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    print(f"error: unknown export target {args.what}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskcontact", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--max-n", type=int, default=8, help="hard bound on n (default 8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="objects of one component")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--format", choices=["json", "count"], default="json")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hom", help="hom dimension between two dividing sets")
    p.add_argument("--src", required=True, help="dividing set JSON")
    p.add_argument("--dst", required=True, help="dividing set JSON")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("complex", help="complex of projectives of a dividing set")
    p.add_argument("--ds", required=True, help="dividing set JSON")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("chainmap", help="chain map of a bypass move")
    p.add_argument("--ds", required=True, help="dividing set JSON")
    p.add_argument("--move", required=True, help="bypass move JSON")
    p.set_defaults(fn=cmd_chainmap)

    p = sub.add_parser("triangle", help="bypass triangle of a move")
    p.add_argument("--ds", required=True, help="dividing set JSON")
    p.add_argument("--move", required=True, help="bypass move JSON")
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("homdim", help="hom dimensions between two complexes")
    p.add_argument("--src", required=True, help="complex JSON")
    p.add_argument("--dst", required=True, help="complex JSON")
    p.set_defaults(fn=cmd_homdim)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument(
        "--suite",
        default="all",
        help="all|" + "|".join(suites.SUITES),
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-dot", help="graph exports")
    p.add_argument("what", choices=["quiver", "bypass-graph", "triangle"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--ds", help="dividing set JSON (triangle export)")
    p.add_argument("--move", help="bypass move JSON (triangle export)")
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse usage errors and input rejections
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else EXIT_USAGE
    except DiskContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
