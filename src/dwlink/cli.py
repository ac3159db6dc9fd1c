"""Command-line front end.

Exit codes: 0 success / no violations; 1 a mathematical violation was found
(which signals an implementation bug, the checked identities being
theorems); 2 invalid input or failed preconditions; 3 a resource cap was
exceeded, or the input asked for more than Python can index or allocate
(OverflowError, MemoryError).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import congruence, dw, gf, holonomy
from .braids import components, parse_braid, permutation
from .errors import InputError, ResourceError
from .groups import from_group_spec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(obj, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _parse_x(G, x_args, n):
    if x_args is None:
        return None
    if len(x_args) != n:
        raise InputError(
            f"--x needs {n} element names for this {n}-component closure"
        )
    return tuple(G.element_index(name) for name in x_args)


def cmd_group_info(args):
    G = from_group_spec(args.group)
    out = {
        "group": G.name,
        "order": G.order,
        "identity": G.names[G.id],
        "classes": [
            {
                "representative": G.names[c.representative],
                "size": len(c.members),
                "members": [G.names[g] for g in c.members],
            }
            for c in G.classes
        ],
        "centralizer_orders": {  # |Cen(x)| = |G| / |class(x)|
            G.names[x]: G.order // len(G.classes[G.class_of[x]].members)
            for x in G.elements()
        },
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_braid_info(args):
    beta = parse_braid(args.braid)
    comp = components(beta)
    perm = permutation(beta)
    out = {
        "braid": str(beta),
        "strands": beta.strands,
        "permutation": [p + 1 for p in perm],
        "components": comp.count,
        "cycles": [[p + 1 for p in c] for c in comp.cycles],
        "basepoints": [p + 1 for p in comp.basepoints],
        "self_writhe": list(comp.self_writhe),
        "linking": [list(row) for row in comp.linking],
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_homs(args):
    beta = parse_braid(args.braid)
    G = from_group_spec(args.group)
    n = components(beta).count
    x = _parse_x(G, args.x, n)
    recs = holonomy.enumerate_homs(
        beta, G, x_constraint=x, allow_large=args.allow_large
    )
    if args.count:
        _emit({"count": len(recs)}, args.pretty)
    else:
        out = [
            {
                "tuple": [G.names[e] for e in r.tuple],
                "meridian": [G.names[e] for e in r.meridian],
                "longitude": [G.names[e] for e in r.longitude],
            }
            for r in recs
        ]
        _emit({"count": len(recs), "homs": out}, args.pretty)
    return EXIT_OK


def cmd_dw(args):
    beta = parse_braid(args.braid)
    G = from_group_spec(args.group)
    scope = "all" if args.all_x else "representatives"
    table = dw.dw_table(beta, G, x_scope=scope)
    obj = table.to_json_obj()
    if args.exact:
        obj["exact_entries"] = [
            {
                "x": [G.names[e] for e in x],
                "h": [G.names[e] for e in h],
                "count": c,
            }
            for (x, h), c in sorted(table.exact.items())
        ]
    _emit(obj, args.pretty)
    return EXIT_OK


def cmd_verify(args):
    beta = parse_braid(args.braid)
    G = from_group_spec(args.group)
    instance = congruence.check_preconditions(beta, args.p, args.k, G)
    scope = "all" if args.all_x else "representatives"
    report = congruence.verify(instance, x_scope=scope)
    _emit(report.to_json_obj(), args.pretty)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_sweep(args):
    with open(args.catalog) as fh:
        catalog = json.load(fh)
    if not isinstance(catalog, list):
        raise InputError("catalog must be a JSON array")
    summary = congruence.sweep(catalog)
    _emit(summary.to_json_obj(), args.pretty)
    # the codes verify uses; a violation outranks an input error, which
    # outranks a resource limit
    if summary.any_violation:
        return EXIT_VIOLATION
    statuses = {e.status for e in summary.entries}
    if statuses & {"precondition-failed", "error"}:
        return EXIT_INPUT
    if "resource-limit" in statuses:
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_frobcheck(args):
    field = gf.field_make(args.p, args.e)
    report = gf.frobenius_trace_check(field, args.n, args.trials, seed=args.seed)
    _emit(report, args.pretty)
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dwlink",
        description="Counting invariants of braid closures over finite groups, "
        "and the mod-p periodicity congruence check.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, braid=False, group=False, threads=False):
        sp.add_argument("--pretty", action="store_true", help="indent JSON output")
        if braid:
            sp.add_argument(
                "--braid", required=True, help='braid word, e.g. "2: 1 1 1"'
            )
        if group:
            sp.add_argument(
                "--group", required=True, help="group spec, e.g. cyclic:3"
            )
        if threads:
            sp.add_argument(
                "--threads",
                type=int,
                help="accepted and ignored: dwlink runs single-threaded",
            )

    sp = sub.add_parser("group-info", help="order, classes, centralizer orders")
    common(sp, group=True)
    sp.set_defaults(func=cmd_group_info)

    sp = sub.add_parser("braid-info", help="permutation, cycles, writhe, linking")
    common(sp, braid=True)
    sp.set_defaults(func=cmd_braid_info)

    sp = sub.add_parser("homs", help="enumerate homomorphisms to the group")
    common(sp, braid=True, group=True, threads=True)
    sp.add_argument("--x", nargs="+", help="meridian element names per component")
    sp.add_argument("--count", action="store_true", help="output count only")
    sp.add_argument(
        "--allow-large", action="store_true", help="override the search-space cap"
    )
    sp.set_defaults(func=cmd_homs)

    sp = sub.add_parser("dw", help="counting tables over boundary data")
    common(sp, braid=True, group=True)
    sp.add_argument(
        "--all-x", action="store_true", help="sweep all meridian tuples, not class reps"
    )
    sp.add_argument(
        "--exact", action="store_true", help="include exact (x, h) entries"
    )
    sp.set_defaults(func=cmd_dw)

    sp = sub.add_parser("verify", help="check the periodicity congruence")
    common(sp, braid=True, group=True, threads=True)
    sp.add_argument("-p", type=int, required=True, help="prime period base")
    sp.add_argument("-k", type=int, required=True, help="period exponent")
    sp.add_argument("--all-x", action="store_true", help="sweep all meridian tuples")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="batch verification from a catalog file")
    common(sp, threads=True)
    sp.add_argument("--catalog", required=True, help="JSON catalog file")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("frobcheck", help="trace/Frobenius identity check")
    common(sp)
    sp.add_argument("-p", type=int, required=True, help="field characteristic")
    sp.add_argument("-e", type=int, default=1, help="extension degree")
    sp.add_argument("-n", type=int, required=True, help="matrix dimension")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_frobcheck)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ResourceError, OverflowError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
