"""Command-line front end.

Exit codes: 0 success / no violations; 1 a mathematical violation was found
(which signals an implementation bug, the checked identities being
theorems); 2 invalid input or failed preconditions; 3 a resource cap was
exceeded, or the input asked for more than Python can index or allocate
(OverflowError, MemoryError).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

# each command imports the heavier modules it uses itself, so that a process
# loads no module its command does not run; braids and errors are light
from .braids import components, parse_braid, permutation
from .errors import RESOURCE_FAILURES, InputError, resource_message

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(obj, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _group(spec: str):
    """The group of spec, built with the collector paused, and then frozen:
    its table is some n + 1 tuples that live to the end, and a collection
    would walk them all for nothing.  main unfreezes it."""
    from .groups import from_group_spec

    enabled = gc.isenabled()
    gc.disable()
    try:
        G = from_group_spec(spec)
    finally:
        if enabled:
            gc.enable()
    gc.freeze()
    return G


def _parse_x(G, x_args, n):
    if x_args is None:
        return None
    if len(x_args) != n:
        raise InputError(
            f"--x needs {n} element names for this {n}-component closure"
        )
    return tuple(G.element_index(name) for name in x_args)


def cmd_group_info(args):
    G = _group(args.group)
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
    from . import holonomy

    beta = parse_braid(args.braid)
    G = _group(args.group)
    n = components(beta).count
    x = _parse_x(G, args.x, n)
    if args.count:
        count = holonomy.count_fixed_tuples(beta, G, x, args.allow_large)
        _emit({"count": count}, args.pretty)
    else:
        recs = holonomy.enumerate_homs(
            beta, G, x_constraint=x, allow_large=args.allow_large
        )
        out = [
            {
                "tuple": [G.element_name(e) for e in r.tuple],
                "meridian": [G.element_name(e) for e in r.meridian],
                "longitude": [G.element_name(e) for e in r.longitude],
            }
            for r in recs
        ]
        _emit({"count": len(recs), "homs": out}, args.pretty)
    return EXIT_OK


def cmd_dw(args):
    from . import dw

    beta = parse_braid(args.braid)
    G = _group(args.group)
    scope = "all" if args.all_x else "representatives"
    table = dw.dw_table(beta, G, x_scope=scope)
    obj = table.to_json_obj()
    if args.exact:
        obj["exact_entries"] = [
            {
                "x": [G.element_name(e) for e in x],
                "h": [G.element_name(e) for e in h],
                "count": c,
            }
            for (x, h), c in sorted(table.exact.items())
        ]
    _emit(obj, args.pretty)
    return EXIT_OK


def cmd_verify(args):
    from . import congruence

    beta = parse_braid(args.braid)
    G = _group(args.group)
    instance = congruence.check_preconditions(beta, args.p, args.k, G)
    scope = "all" if args.all_x else "representatives"
    report = congruence.verify(instance, x_scope=scope)
    _emit(report.to_json_obj(), args.pretty)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_sweep(args):
    from . import congruence

    with open(args.catalog) as fh:
        catalog = json.load(fh)
    if not isinstance(catalog, list):
        raise InputError("catalog must be a JSON array")
    # stdout echoes the entries and must stay JSON, which has no NaN or
    # Infinity; json.load admits both, and reads 1e999 as infinity
    try:
        json.dumps(catalog, allow_nan=False)
    except ValueError:
        raise InputError("catalog holds a non-finite number") from None
    summary = congruence.sweep(catalog)
    _emit(summary.to_json_obj(), args.pretty)
    # the codes verify uses; the smallest non-zero one wins, so a violation
    # outranks an input error, which outranks a resource limit
    codes = {
        "ok": EXIT_OK,
        "violations": EXIT_VIOLATION,
        "precondition-failed": EXIT_INPUT,
        "error": EXIT_INPUT,
        "resource-limit": EXIT_RESOURCE,
    }
    return min({codes[e.status] for e in summary.entries} - {EXIT_OK}, default=EXIT_OK)


def cmd_frobcheck(args):
    from . import gf

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
    # repeated --x=NAME flags add up, so Q8's -i can be given on a link
    sp.add_argument(
        "--x", nargs="+", action="extend", help="meridian element names per component"
    )
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
    except RESOURCE_FAILURES as exc:
        print(f"error: {resource_message(exc)}", file=sys.stderr)
        return EXIT_RESOURCE
    # a JSONDecodeError is a ValueError; a RecursionError comes from JSON
    # nested deeper than the interpreter's recursion limit
    except (InputError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        # library callers and tests go on with a normal collector
        gc.unfreeze()


def run() -> int:
    """main() for python -m dwlink and the console script.  The heap is
    frozen again at the end, so that the interpreter's final collection
    does not walk the group's table."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
