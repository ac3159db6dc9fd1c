"""Executable congruence check between a braid closure and the closure of
its p^k-th power.

The closure of beta^(p^k) is a p^k-periodic link whose quotient is the
closure of beta.  When every cycle length of the braid permutation is
coprime to p, both closures have the same number of components and the
cycles of the powered braid have the same member sets, so components align
by shared bottom basepoints.  The check sweeps boundary data (x, [h]) and
compares the class-level count for [h] on the quotient side with the count
for [h^(p^k)] on the periodic side, modulo p.

Both sides come from one scan per x (holonomy.periodic_scan): the fixed
tuples of beta^(p^k) are those on orbits of beta of length p^j, j <= k, and
the fixed tuples of beta those on orbits of length 1, so the braid power is
never built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .arith import is_prime
from .braids import BraidWord, components, parse_braid
from .dw import x_tuples
from .errors import (
    ComponentMismatch,
    GroupOrderDivisible,
    NotPrime,
    InputError,
    ResourceError,
)
from .groups import FiniteGroup, from_group_spec
# enumerate_homs is not called here; it stays bound because the benchmark's
# tests check that its tracer wraps this binding (perfbench/test_perfbench.py)
from .holonomy import check_search_space, enumerate_homs, periodic_scan  # noqa: F401


@dataclass(frozen=True)
class CongruenceInstance:
    beta: BraidWord
    p: int
    k: int
    group: FiniteGroup


@dataclass
class Violation:
    x: tuple[int, ...]
    hclass: tuple[int, ...]
    lhs_count: int
    rhs_count: int


@dataclass
class CongruenceReport:
    instance: CongruenceInstance
    n: int
    cases_checked: int = 0
    violations: list = field(default_factory=list)

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
                    "x": [G.names[e] for e in v.x],
                    "h_class": [G.names[e] for e in v.hclass],
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


def class_counts(instance: CongruenceInstance, x) -> tuple[Counter, Counter]:
    """The class-level counts at the meridian tuple x of the closure of
    beta^(p^k) and of the closure of beta, keyed like dw.class_buckets.
    Every scanned representative stands for its H-orbit, whose members
    share its Cen(x_t)-classes, so it adds its orbit size."""
    beta, p, k, G = instance.beta, instance.p, instance.k, instance.group
    reps = [G.cen_class_reps(xt) for xt in x]
    lhs, rhs = Counter(), Counter()
    for weight, big, small in periodic_scan(beta, G, x, p, k):
        lhs[tuple(rep[h] for rep, h in zip(reps, big))] += weight
        if small is not None:
            rhs[tuple(rep[h] for rep, h in zip(reps, small))] += weight
    return lhs, rhs


def verify(
    instance: CongruenceInstance,
    x_scope: str = "representatives",
) -> CongruenceReport:
    beta, p, k, G = instance.beta, instance.p, instance.k, instance.group
    q = pow(p, k, G.order)  # h^|G| = e, so h^(p^k) = h^q
    comp = components(beta)
    n = comp.count
    # every x's search space, before any x is scanned
    for x in x_tuples(G, n, x_scope):
        check_search_space(G, comp, x)

    report = CongruenceReport(instance, n)
    for x in x_tuples(G, n, x_scope):
        lhs, rhs = class_counts(instance, x)
        reps = [G.cen_class_reps(xt) for xt in x]
        # one representative h_t per class of Cen(x_t)
        rep_lists = [sorted(set(rep.values())) for rep in reps]
        for h in itertools.product(*rep_lists):
            report.cases_checked += 1
            rhs_count = rhs[h]
            hp = (G.power(ht, q) for ht in h)
            lhs_count = lhs[tuple(rep[e] for rep, e in zip(reps, hp))]
            if (lhs_count - rhs_count) % p != 0:
                report.violations.append(
                    Violation(x, h, lhs_count, rhs_count)
                )
    report.violations.sort(key=lambda v: (v.x, v.hclass))
    return report


@dataclass
class SweepEntry:
    spec: dict
    # "ok", "violations", "precondition-failed", "error", "resource-limit"
    status: str
    detail: str = ""
    report: CongruenceReport | None = None


@dataclass
class SweepSummary:
    entries: list

    @property
    def any_violation(self) -> bool:
        return any(e.status == "violations" for e in self.entries)

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


def sweep(catalog) -> SweepSummary:
    """Run verify on each catalog entry, aggregating outcomes without
    aborting on per-entry failures.

    Catalog entries are dicts {"braid": "m: letters", "p": int, "k": int,
    "group": "<group spec>"}.
    """
    entries = []
    for spec in catalog:
        try:
            beta = parse_braid(spec["braid"])
            G = from_group_spec(spec["group"])
            instance = check_preconditions(beta, int(spec["p"]), int(spec["k"]), G)
            report = verify(instance)
        except (NotPrime, GroupOrderDivisible, ComponentMismatch) as exc:
            entry = SweepEntry(spec, "precondition-failed", str(exc))
        except (ResourceError, OverflowError, MemoryError) as exc:
            # a bare MemoryError carries no message
            entry = SweepEntry(spec, "resource-limit", str(exc) or type(exc).__name__)
        except Exception as exc:  # malformed entry
            entry = SweepEntry(spec, "error", str(exc))
        else:
            entry = SweepEntry(spec, "ok" if report.ok else "violations", report=report)
        entries.append(entry)
    return SweepSummary(entries)
