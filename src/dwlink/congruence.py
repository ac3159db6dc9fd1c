"""Executable congruence check between a braid closure and the closure of
its p^k-th power.

The closure of beta^(p^k) is a p^k-periodic link whose quotient is the
closure of beta.  When every cycle length of the braid permutation is
coprime to p, both closures have the same number of components and the
cycles of the powered braid have the same member sets, so components align
by shared bottom basepoints.  The check sweeps boundary data (x, [h]) and
compares the class-level count for [h] on the quotient side with the count
for [h^(p^k)] on the periodic side, modulo p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .arith import is_prime
from .braids import BraidWord, braid_power, components, parse_braid
from .dw import class_buckets, x_tuples
from .errors import (
    ComponentMismatch,
    GroupOrderDivisible,
    NotPrime,
    InputError,
    WordTooLong,
)
from .groups import FiniteGroup, from_group_spec
from .holonomy import enumerate_homs

# letters in the braid power beta^(p^k), which verify walks once per
# candidate tuple
WORD_CAP = 10**6


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


def verify(
    instance: CongruenceInstance,
    x_scope: str = "representatives",
) -> CongruenceReport:
    beta, p, k, G = instance.beta, instance.p, instance.k, instance.group
    # p >= 2, so k >= WORD_CAP.bit_length() alone means p^k > WORD_CAP; it
    # spares computing a huge power
    ell = len(beta.letters)
    if ell and (k >= WORD_CAP.bit_length() or p**k * ell > WORD_CAP):
        raise WordTooLong(
            f"the braid power has {p}^{k} copies of a {ell}-letter word, "
            f"more than the cap of {WORD_CAP} letters"
        )
    # built only for a nonempty word, once the cap has bounded p^k
    big = braid_power(beta, p**k) if ell else beta
    q = pow(p, k, G.order)  # h^|G| = e, so h^(p^k) = h^q

    comp = components(beta)
    comp_big = components(big)
    # coprimality makes cycles (hence basepoints and ordering) coincide
    assert comp_big.basepoints == comp.basepoints
    n = comp.count

    report = CongruenceReport(instance, n)
    for x in x_tuples(G, n, x_scope):
        rhs = class_buckets(G, x, enumerate_homs(beta, G, x_constraint=x))
        lhs = class_buckets(G, x, enumerate_homs(big, G, x_constraint=x))
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
    status: str  # "ok", "violations", "precondition-failed", "error"
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
        except (NotPrime, GroupOrderDivisible, ComponentMismatch) as exc:
            entries.append(SweepEntry(spec, "precondition-failed", str(exc)))
            continue
        except Exception as exc:  # malformed entry
            entries.append(SweepEntry(spec, "error", str(exc)))
            continue
        try:
            report = verify(instance)
        except Exception as exc:
            entries.append(SweepEntry(spec, "error", str(exc)))
            continue
        status = "ok" if report.ok else "violations"
        entries.append(SweepEntry(spec, status, report=report))
    return SweepSummary(entries)
