"""Counting tables over prescribed boundary data.

For a closure with components K_1..K_n, the exact table counts
homomorphisms with meridian images x and longitude images h; the class
table counts those whose longitude image lands in a prescribed conjugacy
class of the centralizer Cen(x_t), componentwise.  Only nonzero entries are
stored.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .braids import BraidWord, components
from .errors import HNotInCentralizer, LengthMismatch, NotInSubgroup
from .groups import FiniteGroup
from .holonomy import checked_x_pool, enumerate_homs


def _check_lengths(n, x, h):
    if len(x) != n or len(h) != n:
        raise LengthMismatch(
            f"expected {n}-tuples for a {n}-component closure, "
            f"got lengths {len(x)} and {len(h)}"
        )


def cen_class_rep(G: FiniteGroup, x: int, h: int) -> int:
    """Canonical representative (smallest member) of the class of h in Cen(x)."""
    try:
        return G.cen_class_reps(x)[h]
    except KeyError:
        raise NotInSubgroup(f"element {h} is not in the subgroup") from None


def class_buckets(G: FiniteGroup, x, recs) -> Counter:
    """Count hom records with meridian images x by the tuple of Cen(x_t)-class
    representatives of their longitude images."""
    reps = [G.cen_class_reps(xt) for xt in x]
    return Counter(
        tuple(rep[h] for rep, h in zip(reps, r.longitude)) for r in recs
    )


def dw_exact(beta: BraidWord, G: FiniteGroup, x, h) -> int:
    """#{homs : meridian image = x, longitude image = h}."""
    n = components(beta).count
    _check_lengths(n, x, h)
    for xt, ht in zip(x, h):
        if G.table[xt][ht] != G.table[ht][xt]:
            return 0  # peripheral images must commute; no hom can realize this
    recs = enumerate_homs(beta, G, x_constraint=tuple(x))
    return sum(1 for r in recs if r.longitude == tuple(h))


def dw_class(beta: BraidWord, G: FiniteGroup, x, h) -> int:
    """#{homs : meridian image = x, longitude image in the class of h_t
    inside Cen(x_t) for every t}."""
    n = components(beta).count
    _check_lengths(n, x, h)
    target = []
    for xt, ht in zip(x, h):
        rep = G.cen_class_reps(xt).get(ht)
        if rep is None:
            raise HNotInCentralizer(
                f"element {G.names[ht]} is not in the centralizer of {G.names[xt]}"
            )
        target.append(rep)
    recs = enumerate_homs(beta, G, x_constraint=tuple(x))
    return class_buckets(G, x, recs)[tuple(target)]


class DWTable:
    __slots__ = ("braid", "group", "n_components", "x_scope", "exact", "by_class")

    def __init__(
        self, braid: BraidWord, group: FiniteGroup, n_components: int, x_scope: str
    ):
        self.braid = braid
        self.group = group
        self.n_components = n_components
        self.x_scope = x_scope
        self.exact = {}  # (x, h) -> count
        self.by_class = {}  # (x, class rep tuple) -> count

    def to_json_obj(self):
        name = self.group.element_name
        entries = [
            {
                "x": [name(e) for e in x],
                "h_class_reps": [name(e) for e in reps],
                "count": c,
            }
            for (x, reps), c in sorted(self.by_class.items())
        ]
        return {
            "braid": str(self.braid),
            "group": self.group.name,
            "components": self.n_components,
            "x_scope": self.x_scope,
            "entries": entries,
        }


def dw_table(
    beta: BraidWord, G: FiniteGroup, x_scope: str = "representatives"
) -> DWTable:
    """Full table: every x in scope, aggregated exactly and by centralizer
    class.  One enumeration pass per x, after checked_x_pool."""
    comp = components(beta)
    table = DWTable(beta, G, comp.count, x_scope)
    for x in itertools.product(checked_x_pool(G, comp, x_scope), repeat=comp.count):
        recs = enumerate_homs(beta, G, x_constraint=x)
        table.exact.update(Counter((x, r.longitude) for r in recs))
        for reps, count in class_buckets(G, x, recs).items():
            table.by_class[(x, reps)] = count
    return table
