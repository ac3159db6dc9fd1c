"""Homomorphisms from a braid closure's link group to a finite group.

Homomorphisms pi_1(beta^) -> G correspond to m-tuples of G fixed by the
braid action on G^m.  A tuple labels the meridians at the bottom of the
braid; the generator for letter +i sends (a, b) at the two crossing
positions to (a b a^-1, a), its inverse sends (a, b) to (b, b^-1 a b).
That action is written once, in _act; the fixed-point scans, artin_action
and the strand-holonomy pass _holonomies (behind longitude_image and
periodic_scan) all move labels with it.  Per-component meridian and
longitude images are derived from a fixed tuple.

The scan is reduced by conjugation.  Let H be the elements commuting with
every prescribed meridian (all of G when none is prescribed).  Conjugating
a tuple entrywise by h in H commutes with the braid action, since _act only
forms group words, and maps every candidate set to itself.  So H permutes
the fixed tuples.  Fix p0, the first position with more than one
candidate, and split its candidates into H-orbits with G.orbits, which
gives for the smallest member r of each orbit one h per orbit member (a
transversal of H / Cen_H(r)).  Then every fixed tuple b is h a h^-1 for
exactly one pair: a is a fixed tuple with a[p0] = r, the smallest member of
the orbit of b[p0], and h is the transversal element for b[p0].
enumerate_homs scans only such a and expands each one by its transversal;
the result is exact, with no duplicates to remove.  periodic_scan scans the
same representatives for both closures that congruence.verify compares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .braids import BraidWord, ComponentData, components
from .errors import LengthMismatch, NotAFixedPoint, SearchTooLarge
from .groups import FiniteGroup

SEARCH_CAP = 10**9


def _act(letters, labels, mul, inv):
    """Move the labels in the list labels up through letters, in place, and
    return the list."""
    for l in letters:
        i = abs(l) - 1
        x, y = labels[i], labels[i + 1]
        if l > 0:
            labels[i] = mul[mul[x][y]][inv[x]]
            labels[i + 1] = x
        else:
            labels[i] = y
            labels[i + 1] = mul[mul[inv[y]][x]][y]
    return labels


def artin_action(beta: BraidWord, a, G: FiniteGroup) -> tuple[int, ...]:
    """Propagate bottom labels through the braid; returns the top labels."""
    if len(a) != beta.strands:
        raise LengthMismatch(
            f"tuple length {len(a)} != strand count {beta.strands}"
        )
    return tuple(_act(beta.letters, list(a), G.table, G.inv))


@dataclass(frozen=True)
class HomRecord:
    """A braid-action fixed tuple with its per-component boundary data."""

    tuple: tuple[int, ...]
    meridian: tuple[int, ...]
    longitude: tuple[int, ...]


def _holonomies(letters, labels, G: FiniteGroup) -> list[int]:
    """Move the labels in the list labels up through letters, in place, as
    _act does, and return the strand holonomies: hol[s] is the product of
    the labels of the over-strands (to the sign of the letter) that the
    strand entering at bottom position s passes under."""
    mul, inv = G.table, G.inv
    hol = [G.id] * len(labels)
    at = list(range(len(labels)))  # at[p] = bottom position of the strand at p
    for l in letters:
        i = abs(l) - 1
        # with mul(a, b) meaning "b first", traversal order puts new
        # contributions on the left
        if l > 0:
            # strand at position i passes over
            s = at[i + 1]
            hol[s] = mul[labels[i]][hol[s]]
        else:
            # strand at position i+1 passes over
            s = at[i]
            hol[s] = mul[inv[labels[i + 1]]][hol[s]]
        at[i], at[i + 1] = at[i + 1], at[i]
        _act((l,), labels, mul, inv)
    return hol


def _cycle_product(hols, cycle, mul, one) -> int:
    """Left-multiply hols[i mod L][cycle[i mod c]] over i < L c, where L =
    len(hols) and c = len(cycle): the closure arcs join the strands in the
    order of the cycle, and copy i mod L of the word carries the labels
    hols[i mod L] was taken at."""
    acc = one
    for i in range(len(hols) * len(cycle)):
        acc = mul[hols[i % len(hols)][cycle[i % len(cycle)]]][acc]
    return acc


def longitude_image(
    beta: BraidWord,
    a,
    t: int,
    G: FiniteGroup,
    comp: ComponentData | None = None,
    check: bool = True,
) -> int:
    """Image of the 0-framed longitude of closure component t.

    One pass over the letters collects, for every bottom position s, the
    labels of the over-strands (to the sign of the letter) that the strand
    entering at s passes under.  Composing these along the component's
    cycle gives the blackboard-framed longitude, which is then corrected by
    the component's self-writhe.
    """
    a = tuple(a)
    if check and artin_action(beta, a, G) != a:
        raise NotAFixedPoint(f"{a} is not fixed by the braid action")
    if comp is None:
        comp = components(beta)
    hol = _holonomies(beta.letters, list(a), G)
    acc = _cycle_product([hol], comp.cycles[t], G.table, G.id)
    meridian = a[comp.basepoints[t]]
    return G.table[acc][G.power(meridian, -comp.self_writhe[t])]


def _candidate_sets(beta, G, comp, x_constraint):
    """Per-position candidate element lists, pruned by conjugacy when
    meridian images are prescribed."""
    m = beta.strands
    cands = [list(G.elements()) for _ in range(m)]
    if x_constraint is not None:
        if len(x_constraint) != comp.count:
            raise LengthMismatch(
                f"constraint length {len(x_constraint)} != component count {comp.count}"
            )
        for t, cyc in enumerate(comp.cycles):
            x = x_constraint[t]
            cls = list(G.classes[G.class_of[x]].members)
            for p in cyc:
                cands[p] = [x] if p == comp.basepoints[t] else cls
    return cands


def check_search_space(
    G: FiniteGroup, comp: ComponentData, x_constraint=None, allow_large=False
) -> None:
    """Raise SearchTooLarge when the unreduced candidate space of
    _candidate_sets exceeds SEARCH_CAP, unless allow_large."""
    if x_constraint is None:
        size = G.order ** sum(map(len, comp.cycles))
    else:
        size = 1
        for xt, cyc in zip(x_constraint, comp.cycles):
            size *= len(G.classes[G.class_of[xt]].members) ** (len(cyc) - 1)
    if size > SEARCH_CAP and not allow_large:
        raise SearchTooLarge(
            f"search space of {size} candidates exceeds cap {SEARCH_CAP}"
        )


def _reduced_candidates(beta, G, comp, x_constraint, allow_large=False):
    """The candidate sets with position p0 cut to one representative per
    H-orbit, p0 and the orbit transversals (see the module docstring)."""
    cands = _candidate_sets(beta, G, comp, x_constraint)
    check_search_space(G, comp, x_constraint, allow_large)
    if x_constraint is None:
        H = G.elements()
    else:
        H = set.intersection(*(set(G.centralizer(x)) for x in x_constraint))
    p0 = next((p for p, c in enumerate(cands) if len(c) > 1), 0)
    trans = G.orbits(cands[p0], H)
    cands[p0] = list(trans)
    return cands, p0, trans


def enumerate_homs(
    beta: BraidWord,
    G: FiniteGroup,
    x_constraint=None,
    allow_large: bool = False,
) -> list[HomRecord]:
    """All fixed tuples of the braid action, in lexicographic order, with
    meridian and longitude data.  x_constraint optionally prescribes the
    meridian image of each closure component.

    Only one representative per H-conjugacy orbit is scanned at the first
    position with more than one candidate (see the module docstring); each
    fixed tuple found is then conjugated by that orbit's transversal.  With
    H = G this divides the scan by about |G| / #classes.  SEARCH_CAP bounds
    the unreduced candidate space."""
    comp = components(beta)
    cands, p0, trans = _reduced_candidates(beta, G, comp, x_constraint, allow_large)

    letters, mul, inv = beta.letters, G.table, G.inv
    fixed = sorted(
        tuple([mul[mul[h][g]][inv[h]] for g in a])
        for a in itertools.product(*cands)
        if tuple(_act(letters, list(a), mul, inv)) == a
        for h in trans[a[p0]].values()
    )

    records = []
    for a in fixed:
        meridian = tuple(a[b] for b in comp.basepoints)
        longitude = tuple(
            longitude_image(beta, a, t, G, comp=comp, check=False)
            for t in range(comp.count)
        )
        records.append(HomRecord(a, meridian, longitude))
    return records


def count_homs(beta: BraidWord, G: FiniteGroup, **kw) -> int:
    return len(enumerate_homs(beta, G, **kw))


def periodic_scan(beta: BraidWord, G: FiniteGroup, x, p: int, k: int):
    """Boundary data of both closures in verify from one scan of beta's
    candidates at the meridian tuple x, for a prime p whose powers are
    coprime to every cycle length of beta.

    Write f for beta's action on tuples.  The action of beta^(p^k) is
    f^(p^k), its cycles have the member sets of beta's (so the candidate
    sets, p0 and the transversals are the same), and conjugation by H
    commutes with f.  So for each scanned representative a this walks the
    f-orbit a, f a, f^2 a, ... until it returns to a, after L steps, or
    until p^k steps have passed.  a is fixed by f^(p^k) exactly when L =
    p^j with j <= k, and by f exactly when L = 1.  Yields (weight, big,
    small) for each a fixed by f^(p^k): weight is the size of a's
    H-orbit, big the longitude images of the closure of beta^(p^k) at a,
    and small those of the closure of beta, or None when L > 1.

    The longitude of beta^(p^k) (see longitude_image) left-multiplies the
    holonomies of the strands of component t, of cycle c_t of length c,
    over the p^k copies of beta: copy i carries the labels f^i a and its
    strand leaves bottom position c_t[i mod c], so piece i is
    hol[f^(i mod L) a][c_t[i mod c]] for i < p^k c.  These pieces repeat
    with period L c, since L is a power of p and c is coprime to p.  So
    the product is P^(p^(k-j)), where P is the product of the first L c
    pieces, and the 0-framing subtracts p^k times the self-writhe w_t of
    the component: the longitude is P^(p^(k-j)) x_t^(-p^k w_t).  Both
    exponents are taken mod |G|, and p^k itself is never formed."""
    comp = components(beta)
    cands, p0, trans = _reduced_candidates(beta, G, comp, x)
    letters, mul, inv, order = beta.letters, G.table, G.inv, G.order
    # an f-orbit lies in G^m, so no walk needs more steps than |G|^m; for a
    # k with p^k > 2^k > |G|^m this bound also spares forming p^k
    span = order**beta.strands
    limit = span if k >= span.bit_length() else min(p**k, span)
    q = pow(p, k, order)
    frame = [G.power(xt, -w) for xt, w in zip(x, comp.self_writhe)]
    frame_big = [G.power(xt, -q * w) for xt, w in zip(x, comp.self_writhe)]
    for a in itertools.product(*cands):
        start, b = list(a), list(a)
        for L in range(1, limit + 1):
            if _act(letters, b, mul, inv) == start:
                break
        else:
            continue
        j, r = 0, L
        while r % p == 0:
            j, r = j + 1, r // p
        if r != 1:
            continue
        # b is back at a: L holonomy passes take it once around its orbit
        hols = [_holonomies(letters, b, G) for _ in range(L)]
        P = [_cycle_product(hols, cyc, mul, G.id) for cyc in comp.cycles]
        e = pow(p, k - j, order)
        big = tuple(mul[G.power(g, e)][f] for g, f in zip(P, frame_big))
        small = tuple(mul[g][f] for g, f in zip(P, frame)) if L == 1 else None
        yield len(trans[a[p0]]), big, small
