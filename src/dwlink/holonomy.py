"""Homomorphisms from a braid closure's link group to a finite group.

Homomorphisms pi_1(beta^) -> G correspond to m-tuples of G fixed by the
braid action on G^m.  A tuple labels the meridians at the bottom of the
braid; the generator for letter +i sends (a, b) at the two crossing
positions to (a b a^-1, a), its inverse sends (a, b) to (b, b^-1 a b).
That action is written once, in _act; the fixed-point scan, artin_action
and longitude_image all move labels with it.  Per-component meridian and
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
the result is exact, with no duplicates to remove.
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
    mul, inv = G.table, G.inv

    labels = list(a)
    hol = [G.id] * beta.strands
    at = list(range(beta.strands))  # at[p] = bottom position of the strand at p
    for l in beta.letters:
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

    # the closure arcs join the strands in the order of the cycle
    acc = G.id
    for p in comp.cycles[t]:
        acc = mul[hol[p]][acc]
    meridian = a[comp.basepoints[t]]
    return mul[acc][G.power(meridian, -comp.self_writhe[t])]


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
    cands = _candidate_sets(beta, G, comp, x_constraint)

    size = 1
    for c in cands:
        size *= len(c)
    if size > SEARCH_CAP and not allow_large:
        raise SearchTooLarge(
            f"search space of {size} candidates exceeds cap {SEARCH_CAP}"
        )

    if x_constraint is None:
        H = G.elements()
    else:
        # the keys of cen_class_reps(x) are Cen(x); the callers that
        # prescribe x look up its classes there anyway
        H = set.intersection(*(set(G.cen_class_reps(x)) for x in x_constraint))
    p0 = next((p for p, c in enumerate(cands) if len(c) > 1), 0)
    trans = G.orbits(cands[p0], H)
    cands[p0] = list(trans)

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
