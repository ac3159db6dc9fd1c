"""Braid words, their permutations, and closure component bookkeeping.

Positions are 0-based internally (bottom positions 0..m-1); letters keep the
usual signed-generator convention, +i for the i-th Artin generator acting on
positions i-1 and i.  Letters are read bottom to top.  Letter +i is the
positive crossing in which the strand entering at the lower position passes
over its neighbour; strands are oriented upward.
"""

from __future__ import annotations

from functools import cached_property

from .errors import BadBraid, StrandMismatch
from .records import Frozen


class BraidWord(Frozen):
    # int, tuple[int, ...]; __dict__ holds steps, orbit and components
    # once read
    __slots__ = ("strands", "letters", "__dict__")

    def __init__(self, strands: int, letters):
        if strands < 1:
            raise BadBraid("strand count must be at least 1")
        letters = tuple(letters)
        for l in letters:
            if l == 0 or not (1 <= abs(l) <= strands - 1):
                raise BadBraid(f"letter {l} out of range for {strands} strands")
        super().__init__(strands, letters)

    def __str__(self):
        return f"{self.strands}: " + " ".join(str(l) for l in self.letters)

    @cached_property
    def steps(self) -> tuple[tuple[int, int, bool], ...]:
        """The letters as (i, i + 1, positive) steps on 0-based positions,
        built on first read: the form the Artin action walks."""
        return tuple((abs(l) - 1, abs(l), l > 0) for l in self.letters)

    @cached_property
    def orbit(self):
        """The braid's action as holonomy.orbit_walker, built on first
        read: orbit(a, mul, inv, limit) is the first L <= limit at which
        the action brings the tuple a back to itself, or 0."""
        from .holonomy import orbit_walker  # holonomy imports this module

        return orbit_walker(self.steps, self.strands)

    @cached_property
    def components(self) -> ComponentData:
        """The closure's ComponentData, built on first read."""
        m = self.strands
        perm = permutation(self)
        cycles = cycles_of(perm)
        n = len(cycles)
        comp_of = [0] * m
        for t, cyc in enumerate(cycles):
            for j in cyc:
                comp_of[j] = t

        self_writhe = [0] * n
        crossings = {}
        strand_at = list(range(m))  # strand_at[p] = bottom strand now at position p
        for l in self.letters:
            i = abs(l) - 1
            sign = 1 if l > 0 else -1
            ca = comp_of[strand_at[i]]
            cb = comp_of[strand_at[i + 1]]
            if ca == cb:
                self_writhe[ca] += sign
            else:
                pair = (min(ca, cb), max(ca, cb))
                crossings[pair] = crossings.get(pair, 0) + sign
            strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]

        return ComponentData(
            n,  # count
            cycles,
            tuple(c[0] for c in cycles),  # basepoints
            tuple(self_writhe),
            tuple(sorted(crossings.items())),  # crossings
        )


def parse_braid(text: str) -> BraidWord:
    """Parse '<m>: l1 l2 ... lk' (empty letter list permitted)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise BadBraid(f"missing ':' in braid {text!r}")
    try:
        m = int(head.strip())
        letters = tuple(int(tok) for tok in tail.split())
    except ValueError:
        raise BadBraid(f"cannot parse braid {text!r}") from None
    return BraidWord(m, letters)


def permutation(beta: BraidWord) -> tuple[int, ...]:
    """perm[i] = top position of the strand entering at bottom position i."""
    strand_at = list(range(beta.strands))  # strand_at[p] = bottom strand at p
    for l in beta.letters:
        i = abs(l) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    perm = [0] * beta.strands
    for p, j in enumerate(strand_at):
        perm[j] = p
    return tuple(perm)


def compose(beta2: BraidWord, beta1: BraidWord) -> BraidWord:
    """beta2 after beta1: letters of beta1 followed by letters of beta2."""
    if beta2.strands != beta1.strands:
        raise StrandMismatch(
            f"cannot compose braids on {beta2.strands} and {beta1.strands} strands"
        )
    return BraidWord(beta1.strands, beta1.letters + beta2.letters)


def braid_power(beta: BraidWord, n: int) -> BraidWord:
    if n < 1:
        raise BadBraid("braid power requires n >= 1")
    return BraidWord(beta.strands, beta.letters * n)


class ComponentData(Frozen):
    """Cycle decomposition of the closure with writhe/linking bookkeeping.

    cycles[t] lists the bottom positions of component t, starting at the
    minimal one; components are sorted by that basepoint.  self_writhe[t] is
    the signed count of crossings of component t with itself; crossings
    lists ((t, s), total) for each pair t < s of components that cross,
    with the signed count of their crossings, in order.  linking[t][s] is
    half that count (0 for a pair that does not cross), built on first
    read.
    """

    # __dict__ holds linking once read
    __slots__ = (
        "count", "cycles", "basepoints", "self_writhe", "crossings", "__dict__"
    )

    @cached_property
    def linking(self) -> tuple[tuple[int, ...], ...]:
        linking = [[0] * self.count for _ in range(self.count)]
        for (t, s), total in self.crossings:
            # signed inter-component crossings always pair up in a closed braid
            assert total % 2 == 0, (self, t, s, total)
            linking[t][s] = linking[s][t] = total // 2
        return tuple(tuple(row) for row in linking)


def cycles_of(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a 0-based permutation, fixed points included, each
    starting at its smallest point, ordered by that point."""
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def components(beta: BraidWord) -> ComponentData:
    return beta.components
