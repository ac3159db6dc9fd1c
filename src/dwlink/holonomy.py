"""Homomorphisms from a braid closure's link group to a finite group.

Homomorphisms pi_1(beta^) -> G correspond to m-tuples of G fixed by the
braid action on G^m.  A tuple labels the meridians at the bottom of the
braid; the generator for letter +i sends (a, b) at the two crossing
positions to (a b a^-1, a), its inverse sends (a, b) to (b, b^-1 a b).
That action is written once, in _act; artin_action and the
strand-holonomy pass _holonomies (behind longitude_image and
periodic_scan) move labels with it.  The fixed-point scan _scan walks
through each braid's orbit walker, BraidWord.orbit: _act's two moves
compiled, once per braid, into one straight-line function of the letters
(_compile_orbit), which walks a tuple 2.0 to 2.3 times as fast.  Since
compiling costs time and memory in proportion to the word, a scan whose
counted walks make fewer than _COMPILE_PASSES passes of the word walks
with _act (_walk), and so does any word whose strands and letters number
more than _WALKER_CAP = 1000.  _act stays the reference the walker is
tested against.  Per-component meridian and longitude images are derived
from a fixed tuple.

The scan is reduced by conjugation, which commutes with the braid action,
since _act only forms group words, along a stabilizer chain (Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  It places
the basepoints first, then the other positions in order, each over the
class of its cycle's basepoint entry, since the entries of a fixed tuple
along a cycle are conjugate.  S, the elements fixing the entries placed so
far, starts as G.  Each prescribed meridian is a branch of its own and cuts
S to its centralizer; elsewhere S splits the pool into orbits (G.orbits,
closing each under a generating set of S, found once per distinct S), and
the smallest member r of each is placed, with a transversal T of
S / Cen_S(r), and S cut to Cen_S(r).  So every fixed tuple is g a g^-1,
g = h_0 h_1 ..., for exactly one fixed tuple a of representatives, with
its prescribed meridians, and one h_i in each level's T_i: a stands for
|T_0| |T_1| ... of them.  Once S is central, or every position placed,
the rest is one product.  _scan walks each a's braid orbit a bounded number
of steps: enumerate_homs takes the a back after one and expands them over
their transversals, count_fixed_tuples (`homs --count`) sums their weights,
dw.dw_table groups the expanded records of a whole sweep by meridian tuple,
and periodic_scan takes them back after p^j steps for congruence.verify.

The one search cap, SEARCH_CAP, bounds letter-steps.  Before any walk,
_scan counts the tuples it will walk along the same chain (_Chain.walks):
it forms the prefixes down to the first central S and takes the product
below each in closed form.  Each tuple is charged max(1, letters) x the
passes its walk can make: the step limit, or the size of the product of
the classes its orbit stays in where that is smaller.  Each meridian tuple
of a sweep is charged a fixed _TUPLE_CHARGE more; a scan charged more than
the cap raises SearchTooLarge, unless allow_large.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter, namedtuple

from .braids import BraidWord, ComponentData
from .errors import LengthMismatch, NotAFixedPoint, SearchTooLarge
from .groups import FiniteGroup

# The letter-steps a scan may be charged (_counted_walks).  A letter-step
# of the compiled walker, the cost of each tuple included, took 50 ns on a
# 80-letter word over S5 and 100-170 ns on words of 6 and 3 letters over S6
# (Python 3.11, one core of a Xeon sandbox), so the cap is 1-3 minutes of
# walking.
SEARCH_CAP = 10**9
# The charge per meridian tuple of a sweep, in letter-steps: verify "16:"
# and "18:" over Z2, 2^16 and 2^18 tuples of one letterless walk each,
# spend about 35 us on each (2.2 and 9.2 s), 350-700 letter-steps.
_TUPLE_CHARGE = 500


def _act(steps, labels, mul, inv):
    """Move the labels in the list labels up through steps, a braid's
    BraidWord.steps, in place, and return the list.

    The interpreted kernel: artin_action and _holonomies move labels with
    it, and so does _scan for a word whose strands and letters number more
    than _WALKER_CAP, or whose counted walks make fewer than
    _COMPILE_PASSES passes.  Otherwise _scan walks through the compiled
    walker of _compile_orbit, whose two moves are _POSITIVE and _NEGATIVE,
    and the tests check that walker against this kernel."""
    for i, j, positive in steps:
        x, y = labels[i], labels[j]
        if positive:
            labels[i], labels[j] = mul[mul[x][y]][inv[x]], x
        else:
            labels[i], labels[j] = y, mul[mul[inv[y]][x]][y]
    return labels


# _act's two moves as source lines, on the labels x0, x1, ... with the
# table m and the inverses v
_POSITIVE = "x{i}, x{j} = m[m[x{i}][x{j}]][v[x{i}]], x{i}"
_NEGATIVE = "x{i}, x{j} = x{j}, m[m[v[x{j}]][x{i}]][x{j}]"

# Compiling costs about 37 us and, while it runs, 9 KB per letter, so a
# word of 1,000 strands and letters takes about 37 ms and 9 MB, and the
# cost grows in proportion.  A compiled pass saves about 0.12 us per
# letter, so a word pays for its compile after about 37 / 0.12 passes:
# _scan compiles once its counted walks make _COMPILE_PASSES passes.
_WALKER_CAP = 1000
_COMPILE_PASSES = 300


def orbit_walker(steps, strands: int):
    """The orbit walker of a braid on strands strands with steps, its
    BraidWord.steps: orbit(a, mul, inv, limit) walks the tuple a through
    the braid's action f up to limit times and returns the first L <= limit
    with f^L a = a, or 0.  Compiled by _compile_orbit when strands and
    steps number at most _WALKER_CAP, else _walk over _act."""
    if strands + len(steps) > _WALKER_CAP:
        return functools.partial(_walk, steps)
    return _compile_orbit(steps, strands)


def _walk(steps, a, mul, inv, limit):
    """The interpreted orbit walker (see orbit_walker)."""
    b = _act(steps, list(a), mul, inv)
    L = 1
    while L < limit and tuple(b) != a:
        _act(steps, b, mul, inv)
        L += 1
    return L if tuple(b) == a else 0


def _compile_orbit(steps, strands: int):
    """The orbit walker of orbit_walker as one generated function: it
    unpacks a into locals, applies every letter as one straight-line
    assignment (_POSITIVE or _NEGATIVE), and compares with a after each
    pass.

    The source handed to exec is built from the templates and from
    integers only: strands and the positions in steps, each passed through
    operator.index, so no text from outside reaches exec."""
    xs = ", ".join(f"x{s}" for s in range(strands))
    a_s = ", ".join(f"a{s}" for s in range(strands))
    back = " and ".join(f"x{s} == a{s}" for s in range(strands))
    source = "\n".join([
        "def orbit(a, m, v, limit):",
        f"    {xs}, = {a_s}, = a",
        "    for L in range(1, limit + 1):",
        *(
            "        " + (_POSITIVE if positive else _NEGATIVE).format(
                i=operator.index(i), j=operator.index(j)
            )
            for i, j, positive in steps
        ),
        f"        if {back}:",
        "            return L",
        "    return 0",
    ])
    namespace = {}
    exec(source, namespace)
    return namespace["orbit"]


def artin_action(beta: BraidWord, a, G: FiniteGroup) -> tuple[int, ...]:
    """Propagate bottom labels through the braid; returns the top labels."""
    if len(a) != beta.strands:
        raise LengthMismatch(
            f"tuple length {len(a)} != strand count {beta.strands}"
        )
    return tuple(_act(beta.steps, list(a), G.table, G.inv))


class HomRecord(namedtuple("HomRecord", "tuple meridian longitude")):
    """A braid-action fixed tuple with its per-component boundary data."""

    __slots__ = ()


def _holonomies(steps, labels, G: FiniteGroup) -> list[int]:
    """Move the labels in the list labels up through steps, a braid's
    BraidWord.steps, in place, as _act does, and return the strand
    holonomies: hol[s] is the product of the labels of the over-strands (to
    the sign of the letter) that the strand entering at bottom position s
    passes under."""
    mul, inv = G.table, G.inv
    hol = [G.id] * len(labels)
    at = list(range(len(labels)))  # at[p] = bottom position of the strand at p
    for step in steps:
        i, j, positive = step
        # with mul(a, b) meaning "b first", traversal order puts new
        # contributions on the left
        if positive:
            # strand at position i passes over
            s = at[j]
            hol[s] = mul[labels[i]][hol[s]]
        else:
            # strand at position i+1 passes over
            s = at[i]
            hol[s] = mul[inv[labels[j]]][hol[s]]
        at[i], at[j] = at[j], at[i]
        _act((step,), labels, mul, inv)
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
    beta: BraidWord, a, t: int, G: FiniteGroup, check: bool = True
) -> int:
    """Image of the 0-framed longitude of closure component t.

    One pass over the letters collects, for every bottom position s, the
    labels of the over-strands (to the sign of the letter) that the strand
    entering at s passes under.  Composing these along the component's
    cycle gives the blackboard-framed longitude, which is then corrected by
    the component's self-writhe, both read from beta.components.
    """
    a = tuple(a)
    if check and artin_action(beta, a, G) != a:
        raise NotAFixedPoint(f"{a} is not fixed by the braid action")
    comp = beta.components
    hol = _holonomies(beta.steps, list(a), G)
    acc = _cycle_product([hol], comp.cycles[t], G.table, G.id)
    meridian = a[comp.basepoints[t]]
    return G.table[acc][G.power(meridian, -comp.self_writhe[t])]


def _x_pool(G: FiniteGroup, scope: str):
    if scope == "all":
        return G.elements()
    if scope == "representatives":
        return [c.representative for c in G.classes]
    raise ValueError(f"unknown x scope {scope!r}")


def _one_member_pools(comp: ComponentData, x_constraint):
    """One one-member pool per component for the prescribed meridians, or
    None when none are prescribed."""
    if x_constraint is None:
        return None
    if len(x_constraint) != comp.count:
        raise LengthMismatch(
            f"constraint length {len(x_constraint)} != component count {comp.count}"
        )
    return [(xt,) for xt in x_constraint]


class _Chain:
    """_scan's stabilizer chain (see the module docstring) over the meridian
    tuples in the product of pools, one pool per component, or over all of
    them for None.  Slot i holds position order[i], of component owner[i]:
    the basepoints come first, then the other positions in order."""

    def __init__(self, beta: BraidWord, G: FiniteGroup, pools):
        comp = beta.components
        self.G, self.n, self.m = G, comp.count, beta.strands
        self.lengths = [len(cyc) for cyc in comp.cycles]
        self.prescribed = pools is not None
        self.pools = pools if self.prescribed else [G.elements()] * self.n
        rest = sorted((p, t) for t, cyc in enumerate(comp.cycles) for p in cyc[1:])
        self.order = [*comp.basepoints, *(p for p, _ in rest)]
        self.owner = [*range(self.n), *(t for _, t in rest)]
        self.central = {cl.representative for cl in G.classes if len(cl.members) == 1}
        # one generating set per stabilizer, one split per pool and stabilizer,
        # shared by the count and the walk
        generators = functools.cache(G.generators_of)
        self.split = functools.cache(lambda P, S: G.orbits(P, generators(S)))

    def pool(self, i, a):
        """The candidates of slot i after the prefix a: a basepoint runs over
        its pool, any other position over the class of its basepoint entry."""
        if i < self.n:
            return self.pools[i]
        G = self.G
        return G.classes[G.class_of[a[self.owner[i]]]].members

    def prefixes(self):
        """Yields (a, transversals) for each prefix a after which the rest
        is one product, with one transversal per level of a: every slot is
        placed, or a's stabilizer S is central, so that each completion of
        a is an S-orbit of its own."""
        G, n, m, pool = self.G, self.n, self.m, self.pool
        central, split = self.central, self.split

        def cut(S, r, i):  # no position after the last needs a stabilizer
            return S if i == m - 1 or r in central else G.centralizer_in(S, r)

        def chain(a, S, transversals):
            i = len(a)
            # a lone candidate forms no level: S fixes it, or it is a meridian
            # and cuts S to its stabilizer
            while i < m and len(P := pool(i, a)) == 1:
                if i < n:
                    S = cut(S, P[0], i)
                a, i = a + tuple(P), i + 1
            if i == m or central.issuperset(S):
                yield a, transversals
            elif i < n and self.prescribed:
                for r in P:
                    yield from chain(a + (r,), cut(S, r, i), transversals)
            else:
                for r, t in split(P, S).items():
                    yield from chain(a + (r,), cut(S, r, i), transversals + (t,))

        return chain((), G.elements(), ())

    def walks(self, stop: int):
        """(w, exact): w the number of tuples _scan walks over this chain,
        counted from its prefixes without a walk, and exact True; or, once
        the count passes stop with prefixes left, w a lower bound over stop
        and exact False.

        Every completion of a prefix a of i slots is walked: each slot j >= n
        of a placed component over the class of its basepoint entry, and
        each later component t over sum_{g in its pool} |class(g)|^(|c_t|-1)
        completions.  The product of those sums over all components, divided
        by |G|, bounds w below before the chain is entered, since a
        conjugation orbit has at most |G| members: so a count far over stop
        ends at once, and a count that goes on has at most about
        log2(stop |G|) levels that are not lone candidates.  Over an abelian
        group the chain has one prefix, whose count is that product."""
        G, n, m, owner = self.G, self.n, self.m, self.owner
        classes, class_of = G.classes, G.class_of
        # one sum per distinct pool and cycle length, and one power per
        # distinct sum: multiplying n sums one at a time is quadratic in n
        # once the product is large
        keys = [*zip(map(id, self.pools), self.lengths)]
        pool_of = dict(zip(map(id, self.pools), self.pools))
        sums = {
            (p, c): sum(len(classes[class_of[g]].members) ** (c - 1) for g in pool_of[p])
            for p, c in set(keys)
        }
        factors = [*map(sums.__getitem__, keys)]
        whole = math.prod(s**e for s, e in Counter(factors).items())
        if len(self.central) == G.order:  # every completion of () is walked
            return whole, True
        bound = -(-whole // G.order)
        if bound > stop:
            return bound, False
        # tail[i], the completions of the components from i on
        tail = [*itertools.accumulate(reversed(factors), operator.mul, initial=1)][::-1]
        total, prefixes = 0, self.prefixes()
        for a, _ in prefixes:
            i = len(a)
            size = tail[min(i, n)]
            for j in range(max(i, n), m):
                if owner[j] < i:
                    size *= len(classes[class_of[a[owner[j]]]].members)
            total += size
            if total > stop:
                return total, next(prefixes, None) is None
        return total, True


def _counted_walks(beta: BraidWord, chain: _Chain, passes: int, allow_large: bool):
    """The tuples that _scan walks over chain, of at most passes passes of
    the word each, counted before any walk (_Chain.walks) until they make
    _COMPILE_PASSES passes or more, and checked against the cap unless
    allow_large: raise SearchTooLarge when they are charged more than
    SEARCH_CAP letter-steps, max(1, letters) x passes per tuple walked and
    _TUPLE_CHARGE more per meridian tuple of a sweep.  The message names the
    charge: "at least" a lower bound where the count ended early, and a power
    of 2 that the charge reaches where it has more decimal digits than Python
    prints."""
    stop = -(-_COMPILE_PASSES // passes) - 1
    if allow_large:
        return chain.walks(stop)[0]
    per_walk = max(1, len(beta.letters)) * passes
    fee = 0
    if chain.prescribed:
        sizes = Counter(map(len, chain.pools))
        fee = _TUPLE_CHARGE * math.prod(s**e for s, e in sizes.items())
    walks, exact = chain.walks(max(stop, (SEARCH_CAP - fee) // per_walk))
    charge = walks * per_walk + fee
    if charge <= SEARCH_CAP:
        return walks
    try:
        shown = str(charge) if exact else f"at least {charge}"
    except ValueError:  # more decimal digits than Python will print
        shown = f"at least 2^{charge.bit_length() - 1}"
    raise SearchTooLarge(f"search of {shown} letter-steps exceeds cap {SEARCH_CAP}")


def _scan(beta, G, pools, limit, allow_large=False):
    """The one scan of the chain's representatives (see the module
    docstring and _Chain) over the meridian tuples in the product of pools,
    one pool per component, or over all of them for None: walk each
    representative a's orbit under beta's action for at most limit steps.
    Yields (x, a, L, transversals), x a's meridians, the a of one x one
    after another, for every a back at itself after L <= limit steps: one
    transversal per level, mapping each member c of the orbit of a's entry
    there to the h in that level's stabilizer that conjugates the entry to
    c.  Before any walk the walks are counted and charged against the cap
    (_counted_walks), each for the passes it can make: limit, or fewer
    where the classes of G are small; they run through the compiled orbit
    walker, beta.orbit, if they make _COMPILE_PASSES passes of the word,
    else through _walk."""
    chain = _Chain(beta, G, pools)
    n, m, pool, pools = chain.n, chain.m, chain.pool, chain.pools
    mul, inv = G.table, G.inv
    # each letter conjugates an entry, so a's orbit stays in the product of
    # its entries' classes, and a walk makes at most that many passes
    top = max(len(cl.members) for cl in G.classes)
    passes = min(limit, top ** min(m, limit.bit_length()))
    if _counted_walks(beta, chain, passes, allow_large) * passes >= _COMPILE_PASSES:
        orbit = beta.orbit
    else:
        orbit = functools.partial(_walk, beta.steps)
    reorder = None
    if chain.order != sorted(chain.order):
        reorder = operator.itemgetter(*sorted(range(m), key=chain.order.__getitem__))
    for a, transversals in chain.prefixes():
        # the basepoints that a leaves open run over their pools
        for x in itertools.product(*pools[len(a):n]):
            ax = a + x
            for b in itertools.product(*(pool(i, ax) for i in range(len(ax), m))):
                b = ax + b if reorder is None else reorder(ax + b)
                L = orbit(b, mul, inv, limit)
                if L:
                    yield ax[:n], b, L, transversals


def homs_by_meridians(beta: BraidWord, G: FiniteGroup, pools, allow_large: bool = False):
    """Yields (x, records) for the meridians x of each run of _scan's hits
    over pools: the records of every fixed tuple that those hits stand for,
    each hit a conjugated by h_0 h_1 ... for every choice of one h_i in each
    of its transversals (see the module docstring), in no order.  With
    pools given, these are the records with meridians x, each x of the
    product of pools with a fixed tuple once, as dw.dw_table needs them."""
    comp = beta.components
    mul, inv = G.table, G.inv
    scan = _scan(beta, G, pools, 1, allow_large)
    for x, hits in itertools.groupby(scan, key=operator.itemgetter(0)):
        records = []
        for _, a, _, transversals in hits:
            for hs in itertools.product(*map(dict.values, transversals)):
                g = functools.reduce(lambda g, h: mul[g][h], hs, G.id)
                gi = inv[g]
                b = tuple([mul[mul[g][c]][gi] for c in a])
                longitude = tuple(
                    longitude_image(beta, b, t, G, check=False)
                    for t in range(comp.count)
                )
                meridian = tuple(b[p] for p in comp.basepoints)
                records.append(HomRecord(b, meridian, longitude))
        yield x, records


def enumerate_homs(
    beta: BraidWord,
    G: FiniteGroup,
    x_constraint=None,
    allow_large: bool = False,
) -> list[HomRecord]:
    """All fixed tuples of the braid action, in lexicographic order, with
    meridian and longitude data.  x_constraint optionally prescribes the
    meridian image of each closure component.

    Only one representative per orbit of the stabilizer chain is scanned
    (see the module docstring); each fixed tuple found is then conjugated by
    h_0 h_1 ... for every choice of one h_i in each of its transversals, and
    the results are sorted.  SEARCH_CAP bounds the letter-steps the scan is
    charged (see _counted_walks)."""
    pools = _one_member_pools(beta.components, x_constraint)
    by_x = homs_by_meridians(beta, G, pools, allow_large)
    return sorted(r for _, records in by_x for r in records)


def count_homs(beta: BraidWord, G: FiniteGroup, **kw) -> int:
    """The number of records enumerate_homs builds: the per-record
    reference for count_fixed_tuples."""
    return len(enumerate_homs(beta, G, **kw))


def count_fixed_tuples(
    beta: BraidWord,
    G: FiniteGroup,
    x_constraint=None,
    allow_large: bool = False,
) -> int:
    """The number of fixed tuples of the braid action, as count_homs, with
    no record built: each scanned representative stands for |T_0| |T_1| ...
    of them (see the module docstring)."""
    pools = _one_member_pools(beta.components, x_constraint)
    scan = _scan(beta, G, pools, 1, allow_large)
    return sum(math.prod(map(len, transversals)) for *_, transversals in scan)


def periodic_scan(beta: BraidWord, G: FiniteGroup, pools, p: int, k: int):
    """Boundary data of both closures in verify from one scan of beta's
    candidates over the meridian tuples in the product of pools (see
    _scan), for a prime p whose powers are coprime to every cycle length
    of beta.

    Write f for beta's action on tuples.  The action of beta^(p^k) is
    f^(p^k), its cycles have the member sets of beta's (so the candidate
    sets, the chain and its transversals are the same), and conjugation by
    the chain's stabilizers commutes with f.  So for each scanned
    representative a this walks the f-orbit a, f a, f^2 a, ... until it
    returns to a, after L steps, or until p^k steps have passed.  a is
    fixed by f^(p^k) exactly when L = p^j with j <= k, and by f exactly
    when L = 1.  Yields (x, weight, big, small) for each a fixed by
    f^(p^k), x its meridians (framed once per x): weight is |T_0| |T_1|
    ..., the number of fixed tuples a stands for, big the longitude images
    of the closure of beta^(p^k) at a, and small those of the closure of
    beta, or None when L > 1.

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
    comp = beta.components
    mul, order = G.table, G.order
    # an f-orbit lies in G^m, so every walk returns within |G|^m < 2^b <= p^b
    # steps, b the bit length of |G|^m: capping k at b spares forming p^k
    limit = p ** min(k, (order**beta.strands).bit_length())
    q = pow(p, k, order)
    x = None
    for meridians, a, L, transversals in _scan(beta, G, pools, limit):
        j, r = 0, L
        while r % p == 0:
            j, r = j + 1, r // p
        if r != 1:
            continue
        if meridians != x:
            x = meridians
            frame = [G.power(xt, -w) for xt, w in zip(x, comp.self_writhe)]
            frame_big = [G.power(xt, -q * w) for xt, w in zip(x, comp.self_writhe)]
        # L holonomy passes take b once around the orbit of a
        b = list(a)
        hols = [_holonomies(beta.steps, b, G) for _ in range(L)]
        P = [_cycle_product(hols, cyc, mul, G.id) for cyc in comp.cycles]
        e = pow(p, k - j, order)
        big = tuple(mul[G.power(g, e)][f] for g, f in zip(P, frame_big))
        small = tuple(mul[g][f] for g, f in zip(P, frame)) if L == 1 else None
        yield x, math.prod(map(len, transversals)), big, small
