"""Finite groups as fully materialized Cayley tables.

Elements are dense indices 0..order-1.  A table gets in one of two ways.
A table passed in whole, as a file: spec's is (from_cayley_table), keeps its
order and is checked whole: n rows of n exact ints in 0..n-1 that form a
Latin square and pass Light's associativity test, which is exact, so it is a
group; its identity is read off row 0.  Every built-in group (cyclic,
dihedral, quaternion, symmetric and perm:) is gathered from its generator
rows alone (FiniteGroup._gathered): index 0 is the identity, every further
row is found breadth-first as a found row gathered at a generator's row,
and only the generator rows are checked.  No other pass reads all n^2
entries: the inverses follow the breadth-first tree of G's generators
(FiniteGroup.generators: the gathered ones, or those Light's test checked),
and every split into conjugation orbits is one routine, FiniteGroup.orbits,
which closes each orbit under a subgroup's generators in O(n |gens|): G's
classes at construction; every other centralizer's, through a greedy
generating set, once, on first use, as a table from each member to its
class representative (FiniteGroup.cen_class_reps), shared by every x with
that Cen(x), which is scanned from the table when asked for, a central x
getting G's with no scan; and each level of the scan's stabilizer chain,
which cuts stabilizers by FiniteGroup.centralizer_in.  The counting and
congruence loops look classes up in the tables.  A permutation group's
names are formatted when read (FiniteGroup.element_name).
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from itertools import compress
from operator import eq, itemgetter

from .braids import cycles_of
from .errors import (
    BadPermutation,
    BadShape,
    GroupTooLarge,
    InputError,
    NotAGroup,
    NotInSubgroup,
)

ORDER_CAP = 10000


def _check_rows(rows, n: int):
    """Refuse, with BadShape naming its first offending entry, the first of
    the rows that is not n exact ints in 0..n-1."""
    in_range = frozenset(range(n))
    for row in rows:
        if len(row) != n:
            raise BadShape("multiplication table is not square")
        # exact type: rejects floats such as 0.0 and bools
        if set(map(type, row)) != {int}:
            v = next(v for v in row if type(v) is not int)
            raise BadShape(f"table entry {v!r} is not an integer")
        if not in_range.issuperset(row):
            lo = min(row)
            v = lo if lo < 0 else max(row)
            raise BadShape(f"table entry {v} out of range for order {n}")


def _name_of(names, n: int):
    """The function from an index to its name: str for None, else a lookup
    in the n names, which must be an array of JSON strings and numbers,
    distinct as strings."""
    if names is None:
        return str
    # exact types: JSON strings and numbers, not booleans or objects
    is_array = isinstance(names, (list, tuple))
    if not is_array or not set(map(type, names)) <= {str, int, float}:
        raise BadShape("names is not an array of strings or numbers")
    names = tuple(str(x) for x in names)
    if len(names) != n:
        raise BadShape("names length does not match order")
    if len(set(names)) != n:
        raise BadShape("element names are not distinct")
    return names.__getitem__


def _generators(mul, members, e) -> tuple[int, ...]:
    """A generating set of the subgroup with the ascending members: each
    generator is the smallest member outside the subgroup K that those
    before it generate, so there are at most log2 |members|.  K then grows
    by the cosets t K that the generators reach from K (Dimino's method)."""
    gens, reached = [], {e}
    for g in members:
        if g in reached:
            continue
        gens.append(g)
        K, reps = list(reached), [e]
        for r in reps:
            for s in gens:
                t = mul[s][r]
                if t not in reached:
                    row = mul[t]
                    reached.update([row[k] for k in K])
                    reps.append(t)
    return tuple(gens)


def _inverses(mul, e, gens) -> tuple[int, ...]:
    """The inverses in the group generated by gens, along the breadth-first
    tree of right multiplication by gens from e: if q = pi g, then
    q^-1 = g^-1 pi^-1.  Only the generators' inverses are looked up."""
    inv = [None] * len(mul)
    inv[e] = e
    steps = [(g, mul[mul[g].index(e)]) for g in gens]
    found = [e]
    # found is walked while it grows: a queue, so breadth-first
    for pi in found:
        row, pi_inv = mul[pi], inv[pi]
        for g, g_inv_row in steps:
            q = row[g]
            if inv[q] is None:
                inv[q] = g_inv_row[pi_inv]
                found.append(q)
    return tuple(inv)


def _validate(mul):
    """Refuse, with NotAGroup, a table of n rows of n exact ints in 0..n-1
    that is not an associative Latin square, hence not a group (Bruck, A
    Survey of Binary Systems, ch. I).  Return the generators that Light's
    test checked."""
    n = len(mul)
    full = set(range(n))
    for i, row in enumerate(mul):
        if set(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of the elements")
    for j, column in enumerate(zip(*mul)):
        if set(column) != full:
            raise NotAGroup(f"column {j} is not a permutation of the elements")
    if n == 1:  # [[0]]; itemgetter(i) would return a bare item
        return []
    # Light's test: the g with (x g) y = x (g y) for all x, y are closed
    # under multiplication, so checking a generating set is exact.  Each
    # generator is the smallest element not yet reached, where the
    # reached set is closed under right multiplication by the generators.
    # A generator is checked before it is used, so at most log2(n) + 2
    # are picked: the checked ones lie in a group and double that set.
    gens, reached = [], set()
    for g in range(n):
        if g in reached:
            continue
        at_gy = itemgetter(*mul[g])  # at_gy(row x) lists x (g y) over all y
        for x, row in enumerate(mul):
            xg_y, x_gy = mul[row[g]], at_gy(row)
            if xg_y != x_gy:
                y = list(map(eq, xg_y, x_gy)).index(False)
                raise NotAGroup(f"associativity fails at witness ({x}, {g}, {y})")
        gens.append(g)
        reached.add(g)
        todo = list(reached)
        while todo:
            row = mul[todo.pop()]
            new = {row[h] for h in gens} - reached
            reached |= new
            todo += new
    return gens


class ConjClass(namedtuple("ConjClass", "representative members")):
    """A conjugacy class inside an ambient set of elements (the whole group
    or a centralizer).  The representative is the smallest member index."""

    __slots__ = ()


class FiniteGroup:
    """Immutable finite group backed by an order x order multiplication table.

    A table passed in whole is always checked whole: its rows, its names,
    then Light's test.  A built-in group is gathered from its generator rows
    (_gathered).  Either way the inverses and G's classes are then found
    from the generators it keeps, never from a scan of the table."""

    def __init__(self, mul, names=None, name: str = "group"):
        try:
            mul = tuple(tuple(row) for row in mul)
        except TypeError:
            raise BadShape("multiplication table is not a list of rows") from None
        if not mul:
            raise BadShape("empty multiplication table")
        _check_rows(mul, len(mul))
        name_of = _name_of(names, len(mul))
        gens = _validate(mul)
        # in a group 0 e = 0 only for the identity e
        self._set_up(mul, mul[0].index(0), gens, name_of, name)

    @classmethod
    def _gathered(cls, gen_rows, n: int, names, name: str) -> FiniteGroup:
        """The group of order n generated by the elements whose rows are
        gen_rows, as each built-in constructor finds it.  Row 0 is the
        identity 0, 1, ..., n-1, and the other rows are found breadth-first
        from it.  The row r of a generator g has r[0] = g, as index 0 is the
        identity, so at a found row pi, q = (row pi)[g] is the index of pi g,
        and an unbuilt row q is row pi gathered at r.  Generator rows that
        reach fewer than n rows raise BadShape.  The caller vouches that it
        is a group, so Light's test is not run.  Each generator row gets the
        row check that __init__ runs on every row; a gathered row then holds
        only entries of a found row, so it is a row of n exact ints in
        0..n-1 too, with no scan.  names are checked as __init__ checks
        them, unless they come as a function from an index to its name,
        which formats a name when it is first read."""
        _check_rows(gen_rows, n)
        if not callable(names):
            names = _name_of(names, n)
        steps = [(row[0], itemgetter(*row)) for row in gen_rows]
        table = [None] * n
        table[0] = tuple(range(n))
        found = [0]
        # found is walked while it grows: a queue, so breadth-first
        for pi in found:
            row = table[pi]
            for g, at_row in steps:
                q = row[g]
                if table[q] is None:
                    table[q] = at_row(row)
                    found.append(q)
        if len(found) < n:
            raise BadShape(f"generator rows reach {len(found)} of {n} rows")
        G = object.__new__(cls)
        G._set_up(tuple(table), 0, [g for g, _ in steps], names, name)
        return G

    def _set_up(self, mul, e, gens, name_of, name):
        """The set-up that follows the checks, on a group's table of n rows
        of n exact ints in 0..n-1, its identity e, elements gens that
        generate it and the function from an index to its name: inverses
        and classes, both in O(n |gens|) from the generators it keeps."""
        n = len(mul)
        self.order = n
        self.table = mul
        self.name = name
        self.id = e
        self.inv = _inverses(mul, e, gens)
        self.generators = tuple(gens)
        orbits = self.orbits(range(n), gens).items()
        self.classes = tuple(ConjClass(r, tuple(sorted(o))) for r, o in orbits)
        self.class_of = [0] * n
        for ci, cl in enumerate(self.classes):
            for g in cl.members:
                self.class_of[g] = ci
        # formats a name on its first read
        self.element_name, self._names = functools.cache(name_of), None
        # x and Cen(x) -> cen_class_reps(x), filled on first use.  Declared here
        # rather than added to the instance later, which slows every attribute
        # lookup on the group (every enumeration and longitude reads several).
        self._cen_reps = {}

    @property
    def names(self) -> tuple[str, ...]:
        """Every element's name, in index order, built on first read."""
        if self._names is None:
            self._names = tuple(map(self.element_name.__wrapped__, range(self.order)))
            # read from here on, which frees the cache and what it holds
            self.element_name = self._names.__getitem__
        return self._names

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inv[g]]

    def power(self, g: int, n: int) -> int:
        """g^n by binary exponentiation; n may be zero or negative."""
        if n < 0:
            g, n = self.inv[g], -n
        acc = self.id
        while n:
            if n & 1:
                acc = self.table[acc][g]
            g = self.table[g][g]
            n >>= 1
        return acc

    def elements(self) -> range:
        return range(self.order)

    def element_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"no element named {name!r} in {self.name}") from None

    # -- conjugacy machinery -------------------------------------------------

    def orbits(self, members, gens) -> dict[int, dict[int, int]]:
        """Split the ascending list members, closed under conjugation by
        gens, into orbits under the subgroup S that gens generate.  Maps the
        smallest member r of each orbit to a dict sending each member c to
        an h in S with h r h^-1 = c, a transversal of S / Cen_S(r).  An
        orbit is r closed under conjugation by gens, and if h r h^-1 = c,
        then (s h) r (s h)^-1 = s c s^-1: two products per member and
        generator, no other entry read (Butler, LNCS 559)."""
        mul = self.table
        steps = [(mul[s], self.inv[s]) for s in gens]
        orbits, seen = {}, set()
        for r in members:
            if r not in seen:
                orbit, todo = {r: self.id}, [r]
                # todo is walked while it grows
                for c in todo:
                    h = orbit[c]
                    for s_row, s_inv in steps:
                        d = mul[s_row[c]][s_inv]
                        if d not in orbit:
                            orbit[d] = s_row[h]
                            todo.append(d)
                seen.update(orbit)
                orbits[r] = orbit
        return orbits

    def generators_of(self, S) -> tuple[int, ...]:
        """A generating set of the subgroup with the ascending members S:
        the group's own for S = G, else _generators' greedy set."""
        if len(S) == self.order:
            return self.generators
        return _generators(self.table, S, self.id)

    def centralizer_in(self, S, x: int) -> tuple[int, ...]:
        """The members of S that commute with x, for the scan's stabilizer
        chain: the keys of Cen(x)'s class table if S is G and it is built."""
        reps = self._cen_reps.get(x)
        if reps is not None and len(S) == self.order:
            return tuple(reps)
        row, mul = self.table[x], self.table
        return tuple([h for h in S if row[h] == mul[h][x]])

    def centralizer(self, x: int) -> tuple[int, ...]:
        """The members of Cen(x), ascending, scanned from the table on each
        call: g commutes with x where column x and row x agree."""
        column = map(itemgetter(x), self.table)
        return tuple(compress(range(self.order), map(eq, column, self.table[x])))

    def cen_class_reps(self, x: int) -> dict[int, int]:
        """Map every h in Cen(x) to the smallest member of its conjugacy
        class inside Cen(x).  Built on first use, and shared by every x with
        the same Cen(x), G's classes for a central x: the same dict, which
        callers must not modify."""
        reps = self._cen_reps.get(x)
        if reps is None:
            central = len(self.classes[self.class_of[x]].members) == 1
            members = self.elements() if central else self.centralizer(x)
            reps = self._cen_reps.get(members)
            if reps is None:
                gens = self.generators_of(members)
                classes = self.classes if central else self.orbits(members, gens).items()
                reps = self._cen_reps[members] = {c: r for r, cl in classes for c in cl}
            self._cen_reps[x] = reps
        return reps

    def class_in_subgroup(self, H: tuple[int, ...], h: int) -> ConjClass:
        """Orbit of h under conjugation by the members H of a subgroup only.
        The reference that cen_class_reps is tested against."""
        if h not in H:
            raise NotInSubgroup(f"element {h} is not in the subgroup")
        members = sorted({self.conj(g, h) for g in H})
        return ConjClass(members[0], tuple(members))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


# -- constructors -----------------------------------------------------------


def from_cayley_table(table, names=None, name: str = "table") -> FiniteGroup:
    return FiniteGroup(table, names=names, name=name)


def _cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    """Cycles in 1-based notation -> permutation as a 0-based image tuple."""
    perm = list(range(degree))
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise BadPermutation(f"repeated point in cycle {cyc}")
        for pt in cyc:
            if not (1 <= pt <= degree):
                raise BadPermutation(f"point {pt} out of range 1..{degree}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    if sorted(perm) != list(range(degree)):
        raise BadPermutation(f"cycles {cycles} do not define a permutation")
    return tuple(perm)


def _perm_name(perm: tuple[int, ...]) -> str:
    """Cycle-notation display string, identity shown as 'e'."""
    parts = [
        "(" + " ".join(str(x + 1) for x in cyc) + ")"
        for cyc in cycles_of(perm)
        if len(cyc) > 1
    ]
    return "".join(parts) or "e"


def from_permutation_generators(
    degree: int, generators, name: str = "perm"
) -> FiniteGroup:
    """Close the generators under composition (breadth-first) and build the
    Cayley table of the generated group.  Element 0 is the identity.  More
    than ORDER_CAP elements, or a degree above ORDER_CAP, raise
    GroupTooLarge; so the elements hold at most ORDER_CAP^2 points, as one
    table at the cap does."""
    if degree < 1:
        raise BadPermutation("degree must be positive")
    if degree > ORDER_CAP:
        raise GroupTooLarge(f"permutation degree {degree} exceeds cap of {ORDER_CAP}")
    gens = [_cycles_to_perm(degree, g) for g in generators]
    # each element carries its first image again at its end, so that
    # gathering by its points gives a tuple even at degree 1, where
    # itemgetter of one point returns a bare item: step(p) is
    # p∘g = (p[g[0]], p[g[1]], ...)
    ident = (*range(degree), 0)
    steps = [itemgetter(*g, g[0]) for g in gens]
    elems = [ident]
    index = {ident: 0}
    # elems is walked while it grows: a queue, so breadth-first
    for p in elems:
        for step in steps:
            q = step(p)
            if q not in index:
                if len(elems) >= ORDER_CAP:
                    raise GroupTooLarge(
                        f"generated group exceeds cap of {ORDER_CAP} elements"
                    )
                index[q] = len(elems)
                elems.append(q)
    # row g of a generator, b -> g∘b = (g[b[0]], g[b[1]], ...); the row of
    # p∘g is then row p gathered at row g, since (p∘g)∘b = p∘(g∘b)
    gen_rows = [tuple(index[itemgetter(*b)(g)] for b in elems) for g in gens]

    def name_of(g):
        return _perm_name(elems[g][:-1])

    return FiniteGroup._gathered(gen_rows, len(elems), name_of, name)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    if n > ORDER_CAP:
        raise GroupTooLarge(f"cyclic group order {n} exceeds cap of {ORDER_CAP}")
    # the row of the generator 1 is b -> 1 + b mod n
    return FiniteGroup._gathered([(*range(1, n), 0)], n, None, f"cyclic:{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^a and reflections r^a s."""
    if n < 1:
        raise InputError("dihedral parameter must be positive")
    order = 2 * n
    if order > ORDER_CAP:
        raise GroupTooLarge(
            f"dihedral group order {order} exceeds cap of {ORDER_CAP}"
        )
    # r^a s^b has index a + n b, and (r^a1 s^b1)(r^a2 s^b2) is
    # r^(a1 + (-1)^b1 a2) s^(b1 + b2): r takes r^a s^b to r^(a+1) s^b, and s
    # takes it to r^-a s^(1+b)
    r_row = tuple((a + 1) % n + n * b for b in (0, 1) for a in range(n))
    s_row = tuple(-a % n + n * (1 - b) for b in (0, 1) for a in range(n))
    names = [f"r{a}" if a else "e" for a in range(n)]
    names += [f"r{a}s" if a else "s" for a in range(n)]
    return FiniteGroup._gathered([r_row, s_row], order, names, f"dihedral:{n}")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("symmetric group degree must be positive")
    # refuse n! > ORDER_CAP before building any permutation of degree n
    order = 1
    for i in range(2, n + 1):
        order *= i
        if order > ORDER_CAP:
            raise GroupTooLarge(
                f"symmetric group of degree {n} exceeds cap of {ORDER_CAP} elements"
            )
    if n == 1:
        return from_permutation_generators(1, [], name="symmetric:1")
    gens = [[(1, 2)]]
    if n > 2:
        gens.append([tuple(range(1, n + 1))])
    return from_permutation_generators(n, gens, name=f"symmetric:{n}")


_QUAT_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def quaternion8() -> FiniteGroup:
    # the rows of -1, i and j over _QUAT_NAMES, by i^2 = j^2 = k^2 = ijk = -1
    gen_rows = [
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 1, 0, 6, 7, 5, 4),
        (4, 5, 7, 6, 1, 0, 2, 3),
    ]
    return FiniteGroup._gathered(gen_rows, 8, _QUAT_NAMES, "quaternion:8")


# -- group spec strings -----------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_CYCLES_RE = re.compile(r"(?:\s*\([^()]*\))*\s*")


def _parse_cycles(text: str):
    """Parse e.g. '(1 2)(3 4)' into [[1,2],[3,4]]; 'e' or '' is identity.
    Text left over around the cycles is an error."""
    text = text.strip()
    if text in ("", "e", "()"):
        return []
    if not _CYCLES_RE.fullmatch(text):
        raise BadPermutation(f"cannot parse cycles from {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        pts = [int(tok) for tok in body.replace(",", " ").split()]
        if pts:
            cycles.append(tuple(pts))
    return cycles


def from_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec string: cyclic:N, dihedral:N, symmetric:N,
    quaternion:8, perm:<degree>:<cycles;cycles;...>, or file:<path>."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        return cyclic(_parse_positive(rest, spec))
    if kind == "dihedral":
        return dihedral(_parse_positive(rest, spec))
    if kind == "symmetric":
        return symmetric(_parse_positive(rest, spec))
    if kind == "quaternion":
        if rest != "8":
            raise InputError("only quaternion:8 is available")
        return quaternion8()
    if kind == "perm":
        deg_s, _, gens_s = rest.partition(":")
        degree = _parse_positive(deg_s, spec)
        gens = [
            _parse_cycles(part) for part in gens_s.split(";") if part.strip()
        ]
        return from_permutation_generators(degree, gens, name=spec)
    if kind == "file":
        with open(rest) as fh:
            doc = json.load(fh)
        try:
            table = doc["mul"]
        except (KeyError, TypeError):
            raise InputError(f"{rest}: expected an object with a 'mul' table")
        return from_cayley_table(table, names=doc.get("names"), name=spec)
    raise InputError(f"unknown group spec {spec!r}")


def _parse_positive(text: str, spec: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise InputError(f"bad group spec {spec!r}") from None
    if n < 1:
        raise InputError(f"bad group spec {spec!r}: parameter must be positive")
    return n
