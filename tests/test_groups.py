import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dwlink import groups
from dwlink.braids import cycles_of
from dwlink.errors import (
    BadPermutation,
    BadShape,
    GroupTooLarge,
    InputError,
    NotAGroup,
    NotInSubgroup,
)

# a 3x3 Latin square that fails associativity
NONASSOC = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


def sample_groups():
    return [
        groups.cyclic(1),
        groups.cyclic(2),
        groups.cyclic(4),
        groups.cyclic(6),
        groups.dihedral(2),
        groups.dihedral(3),
        groups.dihedral(4),
        groups.symmetric(3),
        groups.symmetric(4),
        groups.quaternion8(),
    ]


class TestFromCayleyTable:
    def test_trivial(self):
        G = groups.from_cayley_table([[0]])
        assert G.order == 1 and G.id == 0

    def test_z2(self):
        G = groups.from_cayley_table([[0, 1], [1, 0]])
        assert G.order == 2 and G.id == 0
        assert G.inv == (0, 1)

    def test_nonassociative_latin_square(self):
        with pytest.raises(NotAGroup, match="witness"):
            groups.from_cayley_table(NONASSOC)

    def test_bad_shape(self):
        with pytest.raises(InputError):
            groups.from_cayley_table([[0, 1]])

    @pytest.mark.parametrize("entry", [0.0, True, "0", None])
    def test_non_integer_entry(self, entry):
        with pytest.raises(BadShape):
            groups.from_cayley_table([[entry, 1], [1, 0]])

    def test_out_of_range_entry(self):
        with pytest.raises(BadShape, match="out of range"):
            groups.from_cayley_table([[0, 2], [1, 0]])

    def test_duplicate_names(self):
        with pytest.raises(BadShape, match="distinct"):
            groups.from_cayley_table([[0, 1], [1, 0]], names=["a", "a"])

    @pytest.mark.parametrize("names", [5, "ab", {"a": 0, "b": 1}, ["a", True], ["a", None]])
    def test_names_not_strings_or_numbers(self, names):
        with pytest.raises(BadShape, match="names"):
            groups.from_cayley_table([[0, 1], [1, 0]], names=names)

    def test_number_names(self):
        G = groups.from_cayley_table([[0, 1], [1, 0]], names=[0, 1.5])
        assert G.names == ("0", "1.5")


class TestFromPermutationGenerators:
    def test_s3(self):
        G = groups.from_permutation_generators(3, [[(1, 2)], [(1, 2, 3)]])
        assert G.order == 6

    def test_cyclic4(self):
        G = groups.from_permutation_generators(4, [[(1, 2, 3, 4)]])
        assert G.order == 4

    def test_no_generators(self):
        G = groups.from_permutation_generators(2, [])
        assert G.order == 1

    def test_identity_is_zero(self):
        G = groups.from_permutation_generators(3, [[(1, 2)], [(1, 2, 3)]])
        assert G.id == 0

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            groups.from_permutation_generators(2, [[(1, 3)]])
        with pytest.raises(BadPermutation):
            groups.from_permutation_generators(3, [[(1, 1, 2)]])

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 100)
        with pytest.raises(GroupTooLarge):
            groups.from_permutation_generators(5, [[(1, 2)], [(1, 2, 3, 4, 5)]])
        monkeypatch.setattr(groups, "ORDER_CAP", 120)
        assert groups.from_permutation_generators(
            5, [[(1, 2)], [(1, 2, 3, 4, 5)]]
        ).order == 120
        # the degree is capped too, before any permutation is built
        assert groups.from_permutation_generators(120, []).order == 1
        with pytest.raises(GroupTooLarge, match="degree 121 exceeds cap of 120"):
            groups.from_permutation_generators(121, [])

    def test_generated_groups_pass_validation(self):
        for G in sample_groups():
            # re-validate the table through the checking constructor
            groups.FiniteGroup(G.table, names=G.names)


def searched_identity(mul):
    """The two-sided identity found by trying every element."""
    n = len(mul)
    return next(
        e for e in range(n) if all(mul[e][g] == g == mul[g][e] for g in range(n))
    )


def searched_inverses(mul, e):
    """Each element's two-sided inverse, found at the identity's place in
    its row and checked on the other side."""
    inv = []
    for g, row in enumerate(mul):
        h = row.index(e)
        assert mul[h][g] == e
        inv.append(h)
    return tuple(inv)


class TestIdentityAndInverses:
    """The identity is looked up in the checked table, and the inverses
    follow the generators that Light's test checked; they equal a two-sided
    search over it."""

    @settings(max_examples=100)
    @given(G=st.sampled_from(sample_groups()), data=st.data())
    def test_lookup_matches_search_on_relabelled_tables(self, G, data):
        perm = data.draw(st.permutations(range(G.order)))
        mul = [[0] * G.order for _ in range(G.order)]
        for a in G.elements():
            for b in G.elements():
                mul[perm[a]][perm[b]] = perm[G.table[a][b]]
        R = groups.from_cayley_table(mul)
        e = searched_identity(mul)
        assert (R.id, R.inv) == (e, searched_inverses(mul, e))
        assert R.id == perm[G.id]


def reference_closure(degree, generators):
    """The elements of the generated group as 0-based image tuples, in
    breadth-first discovery order, with the index of each."""
    gens = [groups._cycles_to_perm(degree, g) for g in generators]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    frontier = elems[:]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    return elems, index


def reference_perm_group(degree, generators, name):
    """The Cayley table of the generated group with index[a∘b] looked up
    for every product: the construction the gathered rows replace."""
    elems, index = reference_closure(degree, generators)
    table = [
        [index[tuple(a[b[i]] for i in range(degree))] for b in elems]
        for a in elems
    ]
    names = [groups._perm_name(p) for p in elems]
    return groups.FiniteGroup(table, names=names, name=name)


def reference_cyclic(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return groups.FiniteGroup(table, name=f"cyclic:{n}")


def reference_dihedral(n):
    """r^a s^b at index a + n b, multiplied entry by entry."""
    order = 2 * n
    table = [[0] * order for _ in range(order)]
    for a1, b1, a2, b2 in itertools.product(range(n), range(2), range(n), range(2)):
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        table[a1 + n * b1][a2 + n * b2] = a + n * ((b1 + b2) % 2)
    names = [f"r{a}" if a else "e" for a in range(n)]
    names += [f"r{a}s" if a else "s" for a in range(n)]
    return groups.FiniteGroup(table, names=names, name=f"dihedral:{n}")


# quaternion units as (sign, axis), with axis 0 the scalar and 1, 2, 3 for
# i, j, k; the product of two of i, j, k by ij = k, jk = i, ki = j
QUAT_AXIS_MUL = {
    (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def reference_quaternion8():
    """Q8 over the names 1, -1, i, -i, j, -j, k, -k, index 2 axis + (sign
    < 0), multiplied entry by entry from the (sign, axis) rule."""
    def mul(a, b):
        (sa, xa), (sb, xb) = ((-1 if g % 2 else 1, g // 2) for g in (a, b))
        if xa == 0 or xb == 0:
            sc, xc = 1, xa + xb
        else:
            sc, xc = QUAT_AXIS_MUL[xa, xb]
        return 2 * xc + (sa * sb * sc < 0)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return groups.FiniteGroup(table, names=names, name="quaternion:8")


def symmetric_generators(n):
    if n == 1:
        return []
    return [[(1, 2)]] + ([[tuple(range(1, n + 1))]] if n > 2 else [])


def assert_same_group(G, R):
    assert G.table == R.table
    assert G.names == R.names
    assert G.inv == R.inv
    assert G.classes == R.classes
    assert G.name == R.name


def perm_cycles(perm):
    """A 0-based image tuple as 1-based cycles, fixed points left out."""
    return [tuple(i + 1 for i in c) for c in cycles_of(perm) if len(c) > 1]


# degree 1, no generators, an identity generator, a repeated generator, an
# intransitive group and the Frobenius group F21
PERM_SPECS = [
    "perm:1:",
    "perm:1:e",
    "perm:4:",
    "perm:3:e;(1 2 3)",
    "perm:4:(1 2 3 4);(1 2 3 4);(1 3)",
    "perm:6:(1 2)(3 4);(5 6);(1 3)",
    "perm:7:(1 2 3 4 5 6 7);(1 2 4)(3 6 5)",
]


class TestTablesAgainstReference:
    """Every built-in table equals the product-by-product construction."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric(self, n):
        R = reference_perm_group(n, symmetric_generators(n), f"symmetric:{n}")
        assert_same_group(groups.symmetric(n), R)

    @pytest.mark.parametrize("n", [*range(1, 13), 360])
    def test_cyclic_and_dihedral(self, n):
        assert_same_group(groups.cyclic(n), reference_cyclic(n))
        assert_same_group(groups.dihedral(n), reference_dihedral(n))

    def test_quaternion8(self):
        assert_same_group(groups.quaternion8(), reference_quaternion8())

    @pytest.mark.parametrize("spec", PERM_SPECS)
    def test_perm_spec(self, spec):
        degree, _, text = spec.removeprefix("perm:").partition(":")
        gens = [groups._parse_cycles(part) for part in text.split(";") if part.strip()]
        R = reference_perm_group(int(degree), gens, spec)
        assert_same_group(groups.from_group_spec(spec), R)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(st.permutations(range(d)), max_size=3).map(
                lambda ps: (d, ps)
            )
        )
    )
    @settings(max_examples=30)
    def test_random_generators(self, case):
        degree, perms = case
        gens = [perm_cycles(p) for p in perms]
        G = groups.from_permutation_generators(degree, gens)
        assert_same_group(G, reference_perm_group(degree, gens, "perm"))

    def test_symmetric7_rows(self):
        # the whole reference would look up 5040^2 products; 50 rows are
        # checked against the composition instead
        G = groups.symmetric(7)
        elems, index = reference_closure(7, symmetric_generators(7))
        assert G.names == tuple(groups._perm_name(p) for p in elems)
        rng = random.Random(7)
        for a in rng.sample(range(G.order), 50):
            p = elems[a]
            assert G.table[a] == tuple(index[tuple(p[i] for i in b)] for b in elems)


class TestTableChecks:
    """A table is checked row by row, and refused with the message of its
    first offending row."""

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1], [1]], "multiplication table is not square"),
            ([[0, 1], [1, 0, 1]], "multiplication table is not square"),
            ([[0, 1], [1, 0.0]], "table entry 0.0 is not an integer"),
            ([[0, 1.0], [1, 0, 2]], "table entry 1.0 is not an integer"),
            ([[0, 1], [True, 0]], "table entry True is not an integer"),
            ([[0, 1], [1, -1]], "table entry -1 out of range for order 2"),
            ([[0, 5], [True, 0]], "table entry 5 out of range for order 2"),
            ([[0, 2], [-1, 0]], "table entry 2 out of range for order 2"),
            ([[-3, 2], [1, 0]], "table entry -3 out of range for order 2"),
        ],
    )
    def test_first_offending_entry(self, table, message):
        with pytest.raises(BadShape) as err:
            groups.FiniteGroup(table)
        assert str(err.value) == message

    def test_validate_flag_is_gone(self):
        # every table passed in whole is checked, with no way to skip it
        with pytest.raises(TypeError):
            groups.FiniteGroup([[0]], validate=False)


# the generators whose rows each built-in constructor gathers from
BUILTIN_GENERATORS = {
    "symmetric:6": ["(1 2)", "(1 2 3 4 5 6)"],
    "cyclic:720": ["1"],
    "dihedral:360": ["r1", "s"],
    "quaternion:8": ["-1", "i", "j"],
}


class TestGatheredTableChecks:
    """A gathered table is checked through its generator rows, with the row
    check and the messages of a table passed in whole, and those rows must
    reach every row."""

    def test_z2(self):
        G = groups.FiniteGroup._gathered([(1, 0)], 2, None, "z2")
        assert G.table == ((0, 1), (1, 0)) and G.inv == (0, 1)

    @pytest.mark.parametrize(
        "gen_rows, n, message",
        [
            ([(1,)], 2, "multiplication table is not square"),
            ([(1, 0), (0,)], 2, "multiplication table is not square"),
            ([(1, 0.0)], 2, "table entry 0.0 is not an integer"),
            ([(1, True)], 2, "table entry True is not an integer"),
            ([(1, "0")], 2, "table entry '0' is not an integer"),
            ([(1, None)], 2, "table entry None is not an integer"),
            ([(1, -1)], 2, "table entry -1 out of range for order 2"),
            ([(1, 2)], 2, "table entry 2 out of range for order 2"),
            ([(1, 0), (1, 2)], 2, "table entry 2 out of range for order 2"),
            ([], 2, "generator rows reach 1 of 2 rows"),
            ([(0, 1, 2)], 3, "generator rows reach 1 of 3 rows"),
            ([(0, 1, 2, 3), (1, 0, 3, 2)], 4, "generator rows reach 2 of 4 rows"),
        ],
    )
    def test_first_offending_entry(self, gen_rows, n, message):
        with pytest.raises(BadShape) as err:
            groups.FiniteGroup._gathered(gen_rows, n, None, "g")
        assert str(err.value) == message

    @pytest.mark.parametrize("spec", BUILTIN_GENERATORS)
    def test_checks_generator_rows_only(self, monkeypatch, spec):
        checked = []
        check_rows = groups._check_rows

        def spy(rows, n):
            checked.extend(rows)
            return check_rows(rows, n)

        monkeypatch.setattr(groups, "_check_rows", spy)
        G = groups.from_group_spec(spec)
        gens = map(G.element_index, BUILTIN_GENERATORS[spec])
        assert checked == [G.table[g] for g in gens]
        # a table passed in whole is checked on every row
        checked.clear()
        groups.FiniteGroup(G.table)
        assert checked == list(G.table)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_generating_rows(self, data):
        # any of a group's own rows that generate it gather its very table;
        # the rows of a proper subgroup do not reach every row
        spec = data.draw(st.sampled_from(sorted(REGATHERED)))
        G = groups.from_group_spec(spec)
        elements = st.sampled_from(G.elements())
        gens = [G.element_index(g) for g in REGATHERED[spec]]
        gens += data.draw(st.lists(elements, max_size=3))
        gens = data.draw(st.permutations(gens))
        H = groups.FiniteGroup._gathered(
            [G.table[g] for g in gens], G.order, G.names, G.name
        )
        assert (H.table, H.names, H.classes) == (G.table, G.names, G.classes)

        picks = data.draw(st.lists(elements, max_size=3))
        reached = generated(G, picks)
        if len(reached) < G.order:
            rows = [G.table[g] for g in reached]
            rows = data.draw(st.lists(st.sampled_from(rows), max_size=4))
            with pytest.raises(BadShape):
                groups.FiniteGroup._gathered(rows, G.order, G.names, G.name)


# generators of each group that the property regathers: for quaternion:8
# and perm: a different set from the one its constructor gathers from
REGATHERED = {
    "symmetric:4": ["(1 2)", "(1 2 3 4)"],
    "dihedral:6": ["r1", "s"],
    "quaternion:8": ["i", "j"],
    "cyclic:12": ["1"],
    "perm:4:(1 2 3);(2 3 4)": ["(1 2 4)", "(1 3)(2 4)"],
}


def generated(G, picks):
    """The subgroup generated by picks, closed under right multiplication
    on the table."""
    reached, todo = {G.id}, [G.id]
    while todo:
        row = G.table[todo.pop()]
        new = {row[g] for g in picks} - reached
        reached |= new
        todo += new
    return sorted(reached)


def is_associative(mul):
    """Every triple, checked directly: the reference for Light's test."""
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def isotope(G, rng):
    """A random isotope of G's table: rows, columns and entries permuted.
    It is a Latin square, and often not associative."""
    n = G.order
    alpha, beta, gamma = (rng.sample(range(n), n) for _ in range(3))
    return [[gamma[G.table[alpha[i]][beta[j]]] for j in range(n)] for i in range(n)]


def swap_intercalate(mul, a, c, b, d):
    """mul with the values of the 2x2 subsquare at rows a, c and columns
    b, d swapped; for mul[a][b] == mul[c][d] and mul[a][d] == mul[c][b] the
    result is still a Latin square."""
    mul = [list(row) for row in mul]
    assert mul[a][b] == mul[c][d] and mul[a][d] == mul[c][b]
    mul[a][b], mul[a][d] = mul[a][d], mul[a][b]
    mul[c][b], mul[c][d] = mul[c][d], mul[c][b]
    return mul


def assoc_witness(mul):
    """The triple named by NotAGroup, checked to break associativity."""
    with pytest.raises(NotAGroup, match="witness") as err:
        groups.from_cayley_table(mul)
    x, g, y = map(int, err.value.args[0].rsplit("(", 1)[1].rstrip(")").split(","))
    assert mul[mul[x][g]][y] != mul[x][mul[g][y]]
    return x, g, y


class TestLightAssociativity:
    def test_matches_every_triple_on_isotopes(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(300):
            mul = isotope(rng.choice(sample_groups()), rng)
            assoc = is_associative(mul)
            seen.add(assoc)
            if assoc:
                groups.from_cayley_table(mul)
            else:
                assoc_witness(mul)
        assert seen == {True, False}

    def test_intercalate_swap_in_z400(self):
        # a single swapped 2x2 subsquare, which 10,000 sampled triples
        # out of 400^3 would almost surely miss
        n = 400
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        assoc_witness(swap_intercalate(mul, 3, 203, 5, 205))

    @pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:4", "symmetric:4"])
    def test_every_intercalate_swap_is_caught(self, spec):
        G = groups.from_group_spec(spec)
        n, mul = G.order, G.table
        swaps = 0
        for a, c in itertools.combinations(range(n), 2):
            for b, d in itertools.combinations(range(n), 2):
                if mul[a][b] == mul[c][d] and mul[a][d] == mul[c][b]:
                    assoc_witness(swap_intercalate(mul, a, c, b, d))
                    swaps += 1
        assert swaps

    @pytest.mark.parametrize(
        "spec",
        ["cyclic:720", "dihedral:360", "symmetric:6", "dihedral:7",
         "perm:7:(1 2 3 4 5 6 7);(1 2 4)(3 6 5)"],
    )
    def test_large_builtin_groups_pass(self, spec):
        G = groups.from_group_spec(spec)
        groups.FiniteGroup(G.table, names=G.names)


class TestConjugacyClasses:
    def test_trivial(self):
        G = groups.cyclic(1)
        assert len(G.classes) == 1
        assert G.classes[0].members == (0,)

    def test_s3(self):
        G = groups.symmetric(3)
        assert sorted(len(c.members) for c in G.classes) == [1, 2, 3]

    def test_abelian_singletons(self):
        G = groups.cyclic(4)
        assert all(len(c.members) == 1 for c in G.classes)
        assert len(G.classes) == 4

    def test_commutativity_shortcut_matches_orbit_walk(self, tmp_path, monkeypatch):
        # every group, abelian or not, is split once, at construction, by
        # closing each class under its own generators, with no walk over G
        path = tmp_path / "klein.json"
        path.write_text(json.dumps({"mul": [[a ^ b for b in range(4)] for a in range(4)]}))
        specs = [f"cyclic:{n}" for n in (1, 2, 7, 12)] + [f"file:{path}"]
        specs += ["symmetric:3", "quaternion:8", "dihedral:5"]
        split, orbits = [], groups.FiniteGroup.orbits

        def spy(self, members, gens):
            split.append((tuple(members), tuple(gens)))
            return orbits(self, members, gens)

        monkeypatch.setattr(groups.FiniteGroup, "orbits", spy)
        for spec in specs:
            split.clear()
            G = groups.from_group_spec(spec)
            assert split == [(tuple(G.elements()), G.generators)]
            assert generated(G, G.generators) == list(G.elements())
            assert G.classes == orbit_walk_classes(G.table, G.inv)

    @pytest.mark.parametrize(
        "spec",
        [
            "symmetric:4", "symmetric:5", "dihedral:6", "quaternion:8",
            "dihedral:15", "dihedral:16", "cyclic:12",
        ],
    )
    def test_commutativity_shortcut_on_centralizers(self, spec, monkeypatch):
        # a proper subgroup is split through a greedy generating set, of at
        # most log2 of its order members, with no walk over the subgroup,
        # abelian or not.  The rotations of dihedral:15 and dihedral:16 are
        # abelian and hold half of G; {e} has no generator
        G = groups.from_group_spec(spec)
        split, orbits = [], groups.FiniteGroup.orbits

        def spy(self, members, gens):
            split.append((tuple(members), tuple(gens)))
            return orbits(self, members, gens)

        monkeypatch.setattr(groups.FiniteGroup, "orbits", spy)
        subgroups = {G.centralizer(x) for x in G.elements()} | {(G.id,)}
        for members in sorted(subgroups):
            gens = groups._generators(G.table, members, G.id)
            assert 2 ** len(gens) <= len(members)
            assert generated(G, gens) == list(members)
            reps = {h: min(G.class_in_subgroup(members, h).members) for h in members}
            split.clear()
            classes = G.orbits(members, G.generators_of(members))
            if len(members) < G.order:
                assert split == [(members, tuple(gens))]
            assert {h: r for r, orbit in classes.items() for h in orbit} == reps

    def test_partition_and_sorting(self):
        for G in sample_groups():
            members = sorted(g for c in G.classes for g in c.members)
            assert members == list(range(G.order))
            reps = [c.representative for c in G.classes]
            assert reps == sorted(reps)
            for c in G.classes:
                assert c.representative == min(c.members)


class TestCentralizer:
    def test_identity(self):
        G = groups.symmetric(3)
        assert len(G.centralizer(G.id)) == G.order

    def test_transposition(self):
        G = groups.symmetric(3)
        x = G.element_index("(1 2)")
        assert len(G.centralizer(x)) == 2

    def test_abelian(self):
        G = groups.cyclic(6)
        for x in G.elements():
            assert len(G.centralizer(x)) == G.order

    def test_orbit_stabilizer(self):
        for G in sample_groups():
            for x in G.elements():
                cls = G.classes[G.class_of[x]]
                assert len(G.centralizer(x)) * len(cls.members) == G.order

    def test_members_ascending(self):
        for G in sample_groups():
            for x in G.elements():
                assert G.centralizer(x) == tuple(
                    g for g in G.elements() if G.mul(g, x) == G.mul(x, g)
                )

    def test_computed_on_demand(self, monkeypatch):
        def no_scan(self, x):
            raise AssertionError("centralizer scanned")

        monkeypatch.setattr(groups.FiniteGroup, "centralizer", no_scan)
        G = groups.symmetric(4)
        assert not hasattr(G, "centralizers")
        assert not hasattr(groups, "Subgroup")


class TestClassInSubgroup:
    def test_trivial_subgroup(self):
        G = groups.symmetric(3)
        H = (G.id,)
        assert G.class_in_subgroup(H, G.id).members == (G.id,)

    def test_abelian_centralizer_singleton(self):
        G = groups.symmetric(3)
        x = G.element_index("(1 2)")
        H = G.centralizer(x)
        assert G.class_in_subgroup(H, x).members == (x,)

    def test_three_cycle_in_whole_group(self):
        G = groups.symmetric(3)
        h = G.element_index("(1 2 3)")
        H = tuple(G.elements())
        assert len(G.class_in_subgroup(H, h).members) == 2

    def test_not_in_subgroup(self):
        G = groups.symmetric(3)
        H = (G.id,)
        with pytest.raises(NotInSubgroup):
            G.class_in_subgroup(H, G.element_index("(1 2)"))

    def test_partitions_centralizer(self):
        for G in sample_groups():
            for x in G.elements():
                cen = G.centralizer(x)
                sizes = 0
                seen = set()
                for h in cen:
                    cls = G.class_in_subgroup(cen, h)
                    if cls.representative not in seen:
                        seen.add(cls.representative)
                        sizes += len(cls.members)
                assert sizes == len(cen)


# every built-in group of order at most 120
SMALL_SPECS = (
    [f"cyclic:{n}" for n in range(1, 9)]
    + [f"dihedral:{n}" for n in range(3, 7)]
    + ["quaternion:8"]
    + [f"symmetric:{n}" for n in range(3, 6)]
)


class TestOrbits:
    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_orbits_and_transversals(self, spec):
        G = groups.from_group_spec(spec)
        for x in G.elements():
            H = G.centralizer(x)
            orbits = G.orbits(G.elements(), G.generators_of(H))
            # the orbits partition G as the walk over H does, each keyed by
            # its smallest member
            walked = walk_orbits(G.table, G.inv, G.elements(), H)
            assert {r: set(o) for r, o in orbits.items()} == {
                r: set(o) for r, o in walked.items()
            }
            for r, orbit in orbits.items():
                assert r == min(orbit)
                for c, h in orbit.items():
                    assert h in H and G.conj(h, r) == c

    def test_classes_are_the_orbits_of_g(self):
        for G in sample_groups():
            orbits = walk_orbits(G.table, G.inv, G.elements(), G.elements())
            assert [c.representative for c in G.classes] == list(orbits)
            assert [set(c.members) for c in G.classes] == [
                set(orbit) for orbit in orbits.values()
            ]


def _relabelled(G, shift):
    """The table of G with every element g renamed g + shift mod |G|."""
    n = G.order
    mul = [[0] * n for _ in range(n)]
    for a, b in itertools.product(G.elements(), repeat=2):
        mul[(a + shift) % n][(b + shift) % n] = (G.table[a][b] + shift) % n
    return mul


class TestCenClassReps:
    @staticmethod
    def check_against_reference(G):
        for x in G.elements():
            cen = G.centralizer(x)
            reps = G.cen_class_reps(x)
            assert tuple(sorted(reps)) == cen
            for h in cen:
                assert reps[h] == G.class_in_subgroup(cen, h).representative

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_matches_class_in_subgroup(self, spec):
        self.check_against_reference(groups.from_group_spec(spec))

    # Z3 whose identity is element 2, and S3 and Q8 with the identity moved
    # off element 0, so no class table can lean on 0 being the identity
    @pytest.mark.parametrize(
        "mul",
        [
            [[1, 2, 0], [2, 0, 1], [0, 1, 2]],
            _relabelled(groups.symmetric(3), 4),
            _relabelled(groups.quaternion8(), 3),
        ],
        ids=["z3", "s3", "q8"],
    )
    def test_matches_class_in_subgroup_on_file_tables(self, tmp_path, mul):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mul": mul}))
        G = groups.from_group_spec(f"file:{path}")
        assert G.id != 0
        self.check_against_reference(G)

    @pytest.mark.parametrize(
        "spec", ["cyclic:6", "dihedral:4", "quaternion:8", "symmetric:3"]
    )
    def test_central_x_takes_the_group_classes(self, spec, monkeypatch):
        G = groups.from_group_spec(spec)

        def no_split(self, members, gens):
            raise AssertionError("classes split")

        monkeypatch.setattr(groups.FiniteGroup, "orbits", no_split)
        whole = {g: cl.representative for cl in G.classes for g in cl.members}
        for x in G.elements():
            if len(G.classes[G.class_of[x]].members) == 1:
                assert G.cen_class_reps(x) == whole
            else:
                with pytest.raises(AssertionError, match="classes split"):
                    G.cen_class_reps(x)

    def test_built_once_per_x(self):
        G = groups.symmetric(4)
        assert G.cen_class_reps(3) is G.cen_class_reps(3)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_one_dict_per_centralizer(self, spec):
        G = groups.from_group_spec(spec)
        cens = [G.centralizer(x) for x in G.elements()]
        for x, y in itertools.product(G.elements(), repeat=2):
            same = G.cen_class_reps(x) is G.cen_class_reps(y)
            assert same == (cens[x] == cens[y])


def walk_orbits(mul, inv, members, S):
    """Split the ascending members, closed under conjugation by the members
    S of a subgroup, into orbits, each found by a walk over all of S: maps
    the smallest member r of each orbit to a dict sending each member c to
    the first h in S with h r h^-1 = c.  The reference for the split by
    generators, FiniteGroup.orbits."""
    orbits, seen = {}, set()
    for r in members:
        if r not in seen:
            orbit = {}
            for h in S:
                orbit.setdefault(mul[mul[h][r]][inv[h]], h)
            seen.update(orbit)
            orbits[r] = orbit
    return orbits


def orbit_walk_classes(mul, inv):
    """G's classes, each the set of all conjugates h r h^-1 of its smallest
    member r: the reference for the split by generators."""
    G = range(len(mul))
    return tuple(
        groups.ConjClass(r, tuple(sorted(orbit)))
        for r, orbit in walk_orbits(mul, inv, G, G).items()
    )


# Z2 x Z2, and S3 with the identity moved to element 4
KLEIN = [[a ^ b for b in range(4)] for a in range(4)]
S3_MOVED = _relabelled(groups.symmetric(3), 4)


class TestSetUpAgainstReferences:
    """The inverses, G's classes, the class table of every centralizer and
    the orbits of every stabilizer a scan's chain forms, found from
    generating sets, equal slow references that read the whole table; the
    names, formatted when read, equal the eager ones."""

    @staticmethod
    def check_set_up(G):
        mul = G.table
        e = searched_identity(mul)
        inv = searched_inverses(mul, e)
        assert (G.id, G.inv) == (e, inv)
        assert G.classes == orbit_walk_classes(mul, inv)
        for x in G.elements():
            cen = G.centralizer(x)
            reps = {h: G.class_in_subgroup(cen, h).representative for h in cen}
            assert G.cen_class_reps(x) == reps
        # G, every Cen(x), and every Cen(x) ∩ Cen(y), which is Cen_S(y) for
        # S = Cen(x), split G and each class as the walk over S does
        cens = {G.centralizer(x) for x in G.elements()}
        stabilizers = {tuple(G.elements())} | cens | {
            tuple(h for h in S if mul[h][y] == mul[y][h])
            for S in cens
            for y in G.elements()
        }
        pools = [G.elements(), *(cl.members for cl in G.classes)]
        for S, pool in itertools.product(sorted(stabilizers), pools):
            orbits = G.orbits(pool, G.generators_of(S))
            walked = walk_orbits(mul, inv, pool, S)
            assert {r: set(o) for r, o in orbits.items()} == {
                r: set(o) for r, o in walked.items()
            }
            members = set(S)
            for r, orbit in orbits.items():
                assert r == min(orbit)
                for c, h in orbit.items():
                    assert h in members and mul[mul[h][r]][inv[h]] == c

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda d: st.lists(st.permutations(range(d)), max_size=3).map(
                lambda ps: (d, ps)
            )
        )
    )
    def test_random_perm_groups(self, case):
        degree, perms = case
        gens = [perm_cycles(p) for p in perms]
        elems, _ = reference_closure(degree, gens)
        assume(len(elems) <= 360)  # the references read |G|^2 entries and more
        G = groups.from_permutation_generators(degree, gens)
        self.check_set_up(G)
        assert G.names == tuple(groups._perm_name(p) for p in elems)

    @pytest.mark.parametrize(
        "spec",
        [
            "perm:3:", "cyclic:1", "cyclic:2", "cyclic:12", "dihedral:1",
            "dihedral:2", "dihedral:15", "quaternion:8", "symmetric:4",
        ],
    )
    def test_builtin_families(self, spec):
        self.check_set_up(groups.from_group_spec(spec))

    @pytest.mark.parametrize("mul", [KLEIN, S3_MOVED], ids=["klein", "s3-moved"])
    def test_file_tables(self, tmp_path, mul):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"mul": mul}))
        self.check_set_up(groups.from_group_spec(f"file:{path}"))

    def test_names_formatted_when_read(self):
        G = groups.symmetric(4)
        elems, _ = reference_closure(4, symmetric_generators(4))
        assert G.element_name(5) == groups._perm_name(elems[5])
        assert G.element_name.cache_info().currsize == 1
        assert G.names == tuple(map(groups._perm_name, elems))
        assert G.element_name(5) is G.names[5]


class TestPower:
    def test_zero(self):
        G = groups.symmetric(3)
        for g in G.elements():
            assert G.power(g, 0) == G.id

    def test_z2_cube(self):
        G = groups.cyclic(2)
        assert G.power(1, 3) == 1

    def test_three_cycle(self):
        G = groups.symmetric(3)
        c = G.element_index("(1 2 3)")
        assert G.power(c, 9) == G.id
        assert G.power(c, 4) == c

    def test_negative(self):
        G = groups.symmetric(4)
        for g in G.elements():
            assert G.power(g, -1) == G.inv[g]

    def test_additivity(self):
        rng = random.Random(7)
        for G in sample_groups():
            for _ in range(100):
                g = rng.randrange(G.order)
                a, b = rng.randint(-20, 20), rng.randint(-20, 20)
                assert G.power(g, a + b) == G.mul(G.power(g, a), G.power(g, b))


class TestGroupSpec:
    def test_builtins(self):
        assert groups.from_group_spec("cyclic:5").order == 5
        assert groups.from_group_spec("dihedral:4").order == 8
        assert groups.from_group_spec("symmetric:3").order == 6
        assert groups.from_group_spec("quaternion:8").order == 8

    def test_perm_spec(self):
        G = groups.from_group_spec("perm:3:(1 2);(1 2 3)")
        assert G.order == 6

    def test_frobenius21(self):
        G = groups.from_group_spec("perm:7:(1 2 3 4 5 6 7);(1 2 4)(3 6 5)")
        assert G.order == 21
        assert sorted(len(c.members) for c in G.classes) == [1, 3, 3, 7, 7]

    def test_file_spec(self, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(
            json.dumps(
                {
                    "order": 3,
                    "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                    "names": ["0", "1", "2"],
                }
            )
        )
        G = groups.from_group_spec(f"file:{path}")
        assert G.order == 3 and G.names == ("0", "1", "2")

    @pytest.mark.parametrize("spec", ["perm:3:(1 2)junk", "perm:3:(1 2)(3"])
    def test_perm_spec_leftover_text(self, spec):
        with pytest.raises(BadPermutation):
            groups.from_group_spec(spec)

    def test_perm_spec_spaces_between_cycles(self):
        G = groups.from_group_spec("perm:4: (1 2) (3 4) ;(1 3)")
        assert G.order == 8

    def test_symmetric_order_cap(self, monkeypatch):
        # 7! = 5040 <= ORDER_CAP < 8!; a real S7 build takes seconds, so the
        # builder is stubbed to see which degrees reach it
        built = []
        monkeypatch.setattr(
            groups, "from_permutation_generators",
            lambda degree, gens, name: built.append(degree),
        )
        groups.symmetric(7)
        with pytest.raises(GroupTooLarge):
            groups.symmetric(8)
        assert built == [7]

    def test_symmetric_order_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 24)
        assert groups.symmetric(4).order == 24
        with pytest.raises(GroupTooLarge):
            groups.symmetric(5)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 6)
        assert groups.from_group_spec("cyclic:6").order == 6
        assert groups.from_group_spec("dihedral:3").order == 6
        for spec in ("cyclic:7", "dihedral:4"):
            with pytest.raises(GroupTooLarge):
                groups.from_group_spec(spec)

    def test_unknown(self):
        with pytest.raises(InputError):
            groups.from_group_spec("alternating:5")
        with pytest.raises(InputError):
            groups.from_group_spec("cyclic:0")
