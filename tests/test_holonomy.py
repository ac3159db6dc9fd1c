import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dwlink import braids, dw, groups, holonomy
from dwlink.errors import LengthMismatch, NotAFixedPoint, SearchTooLarge

from wirtinger_oracle import wirtinger_count


def random_braid(rng, max_strands=4, max_len=8):
    m = rng.randint(1, max_strands)
    length = rng.randint(0, max_len) if m > 1 else 0
    alphabet = [s * i for i in range(1, m) for s in (1, -1)]
    return braids.BraidWord(m, tuple(rng.choice(alphabet) for _ in range(length)))


SMALL_GROUPS = [
    groups.cyclic(2),
    groups.cyclic(3),
    groups.cyclic(4),
    groups.symmetric(3),
    groups.dihedral(2),
    groups.quaternion8(),
]


class TestArtinAction:
    def test_empty(self):
        G = groups.symmetric(3)
        b = braids.BraidWord(3, ())
        for a in itertools.product(range(G.order), repeat=3):
            assert holonomy.artin_action(b, a, G) == a

    def test_diagonal_fixed(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        for g in G.elements():
            assert holonomy.artin_action(b, (g, g), G) == (g, g)

    def test_length_mismatch(self):
        G = groups.cyclic(2)
        with pytest.raises(LengthMismatch):
            holonomy.artin_action(braids.parse_braid("2: 1"), (0, 1, 0), G)

    def test_group_action_property(self):
        rng = random.Random(11)
        G = groups.symmetric(3)
        for _ in range(200):
            m = rng.randint(2, 4)
            alphabet = [s * i for i in range(1, m) for s in (1, -1)]
            b1 = braids.BraidWord(
                m, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            )
            b2 = braids.BraidWord(
                m, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            )
            a = tuple(rng.randrange(G.order) for _ in range(m))
            via_compose = holonomy.artin_action(braids.compose(b2, b1), a, G)
            stepwise = holonomy.artin_action(b2, holonomy.artin_action(b1, a, G), G)
            assert via_compose == stepwise

    def test_generator_invertible(self):
        G = groups.quaternion8()
        pos = braids.parse_braid("2: 1")
        neg = braids.parse_braid("2: -1")
        for a in itertools.product(range(8), repeat=2):
            assert holonomy.artin_action(neg, holonomy.artin_action(pos, a, G), G) == a


class TestEnumerateHoms:
    def test_unlink(self):
        G = groups.cyclic(3)
        recs = holonomy.enumerate_homs(braids.BraidWord(2, ()), G)
        assert len(recs) == 9

    def test_unknot_diagonal(self):
        G = groups.symmetric(3)
        recs = holonomy.enumerate_homs(braids.parse_braid("2: 1"), G)
        assert len(recs) == G.order
        for r in recs:
            assert r.tuple[0] == r.tuple[1]

    def test_hopf_s3(self):
        G = groups.symmetric(3)
        recs = holonomy.enumerate_homs(braids.parse_braid("2: 1 1"), G)
        assert len(recs) == 18  # commuting pairs in S3

    def test_trefoil_s3(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1 1")
        assert len(holonomy.enumerate_homs(b, G)) == wirtinger_count(b, G) == 12

    def test_lexicographic_order(self):
        G = groups.cyclic(4)
        recs = holonomy.enumerate_homs(braids.BraidWord(2, ()), G)
        tuples = [r.tuple for r in recs]
        assert tuples == sorted(tuples)

    def test_meridian_constraint(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1 1")
        x = G.element_index("(1 2)")
        recs = holonomy.enumerate_homs(b, G, x_constraint=(x,))
        assert all(r.meridian == (x,) for r in recs)
        unconstrained = holonomy.enumerate_homs(b, G)
        assert len(recs) == sum(1 for r in unconstrained if r.meridian == (x,))

    def test_search_cap(self):
        G = groups.quaternion8()
        b = braids.BraidWord(12, ())
        with pytest.raises(SearchTooLarge):
            holonomy.enumerate_homs(b, G)

    def test_cycle_entries_conjugate(self):
        rng = random.Random(12)
        G = groups.symmetric(3)
        for _ in range(30):
            b = random_braid(rng, max_strands=3, max_len=5)
            comp = braids.components(b)
            for r in holonomy.enumerate_homs(b, G):
                for cyc in comp.cycles:
                    cls = {G.class_of[r.tuple[p]] for p in cyc}
                    assert len(cls) == 1

    def test_wirtinger_oracle_random(self):
        rng = random.Random(13)
        pool = [groups.cyclic(4), groups.symmetric(3), groups.dihedral(2)]
        for _ in range(40):
            b = random_braid(rng, max_strands=3, max_len=4)
            G = rng.choice(pool)
            assert holonomy.count_homs(b, G) == wirtinger_count(b, G)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_wirtinger_oracle_property(self, data):
        G = data.draw(st.sampled_from(SMALL_GROUPS))
        m = data.draw(st.integers(1, 3))
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        letters = []
        if m > 1:
            letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=4))
        b = braids.BraidWord(m, tuple(letters))
        assert holonomy.count_homs(b, G) == wirtinger_count(b, G)


def relabelled(G, perm):
    """G with element g renamed perm[g]."""
    table = [[0] * G.order for _ in range(G.order)]
    for a in G.elements():
        for b in G.elements():
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return groups.from_cayley_table(table, name=f"relabelled {G.name}")


def unreduced_homs(beta, G, x=None):
    """Every tuple of the unreduced candidate sets that the braid fixes,
    with its records: the scan without the conjugation reduction."""
    comp = braids.components(beta)
    recs = []
    for a in itertools.product(*holonomy._candidate_sets(beta, G, comp, x)):
        if holonomy.artin_action(beta, a, G) == a:
            longitude = tuple(
                holonomy.longitude_image(beta, a, t, G, comp=comp, check=False)
                for t in range(comp.count)
            )
            meridian = tuple(a[p] for p in comp.basepoints)
            recs.append(holonomy.HomRecord(a, meridian, longitude))
    return recs


class TestOrbitReduction:
    def test_matches_unreduced_scan(self):
        rng = random.Random(19)
        s3 = groups.symmetric(3)
        pool = [
            s3,
            groups.quaternion8(),
            groups.dihedral(4),
            groups.cyclic(4),
            groups.symmetric(4),
            # the identity is the last element, so H does not start with it
            relabelled(s3, list(reversed(s3.elements()))),
        ]
        covered = set()
        for i in range(100):
            G = pool[i % len(pool)]
            b = random_braid(rng, max_strands=3 if G.order > 8 else 4, max_len=8)
            comp = braids.components(b)
            n = comp.count
            central = [g for g in G.elements() if len(G.centralizer(g)) == G.order]
            others = [g for g in G.elements() if g not in central]
            # x central: H = G; x non-central: H a proper subgroup
            for pool_x in (central, others):
                if not pool_x:  # G abelian
                    continue
                x = tuple(rng.choice(pool_x) for _ in range(n))
                H = set.intersection(*(set(G.centralizer(xt)) for xt in x))
                cands = holonomy._candidate_sets(b, G, comp, x)
                p0 = next((p for p, c in enumerate(cands) if len(c) > 1), 0)
                if len(H) == G.order:
                    covered.add("H = G")
                elif any(G.conj(h, c) != c for h in H for c in cands[p0]):
                    covered.add("H < G with orbits at p0")
                if n > 1 and p0 > 0:
                    covered.add("several components, p0 > 0")
                assert holonomy.enumerate_homs(b, G, x_constraint=x) == unreduced_homs(
                    b, G, x
                )
            assert holonomy.enumerate_homs(b, G) == unreduced_homs(b, G)
        assert covered == {
            "H = G",
            "H < G with orbits at p0",
            "several components, p0 > 0",
        }


class TestSearchSpace:
    def test_size_is_the_candidate_product(self, monkeypatch):
        rng = random.Random(20)
        G = groups.symmetric(4)
        for _ in range(30):
            b = random_braid(rng, max_strands=4, max_len=6)
            comp = braids.components(b)
            x = tuple(rng.randrange(G.order) for _ in range(comp.count))
            for xc in (None, x):
                size = 1
                for c in holonomy._candidate_sets(b, G, comp, xc):
                    size *= len(c)
                monkeypatch.setattr(holonomy, "SEARCH_CAP", size)
                holonomy.check_search_space(G, comp, xc)
                monkeypatch.setattr(holonomy, "SEARCH_CAP", size - 1)
                with pytest.raises(SearchTooLarge):
                    holonomy.check_search_space(G, comp, xc)
                holonomy.check_search_space(G, comp, xc, allow_large=True)

    def test_prescribed_x_builds_no_class_table(self, monkeypatch):
        # H is scanned from the table, not read off Cen(x)'s class table
        G = groups.symmetric(4)
        b = braids.parse_braid("3: 1 1 -2")
        x = (G.element_index("(1 2)"), G.element_index("(1 2 3)"))
        expect = holonomy.enumerate_homs(b, G, x_constraint=x)

        def no_table(self, x):
            raise AssertionError("class table of a centralizer built")

        monkeypatch.setattr(groups.FiniteGroup, "cen_class_reps", no_table)
        assert holonomy.enumerate_homs(b, G, x_constraint=x) == expect


class TestLongitude:
    def test_unknot_trivial(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        for r in holonomy.enumerate_homs(b, G):
            assert r.longitude == (G.id,)

    def test_hopf_longitudes(self):
        G = groups.quaternion8()
        b = braids.parse_braid("2: 1 1")
        for r in holonomy.enumerate_homs(b, G):
            # each longitude is the other component's meridian
            assert r.longitude == (r.meridian[1], r.meridian[0])

    def test_holonomy_pass_moves_labels_like_the_action(self):
        rng = random.Random(21)
        G = groups.quaternion8()
        for _ in range(50):
            b = random_braid(rng)
            a = [rng.randrange(G.order) for _ in range(b.strands)]
            labels = list(a)
            hol = holonomy._holonomies(b.letters, labels, G)
            assert tuple(labels) == holonomy.artin_action(b, a, G)
            assert len(hol) == b.strands

    def test_not_a_fixed_point(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        with pytest.raises(NotAFixedPoint):
            holonomy.longitude_image(b, (0, 1), 0, G)

    def test_commutes_with_meridian(self):
        rng = random.Random(14)
        for G in (groups.symmetric(3), groups.quaternion8(), groups.dihedral(3)):
            for _ in range(20):
                b = random_braid(rng, max_strands=3, max_len=6)
                for r in holonomy.enumerate_homs(b, G):
                    for t in range(len(r.meridian)):
                        assert G.mul(r.meridian[t], r.longitude[t]) == G.mul(
                            r.longitude[t], r.meridian[t]
                        )

    def test_abelian_linking_formula(self):
        rng = random.Random(15)
        for _ in range(50):
            b = random_braid(rng)
            N = rng.choice([2, 3, 5])
            G = groups.cyclic(N)
            comp = braids.components(b)
            for r in holonomy.enumerate_homs(b, G):
                for t in range(comp.count):
                    expect = (
                        sum(
                            comp.linking[t][s] * r.meridian[s]
                            for s in range(comp.count)
                        )
                        % N
                    )
                    assert r.longitude[t] == expect


# every built-in group of order at most 8
MARKOV_GROUPS = (
    [groups.cyclic(n) for n in range(1, 9)]
    + [groups.dihedral(n) for n in range(1, 5)]
    + [groups.symmetric(3), groups.quaternion8()]
)


class TestMarkovInvariance:
    """The closures of conjugate braids, and of a braid and its
    stabilization, are the same link, so their hom counts agree."""

    def test_conjugation_and_stabilization(self):
        rng = random.Random(16)
        pool = [groups.cyclic(5), groups.symmetric(3), groups.dihedral(4)]
        for _ in range(20):
            b = random_braid(rng, max_strands=4, max_len=8)
            G = rng.choice(pool)
            base = holonomy.count_homs(b, G)

            m = b.strands
            if m > 1:
                alphabet = [s * i for i in range(1, m) for s in (1, -1)]
                alpha = braids.BraidWord(
                    m, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                )
                alpha_inv = braids.BraidWord(
                    m, tuple(-l for l in reversed(alpha.letters))
                )
                conj = braids.compose(alpha, braids.compose(b, alpha_inv))
                assert holonomy.count_homs(conj, G) == base

            stab = braids.BraidWord(m + 1, b.letters + (m,))
            assert holonomy.count_homs(stab, G) == base

    def test_stabilization_keeps_exact_table(self):
        # a stabilization adds one self-crossing to a component, so equal
        # (x, h) tables check the longitudes and their 0-framing correction
        rng = random.Random(18)
        pool = [
            groups.symmetric(3),
            groups.quaternion8(),
            groups.dihedral(3),
            groups.cyclic(4),
        ]
        for _ in range(30):
            b = random_braid(rng, max_strands=3, max_len=6)
            m = b.strands
            for G in pool:
                base = dw.dw_table(b, G, "all").exact
                for sign in (1, -1):
                    stab = braids.BraidWord(m + 1, b.letters + (sign * m,))
                    assert dw.dw_table(stab, G, "all").exact == base

    @settings(max_examples=100)
    @given(data=st.data())
    def test_conjugation_and_stabilization_property(self, data):
        G = data.draw(st.sampled_from(MARKOV_GROUPS))
        m = data.draw(st.integers(2, 3))
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        w = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=6)))
        base = holonomy.count_homs(braids.BraidWord(m, w), G)
        s = data.draw(st.sampled_from(alphabet))
        conjugated = braids.BraidWord(m, (s,) + w + (-s,))
        assert holonomy.count_homs(conjugated, G) == base
        sign = data.draw(st.sampled_from((1, -1)))
        stabilized = braids.BraidWord(m + 1, w + (sign * m,))
        assert holonomy.count_homs(stabilized, G) == base
