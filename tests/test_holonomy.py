import functools
import itertools
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dwlink import braids, congruence, dw, groups, holonomy
from dwlink.errors import LengthMismatch, NotAFixedPoint, SearchTooLarge

from two_bridge_oracle import (
    pair_orbit,
    two_bridge_count,
    two_bridge_keyed,
    two_bridge_word,
)
from wirtinger_oracle import wirtinger_count


def x_tuples(G, n, scope):
    """The meridian tuples of a sweep over the closure of an n-component
    braid: n-tuples of one class representative each, or of all of G with
    scope 'all'."""
    return itertools.product(holonomy._x_pool(G, scope), repeat=n)


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
    for a in itertools.product(*holonomy.candidate_sets(G, comp, x)):
        if holonomy.artin_action(beta, a, G) == a:
            longitude = tuple(
                holonomy.longitude_image(beta, a, t, G, check=False)
                for t in range(comp.count)
            )
            meridian = tuple(a[p] for p in comp.basepoints)
            recs.append(holonomy.HomRecord(a, meridian, longitude))
    return recs


def one_level_scan(beta, G, pools, limit):
    """holonomy._scan with its stabilizer chain cut after the first level,
    one meridian tuple x of the product of pools at a time (all of them at
    once for None): position p0 runs over one representative per H-orbit,
    every other position over all its candidates, and the one transversal
    is p0's.  The reference that the chain is tested against; like
    _scan, it leaves the cap to its callers."""
    comp = braids.components(beta)
    for x in [None] if pools is None else itertools.product(*pools):
        cands = holonomy.candidate_sets(G, comp, x, allow_large=True)
        if x is None:
            H = G.elements()
        else:
            H = set.intersection(*(set(G.centralizer(xt)) for xt in x))
        p0 = next((p for p, c in enumerate(cands) if len(c) > 1), 0)
        trans = G.orbits(cands[p0], H)
        cands[p0] = list(trans)
        for a in itertools.product(*cands):
            b = a
            for L in range(1, limit + 1):
                b = holonomy.artin_action(beta, b, G)
                if b == a:
                    meridians = tuple(a[q] for q in comp.basepoints)
                    yield meridians, a, L, (trans[a[p0]],)
                    break


def position_order_scan(beta, G, pools, limit):
    """The stabilizer chain over the positions in their order, one meridian
    tuple x of the product of pools at a time (all of them at once for
    None), from H, the elements commuting with every x_t: the scan that
    placed no meridian as a level of its chain, one call per x.  With no
    meridian prescribed, a position after the first of its cycle runs over
    the class of that first entry.  The reference for _scan's per-x counts
    and walk counts; like _scan, it leaves the cap to its callers."""
    comp = beta.components
    mul, inv, orbit = G.table, G.inv, beta.orbit
    central = {cl.representative for cl in G.classes if len(cl.members) == 1}
    for x in [None] if pools is None else itertools.product(*pools):
        cands = holonomy.candidate_sets(G, comp, x, allow_large=True)
        m = len(cands)
        if x is None:
            H = G.elements()
            lead = {p: cyc[0] for cyc in comp.cycles for p in cyc[1:]}
        else:
            H = set.intersection(*(set(G.centralizer(xt)) for xt in x))
            lead = {}
        last_lead = max(lead.values(), default=-1)
        last_multi = max((p for p, c in enumerate(cands) if len(c) > 1), default=-1)

        def pool(p, a):
            return G.classes[G.class_of[a[lead[p]]]].members if p in lead else cands[p]

        def chain(a, S, transversals):
            p = len(a)
            while p < m and len(P := pool(p, a)) == 1:
                a, p = a + tuple(P), p + 1
            if p > last_lead and (p > last_multi or central.issuperset(S)):
                yield a, transversals
                return
            for r, t in G.orbits(pool(p, a), S).items():
                S_r = S
                if p < last_multi:
                    S_r = tuple(h for h in S if mul[h][r] == mul[r][h])
                yield from chain(a + (r,), S_r, transversals + (t,))

        for a, transversals in chain((), tuple(sorted(H)), ()):
            for b in itertools.product(*(pool(q, a) for q in range(len(a), m))):
                b = a + b
                L = orbit(b, mul, inv, limit)
                if L:
                    yield tuple(b[q] for q in comp.basepoints), b, L, transversals


def one_level_homs(beta, G, x=None):
    with mock.patch.object(holonomy, "_scan", one_level_scan):
        return holonomy.enumerate_homs(beta, G, x_constraint=x)


def periodic_weights(beta, G, x, p, k, scan=None):
    """periodic_scan's weights at the meridian tuple x summed per (big,
    small), through the reference scan scan when it is given."""
    pools = [(xt,) for xt in x]
    with mock.patch.object(holonomy, "_scan", scan or holonomy._scan):
        weights = Counter()
        for _, w, big, small in holonomy.periodic_scan(beta, G, pools, p, k):
            weights[big, small] += w
        return weights


# groups of order at most 24, one with its identity last, so that H does
# not start with it
s3 = groups.symmetric(3)
CHAIN_GROUPS = [
    groups.cyclic(5),
    groups.cyclic(6),
    groups.dihedral(4),
    groups.dihedral(6),
    groups.quaternion8(),
    s3,
    relabelled(s3, list(reversed(s3.elements()))),
    groups.symmetric(4),
]


def levels(beta, G, x=None):
    """{"three or more levels"} when the chain of some fixed tuple has at
    least three levels, else the empty set."""
    scan = holonomy._scan(beta, G, x and [(xt,) for xt in x], 1)
    if any(len(transversals) >= 3 for *_, transversals in scan):
        return {"three or more levels"}
    return set()


def walks(beta, run):
    """run()'s result and the number of tuples it walks through beta's
    orbit walker."""
    with mock.patch.dict(beta.__dict__, orbit=mock.Mock(wraps=beta.orbit)):
        return run(), beta.orbit.call_count


def scanned(beta, run):
    """The number of tuples that run() walks through beta's orbit walker."""
    return walks(beta, run)[1]


class TestOrbitReduction:
    def test_matches_unreduced_scan(self):
        rng = random.Random(19)
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
                cands = holonomy.candidate_sets(G, comp, x)
                p0 = next((p for p, c in enumerate(cands) if len(c) > 1), 0)
                if len(H) == G.order:
                    covered.add("H = G")
                elif any(G.conj(h, c) != c for h in H for c in cands[p0]):
                    covered.add("H < G with orbits at p0")
                if n > 1 and p0 > 0:
                    covered.add("several components, p0 > 0")
                multi = [c for c in cands if len(c) > 1]
                if len(multi) > 1 and any(len(G.centralizer(h)) < G.order for h in H):
                    covered.add("two levels")
                covered |= levels(b, G, x)
                recs = holonomy.enumerate_homs(b, G, x_constraint=x)
                assert recs == one_level_homs(b, G, x) == unreduced_homs(b, G, x)
            if any(len(c) > 1 for c in comp.cycles[1:]):
                covered.add("a later cycle pruned by its first entry's class")
            covered |= levels(b, G)
            recs = holonomy.enumerate_homs(b, G)
            assert recs == one_level_homs(b, G) == unreduced_homs(b, G)
        assert covered == {
            "H = G",
            "H < G with orbits at p0",
            "several components, p0 > 0",
            "two levels",
            "three or more levels",
            "a later cycle pruned by its first entry's class",
        }

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_chain_matches_one_level_and_unreduced(self, data):
        G = data.draw(st.sampled_from(CHAIN_GROUPS))
        m = data.draw(
            st.integers(2, 5 if G.order <= 8 else 4 if G.order**4 <= 24**3 else 3)
        )
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=6))
        b = braids.BraidWord(m, tuple(letters))
        comp = braids.components(b)
        x = tuple(data.draw(st.sampled_from(G.elements())) for _ in comp.cycles)
        xc = data.draw(st.sampled_from((None, x)))
        recs = holonomy.enumerate_homs(b, G, x_constraint=xc)
        assert recs == one_level_homs(b, G, xc) == unreduced_homs(b, G, xc)

        p = data.draw(
            st.sampled_from([p for p in (2, 3, 5) if all(len(c) % p for c in comp.cycles)])
        )
        k = data.draw(st.integers(1, 2))
        assert periodic_weights(b, G, x, p, k) == periodic_weights(
            b, G, x, p, k, one_level_scan
        )

    @pytest.mark.parametrize(
        "braid, p, k, gspec",
        [
            ("3: 1 1 -2", 7, 1, "symmetric:5"),
            ("3: 1 2", 7, 2, "symmetric:5"),
            ("3: 1 1 -2", 3, 2, "dihedral:5"),
            ("4: 2 -1 2 2 1 3 3 3", 5, 1, "symmetric:3"),
            ("3: 1 -2 1 -2", 7, 1, "symmetric:4"),
        ],
    )
    def test_periodic_weights_match_one_level(self, braid, p, k, gspec):
        b, G = braids.parse_braid(braid), groups.from_group_spec(gspec)
        n = braids.components(b).count
        for x in x_tuples(G, n, "representatives"):
            assert periodic_weights(b, G, x, p, k) == periodic_weights(
                b, G, x, p, k, one_level_scan
            )

    @pytest.mark.parametrize(
        "braid, gspec",
        [
            ("2: 1", "cyclic:40"),
            ("2: 1", "dihedral:20"),
            ("3:", "symmetric:4"),
            ("4: 1 3", "dihedral:4"),
        ],
        ids=["cyclic40", "dihedral20", "s4-identity", "d4-two-cycles"],
    )
    def test_one_split_per_pool_and_stabilizer(self, braid, gspec):
        b, G = braids.parse_braid(braid), groups.from_group_spec(gspec)
        with mock.patch.object(G, "orbits", wraps=G.orbits) as orbits:
            recs = holonomy.enumerate_homs(b, G)
        splits = [(tuple(pool), tuple(S)) for (pool, S), _ in orbits.call_args_list]
        assert len(set(splits)) == len(splits) > 0
        assert recs == unreduced_homs(b, G)

    @pytest.mark.parametrize(
        "braid, gspec, walked",
        [
            ("3: 1 -2 1 -2", "symmetric:5", 546),
            ("3: 1 -2 1 -2", "symmetric:6", 11470),
            ("4: 1 2 3 1 -2 3", "symmetric:5", 56657),
        ],
    )
    def test_tuples_scanned_by_count(self, braid, gspec, walked):
        b, G = braids.parse_braid(braid), groups.from_group_spec(gspec)
        assert scanned(b, lambda: holonomy.count_fixed_tuples(b, G)) == walked

    def test_tuples_scanned_by_verify(self):
        b, G = braids.parse_braid("3: 1 1 -2"), groups.symmetric(6)
        instance = congruence.check_preconditions(b, 7, 1, G)
        assert scanned(b, lambda: congruence.verify(instance)) == 5994

    @pytest.mark.parametrize(
        "braid, gspec, x",
        [
            # 998 fixed strands, then one 2-cycle whose x has a class of 3
            ("1000: 999", "symmetric:3", "(1 2)"),
            # 500 2-cycles over the trivial group, no meridian prescribed
            ("1000: " + " ".join(map(str, range(1, 1000, 2))), "cyclic:1", None),
        ],
        ids=["s3-one-multi-position", "trivial-group"],
    )
    def test_lone_candidates_form_no_level(self, braid, gspec, x):
        # one level per position would nest about 1,000 generators deep
        b, G = braids.parse_braid(braid), groups.from_group_spec(gspec)
        if x is not None:
            x = (G.element_index(x),) * b.components.count
        assert holonomy.count_fixed_tuples(b, G, x) == 1

    def test_counts_and_walks_against_position_order(self):
        # basepoints first leaves every count and record as the chain over
        # the positions in order made it, and walks no more tuples
        rng = random.Random(29)
        corpus = [
            (braids.parse_braid(word), G)
            for word in ("3: 1 -2 1 -2", "4: 1 2 3 1 -2 3", "3: 1 1 1 2 2", "4: 1 3")
            for G in (groups.symmetric(4), groups.dihedral(5))
        ]
        for i in range(60):
            G = CHAIN_GROUPS[i % len(CHAIN_GROUPS)]
            corpus.append((random_braid(rng, 4 if G.order <= 8 else 3), G))
        late = 0
        for b, G in corpus:
            comp = braids.components(b)
            rest = [p for cyc in comp.cycles for p in cyc[1:]]
            late += any(p < q for p in rest for q in comp.basepoints)
            x = tuple(rng.randrange(G.order) for _ in comp.cycles)
            for xc in (None, x):
                for run in (holonomy.count_fixed_tuples, holonomy.enumerate_homs):
                    got, walked = walks(b, lambda: run(b, G, xc))
                    with mock.patch.object(holonomy, "_scan", position_order_scan):
                        expected, reference = walks(b, lambda: run(b, G, xc))
                    assert got == expected and walked <= reference
        assert late > 0

    def test_s6_count(self):
        # 11,470 tuples scanned, against 5,702,400 at one level
        b = braids.parse_braid("3: 1 -2 1 -2")
        assert holonomy.count_homs(b, groups.symmetric(6)) == 10080


class TestCountFromWeights:
    """count_fixed_tuples sums the scan's weights |T_0| |T_1| ... and builds
    no record; count_homs counts the records enumerate_homs builds."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_records_and_wirtinger(self, data):
        G = data.draw(st.sampled_from(SMALL_GROUPS + CHAIN_GROUPS))
        constrained = data.draw(st.booleans())
        # the oracle tries |G|^(free arcs) labellings.  A closure has one
        # arc per letter, plus one per component that never passes under;
        # a prescribed meridian pins one arc of each component.
        e = 1
        while G.order ** (e + 1) <= 24**3:
            e += 1
        m = data.draw(st.integers(1, 4 if constrained else min(4, e)))
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        letters = []
        if m > 1:
            size = min(6, e if constrained else e - m)
            letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=size))
        b = braids.BraidWord(m, tuple(letters))
        comp = braids.components(b)
        x = fixed = None
        if constrained:
            x = tuple(data.draw(st.sampled_from(G.elements())) for _ in comp.cycles)
            fixed = dict(zip(comp.basepoints, x))
        count = holonomy.count_fixed_tuples(b, G, x)
        assert count == holonomy.count_homs(b, G, x_constraint=x)
        assert count == wirtinger_count(b, G, fixed)

    def test_builds_no_record(self, monkeypatch):
        def forbidden(*args, **kw):
            raise AssertionError("a record was built")

        monkeypatch.setattr(holonomy, "enumerate_homs", forbidden)
        monkeypatch.setattr(holonomy, "longitude_image", forbidden)
        monkeypatch.setattr(holonomy, "_holonomies", forbidden)
        b = braids.parse_braid("3: 1 -2 1 -2")
        assert holonomy.count_fixed_tuples(b, groups.symmetric(6)) == 10080

    def test_caps_as_enumerate_homs(self):
        G = groups.quaternion8()
        with pytest.raises(SearchTooLarge):
            holonomy.count_fixed_tuples(braids.parse_braid("12:"), G)
        with pytest.raises(LengthMismatch):
            holonomy.count_fixed_tuples(braids.parse_braid("2:"), G, (G.id,))
        with mock.patch.object(holonomy, "SEARCH_CAP", 8**3 - 1):
            b = braids.parse_braid("3:")
            with pytest.raises(SearchTooLarge):
                holonomy.count_fixed_tuples(b, G)
            assert holonomy.count_fixed_tuples(b, G, allow_large=True) == 8**3


def torus_count(G, m, n):
    """|Hom(pi_1, G)| for the torus knot T(m, n), whose group is
    <a, b | a^m = b^n> (Rolfsen, Knots and Links, ch. 3): the sum over z of
    r_m(z) r_n(z), where r_e(z) counts the g with g^e = z.  Power maps
    only: no scan, no braid action, no Wirtinger relations."""

    def roots(e):
        powers = []
        for g in G.elements():
            z = G.id
            for _ in range(e):
                z = G.table[z][g]
            powers.append(z)
        return Counter(powers)

    r_m, r_n = roots(m), roots(n)
    return sum(r_m[z] * r_n[z] for z in G.elements())


TORUS_GROUPS = [
    "cyclic:5",
    "cyclic:12",
    "dihedral:5",
    "dihedral:6",
    "quaternion:8",
    "symmetric:3",
    "symmetric:4",
    "symmetric:5",
    "perm:4:(1 2 3);(2 3 4)",
    "perm:5:(1 2 3);(3 4 5)",
]
# the 13 torus knots T(m, n) with m <= 4 and n <= 7
TORUS_KNOTS = [(m, n) for m in (2, 3, 4) for n in range(1, 8) if math.gcd(m, n) == 1]


class TestTorusKnots:
    """For gcd(m, n) = 1 the closure of (s1 s2 ... s_(m-1))^n is the torus
    knot T(m, n), so its hom count is torus_count's."""

    @pytest.mark.parametrize("spec", TORUS_GROUPS)
    def test_count_from_power_maps(self, spec):
        G = groups.from_group_spec(spec)
        for m, n in TORUS_KNOTS:
            b = braids.BraidWord(m, tuple(range(1, m)) * n)
            assert holonomy.count_fixed_tuples(b, G) == torus_count(G, m, n)

    def test_trefoil_over_s3(self):
        # 6 abelian homs and the 6 onto S3, one per nontrivial 3-colouring
        G = groups.symmetric(3)
        assert torus_count(G, 2, 3) == 12
        assert holonomy.count_fixed_tuples(braids.parse_braid("2: 1 1 1"), G) == 12


# (knot or link up to mirror image, alpha, beta, a braid word whose closure
# it is); a row is kept only while its counts, and a knot's keys, agree on
# every group of TWO_BRIDGE_GROUPS
TWO_BRIDGE = [
    ("3_1", 3, 1, "2: 1 1 1"),
    ("4_1", 5, 3, "3: 1 -2 1 -2"),
    ("5_1", 5, 1, "2: 1 1 1 1 1"),
    ("5_2", 7, 3, "3: 1 1 1 2 -1 2"),
    ("6_1", 9, 7, "4: 1 1 2 -1 -3 2 -3"),
    ("7_4", 15, 11, "4: 1 1 2 -1 2 2 3 -2 3"),
    ("Hopf", 2, 1, "2: 1 1"),
    ("T(2,4)", 4, 1, "2: 1 1 1 1"),
    ("T(2,6)", 6, 1, "2: 1 1 1 1 1 1"),
    ("Whitehead", 8, 3, "3: 1 1 -2 1 -2"),
]
TWO_BRIDGE_GROUPS = [
    groups.from_group_spec(spec)
    for spec in ("symmetric:3", "dihedral:5", "symmetric:4", "quaternion:8",
                 "dihedral:7", "symmetric:5")
]


class TestTwoBridge:
    """The closures of TWO_BRIDGE's braid words against the 2-bridge
    presentation of two_bridge_oracle: hom counts for every row, and for
    the knots the pair orbits of (meridian, longitude) against those of
    (a, Riley's longitude)."""

    @pytest.mark.parametrize(
        "alpha, beta, word",
        [row[1:] for row in TWO_BRIDGE],
        ids=[row[0] for row in TWO_BRIDGE],
    )
    def test_count(self, alpha, beta, word):
        b = braids.parse_braid(word)
        for G in TWO_BRIDGE_GROUPS:
            assert holonomy.count_fixed_tuples(b, G) == two_bridge_count(alpha, beta, G)

    @pytest.mark.parametrize(
        "alpha, beta, word",
        [row[1:] for row in TWO_BRIDGE if row[1] % 2],
        ids=[row[0] for row in TWO_BRIDGE if row[1] % 2],
    )
    def test_keyed_by_longitude(self, alpha, beta, word):
        b = braids.parse_braid(word)
        for G in TWO_BRIDGE_GROUPS:
            keyed = Counter(
                pair_orbit(G, r.meridian[0], r.longitude[0])
                for r in holonomy.enumerate_homs(b, G)
            )
            assert keyed == two_bridge_keyed(alpha, beta, G)

    def test_conventions(self):
        # the trefoil over S3: 6 abelian homs and 6 onto S3; the Hopf link
        # over S3: the 18 commuting pairs; beta even is refused
        G = groups.symmetric(3)
        assert two_bridge_word(3, 1) == ((0, 1), (1, 1))
        assert two_bridge_word(5, 3) == ((0, 1), (1, -1), (0, -1), (1, 1))
        assert two_bridge_count(3, 1, G) == 12
        assert two_bridge_count(2, 1, G) == 18
        with pytest.raises(ValueError):
            two_bridge_word(5, 2)
        with pytest.raises(ValueError):
            two_bridge_keyed(2, 1, G)


def first_return(beta, a, G, limit):
    """The first L <= limit at which repeating artin_action brings a back,
    or 0: the reference for the orbit walkers."""
    b = a
    for L in range(1, limit + 1):
        b = holonomy.artin_action(beta, b, G)
        if b == a:
            return L
    return 0


class TestOrbitWalker:
    """BraidWord.orbit, the compiled walker behind _scan, against
    artin_action, and the cap above which _scan keeps walking with _act."""

    def test_matches_artin_action_property(self):
        returns = []

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def walker_matches(data):
            G = data.draw(st.sampled_from(CHAIN_GROUPS))
            m = data.draw(st.integers(1, 5))
            alphabet = [s * i for i in range(1, m) for s in (1, -1)]
            letters = ()
            if alphabet:
                letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=40))
            b = braids.BraidWord(m, tuple(letters))
            a = tuple(data.draw(st.sampled_from(G.elements())) for _ in range(m))
            limit = data.draw(st.integers(1, 60))
            L = first_return(b, a, G, limit)
            compiled = holonomy._compile_orbit(b.steps, m)
            assert compiled(a, G.table, G.inv, limit) == L
            assert holonomy._walk(b.steps, a, G.table, G.inv, limit) == L
            assert b.orbit(a, G.table, G.inv, limit) == L
            returns.append(L)

        walker_matches()
        assert 0 in returns and 1 in returns and max(returns) > 1

    def test_builds_from_integers_only(self):
        for steps, strands in [
            (((0.0, 1.0, True),), 2),
            ((("0", "1", False),), 2),
            (((0, 1, True),), "2"),
        ]:
            with pytest.raises(TypeError):
                holonomy._compile_orbit(steps, strands)

    def test_built_once_per_braid(self, monkeypatch):
        built = []
        real = holonomy._compile_orbit

        def compile_orbit(steps, strands):
            built.append(steps)
            return real(steps, strands)

        monkeypatch.setattr(holonomy, "_compile_orbit", compile_orbit)
        b = braids.parse_braid("3: 1 -2 1 -2")
        G = groups.symmetric(3)
        assert holonomy.count_fixed_tuples(b, G) == len(holonomy.enumerate_homs(b, G))
        assert sum(w for _, w, _, _ in holonomy.periodic_scan(b, G, [(1,)], 5, 2)) > 0
        assert built == [b.steps]

    def test_cap_boundary(self, monkeypatch):
        def forbidden(steps, strands):
            raise AssertionError("a walker was compiled over the cap")

        monkeypatch.setattr(holonomy, "_WALKER_CAP", 5)
        assert holonomy.orbit_walker(((0, 1, True), (1, 2, False)), 3).__name__ == "orbit"
        monkeypatch.setattr(holonomy, "_compile_orbit", forbidden)
        walk = holonomy.orbit_walker(((0, 1, True), (1, 2, False), (0, 1, True)), 3)
        assert walk.func is holonomy._walk

    def test_over_the_cap_walks_with_act(self, monkeypatch):
        word = "3: " + "1 -2 " * 600
        G = groups.symmetric(3)
        n = 3  # (1 -2)^600 is a pure braid

        def counts():
            b = braids.parse_braid(word)
            assert braids.components(b).count == n
            weights = Counter()
            for x in x_tuples(G, n, "representatives"):
                weights += periodic_weights(b, G, x, 5, 1)
            return (holonomy.count_fixed_tuples(b, G), weights), b.orbit

        def forbidden(steps, strands):
            raise AssertionError("a walker was compiled over the cap")

        with monkeypatch.context() as patched:
            patched.setattr(holonomy, "_compile_orbit", forbidden)
            interpreted, walk = counts()
        assert walk.func is holonomy._walk
        with monkeypatch.context() as patched:
            patched.setattr(holonomy, "_WALKER_CAP", 10**4)
            compiled, walk = counts()
        assert walk.__name__ == "orbit"
        assert interpreted == compiled
        assert interpreted[0] > 0 and sum(interpreted[1].values()) > 0


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
                # the cap is lowered below on every pass of the loop
                for c in holonomy.candidate_sets(G, comp, xc, allow_large=True):
                    size *= len(c)
                monkeypatch.setattr(holonomy, "SEARCH_CAP", size)
                holonomy.candidate_sets(G, comp, xc)
                monkeypatch.setattr(holonomy, "SEARCH_CAP", size - 1)
                with pytest.raises(SearchTooLarge):
                    holonomy.candidate_sets(G, comp, xc)
                holonomy.candidate_sets(G, comp, xc, allow_large=True)

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


    def test_cached_class_table_replaces_the_scan(self, monkeypatch):
        # once verify or dw has built Cen(x)'s class table, H is its keys
        G = groups.symmetric(4)
        b = braids.parse_braid("3: 1 1 -2")
        x = (G.element_index("(1 2)"), G.element_index("(1 2 3)"))
        expect = holonomy.enumerate_homs(b, G, x_constraint=x)
        for xt in x:
            G.cen_class_reps(xt)

        def no_scan(self, x):
            raise AssertionError("centralizer scanned")

        monkeypatch.setattr(groups.FiniteGroup, "centralizer", no_scan)
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
            hol = holonomy._holonomies(b.steps, labels, G)
            assert tuple(labels) == holonomy.artin_action(b, a, G)
            assert len(hol) == b.strands

    def test_steps_prepared_once_per_braid(self, monkeypatch):
        built = []
        real = braids.BraidWord.steps.func

        def steps(beta):
            built.append(beta)
            return real(beta)

        prop = functools.cached_property(steps)
        prop.__set_name__(braids.BraidWord, "steps")
        monkeypatch.setattr(braids.BraidWord, "steps", prop)
        b = braids.parse_braid("3: 1 -2 1 -2")
        recs = holonomy.enumerate_homs(b, groups.symmetric(3))
        assert len(recs) > 1 and built == [b]

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
