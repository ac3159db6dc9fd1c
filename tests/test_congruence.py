import itertools
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dwlink import braids, congruence, dw, groups, holonomy
from dwlink.errors import (
    ComponentMismatch,
    GroupOrderDivisible,
    InputError,
    NotPrime,
    SearchTooLarge,
)

from test_acceptance import F21, THEOREM_CATALOG
from test_holonomy import position_order_scan, scanned, x_tuples
from two_bridge_oracle import pair_orbit


def make(braid, p, k, gspec):
    return congruence.check_preconditions(
        braids.parse_braid(braid), p, k, groups.from_group_spec(gspec)
    )


class TestPreconditions:
    def test_trefoil_unknot_valid(self):
        inst = make("2: 1", 3, 1, "cyclic:2")
        assert inst.p == 3 and inst.k == 1

    def test_component_mismatch(self):
        with pytest.raises(ComponentMismatch):
            make("2: 1", 2, 1, "cyclic:3")

    def test_group_order_divisible(self):
        with pytest.raises(GroupOrderDivisible):
            make("2: 1 1 1", 3, 1, "symmetric:3")

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make("2: 1", 4, 1, "cyclic:3")

    def test_bad_k(self):
        with pytest.raises(InputError):
            make("2: 1", 3, 0, "cyclic:2")


class TestVerify:
    def test_power_length_is_not_capped(self):
        # the braid power is never walked, so no k is refused for its length
        cases = {
            k: congruence.verify(make("2: 1", 3, k, "cyclic:2")).cases_checked
            for k in (1, 2, 3, 40)
        }
        assert set(cases.values()) == {cases[1]}

    @pytest.mark.parametrize(
        "braid, gspec", [("1:", "cyclic:2"), ("2:", "symmetric:3")]
    )
    def test_empty_word_huge_k(self, monkeypatch, braid, gspec):
        # p^k > sys.maxsize: neither the power nor p^k itself is built
        def no_power(beta, n):
            raise AssertionError("braid power built for an empty word")

        monkeypatch.setattr(braids, "braid_power", no_power)
        report = congruence.verify(make(braid, 5, 10**7, gspec))
        assert report.ok and report.cases_checked > 0

    def test_search_cap_checked_before_any_scan(self, monkeypatch):
        # the identity's search space passes; a later x's does not
        def no_scan(*args):
            raise AssertionError("an x was scanned before every cap check")

        monkeypatch.setattr(congruence, "periodic_scan", no_scan)
        with pytest.raises(SearchTooLarge, match="of 21870000000 candidates"):
            congruence.verify(make("8: 1 2 3 4 5 6 7", 7, 1, "symmetric:5"))
        monkeypatch.setattr(dw, "enumerate_homs", no_scan)
        with pytest.raises(SearchTooLarge, match="of 21870000000 candidates"):
            dw.dw_table(braids.parse_braid("8: 1 2 3 4 5 6 7"), groups.symmetric(5))

    def test_trefoil_vs_unknot_z2(self):
        report = congruence.verify(make("2: 1", 3, 1, "cyclic:2"))
        assert report.ok and report.n == 1
        assert report.cases_checked == 4

    def test_t26_vs_hopf_z2_exact(self):
        # abelian case where both sides are 0/1-valued: equality is exact
        inst = make("2: 1 1", 3, 1, "cyclic:2")
        report = congruence.verify(inst, x_scope="all")
        assert report.ok

        from dwlink import dw

        big = braids.braid_power(inst.beta, 3)
        G = inst.group
        import itertools

        for x in itertools.product(range(2), repeat=2):
            for h in itertools.product(range(2), repeat=2):
                hp = tuple(G.power(e, 3) for e in h)
                assert dw.dw_class(big, G, x, hp) == dw.dw_class(
                    inst.beta, G, x, h
                )

    def test_trivial_group(self):
        report = congruence.verify(make("2: 1", 3, 1, "cyclic:1"))
        assert report.ok and report.cases_checked == 1

    def test_nonabelian(self):
        report = congruence.verify(make("2: 1", 3, 1, "quaternion:8"))
        assert report.ok

    def test_full_scope(self):
        report = congruence.verify(make("2: 1", 3, 1, "dihedral:4"), x_scope="all")
        assert report.ok

    def test_self_consistency_at_k(self):
        # verify(beta, p, k) and verify(beta^p, p, k-1) compare the same
        # periodic link: the powered words coincide
        beta = braids.parse_braid("2: 1")
        p, k = 3, 2
        big1 = braids.braid_power(beta, p**k)
        big2 = braids.braid_power(braids.braid_power(beta, p), p ** (k - 1))
        assert big1 == big2
        r1 = congruence.verify(make("2: 1", 3, 2, "cyclic:2"))
        r2 = congruence.verify(
            congruence.check_preconditions(
                braids.braid_power(beta, 3), 3, 1, groups.cyclic(2)
            )
        )
        assert r1.ok and r2.ok

    def test_power_map_respects_classes(self):
        # conjugate elements of Cen(x) have conjugate p^k-th powers there
        G = groups.quaternion8()
        q = 9
        for x in G.elements():
            cen = G.centralizer(x)
            for h in cen:
                for g in cen:
                    conj = G.conj(g, h)
                    lhs = G.power(conj, q)
                    rhs = G.conj(g, G.power(h, q))
                    assert lhs == rhs

    def test_report_json(self):
        report = congruence.verify(make("2: 1", 3, 1, "cyclic:2"))
        obj = report.to_json_obj()
        assert obj["ok"] is True
        assert obj["violations"] == []
        assert obj["components"] == 1


def _reference_cen_class_reps(G, x):
    """The class table of Cen(x) re-derived orbit by orbit."""
    cen = G.centralizer(x)
    return {h: G.class_in_subgroup(cen, h).representative for h in cen}


def _outputs(braid, p, k, gspec):
    inst = make(braid, p, k, gspec)
    report = congruence.verify(inst).to_json_obj()
    table = dw.dw_table(inst.beta, inst.group)
    return report, table.to_json_obj(), table.exact


@pytest.mark.parametrize(
    "braid, p, k, gspec",
    [
        ("3: 1 1 -2", 7, 1, "symmetric:5"),
        ("2: 1 1 1", 5, 1, "symmetric:3"),
        ("2: 1", 3, 1, "quaternion:8"),
    ],
)
def test_class_lookup_matches_reference(monkeypatch, braid, p, k, gspec):
    fast = _outputs(braid, p, k, gspec)
    monkeypatch.setattr(
        groups.FiniteGroup, "cen_class_reps", _reference_cen_class_reps
    )
    assert _outputs(braid, p, k, gspec) == fast


def _orbit_keyed_counts(beta, G, classes, power):
    """Records of beta with meridians in the classes of the tuple classes,
    over every meridian tuple in that product of classes, counted by the
    per-component G-orbit of the pair (meridian, longitude^power)."""
    counts = Counter()
    pools = [G.classes[G.class_of[c]].members for c in classes]
    for x in itertools.product(*pools):
        for r in holonomy.enumerate_homs(beta, G, x_constraint=x):
            counts[
                tuple(
                    pair_orbit(G, xt, G.power(lt, power))
                    for xt, lt in zip(x, r.longitude)
                )
            ] += 1
    return counts


class TestDeckActionBuckets:
    """The deck transformation of the closure of beta^(p^k) acts on its
    homomorphisms as beta acts on Fix(beta^(p^k)), with Fix(beta) as the
    fixed set; orbits have size a power of p.  It conjugates each
    component's peripheral pair (meridian, longitude) by its own element.
    So the invariant sets are keyed by per-component orbits of pairs, not
    by a fixed meridian tuple x.  verify keys by x, and on this instance it
    reports a violation where the orbit-keyed count finds none."""

    braid, gspec, p = "3: 1 1 -2", "dihedral:5", 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_orbit_keyed_reference_holds(self, k):
        beta = braids.parse_braid(self.braid)
        G = groups.from_group_spec(self.gspec)
        q = self.p**k
        big = braids.braid_power(beta, q)
        reps = [c.representative for c in G.classes]
        keys = violations = 0
        for classes in itertools.product(reps, repeat=2):
            lhs = _orbit_keyed_counts(big, G, classes, 1)
            rhs = _orbit_keyed_counts(beta, G, classes, q)
            for key in lhs.keys() | rhs.keys():
                keys += 1
                violations += (lhs[key] - rhs[key]) % self.p != 0
        assert (keys, violations) == (16, 0)

    def test_components_conjugated_by_different_elements(self):
        beta = braids.parse_braid(self.braid)
        G = groups.from_group_spec(self.gspec)
        big = braids.braid_power(beta, self.p)
        comp = braids.components(big)

        def peripheral(a):
            return [
                (a[b], holonomy.longitude_image(big, a, t, G))
                for t, b in enumerate(comp.basepoints)
            ]

        moved = split = 0
        for r in holonomy.enumerate_homs(big, G):
            after = peripheral(holonomy.artin_action(beta, r.tuple, G))
            conjugators = [
                {g for g in G.elements() if (G.conj(g, x), G.conj(g, h)) == pair}
                for (x, h), pair in zip(peripheral(r.tuple), after)
            ]
            # each pair moves within its own orbit, so the orbit keys hold
            assert all(conjugators)
            moved += tuple(x for x, _ in after) != r.meridian
            split += not set.intersection(*conjugators)
        # records leave their meridian bucket, and for some no single
        # element conjugates both components at once
        assert moved and split


def _letter_walk_counts(inst, big, x):
    """The class-level counts at x from big, the braid power beta^(p^k)
    itself: every candidate walks all p^k copies of the word.  The
    reference that congruence.class_counts is tested against."""
    beta, G = inst.beta, inst.group
    lhs = dw.class_buckets(G, x, holonomy.enumerate_homs(big, G, x_constraint=x))
    rhs = dw.class_buckets(G, x, holonomy.enumerate_homs(beta, G, x_constraint=x))
    return lhs, rhs


def _long_orbits(inst, x):
    """Scanned representatives on beta-orbits of length > 1 at the meridian
    tuple x."""
    beta, p, k, G = inst.beta, inst.p, inst.k, inst.group
    scan = holonomy.periodic_scan(beta, G, [(xt,) for xt in x], p, k)
    return sum(small is None for *_, small in scan)


def _sweep_counts(inst, scope="representatives"):
    """congruence.class_counts over the sweep of scope, from one call: a
    function from each meridian tuple x to its (lhs, rhs), empty Counters
    for an x with no fixed tuple."""
    n = braids.components(inst.beta).count
    pools = [holonomy._x_pool(inst.group, scope)] * n
    counts = {x: (lhs, rhs) for x, lhs, rhs in congruence.class_counts(inst, pools)}
    return lambda x: counts.get(x, (Counter(), Counter()))


# the verify argvs of the benchmark workloads verify-classes and
# verify-periodic, full and quick
BENCHMARK_INSTANCES = [
    ("3: 1 1 -2", 7, 1, "symmetric:6"),
    ("3: 1 1 -2", 7, 1, "symmetric:5"),
    ("3: 1 2", 7, 4, "symmetric:5"),
    ("3: 1 2", 5, 2, "symmetric:3"),
]

# instances whose beta-orbits in Fix(beta^(p^k)) have length p (D5) and
# p^2 (F21)
LONG_ORBIT_INSTANCES = [
    ("3: 1 1 -2", 3, 2, "dihedral:5"),
    ("4: 2 -1 2 2 1 3 3 3", 2, 3, F21),
]

# (group, prime not dividing its order); for some braids, D5 with p = 3 and
# D11 with p = 5 give beta-orbits of length p in the fixed set of beta^p
PROPERTY_CASES = [
    (groups.dihedral(5), 3),
    (groups.dihedral(11), 5),
    (groups.dihedral(5), 7),
    (groups.symmetric(4), 5),
    (groups.quaternion8(), 3),
    (groups.from_group_spec(F21), 2),
    (groups.dihedral(4), 3),
    (groups.symmetric(3), 5),
]


class TestOrbitCensus:
    """verify's one scan per x against the walk of the braid power."""

    @pytest.mark.parametrize(
        "braid, p, k, gspec",
        THEOREM_CATALOG + BENCHMARK_INSTANCES + LONG_ORBIT_INSTANCES,
    )
    def test_matches_letter_walk(self, braid, p, k, gspec):
        inst = make(braid, p, k, gspec)
        n = braids.components(inst.beta).count
        # one power per instance, so its orbit walker is compiled once
        big = braids.braid_power(inst.beta, inst.p**inst.k)
        counts = _sweep_counts(inst)
        for x in x_tuples(inst.group, n, "representatives"):
            assert counts(x) == _letter_walk_counts(inst, big, x)

    def test_orbit_length_p_squared(self):
        # no long orbit of this instance is fixed by beta^2: they have length 4
        def long_orbits(k):
            inst = make("4: 2 -1 2 2 1 3 3 3", 2, k, F21)
            xs = x_tuples(inst.group, 2, "representatives")
            return sum(_long_orbits(inst, x) for x in xs)

        assert long_orbits(1) == 0 and long_orbits(2) > 0

    def test_matches_letter_walk_property(self):
        long_orbits = []

        @settings(max_examples=80)
        @given(data=st.data())
        @example(data=None)
        def census_matches(data):
            if data is None:  # beta-orbits of length 3
                inst = make("3: 1 1 -2", 3, 2, "dihedral:5")
            else:
                G, p = data.draw(st.sampled_from(PROPERTY_CASES))
                kmax = max(k for k in range(1, 8) if p**k <= 125)
                k = data.draw(st.integers(1, kmax))
                m = data.draw(st.integers(2, 4))
                alphabet = [s * i for i in range(1, m) for s in (1, -1)]
                letters = data.draw(
                    st.lists(st.sampled_from(alphabet), min_size=1, max_size=5)
                )
                beta = braids.BraidWord(m, tuple(letters))
                assume(all(len(c) % p for c in braids.components(beta).cycles))
                inst = congruence.check_preconditions(beta, p, k, G)
            n = braids.components(inst.beta).count
            big = braids.braid_power(inst.beta, inst.p**inst.k)
            counts = _sweep_counts(inst)
            for x in x_tuples(inst.group, n, "representatives"):
                assert counts(x) == _letter_walk_counts(inst, big, x)
                long_orbits.append(_long_orbits(inst, x))

        census_matches()
        assert sum(long_orbits) > 0

    def test_verify_builds_no_braid_power(self, monkeypatch):
        def no_power(beta, n):
            raise AssertionError("verify built a braid power")

        monkeypatch.setattr(braids, "braid_power", no_power)
        assert not hasattr(congruence, "braid_power")
        for braid, p, k, gspec in [
            ("3: 1 1 -2", 3, 2, "dihedral:5"),
            ("3: 1 2", 7, 4, "symmetric:5"),
            ("2: 1", 3, 40, "cyclic:2"),
        ]:
            assert congruence.verify(make(braid, p, k, gspec)).cases_checked > 0


def _dense_verify(inst, x_scope="representatives"):
    """verify's report from a loop over every tuple of Cen(x_t)-class
    representatives at every x.  The reference that verify's loop over the
    counted classes is tested against."""
    G, p = inst.group, inst.p
    q = pow(p, inst.k, G.order)
    n = braids.components(inst.beta).count
    report = congruence.CongruenceReport(inst, n)
    counts = _sweep_counts(inst, x_scope)
    for x in x_tuples(G, n, x_scope):
        lhs, rhs = counts(x)
        reps = [G.cen_class_reps(xt) for xt in x]
        rep_lists = [sorted(set(rep.values())) for rep in reps]
        for h in itertools.product(*rep_lists):
            report.cases_checked += 1
            hp = (G.power(ht, q) for ht in h)
            lhs_count = lhs[tuple(rep[e] for rep, e in zip(reps, hp))]
            if (lhs_count - rhs[h]) % p != 0:
                report.violations.append(
                    congruence.Violation(x, h, lhs_count, rhs[h])
                )
    report.violations.sort(key=lambda v: (v.x, v.hclass))
    return report


def _forward_map_verify(inst, x_scope="representatives"):
    """verify's report from mapping each compared [h] forward to [h^q],
    q = p^k mod |G|, at the periodic side's keys.  The reference that
    verify's one re-keying of the periodic side is tested against."""
    G, p = inst.group, inst.p
    q = pow(p, inst.k, G.order)
    r = pow(p, -inst.k, G.order)
    n = braids.components(inst.beta).count
    report = congruence.CongruenceReport(inst, n)
    counts = _sweep_counts(inst, x_scope)
    for x in x_tuples(G, n, x_scope):
        lhs, rhs = counts(x)
        reps = [G.cen_class_reps(xt) for xt in x]
        report.cases_checked += math.prod(len(set(rep.values())) for rep in reps)
        hs = {tuple(rep[G.power(g, r)] for rep, g in zip(reps, key)) for key in lhs}
        for h in hs.union(rhs):
            hp = (G.power(ht, q) for ht in h)
            lhs_count = lhs[tuple(rep[e] for rep, e in zip(reps, hp))]
            if (lhs_count - rhs[h]) % p != 0:
                report.violations.append(
                    congruence.Violation(x, h, lhs_count, rhs[h])
                )
    report.violations.sort(key=lambda v: (v.x, v.hclass))
    return report


# instances that exit 1 today (see README, Known issues)
VIOLATING_INSTANCES = [
    ("3: 1 1 -2", 3, 1, "dihedral:5"),
    ("3: 1 1 -2", 7, 1, "symmetric:5"),
    ("3: 1 1 -2", 7, 1, "symmetric:6"),
]


class TestCaseLoop:
    """verify compares only the classes counted on some side."""

    @pytest.mark.parametrize(
        "braid, p, k, gspec",
        # the S5 and S6 instances are benchmark instances
        THEOREM_CATALOG + BENCHMARK_INSTANCES + VIOLATING_INSTANCES[:1],
    )
    def test_matches_dense_loop(self, braid, p, k, gspec):
        inst = make(braid, p, k, gspec)
        report = congruence.verify(inst)
        assert report.to_json_obj() == _dense_verify(inst).to_json_obj()
        assert report.ok == ((braid, p, k, gspec) not in VIOLATING_INSTANCES)

    def test_matches_dense_loop_all_x(self):
        inst = make("3: 1 1 -2", 3, 1, "dihedral:5")
        report = congruence.verify(inst, x_scope="all")
        assert report.to_json_obj() == _dense_verify(inst, "all").to_json_obj()

    def test_matches_forward_map_property(self):
        violating = []

        @settings(max_examples=120)
        @given(data=st.data())
        @example(data=None)
        def same_report(data):
            if data is None:  # the D5 instance with violations
                inst, scope = make(*VIOLATING_INSTANCES[0]), "representatives"
            else:
                G, p = data.draw(st.sampled_from(PROPERTY_CASES))
                k = data.draw(st.integers(1, 3))
                m = data.draw(st.integers(1, 3))
                alphabet = [s * i for i in range(1, m) for s in (1, -1)]
                letters = (
                    data.draw(st.lists(st.sampled_from(alphabet), max_size=5))
                    if alphabet else []
                )
                beta = braids.BraidWord(m, tuple(letters))
                assume(all(len(c) % p for c in braids.components(beta).cycles))
                inst = congruence.check_preconditions(beta, p, k, G)
                scope = data.draw(st.sampled_from(["representatives", "all"]))
            report = congruence.verify(inst, scope)
            expected = _forward_map_verify(inst, scope)
            assert report.to_json_obj() == expected.to_json_obj()
            violating.append(not report.ok)

        same_report()
        assert any(violating)

    def test_cases_are_counted_not_visited(self):
        # 7 x per component, whose centralizers have 7, 11 and 2 classes:
        # (7 + 5 * 11 + 2)^4 cases, of which few are counted on either side
        report = congruence.verify(make("4:", 5, 3, "dihedral:11"))
        assert report.ok and report.cases_checked == 64**4 == 16777216


def _per_x_counts(inst, scope="representatives"):
    """class_counts at every meridian tuple of the sweep, each from its own
    scan along the position-order chain (position_order_scan), and the
    number of tuples those scans walk: the reference for verify's one
    chain, whose basepoints are its first levels."""
    beta, G = inst.beta, inst.group
    counts = {}

    def run():
        with mock.patch.object(holonomy, "_scan", position_order_scan):
            for x in x_tuples(G, braids.components(beta).count, scope):
                pools = [(xt,) for xt in x]
                for _, lhs, rhs in congruence.class_counts(inst, pools):
                    counts[x] = lhs, rhs

    return counts, scanned(beta, run)


def _one_scan_counts(inst, scope="representatives"):
    """class_counts over the whole sweep from one call, keyed by x, and the
    number of tuples it walks."""
    beta, G = inst.beta, inst.group
    pools = [holonomy._x_pool(G, scope)] * braids.components(beta).count
    counts = {}

    def run():
        for x, lhs, rhs in congruence.class_counts(inst, pools):
            counts[x] = lhs, rhs

    return counts, scanned(beta, run)


def _basepoint_after_other_positions(beta):
    """Whether some component's basepoint comes after a position of
    another component that is not that component's basepoint."""
    comp = braids.components(beta)
    rest = [p for cyc in comp.cycles for p in cyc[1:]]
    return any(p < b for p in rest for b in comp.basepoints)


class TestOneChainPerSweep:
    """verify's one scan, whose stabilizer chain places the basepoints
    first, against one scan per meridian tuple along the position-order
    chain: the same counts at every x, from no more walked tuples.  Output
    bytes alone cannot show this: a chain that split a position before the
    basepoint after it weighed its representatives wrongly on both sides
    alike."""

    def test_basepoint_after_other_positions(self):
        # cycles (0 1) and (2): position 1 comes before basepoint 2
        inst = make("3: 1 1 1 2 2", 5, 1, "symmetric:4")
        assert _basepoint_after_other_positions(inst.beta)
        (counts, walked), (expected, reference) = (
            _one_scan_counts(inst), _per_x_counts(inst)
        )
        assert counts == expected and len(counts) > 1
        assert walked == reference == 92

    @pytest.mark.parametrize(
        "braid, p, k, gspec, walked",
        [
            ("3: 1 1 -2", 7, 1, "symmetric:6", 5994),
            ("3: 1 2", 7, 4, "symmetric:5", 546),
            ("3: 1 1 1 2 2", 5, 1, "symmetric:4", 92),
        ],
        ids=["verify-classes", "verify-periodic", "s4-late-basepoint"],
    )
    def test_walks_pinned(self, braid, p, k, gspec, walked):
        inst = make(braid, p, k, gspec)
        assert scanned(inst.beta, lambda: congruence.verify(inst)) == walked

    @pytest.mark.parametrize(
        "braid, p, k, gspec, cases",
        [
            ("3: 1 1 -2", 7, 1, "symmetric:6", 8464),
            ("3: 1 2", 7, 4, "symmetric:5", 39),
            ("3: 1 1 1 2 2", 5, 1, "symmetric:4", 441),
        ],
        ids=["verify-classes", "verify-periodic", "s4-late-basepoint"],
    )
    def test_cases_checked_pinned(self, braid, p, k, gspec, cases):
        assert congruence.verify(make(braid, p, k, gspec)).cases_checked == cases

    def test_per_x_counts_property(self):
        late = []

        @settings(max_examples=60, deadline=None)
        @given(data=st.data())
        @example(data=None)
        def same_counts(data):
            if data is None:
                inst, scope = make("3: 1 1 1 2 2", 5, 1, "symmetric:4"), "all"
            else:
                G, p = data.draw(st.sampled_from(PROPERTY_CASES))
                m = data.draw(st.integers(2, 4))
                alphabet = [s * i for i in range(1, m) for s in (1, -1)]
                letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=6))
                beta = braids.BraidWord(m, tuple(letters))
                n = braids.components(beta).count
                assume(n >= 2 and all(len(c) % p for c in braids.components(beta).cycles))
                inst = congruence.check_preconditions(beta, p, data.draw(st.integers(1, 2)), G)
                scopes = ["representatives"] + ["all"] * (G.order**n <= 24**2)
                scope = data.draw(st.sampled_from(scopes))
            late.append(_basepoint_after_other_positions(inst.beta))
            (counts, walked), (expected, reference) = (
                _one_scan_counts(inst, scope), _per_x_counts(inst, scope)
            )
            assert counts == expected
            assert walked <= reference

        same_counts()
        assert any(late) and not all(late)


class TestCentralizerScans:
    """cen_class_reps scans for Cen(x) only when x is not central: a central
    x, alone in its class of G, takes G's class table."""

    def spied(self, monkeypatch):
        scans, real = [], groups.FiniteGroup.centralizer

        def spy(self, x):
            scans.append(x)
            return real(self, x)

        monkeypatch.setattr(groups.FiniteGroup, "centralizer", spy)
        return scans

    def test_central_sweep_scans_nothing(self, monkeypatch):
        scans = self.spied(monkeypatch)
        report = congruence.verify(make("2: 1", 3, 1, "cyclic:1000"))
        # 1,000 classes in each x's centralizer, G
        assert report.ok and report.cases_checked == 1000 * 1000
        assert scans == []

    def test_non_central_x_scan_once(self, monkeypatch):
        scans = self.spied(monkeypatch)
        inst = make("3: 1 1 -2", 7, 1, "symmetric:6")
        congruence.verify(inst)
        G = inst.group
        non_central = [c.representative for c in G.classes if len(c.members) > 1]
        assert sorted(scans) == non_central


class TestClassTablesPerCentralizer:
    """A sweep over every x splits each distinct centralizer into its
    classes once, G when it is built and never again: e and r^10 of D20 are
    central and take G's classes, the other rotations share the rotations,
    and r^a s has only {e, r^10, r^a s, r^(a+10) s}.  So the sweep splits
    none of cyclic:40's centralizers and 11 of dihedral:20's."""

    @pytest.mark.parametrize("spec, distinct", [("cyclic:40", 1), ("dihedral:20", 12)])
    @pytest.mark.parametrize("command", ["verify", "dw_table"])
    def test_one_split_per_distinct_centralizer(
        self, monkeypatch, command, spec, distinct
    ):
        split, classes = [], groups.FiniteGroup._classes

        def spy(self, members, gens=None):
            split.append(tuple(members))
            return classes(self, members, gens)

        monkeypatch.setattr(groups.FiniteGroup, "_classes", spy)
        G = groups.from_group_spec(spec)
        whole = tuple(G.elements())
        assert split == [whole]
        beta = braids.parse_braid("2:")  # two components: x ranges over G^2
        if command == "verify":
            inst = congruence.check_preconditions(beta, 3, 1, G)
            assert congruence.verify(inst, x_scope="all").ok
        else:
            dw.dw_table(beta, G, x_scope="all")
        assert len(split) == len(set(split)) == distinct
        assert set(split) == {G.centralizer(x) for x in G.elements()}


class TestSweep:
    def test_empty(self):
        summary = congruence.sweep([])
        assert not summary.any_failure
        assert summary.to_json_obj() == {"entries": [], "ok": True}

    def test_catalog(self):
        catalog = [
            {"braid": "2: 1", "p": 3, "k": 1, "group": "cyclic:2"},
            {"braid": "3: 1 2", "p": 2, "k": 1, "group": "cyclic:3"},
        ]
        summary = congruence.sweep(catalog)
        assert [e.status for e in summary.entries] == ["ok", "ok"]

    def test_precondition_failure_is_distinct(self):
        catalog = [
            {"braid": "2: 1", "p": 2, "k": 1, "group": "cyclic:3"},
            {"braid": "2: 1", "p": 3, "k": 1, "group": "cyclic:2"},
        ]
        summary = congruence.sweep(catalog)
        assert [e.status for e in summary.entries] == ["precondition-failed", "ok"]
        assert summary.any_failure
        assert "violations" not in {e.status for e in summary.entries}

    def test_malformed_entry(self):
        summary = congruence.sweep([{"braid": "oops"}])
        assert summary.entries[0].status == "error"

    # each entry is checked for its shape before anything is built from it,
    # and the detail names the field at fault
    @pytest.mark.parametrize(
        "entry, detail",
        [
            (1, "catalog entry is not an object"),
            (["2: 1", 3, 1, "cyclic:2"], "catalog entry is not an object"),
            ({"braid": "2: 1", "p": 3, "k": 1}, "catalog entry has no 'group'"),
            ({"group": "cyclic:2", "p": 3, "k": 1}, "catalog entry has no 'braid'"),
            ({"braid": "2: 1", "group": "cyclic:2", "k": 1}, "catalog entry has no 'p'"),
            ({"braid": "2: 1", "group": "cyclic:2", "p": 3}, "catalog entry has no 'k'"),
            ({"braid": ["2: 1"], "group": "cyclic:2", "p": 3, "k": 1},
             "'braid' must be a string, got ['2: 1']"),
            ({"braid": "2: 1", "group": 2, "p": 3, "k": 1},
             "'group' must be a string, got 2"),
            # once took 2.3 s and 210 MB to build S7 before refusing p
            ({"braid": "2: 1", "group": "symmetric:7", "p": "3", "k": 1},
             "'p' must be an integer, got '3'"),
            ({"braid": "2: 1", "group": "cyclic:2", "p": 3.0, "k": 1},
             "'p' must be an integer, got 3.0"),
            ({"braid": "2: 1", "group": "cyclic:2", "p": 3, "k": True},
             "'k' must be an integer, got True"),
            ({"braid": "2: 1", "group": "cyclic:2", "p": 3, "k": None},
             "'k' must be an integer, got None"),
        ],
        ids=[
            "number", "array", "no-group", "no-braid", "no-p", "no-k",
            "array-braid", "number-group", "string-p", "float-p", "bool-k",
            "null-k",
        ],
    )
    def test_malformed_entry_detail(self, monkeypatch, entry, detail):
        def no_build(*args):
            raise AssertionError("built from a malformed entry")

        monkeypatch.setattr(congruence, "parse_braid", no_build)
        monkeypatch.setattr(congruence, "from_group_spec", no_build)
        (got,) = congruence.sweep([entry]).entries
        assert (got.status, got.detail, got.report) == ("error", detail, None)
