import itertools
from collections import Counter

import pytest

from dwlink import braids, congruence, dw, groups, holonomy
from dwlink.errors import (
    ComponentMismatch,
    GroupOrderDivisible,
    InputError,
    NotPrime,
    WordTooLong,
)


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
    def test_word_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(congruence, "WORD_CAP", 9)
        assert congruence.verify(make("2: 1", 3, 2, "cyclic:2")).ok  # 9 letters
        with pytest.raises(WordTooLong):
            congruence.verify(make("2: 1", 3, 3, "cyclic:2"))  # 27 letters

    @pytest.mark.parametrize(
        "braid, gspec", [("1:", "cyclic:2"), ("2:", "symmetric:3")]
    )
    def test_empty_word_huge_k(self, monkeypatch, braid, gspec):
        # p^k > sys.maxsize: neither the power nor p^k itself is built
        def no_power(beta, n):
            raise AssertionError("braid power built for an empty word")

        monkeypatch.setattr(congruence, "braid_power", no_power)
        report = congruence.verify(make(braid, 5, 10**7, gspec))
        assert report.ok and report.cases_checked > 0

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


def _pair_orbit(G, x, h):
    """The smallest pair in the orbit of (x, h) under conjugation by G."""
    return min((G.conj(g, x), G.conj(g, h)) for g in G.elements())


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
                    _pair_orbit(G, xt, G.power(lt, power))
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
                (a[b], holonomy.longitude_image(big, a, t, G, comp=comp))
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
        assert summary.any_failure and not summary.any_violation

    def test_malformed_entry(self):
        summary = congruence.sweep([{"braid": "oops"}])
        assert summary.entries[0].status == "error"
