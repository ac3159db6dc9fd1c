import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dwlink import braids, dw, groups, holonomy
from dwlink.errors import HNotInCentralizer, SearchTooLarge

from test_holonomy import x_tuples


class TestDwExact:
    def test_unknot(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        for x in G.elements():
            for h in G.centralizer(x):
                expect = 1 if h == G.id else 0
                assert dw.dw_exact(b, G, (x,), (h,)) == expect

    def test_hopf_abelian(self):
        G = groups.cyclic(4)
        b = braids.parse_braid("2: 1 1")
        for x1, x2, h1, h2 in itertools.product(range(4), repeat=4):
            expect = 1 if (h1 == x2 and h2 == x1) else 0
            assert dw.dw_exact(b, G, (x1, x2), (h1, h2)) == expect

    def test_unlink(self):
        G = groups.symmetric(3)
        b = braids.BraidWord(3, ())
        for x in itertools.product(range(6), repeat=3):
            assert dw.dw_exact(b, G, x, (G.id,) * 3) == 1

    def test_noncommuting_is_zero(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        x = G.element_index("(1 2)")
        h = G.element_index("(1 2 3)")
        assert G.mul(x, h) != G.mul(h, x)
        assert dw.dw_exact(b, G, (x,), (h,)) == 0

    def test_total_mass(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1 1")
        total = 0
        for x in G.elements():
            for h in G.centralizer(x):
                total += dw.dw_exact(b, G, (x,), (h,))
        assert total == holonomy.count_homs(b, G)


class TestDwClass:
    def test_identity_class(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1 1")
        for x in (c.representative for c in G.classes):
            assert dw.dw_class(b, G, (x,), (G.id,)) == dw.dw_exact(
                b, G, (x,), (G.id,)
            )

    def test_abelian_equals_exact(self):
        G = groups.cyclic(6)
        b = braids.parse_braid("2: 1 1")
        for x1, x2, h1, h2 in itertools.product(range(6), repeat=4):
            assert dw.dw_class(b, G, (x1, x2), (h1, h2)) == dw.dw_exact(
                b, G, (x1, x2), (h1, h2)
            )

    def test_h_not_in_centralizer(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1")
        x = G.element_index("(1 2)")
        h = G.element_index("(1 2 3)")
        with pytest.raises(HNotInCentralizer):
            dw.dw_class(b, G, (x,), (h,))

    def test_trefoil_s3_column_sums(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1 1")
        x = G.element_index("(1 2)")
        cen = G.centralizer(x)
        reps = sorted(
            {G.class_in_subgroup(cen, h).representative for h in cen}
        )
        total = sum(dw.dw_class(b, G, (x,), (h,)) for h in reps)
        assert total == len(holonomy.enumerate_homs(b, G, x_constraint=(x,)))

    def test_aggregation(self):
        G = groups.quaternion8()
        b = braids.parse_braid("2: 1 1 1")
        for x in (c.representative for c in G.classes):
            cen = G.centralizer(x)
            for h in cen:
                cls = G.class_in_subgroup(cen, h)
                agg = sum(
                    dw.dw_exact(b, G, (x,), (hp,)) for hp in cls.members
                )
                assert dw.dw_class(b, G, (x,), (h,)) == agg


class TestDwTable:
    def test_empty_braid_one_strand(self):
        G = groups.symmetric(3)
        table = dw.dw_table(braids.BraidWord(1, ()), G, x_scope="all")
        for x in G.elements():
            assert table.exact.get(((x,), (G.id,))) == 1
        assert all(h == (G.id,) for (_, h) in table.exact)

    def test_hopf_z2(self):
        G = groups.cyclic(2)
        table = dw.dw_table(braids.parse_braid("2: 1 1"), G, x_scope="all")
        xs = {x for (x, _) in table.exact}
        assert len(xs) == 4
        for x in itertools.product(range(2), repeat=2):
            entries = {h: c for (xx, h), c in table.exact.items() if xx == x}
            assert entries == {(x[1], x[0]): 1}

    def test_column_sums_match_hom_counts(self):
        G = groups.symmetric(3)
        b = braids.parse_braid("2: 1 1")
        table = dw.dw_table(b, G, x_scope="representatives")
        for x in x_tuples(G, 2, "representatives"):
            total = sum(c for (xx, _), c in table.exact.items() if xx == x)
            assert total == len(holonomy.enumerate_homs(b, G, x_constraint=x))

    def test_class_aggregation_consistency(self):
        G = groups.quaternion8()
        b = braids.parse_braid("2: 1 1")
        table = dw.dw_table(b, G)
        n = 2
        for (x, reps), count in table.by_class.items():
            agg = sum(
                c
                for (xx, h), c in table.exact.items()
                if xx == x
                and all(
                    dw.cen_class_rep(G, x[t], h[t]) == reps[t] for t in range(n)
                )
            )
            assert count == agg

    def test_json_shape(self):
        G = groups.cyclic(2)
        table = dw.dw_table(braids.parse_braid("2: 1 1"), G)
        obj = table.to_json_obj()
        assert obj["components"] == 2
        assert obj["group"] == "cyclic:2"
        for e in obj["entries"]:
            assert set(e) == {"x", "h_class_reps", "count"}


# groups of order at most 24, with and without large classes
CAP_GROUPS = [
    groups.cyclic(1), groups.cyclic(6), groups.dihedral(3), groups.dihedral(4),
    groups.quaternion8(), groups.dihedral(12), groups.symmetric(4),
]


def per_tuple_check(G, comp, scope):
    """The sweep check as a loop over every meridian tuple: the reference
    for checked_x_pool."""
    pool = holonomy._x_pool(G, scope)
    holonomy.check_size(len(pool) ** comp.count, "sweep of {} meridian tuples")
    for x in x_tuples(G, comp.count, scope):
        holonomy.candidate_sets(G, comp, x)


def refuses(check, *args):
    try:
        check(*args)
    except SearchTooLarge:
        return True
    return False


class TestCheckedXTuples:
    def test_largest_tuple_decides(self, monkeypatch):
        @settings(max_examples=150, deadline=None)
        @given(data=st.data())
        def same_refusals(data):
            G = data.draw(st.sampled_from(CAP_GROUPS))
            scope = data.draw(st.sampled_from(["representatives", "all"]))
            m = data.draw(st.integers(1, 6))
            letters = []
            if m > 1:
                alphabet = [s * i for i in range(1, m) for s in (1, -1)]
                letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=8))
            comp = braids.components(braids.BraidWord(m, tuple(letters)))
            # the largest per-tuple search space: its factors are independent
            top = max(len(c.members) for c in G.classes)
            largest = 1
            for cyc in comp.cycles:
                largest *= top ** (len(cyc) - 1)
            for cap in (largest, largest - 1):
                monkeypatch.setattr(holonomy, "SEARCH_CAP", cap)
                assert refuses(holonomy.checked_x_pool, G, comp, scope) == refuses(
                    per_tuple_check, G, comp, scope
                )

        same_refusals()
