import pickle
import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from dwlink import braids
from dwlink.errors import BadBraid, StrandMismatch


def random_braid(rng, max_strands=4, max_len=8):
    m = rng.randint(1, max_strands)
    length = rng.randint(0, max_len) if m > 1 else 0
    alphabet = [s * i for i in range(1, m) for s in (1, -1)]
    return braids.BraidWord(m, tuple(rng.choice(alphabet) for _ in range(length)))


class TestParsing:
    def test_basic(self):
        b = braids.parse_braid("2: 1 1 1")
        assert b.strands == 2 and b.letters == (1, 1, 1)

    def test_empty_letters(self):
        b = braids.parse_braid("3:")
        assert b.strands == 3 and b.letters == ()

    def test_roundtrip(self):
        b = braids.parse_braid("3: 1 -2 1")
        assert braids.parse_braid(str(b)) == b

    def test_steps(self):
        b = braids.parse_braid("4: 1 -2 3 -3")
        assert b.steps == ((0, 1, True), (1, 2, False), (2, 3, True), (2, 3, False))
        assert b.steps is b.steps
        assert b == braids.parse_braid("4: 1 -2 3 -3")  # steps is no field

    def test_bad(self):
        with pytest.raises(BadBraid):
            braids.parse_braid("2 1 1")
        with pytest.raises(BadBraid):
            braids.parse_braid("2: 5")
        with pytest.raises(BadBraid):
            braids.parse_braid("1: 1")


class TestPermutation:
    def test_empty(self):
        assert braids.permutation(braids.BraidWord(3, ())) == (0, 1, 2)

    def test_single_generator(self):
        assert braids.permutation(braids.parse_braid("2: 1")) == (1, 0)

    def test_three_cycle(self):
        perm = braids.permutation(braids.parse_braid("3: 1 2"))
        # one 3-cycle
        assert sorted(perm) == [0, 1, 2] and perm != (0, 1, 2)
        seen, j = 1, perm[0]
        while j != 0:
            j = perm[j]
            seen += 1
        assert seen == 3


    @given(data=st.data())
    def test_matches_position_lookup(self, data):
        m = data.draw(st.integers(1, 6))
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        # a 1-strand braid has no letters
        letters = st.just([])
        if alphabet:
            letters = st.lists(st.sampled_from(alphabet), max_size=20)
        beta = braids.BraidWord(m, tuple(data.draw(letters)))
        assert braids.permutation(beta) == _permutation_by_lookup(beta)

    def test_long_word(self):
        # 99,950 letters on 2000 strands: one pass, not a position lookup
        # per letter
        beta = braids.BraidWord(2000, tuple(range(1, 2000)) * 50)
        # each pass of 1 2 ... 1999 carries every strand one position down
        # and the bottom one to the top
        assert braids.permutation(beta) == tuple((i - 50) % 2000 for i in range(2000))


def _permutation_by_lookup(beta):
    """braids.permutation as a search for the strand's position at each
    letter, O(strands * letters): the reference for the one-pass walk."""
    pos = list(range(beta.strands))  # pos[j] = current position of bottom strand j
    for l in beta.letters:
        i = abs(l) - 1
        a = pos.index(i)
        b = pos.index(i + 1)
        pos[a], pos[b] = pos[b], pos[a]
    return tuple(pos)


class TestCompose:
    def test_identity(self):
        b = braids.parse_braid("3: 1 -2")
        e = braids.BraidWord(3, ())
        assert braids.compose(e, b).letters == b.letters

    def test_inverse_pair(self):
        b = braids.compose(braids.parse_braid("2: -1"), braids.parse_braid("2: 1"))
        assert braids.permutation(b) == (0, 1)

    def test_mismatch(self):
        with pytest.raises(StrandMismatch):
            braids.compose(braids.parse_braid("2: 1"), braids.parse_braid("3: 1"))

    @given(data=st.data())
    def test_permutation_homomorphism(self, data):
        m = data.draw(st.integers(2, 6))
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        words = st.lists(st.sampled_from(alphabet), max_size=8)
        b1 = braids.BraidWord(m, tuple(data.draw(words)))
        b2 = braids.BraidWord(m, tuple(data.draw(words)))
        p1, p2 = braids.permutation(b1), braids.permutation(b2)
        composed = braids.permutation(braids.compose(b2, b1))
        # sigma^(b2 b1) = sigma^b2 o sigma^b1
        assert composed == tuple(p2[p1[i]] for i in range(m))


class TestBraidPower:
    def test_one(self):
        b = braids.parse_braid("2: 1")
        assert braids.braid_power(b, 1) == b

    def test_cube(self):
        assert braids.braid_power(braids.parse_braid("2: 1"), 3).letters == (1, 1, 1)

    def test_permutation_power(self):
        rng = random.Random(4)
        for _ in range(100):
            b = random_braid(rng)
            n = rng.randint(1, 6)
            p = braids.permutation(b)
            q = braids.permutation(braids.braid_power(b, n))
            expect = tuple(range(b.strands))
            for _ in range(n):
                expect = tuple(p[expect[i]] for i in range(b.strands))
            assert q == expect


class TestComponents:
    def test_unlink(self):
        comp = braids.components(braids.BraidWord(2, ()))
        assert comp.count == 2
        assert comp.self_writhe == (0, 0)
        assert comp.linking == ((0, 0), (0, 0))

    def test_hopf(self):
        comp = braids.components(braids.parse_braid("2: 1 1"))
        assert comp.count == 2
        assert comp.self_writhe == (0, 0)
        assert comp.linking[0][1] == 1

    def test_trefoil(self):
        comp = braids.components(braids.parse_braid("2: 1 1 1"))
        assert comp.count == 1
        assert comp.self_writhe == (3,)

    def test_negative_hopf(self):
        comp = braids.components(braids.parse_braid("2: -1 -1"))
        assert comp.linking[0][1] == -1

    def test_canonical_ordering(self):
        rng = random.Random(5)
        for _ in range(50):
            comp = braids.components(random_braid(rng))
            assert comp.basepoints == tuple(sorted(comp.basepoints))
            for cyc in comp.cycles:
                assert cyc[0] == min(cyc)
            covered = sorted(p for c in comp.cycles for p in c)
            assert covered == list(range(sum(len(c) for c in comp.cycles)))

    def test_crossings_are_sparse(self):
        # only the pairs that cross are kept; linking is built when read
        comp = braids.components(braids.parse_braid("200000: 1 1 3 -3"))
        assert comp.crossings == (((0, 1), 2), ((2, 3), 0))
        assert "linking" not in vars(comp)
        small = braids.components(braids.parse_braid("4: 1 1 3 -3"))
        assert small.linking == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))

    def test_built_once_on_the_braid(self):
        b = braids.parse_braid("3: 1 1 -2")
        comp = braids.components(b)
        assert comp is b.components is braids.components(b)
        # components is no field: the braid still equals, hashes and prints
        # like a fresh parse, and a pickle round trip rebuilds it unread
        fresh = braids.parse_braid("3: 1 1 -2")
        assert b == fresh and hash(b) == hash(fresh)
        assert repr(b) == repr(fresh) and str(b) == str(fresh)
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and hash(copy) == hash(b) and repr(copy) == repr(b)
        assert "components" not in vars(copy) and copy.components == comp

    def test_total_writhe_identity(self):
        rng = random.Random(6)
        for _ in range(100):
            b = random_braid(rng)
            comp = braids.components(b)
            total = sum(1 if l > 0 else -1 for l in b.letters)
            halves = sum(
                comp.linking[t][s]
                for t in range(comp.count)
                for s in range(t + 1, comp.count)
            )
            assert total == sum(comp.self_writhe) + 2 * halves

    def test_power_cycle_splitting(self):
        rng = random.Random(7)
        for _ in range(100):
            b = random_braid(rng)
            n = rng.randint(1, 6)
            expect = sum(
                gcd(len(c), n) for c in braids.components(b).cycles
            )
            assert braids.components(braids.braid_power(b, n)).count == expect
