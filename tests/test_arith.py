import time

import pytest

from dwlink import arith
from dwlink.errors import ResourceError


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if arith.is_prime(n)] == [
            n for n in range(10**5) if trial_division(n)
        ]

    @pytest.mark.parametrize(
        "n, weak_bases",
        [(3215031751, 4), (3825123056546413051, 9)],
    )
    def test_strong_pseudoprimes(self, monkeypatch, n, weak_bases):
        # n is a strong pseudoprime to the first weak_bases prime bases, so
        # those alone accept it; the full set of 13 rejects it
        assert not arith.is_prime(n)
        monkeypatch.setattr(arith, "_MR_BASES", arith._MR_BASES[:weak_bases])
        assert arith.is_prime(n)

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert arith.is_prime(10**14 + 31)
        assert time.perf_counter() - start < 0.1

    def test_bound(self):
        # the bound is itself a strong pseudoprime to all 13 bases
        with pytest.raises(ResourceError):
            arith.is_prime(arith._MR_BOUND)
        assert arith.is_prime(arith._MR_BOUND - 168)  # the largest prime below
        assert not arith.is_prime(10**30 + 1)  # 101 is a witness
        assert arith.is_prime(2**61 - 1)
