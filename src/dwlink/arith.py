"""Small shared number-theoretic helpers."""

from .errors import ResourceError

# Miller-Rabin to these bases decides primality exactly below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  With n - 1 = 2^s d, d odd, n passes base
    b when b^d = 1 or b^(2^i d) = -1 mod n for some i < s.  A base that
    fails proves n composite at any size; an n >= _MR_BOUND that passes
    every base raises ResourceError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    if n >= _MR_BOUND:
        raise ResourceError(f"{n} >= {_MR_BOUND} is too large to test for primality")
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
