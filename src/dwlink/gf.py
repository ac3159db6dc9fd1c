"""Exact arithmetic in finite fields F_{p^e} and square matrices over them.

Field elements are integers 0..p^e-1 encoding coefficient vectors in base p,
constant term in the least significant digit.  The defining modulus is the
lexicographically smallest monic irreducible polynomial of degree e over
F_p, coefficients compared from the constant term up.  For small fields the
full addition and multiplication tables are precomputed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .arith import is_prime
from .errors import DegreeTooLarge, DimMismatch, FieldMismatch, NotPrime

DEGREE_CAP = 12
_TABLE_CAP = 4096  # precompute op tables for fields up to this order


# -- polynomial helpers over F_p (coefficient lists, constant term first) ----


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m (coeffs incl. leading 1)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _is_irreducible(coeffs, p):
    """Ben-Or's test: the monic polynomial f of degree e is irreducible iff
    gcd(x^(p^i) - x mod f, f) = 1 for every i <= e/2."""
    xq = [0, 1]  # x^(p^i) mod f
    for _ in range((len(coeffs) - 1) // 2):
        base, n, xq = xq, p, [1]
        while n:  # xq = base^p mod f, by squaring
            if n & 1:
                xq = _poly_mod(_poly_mul(xq, base, p), coeffs, p)
            base = _poly_mod(_poly_mul(base, base, p), coeffs, p)
            n >>= 1
        a, b = coeffs, [(c - (i == 1)) % p for i, c in enumerate(xq)]
        while any(b):  # Euclid's algorithm; a ends as the gcd times a unit
            b = b[: max(i for i, c in enumerate(b) if c) + 1]
            unit = pow(b[-1], p - 2, p)
            a, b = b, _poly_mod(a, [c * unit % p for c in b], p)
        if len(a) > 1:
            return False
    return True


def _smallest_irreducible(p, e):
    # product varies its last digit fastest; reversed, that is the constant term
    for digits in itertools.product(range(p), repeat=e):
        coeffs = [*reversed(digits), 1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FqField:
    """The field with p^e elements."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if not (1 <= e <= DEGREE_CAP):
            raise DegreeTooLarge(f"extension degree {e} outside 1..{DEGREE_CAP}")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = _smallest_irreducible(p, e)
        self.zero = 0
        self.one = 1 % self.order

        self._add_table = None
        self._mul_table = None
        if self.order <= _TABLE_CAP:
            q = self.order
            add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
            mul = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
            self._add_table = add
            self._mul_table = mul

    # -- packing -------------------------------------------------------------

    def _unpack(self, a):
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return out

    def _pack(self, coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def element(self, coeffs) -> int:
        """Field element from a coefficient list (constant term first)."""
        c = list(coeffs)[: self.e] + [0] * max(0, self.e - len(coeffs))
        return self._pack(c)

    def coeffs(self, a: int):
        return self._unpack(a)

    # -- arithmetic ----------------------------------------------------------

    def _add_slow(self, a, b):
        return self._pack(
            [(x + y) % self.p for x, y in zip(self._unpack(a), self._unpack(b))]
        )

    def _mul_slow(self, a, b):
        prod = _poly_mul(self._unpack(a), self._unpack(b), self.p)
        return self._pack(_poly_mod(prod, self.modulus, self.p))

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_slow(a, b)

    def neg(self, a):
        return self._pack([(-x) % self.p for x in self._unpack(a)])

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def pow(self, a, n: int):
        if n < 0:
            raise ValueError("negative exponents not supported")
        acc = self.one
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            n >>= 1
        return acc

    def frobenius(self, a):
        return self.pow(a, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FqField) and self.p == other.p and self.e == other.e
        )

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FqField(p={self.p}, e={self.e})"


def field_make(p: int, e: int) -> FqField:
    return FqField(p, e)


# -- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class FqMatrix:
    field: FqField
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise DimMismatch("matrix is not square")

    @property
    def dim(self):
        return len(self.entries)


def mat_from_lists(field: FqField, rows) -> FqMatrix:
    return FqMatrix(field, tuple(tuple(int(v) % field.order for v in r) for r in rows))


def mat_identity(field: FqField, n: int) -> FqMatrix:
    return FqMatrix(
        field,
        tuple(
            tuple(field.one if i == j else 0 for j in range(n)) for i in range(n)
        ),
    )


def mat_mul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    if A.field != B.field:
        raise FieldMismatch("matrices over different fields")
    if A.dim != B.dim:
        raise DimMismatch(f"dimension mismatch: {A.dim} vs {B.dim}")
    F = A.field
    add, mul = F.add, F.mul
    n = A.dim
    Bt = list(zip(*B.entries))
    rows = []
    for arow in A.entries:
        out = []
        for bcol in Bt:
            s = 0
            for x, y in zip(arow, bcol):
                s = add(s, mul(x, y))
            out.append(s)
        rows.append(tuple(out))
    return FqMatrix(F, tuple(rows))


def mat_pow(A: FqMatrix, n: int) -> FqMatrix:
    if n < 0:
        raise ValueError("negative matrix powers not supported")
    acc = mat_identity(A.field, A.dim)
    while n:
        if n & 1:
            acc = mat_mul(acc, A)
        A = mat_mul(A, A)
        n >>= 1
    return acc


def trace(A: FqMatrix) -> int:
    F = A.field
    s = 0
    for i in range(A.dim):
        s = F.add(s, A.entries[i][i])
    return s


def random_matrix(field: FqField, dim: int, rng: random.Random) -> FqMatrix:
    return FqMatrix(
        field,
        tuple(
            tuple(rng.randrange(field.order) for _ in range(dim))
            for _ in range(dim)
        ),
    )


def frobenius_trace_check(
    field: FqField, dim: int, trials: int, max_k: int = 3, seed: int = 0
) -> dict:
    """Check tr(A^p) = tr(A)^p, and the iterated form tr(A^(p^k)) = tr(A)^(p^k)
    for k up to max_k, on random matrices.  Failures would indicate an
    arithmetic bug; they are reported, not raised."""
    if dim < 1:
        raise ValueError("matrix dimension must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    p = field.p
    failures = []
    for trial in range(trials):
        A = random_matrix(field, dim, rng)
        t = trace(A)
        B = A
        tp = t
        for k in range(1, max_k + 1):
            B = mat_pow(B, p)  # B = A^(p^k)
            tp = field.pow(tp, p)  # tp = t^(p^k)
            if trace(B) != tp:
                failures.append(
                    {"trial": trial, "k": k, "lhs": trace(B), "rhs": tp}
                )
    return {
        "p": p,
        "e": field.e,
        "dim": dim,
        "trials": trials,
        "max_k": max_k,
        "failures": failures,
        "ok": not failures,
    }
