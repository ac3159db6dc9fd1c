"""Exact arithmetic in finite fields F_{p^e} and square matrices over them.

Field elements are integers 0..p^e-1 encoding coefficient vectors in base p,
constant term in the least significant digit.  The defining modulus is the
monic irreducible polynomial of degree e over F_p whose coefficients below
the leading 1, read as base-p digits with the constant term least
significant, form the smallest number.

Fields of order q up to _TABLE_CAP compute through Zech-log tables over a
primitive element g (Lidl and Niederreiter, *Finite Fields*, ch. 9), each of
size O(q): exp[i] = g^i, log (its inverse) and zech[i] = log(1 + g^i), so
that g^a g^b = g^(a+b) and g^a + g^b = g^(a + zech[b-a]).  mat_mul adds up
its dot products in the log domain.  Larger fields multiply polynomials
modulo the modulus, except prime fields, which compute with integers mod p;
in both, mat_mul sums each dot product over Z and reduces it once.

In the log domain, _dot_products runs a loop over the terms, or the row
kernel of the shape (c columns, each of length L): one straight-line
function per shape, generated by _compile_row from the one-term template
_TERM, which takes the logs of one row and of the c columns laid end to end
and returns the c entries of that row.  It takes exp and zech as arguments,
so one compile serves every field with tables.  A 6 x 6 product over
GF(3^5) takes about 23 us through it, against about 39 us through the loop.
Compiling costs about 50-65 us per term c * L, about 2 ms at 6 x 6, so the
loop serves the first _ROW_WARMUP = 1000 rows of each shape, and shapes of
more than _ROW_CAP = 225 terms are never compiled.  The loop stays the
reference the kernel is tested against.
"""

from __future__ import annotations

import operator
import random

from .arith import is_prime, prime_factors
from .errors import DegreeTooLarge, DimMismatch, FieldMismatch, NotPrime, ResourceError
from .records import Frozen

DEGREE_CAP = 12
_TABLE_CAP = 4096  # build Zech-log tables for fields up to this order
MAX_K = 3  # frobenius_trace_check checks the powers p^k for k = 1..MAX_K
# bound on the entry products of frobenius_trace_check: dim^3 for each of
# the matrix products that _power makes, MAX_K powers A^p per trial, less
# one product whose trace alone is read, in dim^2 entry products
FROBCHECK_CAP = 10**7
# what the cap charges a product at least, in entry products: at dimension
# 1 a trial costs about 29 us, nearly all of it per-call overhead, that is
# about 4.6 us for each of its six products at p = 3, and an entry product
# costs about 0.185 us at dimension 6 (GF(3^5), in-process)
PRODUCT_FLOOR = 25


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


def _digits(n, p, e):
    """The e lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(e):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _smallest_irreducible(p, e):
    # candidates by code n, constant term least significant; the codes below
    # p, the binomials x^e + c, are all reducible when e >= 2 and a prime
    # factor of e does not divide p - 1, or 4 | e and p != 1 mod 4 (Lidl and
    # Niederreiter, *Finite Fields*, Theorem 3.75)
    skip = e >= 2 and (
        any((p - 1) % r for r in prime_factors(e)) or (e % 4 == 0 and p % 4 != 1)
    )
    for n in range(p if skip else 0, p**e):
        coeffs = [*_digits(n, p, e), 1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _power(x, n, mul):
    """x^n for n >= 1 by left-to-right binary powering: floor(log2 n)
    squarings and popcount(n) - 1 further products, none with the identity."""
    acc = x
    for bit in bin(n)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


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
        self.one = 1 % self.order

        # Zech-log tables, or None where the field computes with polynomials
        self.exp = self.log = self.zech = None
        if self.order <= _TABLE_CAP:
            self._build_tables()

    def _build_tables(self):
        """exp and zech have length 2(q-1), so a sum of two logs indexes exp
        directly and a difference of two such sums indexes zech directly.
        log[0] is the sentinel 2(q-1) - 1: the log of 0 does not exist, and
        this value lies above 2(q-2), the largest sum of two logs of nonzero
        elements, so a sum of two logs exceeds 2(q-2) exactly when one of
        the factors is 0.  add and mul test for 0 first and never read it."""
        p, q = self.p, self.order
        m = q - 1
        # the polynomial path finds g: the smallest element whose powers
        # g^(m/r), r a prime divisor of m, all differ from 1
        primes = prime_factors(m)
        g = next(
            a for a in range(1, q) if all(self.pow(a, m // r) != 1 for r in primes)
        )
        exp = [1] * m
        for i in range(1, m):
            exp[i] = self._mul_slow(exp[i - 1], g)
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp += exp
        # 1 + a adds 1 to the constant digit of a; zech is None where it is 0
        self.zech = [log[a - a % p + (a + 1) % p] for a in exp]
        log[0] = 2 * m - 1
        self.exp, self.log = exp, log

    # -- packing -------------------------------------------------------------

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
        return _digits(a, self.p, self.e)

    # -- arithmetic ----------------------------------------------------------

    def _add_slow(self, a, b):
        return self._pack([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def _mul_slow(self, a, b):
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self._pack(_poly_mod(prod, self.modulus, self.p))

    def add(self, a, b):
        if self.zech is None:
            return (a + b) % self.p if self.e == 1 else self._add_slow(a, b)
        if not a or not b:
            return a or b
        la, lb = self.log[a], self.log[b]
        z = self.zech[lb - la]
        return 0 if z is None else self.exp[la + z]

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self._pack([-x for x in self.coeffs(a)])

    def mul(self, a, b):
        if self.zech is None:
            return a * b % self.p if self.e == 1 else self._mul_slow(a, b)
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def pow(self, a, n: int):
        if n < 0:
            raise ValueError("negative exponents not supported")
        return _power(a, n, self.mul) if n else self.one

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


class FqMatrix(Frozen):
    __slots__ = ("field", "entries")

    def __init__(self, field: FqField, entries: tuple[tuple[int, ...], ...]):
        for row in entries:
            if len(row) != len(entries):
                raise DimMismatch("matrix is not square")
        super().__init__(field, entries)

    @classmethod
    def _trusted(cls, field, entries):
        """A matrix whose entries are known to be square, built unchecked."""
        M = object.__new__(cls)
        object.__setattr__(M, "field", field)
        object.__setattr__(M, "entries", entries)
        return M

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


# The row kernel of shape (c, L): the c dot products of one row of L logs
# with c columns of L logs, laid end to end, as straight-line source.  Each
# product starts from its first term and adds each further term with _TERM,
# the loop's Zech recurrence on the locals r{k} (the row) and c{i} (the
# columns).  s above Z marks a zero partial sum, as t above Z marks a term
# with a zero factor.
_TERM = """\
    t = r{k} + c{i}
    if t <= Z:
        if s > Z:
            s = t
        else:
            z = zech[t - s]
            if z is None:
                s = Z + 1
            else:
                s += z
                if s >= m:
                    s -= m"""

# Compiling a shape costs about 50-65 us per term, as long as the loop
# takes for 250-430 rows of it.  A compiled row of an n x n shape, n = 2..15,
# takes 0.51-0.76 of the loop's time, and one of a trace-only shape (1, n^2)
# 0.78-0.92, so a shape pays back its compile after about 400-1,700 rows
# (n x n) or 1,300-5,300 rows (1 x n^2) (GF(3^5), in-process, best of 15).
# The loop serves the first _ROW_WARMUP rows of a shape: a shape that stops
# just after its compile then takes about 1.3 times as long as on the loop
# alone, where compiling after 300 rows could take twice as long.  At 256
# terms the compiled row takes 0.84 of the loop's time, and its locals pass
# the 256 that a one-byte bytecode argument addresses.
_ROW_CAP = 225
_ROW_WARMUP = 1000

_row_kernels = {}  # (c, L) -> the compiled row kernel of that shape
_rows_served = {}  # (c, L) -> rows the loop has served, until compiled


def _compile_row(c: int, L: int):
    """The row kernel of shape (c, L) as one generated function
    row(lr, lc, exp, zech, m, Z): it unpacks the row lr and the columns lc
    into locals and returns the c entries of the product, for any field with
    tables, whose exp and zech it takes with m = q - 1 and Z = 2(q-2).

    The source handed to exec is built from _TERM and from integers only,
    c and L passed through operator.index, so no text from outside reaches
    exec."""
    c, L = operator.index(c), operator.index(L)
    lines = [
        "def row(lr, lc, exp, zech, m, Z):",
        "    " + "".join(f"r{k}, " for k in range(L)) + "= lr",
        "    " + "".join(f"c{i}, " for i in range(c * L)) + "= lc",
    ]
    for j in range(c):
        lines.append(f"    s = r0 + c{j * L}")
        lines += (_TERM.format(k=k, i=j * L + k) for k in range(1, L))
        lines.append(f"    o{j} = exp[s] if s <= Z else 0")
    lines.append("    return " + "".join(f"o{j}, " for j in range(c)))
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["row"]


def _row_kernel(shape, rows):
    """None, with rows more rows of shape (c, L) counted as served by the
    loop; or, once the loop has served _ROW_WARMUP rows of the shape, its
    row kernel, compiled and cached.  A shape of no term or of more than
    _ROW_CAP terms always gets None."""
    c, L = shape
    if not 0 < c * L <= _ROW_CAP:
        return None
    served = _rows_served.get(shape, 0)
    if served < _ROW_WARMUP:
        _rows_served[shape] = served + rows
        return None
    kernel = _row_kernels[shape] = _compile_row(c, L)
    return kernel


def _dot_products(F: FqField, xs, ys):
    """The matrix over F of the dot products of each vector of xs with each
    vector of ys, all of one length."""
    if F.zech is not None:
        exp, log, zech = F.exp, F.log, F.zech
        m = F.order - 1
        Z = 2 * m - 2  # the largest sum of two logs of nonzero elements
        shape = len(ys), len(ys[0]) if ys else 0
        kernel = _row_kernels.get(shape) or _row_kernel(shape, len(xs))
        if kernel is not None:
            # a loop, not a generator: one would make every name it reads a
            # cell of this function, slower to read in the loop below too
            log_cols = [log[y] for col in ys for y in col]
            rows = []
            for row in xs:
                rows.append(kernel([log[x] for x in row], log_cols, exp, zech, m, Z))
            return tuple(rows)
        log_cols = [[log[y] for y in col] for col in ys]
        # Log domain: s is the log of the partial sum, None while the sum is
        # 0.  t = la + lb, the log of the next term, lies in 0..Z = 2(q-2)
        # unless a factor is 0, whose log is above Z; s stays in 0..Z too,
        # because s + zech[t - s] drops q - 1 once if it reaches it.
        rows = []
        for row in xs:
            log_row = [log[x] for x in row]
            out = []
            for log_col in log_cols:
                s = None
                for la, lb in zip(log_row, log_col):
                    t = la + lb
                    if t > Z:  # a zero factor
                        continue
                    if s is None:
                        s = t
                        continue
                    z = zech[t - s]
                    if z is None:  # the partial sum cancels to 0
                        s = None
                        continue
                    s += z
                    if s >= m:
                        s -= m
                out.append(0 if s is None else exp[s])
            rows.append(tuple(out))
        return tuple(rows)

    # No tables: sum the terms over Z and reduce once per dot product.
    p, e, mul = F.p, F.e, operator.mul
    if e == 1:
        return tuple(tuple(sum(map(mul, x, y)) % p for y in ys) for x in xs)
    # An element with digits d_i stands for the integer sum of d_i 2^(w i)
    # (Kronecker substitution), so the sum of the products of these integers
    # holds, w bits each, the coefficients over Z of the sum of the
    # polynomial products; w bits hold the largest, len * e * (p-1)^2.
    w = (len(ys[0]) * e * (p - 1) ** 2).bit_length()
    mask = (1 << w) - 1

    def code(a):
        return sum(d << (w * i) for i, d in enumerate(_digits(a, p, e)))

    def reduce(t):
        coeffs = [(t >> (w * i)) & mask for i in range(2 * e - 1)]
        return F._pack(_poly_mod(coeffs, F.modulus, p))

    xs = [[code(a) for a in v] for v in xs]
    ys = [[code(a) for a in v] for v in ys]
    return tuple(tuple(reduce(sum(map(mul, x, y))) for y in ys) for x in xs)


def mat_mul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    F = A.field
    if F is not B.field and F != B.field:
        raise FieldMismatch("matrices over different fields")
    n = len(A.entries)
    if n != len(B.entries):
        raise DimMismatch(f"dimension mismatch: {n} vs {len(B.entries)}")
    cols = list(zip(*B.entries))
    return FqMatrix._trusted(F, _dot_products(F, A.entries, cols))


def _trace_of_product(A: FqMatrix, B: FqMatrix) -> int:
    """tr(AB) = sum over i, j of A_ij B_ji, for A and B of one field and one
    dimension n: one dot product of n^2 terms, A's rows end to end against
    B's columns end to end, not the n^3 entry products of AB."""
    rows = [x for row in A.entries for x in row]
    cols = [y for col in zip(*B.entries) for y in col]
    return _dot_products(A.field, [rows], [cols])[0][0]


def mat_pow(A: FqMatrix, n: int) -> FqMatrix:
    if n < 0:
        raise ValueError("negative matrix powers not supported")
    # the module-level mat_mul, looked up per call, so that a wrapper sees it
    return _power(A, n, mat_mul) if n else mat_identity(A.field, A.dim)


def trace(A: FqMatrix) -> int:
    F = A.field
    s = 0
    for i in range(A.dim):
        s = F.add(s, A.entries[i][i])
    return s


def random_matrix(field: FqField, dim: int, rng: random.Random) -> FqMatrix:
    """dim x dim entries drawn row by row as rng.randrange(q) draws them:
    k = q.bit_length() random bits, redrawn while they reach q."""
    q = field.order
    k = q.bit_length()
    bits = rng.getrandbits
    draws = []
    while len(draws) < dim * dim:
        r = bits(k)
        if r < q:
            draws.append(r)
    rows = tuple(tuple(draws[i : i + dim]) for i in range(0, dim * dim, dim))
    return FqMatrix._trusted(field, rows)


def frobenius_trace_check(field: FqField, dim: int, trials: int, seed: int = 0) -> dict:
    """Check tr(A^p) = tr(A)^p, and the iterated form tr(A^(p^k)) = tr(A)^(p^k)
    for k up to MAX_K, on random matrices.  Failures would indicate an
    arithmetic bug; they are reported, not raised.  Only the trace of the
    last power is read: with B = A^(p^(MAX_K-1)) it is tr(B^(p-1) B), n^2
    entry products in place of a last matrix product.  More entry products
    than FROBCHECK_CAP raises ResourceError before any matrix is drawn,
    each product charged at least PRODUCT_FLOOR of them."""
    if dim < 1:
        raise ValueError("matrix dimension must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = field.p
    per_power = p.bit_length() - 1 + p.bit_count() - 1  # _power's products
    # the last power makes one matrix product fewer and n^2 entry products
    cube, square = max(dim**3, PRODUCT_FLOOR), max(dim**2, PRODUCT_FLOOR)
    if trials * ((MAX_K * per_power - 1) * cube + square) > FROBCHECK_CAP:
        raise ResourceError(
            f"{trials} trials at dimension {dim} and p = {p} exceed the cap of "
            f"{FROBCHECK_CAP} entry products (trials * (({MAX_K} powers * "
            f"{per_power} matrix products per power - 1) * max(dimension^3, "
            f"{PRODUCT_FLOOR}) + max(dimension^2, {PRODUCT_FLOOR})))"
        )
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        A = random_matrix(field, dim, rng)
        B = A
        tp = trace(A)
        for k in range(1, MAX_K + 1):
            tp = field.pow(tp, p)  # tp = tr(A)^(p^k)
            if k < MAX_K:
                B = mat_pow(B, p)  # B = A^(p^k)
                lhs = trace(B)
            else:
                lhs = _trace_of_product(mat_pow(B, p - 1), B)
            if lhs != tp:
                failures.append({"trial": trial, "k": k, "lhs": lhs, "rhs": tp})
    return {
        "p": p,
        "e": field.e,
        "dim": dim,
        "trials": trials,
        "max_k": MAX_K,
        "failures": failures,
        "ok": not failures,
    }
