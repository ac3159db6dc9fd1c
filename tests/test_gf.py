import functools
import io
import itertools
import math
import random
import time
import tokenize
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dwlink import gf
from dwlink.arith import is_prime
from dwlink.errors import (
    DegreeTooLarge,
    DimMismatch,
    FieldMismatch,
    NotPrime,
    ResourceError,
)


class TestFieldConstruction:
    def test_prime_field(self):
        F = gf.field_make(2, 1)
        assert F.order == 2
        assert F.modulus == [0, 1]  # the polynomial x

    def test_f8_modulus(self):
        F = gf.field_make(2, 3)
        # smallest irreducible cubic over F2 in constant-term-first order
        assert F.modulus == [1, 1, 0, 1]  # 1 + x + x^3

    def test_f4_modulus(self):
        assert gf.field_make(2, 2).modulus == [1, 1, 1]

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            gf.field_make(4, 1)

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            gf.field_make(2, 13)

    def test_modulus_irreducible(self):
        for p, e in [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2)]:
            F = gf.field_make(p, e)
            assert gf._is_irreducible(F.modulus, p)


def trial_division_irreducible(coeffs, p):
    """Divide the monic polynomial by every monic polynomial of degree up to
    half its own: the reference for Ben-Or's test."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(gf._poly_mod(coeffs, [*tail, 1], p)):
                return False
    return True


class TestIrreducibility:
    @pytest.mark.parametrize("p, max_e", [(2, 8), (3, 6), (5, 4), (7, 3)])
    def test_ben_or_matches_trial_division(self, p, max_e):
        for e in range(1, max_e + 1):
            for tail in itertools.product(range(p), repeat=e):
                f = [*tail, 1]
                assert gf._is_irreducible(f, p) == trial_division_irreducible(f, p), f

    def test_moduli_match_trial_division(self, monkeypatch):
        # every (p, e) where the trial-division search takes at most ~0.1 s
        grid = [
            (p, e)
            for p in (2, 3, 5, 7, 11, 13, 101)
            for e in range(1, gf.DEGREE_CAP + 1)
            if p ** (e // 2) <= 5000
        ]
        fast = [gf._smallest_irreducible(p, e) for p, e in grid]
        monkeypatch.setattr(gf, "_is_irreducible", trial_division_irreducible)
        assert [gf._smallest_irreducible(p, e) for p, e in grid] == fast

    def test_binomial_skip_keeps_every_modulus(self):
        def plain_search(p, e):
            # every code from 0, binomials x^e + c included
            for n in range(p**e):
                coeffs = [*gf._digits(n, p, e), 1]
                if gf._is_irreducible(coeffs, p):
                    return coeffs

        grid = [
            (p, e)
            for p in range(2, 200)
            if is_prime(p)
            for e in range(1, 9)
            if e <= 4 or p**e <= 10**7
        ]
        assert len(grid) == 207
        for p, e in grid:
            assert gf._smallest_irreducible(p, e) == plain_search(p, e), (p, e)

    def test_large_prime_candidates_are_not_materialised(self):
        # the answer x^2 + 1 is the second candidate; the search must not
        # build a p-element sequence to get there
        tracemalloc.start()
        try:
            assert gf._smallest_irreducible(1000003, 2) == [1, 0, 1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_large_prime_degree_12(self):
        # trial division would try about 101^6 divisors per candidate
        start = time.perf_counter()
        F = gf.field_make(101, 12)
        assert time.perf_counter() - start < 1
        assert gf._is_irreducible(F.modulus, 101) and len(F.modulus) == 13


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
    def test_field_axioms_exhaustive(self, p, e):
        F = gf.field_make(p, e)
        q = F.order
        assert q <= 64
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, F.one) == a
            assert F.add(a, F.neg(a)) == 0
        # nonzero elements form a group under multiplication
        for a in range(1, q):
            images = {F.mul(a, b) for b in range(1, q)}
            assert images == set(range(1, q))

    def test_frobenius_additive_multiplicative(self):
        rng = random.Random(21)
        for p, e in [(2, 3), (3, 2), (5, 2)]:
            F = gf.field_make(p, e)
            for _ in range(1000):
                a = rng.randrange(F.order)
                b = rng.randrange(F.order)
                assert F.frobenius(F.add(a, b)) == F.add(
                    F.frobenius(a), F.frobenius(b)
                )
                assert F.frobenius(F.mul(a, b)) == F.mul(
                    F.frobenius(a), F.frobenius(b)
                )

    def test_frobenius_fixes_prime_field(self):
        F = gf.field_make(3, 2)
        for c in range(3):
            a = F.element([c])
            assert F.frobenius(a) == a


class Reference:
    """Arithmetic on F's element codes straight from _poly_mul and _poly_mod,
    with no tables, and matrix products by the naive triple loop: the oracle
    for both of FqField's paths and for the mat_mul kernel."""

    def __init__(self, F):
        self.p, self.modulus = F.p, F.modulus
        self.weights = [F.p**i for i in range(F.e)]

    def digits(self, a):
        return [a // w % self.p for w in self.weights]

    def code(self, coeffs):
        return sum(c * w for c, w in zip(coeffs, self.weights))

    def add(self, a, b):
        pairs = zip(self.digits(a), self.digits(b))
        return self.code([(x + y) % self.p for x, y in pairs])

    def neg(self, a):
        return self.code([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        prod = gf._poly_mul(self.digits(a), self.digits(b), self.p)
        return self.code(gf._poly_mod(prod, self.modulus, self.p))

    def mat_mul(self, A, B):
        n = len(A)

        def entry(i, j):
            terms = [self.mul(A[i][k], B[k][j]) for k in range(n)]
            return functools.reduce(self.add, terms, 0)

        return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


SMALL_FIELDS = [
    (p, e) for p in range(2, 257) if is_prime(p) for e in range(1, 9) if p**e <= 256
]


class TestArithmeticOracle:
    @pytest.mark.parametrize("p, e", SMALL_FIELDS)
    def test_exhaustive(self, p, e):
        F = gf.field_make(p, e)
        ref = Reference(F)
        for a in range(F.order):
            assert F.neg(a) == ref.neg(a)
            for b in range(a, F.order):  # and each pair the other way round
                assert F.add(a, b) == F.add(b, a) == ref.add(a, b)
                assert F.mul(a, b) == F.mul(b, a) == ref.mul(a, b)

    @pytest.mark.parametrize("p, e", [(3, 6), (2, 12)])
    def test_sampled(self, p, e):
        F = gf.field_make(p, e)
        ref = Reference(F)
        rng = random.Random(p * 100 + e)
        for _ in range(20_000):
            a, b = rng.randrange(F.order), rng.randrange(F.order)
            assert F.add(a, b) == ref.add(a, b)
            assert F.mul(a, b) == ref.mul(a, b)
            assert F.neg(a) == ref.neg(a)

    @pytest.mark.parametrize("p", [4099, 1000003, 1000000007])
    def test_large_prime_field_matches_polynomials(self, p):
        # above _TABLE_CAP a prime field computes with integers mod p; the
        # polynomial path is its reference
        F = gf.field_make(p, 1)
        assert F.zech is None
        rng = random.Random(p)
        samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(2000)]
        for a, b in zip(samples, reversed(samples)):
            assert F.add(a, b) == F._add_slow(a, b)
            assert F.mul(a, b) == F._mul_slow(a, b)
            assert F.neg(a) == F._pack([-x for x in F.coeffs(a)])

    def test_large_prime_field_takes_no_polynomial_path(self, monkeypatch):
        def no_poly(self, a, b):
            raise AssertionError("polynomial arithmetic in a prime field")

        monkeypatch.setattr(gf.FqField, "_add_slow", no_poly)
        monkeypatch.setattr(gf.FqField, "_mul_slow", no_poly)
        F = gf.field_make(1000000007, 1)
        assert gf.frobenius_trace_check(F, 3, 2)["ok"]

    @pytest.mark.parametrize("p, e", [(2, 1), (3, 5), (101, 2)])
    def test_pow_is_repeated_mul(self, p, e):
        F = gf.field_make(p, e)
        rng = random.Random(p + e)
        for a in [0, 1, *(rng.randrange(F.order) for _ in range(5))]:
            expected = F.one
            for n in range(34):
                assert F.pow(a, n) == expected
                expected = F.mul(expected, a)


def _test_matrices(F, n, rng):
    """Pairs (A, B) of n x n matrices: dense random ones, a zero row, the
    identity on either side, the zero matrix, and dot products with a row of
    equal terms or of a term and its negative, whose partial sums reach 0
    part way through (at p equal terms, or at the second term)."""
    def rand():
        return [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)]

    c, d = rng.randrange(1, F.order), rng.randrange(1, F.order)
    I = [[int(i == j) for j in range(n)] for i in range(n)]
    zero_row = rand()
    zero_row[rng.randrange(n)] = [0] * n
    cancel = rand()
    cancel[0] = [c] * n
    cancel[-1] = [c if j % 2 == 0 else F.neg(c) for j in range(n)]
    const = [[d] * n for _ in range(n)]
    pairs = [(rand(), rand()) for _ in range(3)]
    pairs += [(zero_row, rand()), (rand(), zero_row), (I, rand()), (rand(), I)]
    pairs += [([[0] * n] * n, rand()), (cancel, const), (cancel, cancel)]
    return [(gf.mat_from_lists(F, A), gf.mat_from_lists(F, B)) for A, B in pairs]


class TestMatricesOracle:
    # (101, 2), (67, 2), (4099, 2) and (3, 8) are above the table cap: the
    # polynomial path; (4099, 1) is a prime field above it
    @pytest.mark.parametrize(
        "p, e",
        [(2, 1), (2, 3), (3, 1), (3, 2), (3, 5), (2, 8), (101, 2), (67, 2),
         (4099, 2), (3, 8), (4099, 1)],
    )
    def test_mat_mul(self, p, e):
        F = gf.field_make(p, e)
        ref = Reference(F)
        rng = random.Random(p * 10 + e)
        for n in range(1, 7):
            for A, B in _test_matrices(F, n, rng):
                assert gf.mat_mul(A, B).entries == ref.mat_mul(A.entries, B.entries)

    @pytest.mark.parametrize("p, e", [(2, 3), (3, 2), (3, 5), (101, 2)])
    def test_mat_pow(self, p, e):
        F = gf.field_make(p, e)
        ref = Reference(F)
        rng = random.Random(p * 10 + e)
        for n in range(1, 7):
            for A, _ in _test_matrices(F, n, rng)[::3]:
                expected = gf.mat_identity(F, n).entries
                for k in range(10):
                    assert gf.mat_pow(A, k).entries == expected
                    expected = ref.mat_mul(expected, A.entries)

    def test_mat_pow_product_count(self, monkeypatch):
        # floor(log2 n) squarings and popcount(n) - 1 further products, each
        # through the module-level mat_mul, where the benchmark tracer hooks
        F = gf.field_make(3, 2)
        A = gf.random_matrix(F, 3, random.Random(5))
        mat_mul, calls = gf.mat_mul, []

        def counted(X, Y):
            calls.append(1)
            return mat_mul(X, Y)

        monkeypatch.setattr(gf, "mat_mul", counted)
        expected = gf.mat_identity(F, 3)
        for n in range(34):
            calls.clear()
            assert gf.mat_pow(A, n) == expected
            assert len(calls) == max(0, n.bit_length() - 1 + bin(n).count("1") - 1)
            expected = mat_mul(expected, A)


class TestTableCap:
    def test_largest_table_field_builds_fast(self):
        start = time.perf_counter()
        F = gf.field_make(2, 12)
        assert time.perf_counter() - start < 1
        assert F.order == gf._TABLE_CAP and F.zech is not None

    def test_above_cap_has_no_tables(self):
        assert gf.field_make(101, 2).zech is None

    def test_tables(self):
        for p, e in [(2, 1), (2, 4), (3, 3), (7, 1)]:
            F = gf.field_make(p, e)
            m = F.order - 1
            assert len(F.exp) == len(F.zech) == 2 * m and len(F.log) == F.order
            assert sorted(F.exp[:m]) == list(range(1, F.order))  # g is primitive
            assert F.exp[m:] == F.exp[:m]
            assert all(F.log[F.exp[i]] == i for i in range(m))
            # the sentinel for 0 lies above every sum of two logs of nonzero
            # elements
            assert F.log[0] > 2 * max(F.log[1:])


class TestMatrices:
    def test_pow_zero_identity(self):
        F = gf.field_make(3, 1)
        A = gf.mat_from_lists(F, [[1, 2], [0, 1]])
        assert gf.mat_pow(A, 0) == gf.mat_identity(F, 2)

    def test_nilpotent_square(self):
        F = gf.field_make(2, 1)
        A = gf.mat_from_lists(F, [[0, 1], [0, 0]])
        sq = gf.mat_mul(A, A)
        assert all(v == 0 for row in sq.entries for v in row)

    def test_associativity(self):
        rng = random.Random(22)
        F = gf.field_make(3, 2)
        for _ in range(100):
            A = gf.random_matrix(F, 3, rng)
            B = gf.random_matrix(F, 3, rng)
            C = gf.random_matrix(F, 3, rng)
            assert gf.mat_mul(gf.mat_mul(A, B), C) == gf.mat_mul(
                A, gf.mat_mul(B, C)
            )

    def test_dim_mismatch(self):
        F = gf.field_make(2, 1)
        A = gf.mat_identity(F, 2)
        B = gf.mat_identity(F, 3)
        with pytest.raises(DimMismatch):
            gf.mat_mul(A, B)

    def test_field_mismatch(self):
        A = gf.mat_identity(gf.field_make(2, 1), 2)
        B = gf.mat_identity(gf.field_make(3, 1), 2)
        with pytest.raises(FieldMismatch):
            gf.mat_mul(A, B)

    def test_equal_fields_built_apart(self):
        # the field check tries identity first, then equality
        F, G = gf.field_make(3, 2), gf.field_make(3, 2)
        A = gf.random_matrix(F, 3, random.Random(1))
        B = gf.random_matrix(G, 3, random.Random(2))
        assert gf.mat_mul(A, B) == gf.mat_mul(A, gf.FqMatrix(F, B.entries))


class TestTrace:
    def test_identity(self):
        for p, n in [(2, 3), (3, 4), (5, 7)]:
            F = gf.field_make(p, 1)
            assert gf.trace(gf.mat_identity(F, n)) == n % p

    def test_zero(self):
        F = gf.field_make(3, 2)
        Z = gf.mat_from_lists(F, [[0] * 3] * 3)
        assert gf.trace(Z) == 0

    def test_similarity_invariance(self):
        rng = random.Random(23)
        F = gf.field_make(5, 1)
        checked = 0
        while checked < 50:
            A = gf.random_matrix(F, 3, rng)
            P = gf.random_matrix(F, 3, rng)
            Pinv = _invert(F, P)
            if Pinv is None:
                continue
            conj = gf.mat_mul(gf.mat_mul(P, A), Pinv)
            assert gf.trace(conj) == gf.trace(A)
            checked += 1


def _invert(F, M):
    """Gauss-Jordan inverse, or None if singular."""
    n = M.dim
    a = [list(row) for row in M.entries]
    inv = [[F.one if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = F.pow(a[col][col], F.order - 2)
        a[col] = [F.mul(scale, v) for v in a[col]]
        inv[col] = [F.mul(scale, v) for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [F.add(v, F.neg(F.mul(f, w))) for v, w in zip(a[r], a[col])]
                inv[r] = [
                    F.add(v, F.neg(F.mul(f, w))) for v, w in zip(inv[r], inv[col])
                ]
    return gf.FqMatrix(F, tuple(tuple(r) for r in inv))


class TestFrobeniusTraceCheck:
    def test_upper_triangular_f2(self):
        F = gf.field_make(2, 1)
        A = gf.mat_from_lists(F, [[1, 1], [0, 1]])
        assert gf.trace(A) == 0
        assert gf.trace(gf.mat_pow(A, 2)) == 0

    def test_small_run(self):
        F = gf.field_make(3, 2)
        report = gf.frobenius_trace_check(F, 3, 50)
        assert report["ok"] and report["trials"] == 50

    def test_work_cap_boundary(self, monkeypatch):
        # trials * ((MAX_K powers * 2 products per cube (one squaring, one
        # more product) - 1) * 3^3 entry products + max(3^2, PRODUCT_FLOOR)
        # for the trace-only last product)
        assert gf.PRODUCT_FLOOR == 25
        F = gf.field_make(3, 2)
        monkeypatch.setattr(gf, "FROBCHECK_CAP", 320)
        assert gf.frobenius_trace_check(F, 3, 2)["ok"]  # 2 * (5 * 27 + 25) = 320

        def no_draw(field, dim, rng):
            raise AssertionError("matrix drawn past the work cap")

        monkeypatch.setattr(gf, "random_matrix", no_draw)
        with pytest.raises(ResourceError):
            gf.frobenius_trace_check(F, 3, 3)  # 480

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_cap_counts_the_products_made(self, monkeypatch, p):
        # the cap admits exactly the entry products of the mat_mul calls and
        # of the trace-only products, each charged at least PRODUCT_FLOOR:
        # at dimension 3 a matrix product is charged 27 and a trace-only one
        # the floor
        mat_mul, trace_of_product = gf.mat_mul, gf._trace_of_product
        F, trials = gf.field_make(p, 1), 3
        for dim in (1, 2, 3):
            products, traces = [], []

            def counted(X, Y):
                products.append(max(dim**3, gf.PRODUCT_FLOOR))
                return mat_mul(X, Y)

            def counted_trace(X, Y):
                traces.append(max(dim**2, gf.PRODUCT_FLOOR))
                return trace_of_product(X, Y)

            monkeypatch.setattr(gf, "mat_mul", counted)
            monkeypatch.setattr(gf, "_trace_of_product", counted_trace)
            monkeypatch.setattr(gf, "FROBCHECK_CAP", 10**7)
            assert gf.frobenius_trace_check(F, dim, trials)["ok"]
            assert len(traces) == trials
            work = sum(products) + sum(traces)
            monkeypatch.setattr(gf, "FROBCHECK_CAP", work)
            assert gf.frobenius_trace_check(F, dim, trials)["ok"]
            monkeypatch.setattr(gf, "FROBCHECK_CAP", work - 1)
            with pytest.raises(ResourceError):
                gf.frobenius_trace_check(F, dim, trials)

    def test_cap_admits_the_benchmark_instance(self, monkeypatch):
        # 1500 trials * ((3 powers * 2 products - 1) * 6^3 + 6^2) = 1.67e6
        # entry products admitted; 46000 trials (5.13e7) refused before any
        # matrix is drawn
        self.check_boundary(monkeypatch, 6, 1500, 46000)

    def test_cap_at_dimension_one(self, monkeypatch):
        # each of the 6 products of a trial is charged the floor of 25:
        # 66666 trials (9,999,900 entry products, about 2.5 s) admitted, and
        # one more refused before any matrix is drawn
        self.check_boundary(monkeypatch, 1, 66666, 66667)

    @staticmethod
    def check_boundary(monkeypatch, dim, admitted, refused):
        class Drawn(Exception):
            pass

        def draw(field, dim, rng):
            raise Drawn

        monkeypatch.setattr(gf, "random_matrix", draw)
        F = gf.field_make(3, 5)
        with pytest.raises(Drawn):
            gf.frobenius_trace_check(F, dim, admitted)
        with pytest.raises(ResourceError):
            gf.frobenius_trace_check(F, dim, refused)

    def test_max_k_is_three(self):
        report = gf.frobenius_trace_check(gf.field_make(2, 1), 2, 1)
        assert report["max_k"] == gf.MAX_K == 3

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one(self, dim):
        with pytest.raises(ValueError):
            gf.frobenius_trace_check(gf.field_make(2, 1), dim, 3)

    def test_grid_sample(self):
        for p, e, dim in itertools.product((2, 3), (1, 2), (2, 3)):
            F = gf.field_make(p, e)
            assert gf.frobenius_trace_check(F, dim, 25)["ok"]


@functools.lru_cache(maxsize=None)
def field(p, e):
    return gf.field_make(p, e)


# one field of each kind that _dot_products serves: Zech-log tables, a prime
# field above the table cap, and polynomials above it
KERNEL_FIELDS = [(3, 5), (2, 4), (4099, 1), (1000000007, 1), (67, 2), (4099, 2), (3, 8)]


def reference_rows(F, dim, trials, seed):
    """(trial, k, tr(A^(p^k)), tr(A)^(p^k)) for each of frobenius_trace_check's
    cases, the slow way: A drawn entry by entry by rng.randrange, and every
    power A^(p^k) formed in full by mat_pow from A."""
    p, rng, rows = F.p, random.Random(seed), []
    for trial in range(trials):
        entries = [[rng.randrange(F.order) for _ in range(dim)] for _ in range(dim)]
        A = gf.mat_from_lists(F, entries)
        t = gf.trace(A)
        for k in range(1, gf.MAX_K + 1):
            rows.append((trial, k, gf.trace(gf.mat_pow(A, p**k)), F.pow(t, p**k)))
    return rows


class TestFastPathsAgainstSlow:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_trace_of_product_is_trace_of_mat_mul(self, data):
        F = field(*data.draw(st.sampled_from(KERNEL_FIELDS)))
        n = data.draw(st.integers(1, 6))
        row = st.lists(st.integers(0, F.order - 1), min_size=n, max_size=n)
        A, B = (gf.mat_from_lists(F, data.draw(st.lists(row, min_size=n, max_size=n)))
                for _ in range(2))
        assert gf._trace_of_product(A, B) == gf.trace(gf.mat_mul(A, B))

    @pytest.mark.parametrize(
        "p, e, dim, trials",
        [(2, 1, 3, 20), (2, 3, 2, 10), (3, 2, 3, 20), (5, 1, 4, 10), (3, 5, 6, 3),
         (67, 2, 2, 2), (4099, 1, 2, 2), (3, 8, 2, 2)],
    )
    def test_report_matches_full_powers(self, p, e, dim, trials):
        F = field(p, e)
        rows = reference_rows(F, dim, trials, seed=p + dim)
        failures = [
            {"trial": trial, "k": k, "lhs": lhs, "rhs": rhs}
            for trial, k, lhs, rhs in rows
            if lhs != rhs
        ]
        expected = {"p": p, "e": e, "dim": dim, "trials": trials,
                    "max_k": gf.MAX_K, "failures": failures, "ok": not failures}
        assert gf.frobenius_trace_check(F, dim, trials, seed=p + dim) == expected

    @pytest.mark.parametrize("p, e", [(3, 2), (2, 1), (67, 2), (4099, 1)])
    def test_trace_only_failures_are_reported(self, monkeypatch, p, e):
        # mutation check: a fault in the trace-only product alone (vectors of
        # dim^2 entries; mat_mul's have dim) shows as a failure at k = MAX_K
        # in every trial, with that product's value as lhs
        F, dim, trials = field(p, e), 3, 4
        rows = reference_rows(F, dim, trials, seed=11)
        dot_products = gf._dot_products

        def faulty(F, xs, ys):
            out = dot_products(F, xs, ys)
            if len(ys[0]) != dim**2:
                return out
            return ((F.add(out[0][0], F.one),),)

        monkeypatch.setattr(gf, "_dot_products", faulty)
        report = gf.frobenius_trace_check(F, dim, trials, seed=11)
        assert not report["ok"]
        assert report["failures"] == [
            {"trial": trial, "k": k, "lhs": F.add(lhs, F.one), "rhs": rhs}
            for trial, k, lhs, rhs in rows
            if k == gf.MAX_K
        ]

    @pytest.mark.parametrize("p, e", [(2, 1), (3, 5), (4099, 2), (1000000007, 1)])
    def test_random_matrix_draws_as_randrange(self, p, e):
        F = field(p, e)
        for dim in (1, 2, 5):
            fast, slow = random.Random(dim), random.Random(dim)
            for _ in range(20):
                drawn = [[slow.randrange(F.order) for _ in range(dim)] for _ in range(dim)]
                assert gf.random_matrix(F, dim, fast) == gf.mat_from_lists(F, drawn)
            assert fast.getstate() == slow.getstate()


# the fields with Zech-log tables that the row kernel is checked on: (3, 7)
# has a partial last chunk for every L up to 31, (61, 2) slots wider than 12
# bits from L = 69 on, and (2, 1) and (4093, 1) reduce by % p
ROW_KERNEL_FIELDS = [(2, 1), (2, 12), (3, 5), (3, 7), (7, 2), (61, 2), (4093, 1)]


def loop_products(F, xs, ys):
    """_dot_products through the loop: with _ROW_CAP at 0 no shape compiles."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gf, "_ROW_CAP", 0)
        return gf._dot_products(F, xs, ys)


def kernel_products(F, xs, ys):
    """_dot_products through the compiled kernel of their shape, which F
    holds afterwards."""
    out = gf._dot_products(F, xs, ys)
    assert (len(ys), len(ys[0])) in F._kernels
    return out


def table_sizes(p, e, L):
    """The sizes of the tables that a kernel of column length L over F_{p^e}
    takes, from _layout alone: D, then one per chunk of slots."""
    w, k = gf._layout(p, L)
    chunks = [min(k, e - j) for j in range(0, e, k)] if e > 1 else []
    return [4 * (p**e - 1) - 1] + [2 ** (w * slots) for slots in chunks]


def check_kernel(F, n, rng):
    """The kernel against the loop and Reference on _test_matrices' pairs
    of n x n matrices, in mat_mul's shape (n, n) and _trace_of_product's
    (1, n^2); Reference on the first and last rows, where the cancelling
    rows of _test_matrices lie."""
    ref = Reference(F)
    for A, B in _test_matrices(F, n, rng):
        cols = list(zip(*B.entries))
        flat = [[x for row in A.entries for x in row]]
        flat_col = [[y for col in cols for y in col]]
        for xs, ys in ((A.entries, cols), (flat, flat_col)):
            out = kernel_products(F, xs, ys)
            assert out == loop_products(F, xs, ys)
            for i in {0, len(xs) - 1}:
                expected = tuple(
                    functools.reduce(ref.add, map(ref.mul, xs[i], y), 0) for y in ys
                )
                assert out[i] == expected


class TestRowKernel:
    """The compiled row kernel behind _dot_products against the loop and
    Reference, its tables, and the cap that decides which shapes compile."""

    def test_matches_loop_and_reference_property(self):
        sizes = set()

        @settings(max_examples=50, deadline=None)
        @given(data=st.data())
        def kernel_matches(data):
            F = field(*data.draw(st.sampled_from(ROW_KERNEL_FIELDS)))
            n = data.draw(st.integers(1, math.isqrt(gf._ROW_CAP)))
            check_kernel(F, n, random.Random(data.draw(st.integers(0, 2**32))))
            sizes.add(n)

        kernel_matches()
        assert max(sizes) == math.isqrt(gf._ROW_CAP)

    @pytest.mark.parametrize("p, e", ROW_KERNEL_FIELDS)
    def test_matches_loop_and_reference_at_the_cap(self, p, e):
        # L = 15 and 225: (3, 7)'s last chunk is partial at L = 15, and
        # (61, 2)'s slots of 14 bits at L = 225 are wider than a chunk
        F = field(p, e)
        check_kernel(F, math.isqrt(gf._ROW_CAP), random.Random(p + e))

    @pytest.mark.parametrize("p, e", ROW_KERNEL_FIELDS)
    def test_report_matches_loop(self, p, e):
        F = field(p, e)
        for n in range(1, 9):
            report = gf.frobenius_trace_check(F, n, 2, seed=n)
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(gf, "_ROW_CAP", 0)
                assert gf.frobenius_trace_check(F, n, 2, seed=n) == report

    def test_tables_at_most_2_to_the_14(self):
        # every field with tables, every column length that compiles
        largest = max(
            max(table_sizes(p, e, L))
            for p in range(2, gf._TABLE_CAP + 1)
            if is_prime(p)
            for e in range(1, gf.DEGREE_CAP + 1)
            if p**e <= gf._TABLE_CAP
            for L in range(1, gf._ROW_CAP + 1)
        )
        assert largest == 2**14
        # D, then chunks of 2, 2, 2 and 1 slots of 5 bits; and of one slot
        # of 14 bits, wider than 12
        assert table_sizes(3, 7, 15) == [4 * 2186 - 1, 2**10, 2**10, 2**10, 2**5]
        assert table_sizes(61, 2, 225) == [4 * 3720 - 1, 2**14, 2**14]

    @pytest.mark.parametrize("p, e", ROW_KERNEL_FIELDS)
    def test_table_sizes_as_built(self, p, e):
        F = gf.field_make(p, e)
        for L in (1, 6, 15, 36, 225):
            w, k = gf._layout(p, L)
            tables = gf._digit_tables(F, w, k)
            assert [len(t) for t in tables] == table_sizes(p, e, L)
            # D is 0 exactly where a sum of two logs has a zero factor
            Z = 2 * (F.order - 2)
            assert all(tables[0][: Z + 1]) and not any(tables[0][Z + 1 :])

    def test_field_make_builds_no_kernel(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kernel work in field_make")

        monkeypatch.setattr(gf, "_digit_tables", forbidden)
        monkeypatch.setattr(gf, "_compile_row", forbidden)
        for p, e in ROW_KERNEL_FIELDS:
            F = gf.field_make(p, e)
            assert F._kernels == {}

    def test_builds_from_integers_only(self, monkeypatch):
        def forbidden(source, namespace):
            raise AssertionError("exec reached with a non-integer shape")

        monkeypatch.setattr(gf, "exec", forbidden, raising=False)
        F = gf.field_make(3, 5)
        for c, L in [(2.0, 3), (2, "3"), (None, 1)]:
            with pytest.raises(TypeError):
                gf._compile_row(F, c, L)

        sources = []

        def recorded(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(gf, "exec", recorded)
        for p, e in ROW_KERNEL_FIELDS:
            F = gf.field_make(p, e)
            for L in (1, 6, 15, 36, 225):
                gf._compile_row(F, 2, L)
                lines = io.StringIO(sources[-1]).readline
                tokens = list(tokenize.generate_tokens(lines))
                numbers = [t.string for t in tokens if t.type == tokenize.NUMBER]
                assert all(s.isdigit() for s in numbers)
                # every shift, mask and modulus in the source: the offsets
                # of _layout's chunks after the first, the chunk mask unless
                # one chunk holds every slot, and p in a prime field alone
                operations = {
                    (a.string, int(b.string))
                    for a, b in zip(tokens, tokens[1:])
                    if a.string in (">>", "&", "%")
                }
                w, k = gf._layout(p, L)
                chunks = -(-e // k)
                expected = {(">>", w * k * j) for j in range(1, chunks)}
                expected |= {("&", 2 ** (w * k) - 1)} if chunks > 1 else set()
                assert operations == (expected if e > 1 else {("%", p)})

    @pytest.fixture
    def built(self, monkeypatch):
        """The shapes compiled and the slot widths of the tables each
        compile builds from here on, in order."""
        built = []
        compile_row, digit_tables = gf._compile_row, gf._digit_tables

        def counted_compile(F, c, L):
            built.append((c, L))
            return compile_row(F, c, L)

        def counted_tables(F, w, k):
            built.append(w)
            return digit_tables(F, w, k)

        monkeypatch.setattr(gf, "_compile_row", counted_compile)
        monkeypatch.setattr(gf, "_digit_tables", counted_tables)
        return built

    def test_compiled_once_on_first_product(self, built):
        F, n = gf.field_make(3, 5), 6
        A = gf.random_matrix(F, n, random.Random(1))
        ref = Reference(F)
        expected = ref.mat_mul(A.entries, A.entries)
        assert gf.mat_mul(A, A).entries == expected
        # slots of 4 bits hold a sum of 6 digits below 3
        assert built == [(n, n), 4]
        trace = functools.reduce(ref.add, (expected[i][i] for i in range(n)), 0)
        assert gf._trace_of_product(A, A) == trace
        assert built == [(n, n), 4, (1, n * n), 7]
        for _ in range(50):
            assert gf.mat_mul(A, A).entries == expected
            assert gf._trace_of_product(A, A) == trace
        assert built == [(n, n), 4, (1, n * n), 7]
        assert set(F._kernels) == {(n, n), (1, n * n)}

    @pytest.mark.parametrize(
        "p, e, n", [(3, 5, math.isqrt(gf._ROW_CAP) + 1), (67, 2, 2), (4099, 1, 2)]
    )
    def test_never_compiled(self, built, p, e, n):
        # a shape over the cap, in a field with tables, and shapes of both
        # kinds in the two kinds of field without tables
        F = gf.field_make(p, e)
        A = gf.random_matrix(F, n, random.Random(2))
        assert (n * n > gf._ROW_CAP) == (F.zech is not None)
        for _ in range(3):
            gf.mat_mul(A, A)
            gf._trace_of_product(A, A)
        assert built == [] and F._kernels == {}
