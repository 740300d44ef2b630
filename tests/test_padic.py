import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_kernel, in_row_span, span_of_rows
from wachkit.errors import InvalidInput, NonUnit, SingularModP
from wachkit.padic import (
    PMatrix,
    PScalar,
    howell_form,
    howell_kernel,
    matrix_inverse_mod,
    pval,
    scalar_inverse,
    teichmueller_lift,
)


def random_matrix(rng, rows, cols, p, N):
    return PMatrix(rows, cols, tuple(rng.randrange(p**N) for _ in range(rows * cols)), p, N)


def det(A: PMatrix) -> int:
    """Determinant mod p^N by Laplace expansion, each minor computed once."""
    rows = A.to_lists()

    @functools.cache
    def minor(cols: tuple[int, ...]) -> int:
        # the minor on the last len(cols) rows and the columns cols
        if not cols:
            return 1
        top = rows[A.rows - len(cols)]
        return sum((-1) ** k * top[c] * minor(cols[:k] + cols[k + 1 :]) for k, c in enumerate(cols) if top[c])

    return minor(tuple(range(A.cols))) % A.modulus


def same_span(rng, rows: list[list[int]], p: int, N: int) -> list[list[int]]:
    """rows recombined by random unimodular row operations, shuffled, and
    padded with redundant combinations: a different generating set of the
    same span."""
    pn = p**N
    out = [list(r) for r in rows]
    for _ in range(2 * len(out)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        unit = rng.randrange(1, p) + p * rng.randrange(p ** (N - 1))
        if i == j:
            out[i] = [x * unit % pn for x in out[i]]
        else:
            c = rng.randrange(pn)
            out[i] = [(x + c * y) % pn for x, y in zip(out[i], out[j])]
    for _ in range(rng.randint(0, 2)):
        coefs = [rng.randrange(pn) for _ in out]
        out.append([sum(c * r[k] for c, r in zip(coefs, out)) % pn for k in range(len(out[0]))])
    rng.shuffle(out)
    return out


class TestScalarInverse:
    def test_identity(self):
        assert scalar_inverse(PScalar(1, 5, 2)).value == 1

    def test_seven_mod_25(self):
        # oracle: direct multiplication
        inv = scalar_inverse(PScalar(7, 5, 2)).value
        assert (7 * inv) % 25 == 1
        assert inv == 18

    def test_non_unit(self):
        with pytest.raises(NonUnit):
            scalar_inverse(PScalar(3, 3, 2))

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 25, 91, 561, 3215031751])
    def test_modulus_must_be_an_odd_prime(self, p):
        # 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5, 7
        with pytest.raises(InvalidInput):
            PScalar(1, p, 2)

    @pytest.mark.parametrize("p", [3, 5, 17, 2**31 - 1])
    def test_odd_primes_accepted(self, p):
        assert PScalar(p + 1, p, 2).value == p + 1

    @given(st.sampled_from([3, 5, 7]), st.integers(1, 10), st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p, N, raw):
        a = raw - raw % p + 1  # force a unit
        s = PScalar(a, p, N)
        assert scalar_inverse(scalar_inverse(s)) == s
        assert (s.value * scalar_inverse(s).value) % p**N == 1


class TestTeichmueller:
    def test_examples(self):
        assert teichmueller_lift(1, 5, 2).value == 1
        # oracle: iterate x -> x^5 mod 25 starting at 2: 2 -> 7 -> 7
        assert pow(2, 5, 25) == 7 and pow(7, 5, 25) == 7
        assert teichmueller_lift(2, 5, 2).value == 7
        # 8 = -1 mod 9 and (-1)^2 = 1
        assert teichmueller_lift(2, 3, 2).value == 8

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            teichmueller_lift(0, 5, 2)
        with pytest.raises(InvalidInput):
            teichmueller_lift(10, 5, 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("N", [1, 2, 5, 16])
    def test_root_of_unity(self, p, N):
        pn = p**N
        for a in range(1, p):
            w = teichmueller_lift(a, p, N).value
            assert pow(w, p - 1, pn) == 1
            assert w % p == a

    def test_lifts_sum_to_zero(self):
        # the p-1 roots of x^(p-1) - 1 sum to zero exactly
        for p in (3, 5, 7):
            total = sum(teichmueller_lift(a, p, 16).value for a in range(1, p))
            assert total % p**16 == 0


class TestMatrixInverse:
    def test_identity(self):
        I = PMatrix.identity(3, 5, 2)
        assert matrix_inverse_mod(I) == I

    def test_unipotent(self):
        A = PMatrix.from_lists([[1, 1], [0, 1]], 5, 2)
        assert matrix_inverse_mod(A).to_lists() == [[1, 24], [0, 1]]

    def test_singular(self):
        A = PMatrix.from_lists([[5, 0], [0, 1]], 5, 2)
        with pytest.raises(SingularModP):
            matrix_inverse_mod(A)

    def test_random_inverses(self):
        rng = random.Random(11)
        for _ in range(40):
            p, N = rng.choice([(3, 4), (5, 3), (7, 16)])
            d = rng.randint(1, 4)
            pn = p**N
            while True:
                A = PMatrix(d, d, tuple(rng.randrange(pn) for _ in range(d * d)), p, N)
                try:
                    inv = matrix_inverse_mod(A)
                    break
                except SingularModP:
                    continue
            I = PMatrix.identity(d, p, N)
            assert A.mul(inv) == I
            assert inv.mul(A) == I

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])  # 9 is the rank of a 3 x 3 tensor product
    def test_p17_inverses(self, d):
        rng = random.Random(170 + d)
        p, N = 17, 16
        I = PMatrix.identity(d, p, N)
        for _ in range(4):
            A = random_matrix(rng, d, d, p, N)
            while det(A) % p == 0:
                A = random_matrix(rng, d, d, p, N)
            inv = matrix_inverse_mod(A)
            assert A.mul(inv) == I
            assert inv.mul(A) == I

    @pytest.mark.parametrize("p, N", [(3, 4), (5, 3), (7, 2), (17, 3)])
    def test_singular_mod_p_only(self, p, N):
        # det is a nonzero multiple of p: invertible over Q_p, not over Z/p^N
        rng = random.Random(p * N)
        pn = p**N
        for d in (2, 3, 4):
            for tamper in ("p times a unit row", "two rows equal mod p"):
                while True:
                    rows = random_matrix(rng, d, d, p, N).to_lists()
                    if tamper == "p times a unit row":
                        rows[-1] = [p * x % pn for x in rows[-1]]
                    else:
                        rows[-1] = [(x + p * rng.randrange(pn)) % pn for x in rows[0]]
                    A = PMatrix.from_lists(rows, p, N)
                    if det(A) % p == 0 and det(A) != 0:
                        break
                with pytest.raises(SingularModP):
                    matrix_inverse_mod(A)

    def test_non_square_is_invalid_input(self):
        A = PMatrix.from_lists([[1, 0, 0], [0, 1, 0]], 5, 2)
        with pytest.raises(InvalidInput):
            matrix_inverse_mod(A)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_verdict_agrees_with_det(self, p):
        # invertible over Z/p^N iff the determinant is a unit
        rng = random.Random(60 + p)
        N = 3
        seen = set()
        for _ in range(80):
            d = rng.randint(1, 4)
            A = random_matrix(rng, d, d, p, N)
            unit = det(A) % p != 0
            if unit:
                assert A.mul(matrix_inverse_mod(A)) == PMatrix.identity(d, p, N)
            else:
                with pytest.raises(SingularModP):
                    matrix_inverse_mod(A)
            seen.add(unit)
        assert seen == {True, False}


class TestHowellKernel:
    def test_injective(self):
        K = howell_kernel(PMatrix.identity(2, 3, 2))
        assert K.rows == 0

    def test_five_mod_25(self):
        # oracle: exhaustive check over Z/25: 5x = 0 iff 5 | x
        assert brute_kernel(PMatrix(1, 1, (5,), 5, 2)) == {(0,), (5,), (10,), (15,), (20,)}
        K = howell_kernel(PMatrix(1, 1, (5,), 5, 2))
        assert K.to_lists() == [[5]]

    def test_zero_map(self):
        K = howell_kernel(PMatrix(1, 1, (0,), 3, 2))
        assert K.to_lists() == [[1]]

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(120):
            p, N = rng.choice([(3, 2), (3, 3), (5, 2), (5, 3)])
            if p**N > 125:
                continue
            rows, cols = rng.randint(1, 3), rng.randint(1, 2)
            pn = p**N
            A = PMatrix(rows, cols, tuple(rng.randrange(pn) for _ in range(rows * cols)), p, N)
            K = howell_kernel(A)
            assert span_of_rows(K) == brute_kernel(A)

    def test_against_brute_force_wider(self):
        # three-column systems at p^N = 9 keep enumeration cheap
        rng = random.Random(29)
        for _ in range(40):
            rows = rng.randint(1, 4)
            A = PMatrix(rows, 3, tuple(rng.randrange(9) for _ in range(rows * 3)), 3, 2)
            K = howell_kernel(A)
            assert span_of_rows(K) == brute_kernel(A)

    def test_canonical(self):
        rng = random.Random(5)
        pn = 27
        A = PMatrix(3, 2, tuple(rng.randrange(pn) for _ in range(6)), 3, 3)
        K1 = howell_kernel(A)
        # permuting the input rows must not change the canonical kernel
        perm_rows = [list(A.row(i)) for i in (2, 0, 1)]
        K2 = howell_kernel(PMatrix.from_lists(perm_rows, 3, 3))
        assert K1 == K2

    def test_member(self):
        H = howell_form(PMatrix.from_lists([[3, 1], [0, 9]], 3, 3))
        assert in_row_span(H, [3, 1])
        assert in_row_span(H, [6, 11])
        assert not in_row_span(H, [1, 0])
        span = span_of_rows(H)
        for v in itertools.product(range(27), repeat=2):
            assert in_row_span(H, list(v)) == (v in span)


class TestHowellCanonical:
    def test_unit_pivot_clears_the_entries_above(self):
        # [[1, 1], [0, 1]] and the identity span the same module
        for p in (3, 5):
            I = PMatrix.identity(2, p, 2)
            assert howell_form(PMatrix.from_lists([[1, 1], [0, 1]], p, 2)) == I
            assert howell_form(I) == I

    def test_entries_above_reduced_mod_the_pivot(self):
        # mod 25, 10 = 2*5 above the pivot 5 reduces to 0
        H = PMatrix.from_lists([[5, 0], [0, 5]], 5, 2)
        assert howell_form(PMatrix.from_lists([[5, 10], [0, 5]], 5, 2)) == H
        assert howell_form(H) == H

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_same_span_same_form(self, p, N):
        rng = random.Random(100 * p + N)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            gens = random_matrix(rng, rows, cols, p, N).to_lists()
            if rng.random() < 0.5:  # non-unit entries exercise the p-power shadows
                gens = [[x * p ** rng.randrange(N) for x in r] for r in gens]
            H = howell_form(PMatrix.from_lists(gens, p, N))
            other = PMatrix.from_lists(same_span(rng, gens, p, N), p, N)
            assert howell_form(other) == H
            assert howell_form(H) == H

    @pytest.mark.parametrize("p, N", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_kernel_depends_on_the_row_span_only(self, p, N):
        rng = random.Random(7 * p + N)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            gens = [[x * p ** rng.randrange(N) for x in r] for r in random_matrix(rng, rows, cols, p, N).to_lists()]
            K = howell_kernel(PMatrix.from_lists(gens, p, N))
            assert howell_kernel(PMatrix.from_lists(same_span(rng, gens, p, N), p, N)) == K
            assert howell_form(K) == K


class TestSmith:
    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_rank_mod_p_against_brute_kernel(self, p):
        # the rank mod p that recover_filtration reads, the number of unit
        # Smith divisors at N = 1, is the row count of the Howell form over
        # Z/p, and cols - log_p |kernel| by enumeration
        rng = random.Random(40 + p)
        full_rank = set()
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            # a product through k inner columns has rank at most k, so
            # k < min(rows, cols) makes M rank-deficient
            k = rng.randint(0, min(rows, cols))
            left = PMatrix(rows, k, tuple(rng.randrange(p) for _ in range(rows * k)), p, 1)
            right = PMatrix(k, cols, tuple(rng.randrange(p) for _ in range(k * cols)), p, 1)
            M = left.mul(right)
            kernel_size = len(brute_kernel(M))
            rank = howell_form(M).rows
            assert p ** (cols - rank) == kernel_size
            full_rank.add(rank == min(rows, cols))
        assert full_rank == {True, False}  # full-rank and rank-deficient cases ran

    def test_pval(self):
        assert pval(0, 3, 4) == 4
        assert pval(18, 3, 4) == 2
        assert pval(1, 3, 4) == 0
