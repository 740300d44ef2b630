import math
import random
import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    comb_binomial,
    make_series,
    repeated_binomial,
    schoolbook_mul,
    series_pow,
    shift_multiply,
    weierstrass_divide_q_power,
    x_series,
)
from wachkit.errors import (
    InsufficientExponentPrecision,
    InvalidInput,
    NonUnitSeries,
    NonzeroConstant,
    NotDivisible,
    NotInS0,
    ProfileMismatch,
    VariableMismatch,
)
from wachkit.cyclo import _in_s0, guard_order
from wachkit.padic import PScalar, teichmueller_lift
from wachkit.series import (
    PI,
    PI0,
    SeriesMat,
    Substitution,
    TruncationProfile,
    binomial_powers,
    constant_series,
    default_pi_order,
    pi0_coordinates,
    q_divide_exact,
    q_divmod,
    q_steps,
    series_add,
    series_invert_unit,
    series_multiply,
    series_scale,
    shift_divide_exact,
    weierstrass_divide_exact,
    zero_series,
)


def rand_series(rng, var, p, N, order, zero_const=False):
    pn = p**N
    coeffs = [rng.randrange(pn) for _ in range(order)]
    if zero_const:
        coeffs[0] = 0
    return make_series(var, coeffs, p, N)


def pi0_closed_form_p3(order, N=16):
    """pi0 = X^2/(1+X), exact closed form at p = 3."""
    one_plus = make_series(PI, [1, 1] + [0] * (order - 2), 3, N)
    return series_multiply(series_pow(x_series(PI, 3, N, order), 2), series_invert_unit(one_plus))


class TestProfile:
    def test_invariants(self):
        prof = TruncationProfile(3, 16, 16)
        assert prof.M_pi == (prof.p - 1) * prof.M_pi0 + prof.p
        with pytest.raises(InvalidInput):
            TruncationProfile(3, 16, 8)  # M_pi0 < N


class TestMultiply:
    def test_conjugate_pair(self):
        f = make_series(PI, [1, 1, 0, 0], 5, 2)
        g = make_series(PI, [1, -1, 0, 0], 5, 2)
        assert series_multiply(f, g).coeffs == (1, 0, 24, 0)

    def test_truncation_boundary(self):
        order = 6
        top = make_series(PI, [0] * (order - 1) + [1], 3, 2)
        x = x_series(PI, 3, 2, order)
        assert series_multiply(top, x).is_zero()

    def test_small_square(self):
        f = make_series(PI, [1, 1, 0], 3, 2)
        assert series_multiply(f, f).coeffs == (1, 2, 1)

    def test_mismatch(self):
        with pytest.raises(VariableMismatch):
            series_multiply(x_series(PI, 3, 2, 4), x_series(PI0, 3, 2, 4))

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        p, N, order = 5, 3, 8
        rng = random.Random(a ^ (b << 1) ^ (c << 2))
        f, g, h = (rand_series(rng, PI, p, N, order) for _ in range(3))
        assert series_multiply(f, g) == series_multiply(g, f)
        assert series_multiply(series_multiply(f, g), h) == series_multiply(
            f, series_multiply(g, h)
        )
        assert series_multiply(f, series_add(g, h)) == series_add(
            series_multiply(f, g), series_multiply(f, h)
        )

    def test_against_schoolbook(self):
        rng = random.Random(9)
        for _ in range(30):
            p, N, order = 7, 16, 12
            f = rand_series(rng, PI0, p, N, order)
            g = rand_series(rng, PI0, p, N, order)
            expect = schoolbook_mul(list(f.coeffs), list(g.coeffs), p**N, order)
            assert list(series_multiply(f, g).coeffs) == expect


class TestInvert:
    def test_one(self):
        one = constant_series(PI, 1, 3, 4, 6)
        assert series_invert_unit(one) == one

    def test_geometric(self):
        f = make_series(PI, [1, 1, 0, 0, 0], 5, 3)
        inv = series_invert_unit(f)
        pn = 125
        assert inv.coeffs == tuple((-1) ** k % pn for k in range(5))

    def test_non_unit(self):
        with pytest.raises(NonUnitSeries):
            series_invert_unit(x_series(PI, 3, 2, 4))

    def test_random_units(self):
        rng = random.Random(4)
        for _ in range(25):
            f = rand_series(rng, PI0, 7, 16, 10)
            if f.coeffs[0] % 7 == 0:
                f = series_add(f, constant_series(PI0, 1, 7, 16, 10))
            prod = series_multiply(f, series_invert_unit(f))
            assert prod == constant_series(PI0, 1, 7, 16, 10)


class TestCompose:
    def test_square_of_double(self):
        f = make_series(PI, [0, 0, 1, 0], 5, 3)
        g = make_series(PI, [0, 2, 0, 0], 5, 3)
        assert Substitution(g).apply(f).coeffs == (0, 0, 4, 0)

    def test_identity_substitution(self):
        rng = random.Random(2)
        f = rand_series(rng, PI, 3, 4, 7)
        assert Substitution(x_series(PI, 3, 4, 7)).apply(f) == f

    def test_identity_function(self):
        g = make_series(PI, [0, 3, 3, 1, 0], 3, 4)
        assert Substitution(g).apply(x_series(PI, 3, 4, 5)) == g

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstant):
            Substitution(constant_series(PI, 1, 3, 2, 4))

    def test_associativity(self):
        rng = random.Random(8)
        p, N, order = 5, 4, 9
        f = rand_series(rng, PI, p, N, order)
        g = rand_series(rng, PI, p, N, order, zero_const=True)
        h = rand_series(rng, PI, p, N, order, zero_const=True)
        by_h = Substitution(h)
        lhs = by_h.apply(Substitution(g).apply(f))
        rhs = Substitution(by_h.apply(g)).apply(f)
        assert lhs == rhs


class TestBinomialPower:
    def test_zero(self):
        assert next(binomial_powers([0], 5, 2, 4)).coeffs == (1, 0, 0, 0)

    def test_two(self):
        assert next(binomial_powers([2], 5, 2, 4)).coeffs == (1, 2, 1, 0)

    def test_eight_mod_nine(self):
        # oracle: repeated multiplication with integer exponent 8
        expect = repeated_binomial(8, 9, 3)
        assert expect == [1, 8, 1]  # C(8,2) = 28 = 1 mod 9
        assert list(next(binomial_powers([8], 3, 2, 3)).coeffs) == expect

    @pytest.mark.parametrize("c", range(21))
    def test_matches_repeated_multiplication(self, c):
        p, N, order = 3, 16, 10
        expect = repeated_binomial(c, p**N, order)
        assert list(next(binomial_powers([c], p, N, order)).coeffs) == expect

    def test_additive_in_exponent(self):
        p, N, order = 5, 6, 12
        rng = random.Random(6)
        for _ in range(10):
            c1, c2 = rng.randrange(5**8), rng.randrange(5**8)
            lhs = series_multiply(
                next(binomial_powers([c1], p, N, order)), next(binomial_powers([c2], p, N, order))
            )
            assert lhs == next(binomial_powers([c1 + c2], p, N, order))

    def test_precision_guard(self):
        # order 10 at p = 3 needs K >= N + 3
        with pytest.raises(InsufficientExponentPrecision):
            next(binomial_powers([PScalar(4, 3, 4)], 3, 4, 10))
        next(binomial_powers([PScalar(4, 3, 7)], 3, 4, 10))

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_bootstrap_exponents_match_math_comb(self, p):
        # the exponents build_context expands, at its guard pi order: the
        # Teichmueller lifts omega_a at the guarded precision K, p*omega_a
        # and chi*omega_a (chi = 1 + p)
        N = 16
        order = default_pi_order(p, guard_order(p, N, 16))
        K = N  # smallest K >= N + ceil(log_p order), the precision guard
        while p ** (K - N) < order:
            K += 1
        pn = p**N
        for a in range(1, p):
            omega = teichmueller_lift(a, p, K)
            got = next(binomial_powers([omega], p, N, order))
            assert list(got.coeffs) == comb_binomial(omega.value, pn, order)
            for n in (p * omega.value, (1 + p) * omega.value):
                got = next(binomial_powers([n], p, N, order))
                assert list(got.coeffs) == comb_binomial(n, pn, order)
        with pytest.raises(InsufficientExponentPrecision):
            next(binomial_powers([PScalar(omega.value, p, K - 1)], p, N, order))

    @pytest.mark.parametrize("p", (11, 13, 17))
    def test_bootstrap_exponents_match_sampled_math_comb(self, p):
        # the exponents build_context expands at its guard pi order, omega_a,
        # p*omega_a and chi*omega_a, for four a; C(n, k) by math.comb at
        # every k where C(n, k) starts or stops vanishing mod p^N, that is
        # where v_p(C(n, k)) crosses N (by Legendre's formula) or k passes n,
        # and at random k, as the full oracle takes seconds per prime
        rng = random.Random(p)
        chi = 1 + p
        crossed = 0
        for N in (2, 16):
            order = default_pi_order(p, guard_order(p, N, 16))
            K = N
            while p ** (K - N) < order:
                K += 1
            pn = p**N
            digits_k = [_digit_sum(k, p) for k in range(order)]
            for a in (1, *rng.sample(range(2, p - 1), 2), p - 1):
                omega = teichmueller_lift(a, p, K)
                for c in (omega, p * omega.value, chi * omega.value % p**K):
                    n = c if isinstance(c, int) else c.value
                    got = next(binomial_powers([c], p, N, order)).coeffs
                    digits_n = _digit_sum(n, p)
                    high = [
                        k > n or digits_k[k] + _digit_sum(n - k, p) - digits_n >= N * (p - 1)
                        for k in range(order)
                    ]
                    crossings = {k for k in range(1, order) if high[k] != high[k - 1]}
                    sample = crossings | {0, order - 1} | {rng.randrange(order) for _ in range(10)}
                    for k in sorted(sample):
                        assert got[k] == math.comb(n, k) % pn, (a, n, k)
                    crossed += len(crossings)
        assert crossed

    def test_batch_shares_its_denominators(self):
        # one batch mixing ints, PScalars and exponents below the order (where
        # C(n, k) = 0 past n) gives each series in turn, as math.comb does
        p, N, order = 5, 3, 40
        K = N + 3  # 5^3 >= 40
        pn = p**N
        batch = [7, PScalar(123, p, K), 0, 5**4 + 3, PScalar(5**K - 1, p, K + 2), 39, 40, 123456789]
        series = binomial_powers(batch, p, N, order)
        for c in batch:
            n = c.value if isinstance(c, PScalar) else c
            assert list(next(series).coeffs) == comb_binomial(n, pn, order), n
        assert next(series, None) is None

    def test_batch_checks_every_exponent_first(self):
        # a bad exponent anywhere in the batch raises before any series is formed
        p, N, order = 3, 4, 10
        with pytest.raises(InvalidInput, match="^negative exponent; invert the unit instead$"):
            binomial_powers([1, 2, -1], p, N, order)
        with pytest.raises(InsufficientExponentPrecision, match="^exponent precision 6 below required 7$"):
            binomial_powers([PScalar(4, 3, 7), PScalar(4, 3, 6)], p, N, order)
        with pytest.raises(ProfileMismatch, match="^exponent lives over a different prime$"):
            binomial_powers([1, PScalar(4, 5, 9)], p, N, order)
        for order in (0, -1):
            with pytest.raises(InvalidInput, match="^order must be positive$"):
                binomial_powers([1, 2], p, N, order)

    def test_padic_exponent_consistency(self):
        # representatives agreeing mod p^K give the same expansion
        p, N, order = 3, 4, 6
        K = N + 2
        a = next(binomial_powers([PScalar(7, p, K)], p, N, order))
        b = next(binomial_powers([7 + 2 * 3**K], p, N, order))
        assert a == b


def _digit_sum(x: int, p: int) -> int:
    """Sum of the base-p digits of x >= 0; v_p(x!) = (x - digit sum)/(p - 1)."""
    total = 0
    while x:
        x, r = divmod(x, p)
        total += r
    return total


def test_series_mat_at_precision():
    # every coefficient reduced mod p^N at the same order; N never rises
    rng = random.Random(43)
    X = SeriesMat([[rand_series(rng, PI0, 5, 6, 4) for _ in range(2)] for _ in range(2)], 5, 6)
    low = X.at_precision(2)
    assert low == SeriesMat([[make_series(PI0, e.coeffs, 5, 2) for e in row] for row in X], 5, 2)
    assert X.at_precision(6) == X
    with pytest.raises(InvalidInput, match="exceeds"):
        X.at_precision(7)
    with pytest.raises(InvalidInput, match="N >= 1"):
        X.at_precision(0)


class TestWeierstrass:
    def test_exact_factor(self):
        f = make_series(PI0, [3, 1, 0, 0], 3, 4)
        q, rem = weierstrass_divide_q_power(f, 1)
        assert q.coeffs == (1, 0, 0) and rem == (0,)

    def test_x_squared(self):
        f = make_series(PI0, [0, 0, 1, 0], 3, 4)
        q, rem = weierstrass_divide_q_power(f, 1)
        assert q.coeffs == ((-3) % 81, 1, 0) and rem == (9,)

    def test_x_cubed_r2(self):
        f = make_series(PI0, [0, 0, 0, 1, 0], 3, 4)
        q, rem = weierstrass_divide_q_power(f, 2)
        assert q.coeffs == ((-6) % 81, 1, 0) and rem == (54, 27)

    def test_reconstruction(self):
        rng = random.Random(77)
        for _ in range(60):
            p, N = rng.choice([(3, 5), (5, 4), (7, 3)])
            order = rng.randint(4, 14)
            r = rng.randint(0, min(order, 5))
            f = rand_series(rng, PI0, p, N, order)
            q, rem = weierstrass_divide_q_power(f, r)
            qp = series_pow(
                make_series(PI0, [p, 1] + [0] * (order - 2), p, N), r
            )
            back = series_multiply(qp, make_series(PI0, list(q.coeffs) + [0] * r, p, N))
            back = series_add(back, make_series(PI0, list(rem) + [0] * (order - r), p, N))
            assert back.coeffs == f.coeffs


    def test_exact_division(self):
        # the quotient of a multiple of q^r, and NotDivisible naming the
        # remainder otherwise, from the series and the list entry points
        rng = random.Random(78)
        for p, N in ((3, 5), (5, 4), (7, 3)):
            pn = p**N
            for r in range(0, 5):
                order = 12
                g = rand_series(rng, PI0, p, N, order - r)
                qr = series_pow(make_series(PI0, [p, 1] + [0] * (order - 2), p, N), r)
                f = series_multiply(qr, make_series(PI0, list(g.coeffs) + [0] * r, p, N))
                assert weierstrass_divide_exact(f, r).coeffs == g.coeffs
                assert q_divide_exact(list(f.coeffs), p, pn, r) == list(g.coeffs)
                if r:
                    bad = series_add(f, make_series(PI0, [1] + [0] * (order - 1), p, N))
                    _, rem = weierstrass_divide_q_power(bad, r)
                    msg = f"nonzero remainder {rem} dividing by (X+p)^{r}"
                    with pytest.raises(NotDivisible, match=re.escape(msg)):
                        weierstrass_divide_exact(bad, r)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_steps_reconstruct(self, p):
        # f = (X+p)^r*Q_r + sum_s c_s*(X+p)^(s-1) for every r up to len(f),
        # where the last quotient is empty and the remainder is f
        rng = random.Random(90 + p)
        N, order = 3, 9
        pn = p**N
        q = make_series(PI0, [p, 1] + [0] * (order - 2), p, N)
        for _ in range(3):
            f = rand_series(rng, PI0, p, N, order)
            for r in range(order + 1):
                rems, quots = q_steps(f.coeffs, p, pn, r)
                assert len(rems) == r and [len(Q) for Q in quots] == list(range(order, order - r - 1, -1))
                assert quots[0] == list(f.coeffs)
                back = series_multiply(series_pow(q, r), make_series(PI0, quots[r] + [0] * r, p, N))
                for s, c in enumerate(rems):
                    back = series_add(back, series_scale(series_pow(q, s), c))
                assert back.coeffs == f.coeffs, (r,)
                quot, rem = q_divmod(f.coeffs, p, pn, r)
                assert quot == quots[r] and len(rem) == r
            assert q_steps(f.coeffs, p, pn, order)[1][-1] == []
            assert q_divmod(f.coeffs, p, pn, order) == ([], f.coeffs)

    @pytest.mark.parametrize("r", [-1, 5])
    def test_exponent_outside_the_list_is_invalid_input(self, r):
        # r = len(f) + 1 ended in an IndexError
        f = [3, 1, 0, 0]
        for divide in (q_steps, q_divmod, q_divide_exact):
            with pytest.raises(InvalidInput):
                divide(f, 3, 81, r)

    def test_exact_division_guards(self):
        f = make_series(PI0, [3, 1, 0, 0], 3, 4)
        with pytest.raises(InvalidInput):
            weierstrass_divide_exact(f, 5)
        with pytest.raises(VariableMismatch):
            weierstrass_divide_exact(make_series(PI, [3, 1, 0, 0], 3, 4), 1)

class TestShift:
    def test_basic(self):
        f = make_series(PI0, [0, 0, 1], 3, 2)
        assert shift_divide_exact(f, 2).coeffs == (1,)

    def test_zero_shift(self):
        f = x_series(PI0, 3, 2, 4)
        assert shift_divide_exact(f, 0) == f

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            shift_divide_exact(make_series(PI0, [1, 1, 0], 3, 2), 1)

    def test_inverse_of_multiply(self):
        rng = random.Random(1)
        f = rand_series(rng, PI0, 5, 3, 6)
        assert shift_divide_exact(shift_multiply(f, 3), 3) == f


class TestChangeCoordinates:
    ORDER = 2 * 16 + 3  # pi window for p = 3, M_pi0 = 16

    @pytest.fixture(scope="class")
    def pi0(self):
        """Substitution of pi0 = X^2/(1+X), shared by the class's tests."""
        return Substitution(pi0_closed_form_p3(self.ORDER))

    def test_pi0_itself(self, pi0):
        parts = pi0_coordinates(pi0.image, pi0, out_order=16)
        assert parts[0].coeffs == tuple([0, 1] + [0] * 14)
        assert parts[1].is_zero()

    def test_pi_basis_vector(self, pi0):
        parts = pi0_coordinates(x_series(PI, 3, 16, self.ORDER), pi0, out_order=16)
        assert parts[1].coeffs == tuple([1] + [0] * 15)
        assert parts[0].is_zero()

    def test_pi_squared(self, pi0):
        # pi^2 = pi0 * (1 + pi), so f_0 = X and f_1 = X
        f = series_pow(x_series(PI, 3, 16, self.ORDER), 2)
        parts = pi0_coordinates(f, pi0, out_order=16)
        x16 = tuple([0, 1] + [0] * 14)
        assert parts[0].coeffs == x16
        assert parts[1].coeffs == x16

    def test_pure_s0_rejects(self, pi0):
        with pytest.raises(NotInS0):
            _in_s0(x_series(PI, 3, 16, self.ORDER), pi0, 16)

    def test_roundtrip_from_components(self, pi0):
        rng = random.Random(31)
        for _ in range(25):
            parts = [rand_series(rng, PI0, 3, 16, 16) for _ in range(2)]
            f = zero_series(PI, 3, 16, self.ORDER)
            for j, part in enumerate(parts):
                term = pi0.apply(part, self.ORDER)
                f = series_add(f, shift_multiply(term, j).truncate(self.ORDER))
            rec = pi0_coordinates(f, pi0, out_order=16)
            assert [r.coeffs for r in rec] == [q.coeffs for q in parts]

    def test_roundtrip_to_pi(self, pi0):
        rng = random.Random(13)
        window = 2 * 16  # degrees determined by components of order 16
        for _ in range(25):
            f = rand_series(rng, PI, 3, 16, self.ORDER)
            parts = pi0_coordinates(f, pi0, out_order=16)
            rec = zero_series(PI, 3, 16, self.ORDER)
            for j, part in enumerate(parts):
                term = pi0.apply(part, self.ORDER)
                rec = series_add(rec, shift_multiply(term, j).truncate(self.ORDER))
            assert rec.coeffs[:window] == f.coeffs[:window]


@cache
def teichmueller_pi0(p: int, N: int, M: int) -> Substitution:
    """pi0 = 1 - p + sum_a (1+pi)^(omega_a) at the pi-order of (p, M), as build_context defines it."""
    order = default_pi_order(p, M)
    K = N
    while p ** (K - N) < order:
        K += 1
    pi0 = constant_series(PI, 1 - p, p, N, order)
    for a in range(1, p):
        pi0 = series_add(pi0, next(binomial_powers([teichmueller_lift(a, p, K)], p, N, order)))
    return Substitution(pi0)


def from_pi0_coordinates(parts, pi0: Substitution):
    """sum_j pi^j parts[j](pi0) at pi0's order."""
    g = pi0.image
    f = zero_series(PI, g.p, g.N, g.order)
    for j, part in enumerate(parts):
        f = series_add(f, shift_multiply(pi0.apply(part, g.order), j).truncate(g.order))
    return f


@pytest.mark.parametrize("p", (11, 13, 17))
class TestChangeCoordinatesLargePrimes:
    """pi0_coordinates at the default profile, over the Teichmueller pi0 of build_context."""

    N = M = 16

    def test_roundtrip_from_components(self, p):
        pi0 = teichmueller_pi0(p, self.N, self.M)
        rng = random.Random(p)
        for _ in range(3):
            parts = tuple(rand_series(rng, PI0, p, self.N, self.M) for _ in range(p - 1))
            assert pi0_coordinates(from_pi0_coordinates(parts, pi0), pi0, self.M) == parts

    def test_roundtrip_to_pi(self, p):
        pi0 = teichmueller_pi0(p, self.N, self.M)
        rng = random.Random(100 + p)
        window = (p - 1) * self.M  # degrees determined by components of order M
        for _ in range(3):
            f = rand_series(rng, PI, p, self.N, pi0.image.order)
            rebuilt = from_pi0_coordinates(pi0_coordinates(f, pi0, self.M), pi0)
            assert rebuilt.coeffs[:window] == f.coeffs[:window]

    def test_pi_is_not_in_s0(self, p):
        pi0 = teichmueller_pi0(p, self.N, self.M)
        pi = x_series(PI, p, self.N, pi0.image.order)
        with pytest.raises(NotInS0, match="component at pi\\^1 is nonzero"):
            _in_s0(pi, pi0, self.M)
        # while pi0 itself is in S0, with the single coordinate X
        assert _in_s0(pi0.image, pi0, self.M).coeffs == (0, 1) + (0,) * (self.M - 2)
