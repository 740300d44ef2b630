"""Cross-checks of the packed series kernels against naive oracles."""

import itertools
import pickle
import random

import pytest

from oracles import horner_compose, primitive_root, scalar_matmul, schoolbook_mul, series_scale, slots
from oracles import schoolbook_matmul as oracle_matmul
from wachkit import cyclo as cyclo_module
from wachkit import kernels
from wachkit import series as series_module
from wachkit.cyclo import build_context, get_context, guard_order
from wachkit.errors import InvalidInput, NotDivisible, ProfileMismatch, VariableMismatch
from wachkit.flmod import make_fl
from wachkit.padic import PMatrix
from wachkit.series import (
    PI,
    PI0,
    SeriesMat,
    Substitution,
    TruncSeries,
    series_add,
    series_multiply,
    q_divide_exact,
    series_sub,
)
from wachkit.suite import random_unit_matrix
from wachkit.wach import solve_wach, verify_wach_axioms

PRIMES = (3, 5, 7, 13, 17)


def _operands(rng, pn, out_len):
    """Operand pairs around out_len: shorter, longer, all zero, all p^N - 1."""
    short, long_ = max(1, out_len // 2), out_len + 3
    yield [rng.randrange(pn) for _ in range(short)], [rng.randrange(pn) for _ in range(long_)]
    yield [rng.randrange(pn) for _ in range(long_)], [rng.randrange(pn) for _ in range(short)]
    yield [0] * long_, [rng.randrange(pn) for _ in range(long_)]
    yield [pn - 1] * long_, [pn - 1] * long_


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_schoolbook(p):
    rng = random.Random(p)
    for N in range(1, 17):
        pn = p**N
        for out_len in (1, guard_order(p, N, 16)):
            for a, b in _operands(rng, pn, out_len):
                assert kernels.series_mul(a, b, pn, out_len) == schoolbook_mul(a, b, pn, out_len)


@pytest.mark.parametrize("p", PRIMES)
def test_compose_matches_horner(p):
    rng = random.Random(100 + p)
    for N in range(1, 17):
        pn = p**N
        for out_len in (1, guard_order(p, N, 16)):
            for k, (f, g) in enumerate(_operands(rng, pn, out_len)):
                if out_len > 1 and k != N % 4:
                    continue  # one guard-order shape per N keeps the oracle quick
                g = [0] + g[1:]
                width = kernels.slot_width(pn, out_len)
                table = kernels.power_table(g, pn, out_len, width)
                got = kernels.compose_table(f, table, width, pn, out_len)
                assert got == horner_compose(f, g, pn, out_len)


def test_large_slot_carry():
    # p^N - 1 everywhere maximizes every slot of the product and the table sum
    pn = 17**16  # wider than a machine word
    for n in (1, 2, 68, 100):
        a = [pn - 1] * n
        assert kernels.series_mul(a, a, pn, n) == schoolbook_mul(a, a, pn, n)
        g = [0] + [pn - 1] * (n - 1)
        width = kernels.slot_width(pn, n)
        table = kernels.power_table(g, pn, n, width)
        assert kernels.compose_table(a, table, width, pn, n) == horner_compose(a, g, pn, n)


@pytest.mark.parametrize("p", (3, 7))
@pytest.mark.parametrize("n", (20, 45))  # both sides of unpack's 32-slot crossover
def test_power_table_members_match_schoolbook_powers(p, n):
    # odd members are u^(k-1)*u and even ones squares of u^(k/2), so every
    # member is checked; pn - 1 everywhere makes a square's slot sums the
    # largest, and a unit part divisible by p ends the table at g^N = 0
    rng = random.Random(n * p)
    N = 4
    pn = p**N
    width = kernels.slot_width(pn, n)
    for v in (1, p - 1):
        units = ([pn - 1] * n, [rng.randrange(1, pn) for _ in range(n)], [p * rng.randrange(1, pn // p) for _ in range(n)])
        for unit in units:
            g = [0] * v + unit[: n - v]
            expect, gk = [], [1] + [0] * (n - 1)
            while any(gk):
                expect.append(kernels.pack(gk, width))
                gk = schoolbook_mul(gk, g, pn, n)
            assert kernels.power_table(g, pn, n, width) == expect, (v, unit[0])


def test_fallback_handles_any_modulus():
    pn = 17**16  # wider than a machine word
    a = [pn - 1, pn - 2]
    b = [pn - 1, 1]
    out = kernels.series_mul(a, b, pn, 3)
    assert out == schoolbook_mul(a, b, pn, 3)
    assert out[0] == ((pn - 1) * (pn - 1)) % pn


def _library_widths(p, N):
    """The slot widths the library derives at p^N: products, certificates, affine maps."""
    pn, n = p**N, 16
    widths = {kernels.slot_width(pn, n), kernels.slot_width(pn, 3 * n)}
    widths |= {kernels.certificate_width(pn, d, n) for d in (1, 3)}
    for d in (1, 3):
        K = [[[0] * n for _ in range(d)] for _ in range(d)]
        basis = [[0] * n for _ in range(n - 1)]
        widths.add(kernels.AffineMap(K, _gamma_terms(K, basis), pn, n).width)
    return sorted(widths)


def _slot_words(rng, width, n):
    """Packed ints of n slots: random, every slot 0, every slot full, and junk above slot n."""
    full = 2 ** (8 * width) - 1
    yield rng.getrandbits(8 * width * n)
    yield 0
    yield kernels.pack([full] * n, width)
    yield rng.getrandbits(8 * width * (n + 2)) | full << (8 * width * n)


def test_unpack_reads_every_length():
    # every length 0..320 in 1-byte slots, and the p = 7 product width on
    # both sides of the crossover between the shift loop and the bytes
    rng = random.Random(23)
    cross = kernels._SHIFT_SLOTS
    for width, pn, lengths in (
        (1, 5, range(321)),
        (24, 7**16, (0, 1, 15, 16, cross - 1, cross, cross + 1, 288, 320)),
    ):
        for n in lengths:
            for x in _slot_words(rng, width, n):
                assert kernels.unpack(x, width, n, pn) == slots(x, width, n, pn)


@pytest.mark.parametrize("p", (3, 5, 7, 17))
def test_unpack_at_library_widths(p):
    rng = random.Random(230 + p)
    cross = kernels._SHIFT_SLOTS
    for N in (1, 16):
        pn = p**N
        for width in _library_widths(p, N):
            for n in (1, 15, 16, cross - 1, cross, cross + 1):
                for x in _slot_words(rng, width, n):
                    assert kernels.unpack(x, width, n, pn) == slots(x, width, n, pn)


def test_unpack_branch_at_the_crossover(monkeypatch):
    # the shift loop reads up to _SHIFT_SLOTS slots, the bytes path the rest;
    # every entry of the solvers (15 or 16 slots) takes the loop, and the
    # bootstrap's long repacks (288 slots at p = 7) the bytes
    calls = []

    def from_bytes(buf, order):
        calls.append(len(buf))
        return int.from_bytes(buf, order)

    monkeypatch.setattr(kernels, "_from_bytes", from_bytes)
    cross = kernels._SHIFT_SLOTS
    assert 16 <= cross < 288
    for n in (1, 16, cross - 1, cross, cross + 1, 288):
        calls.clear()
        x = (1 << (8 * 3 * n)) - 1
        assert kernels.unpack(x, 3, n, 7) == slots(x, 3, n, 7)
        assert len(calls) == (n if n > cross else 0)


@pytest.mark.parametrize("width", (1, 8, 15, 24))
def test_pack_round_trips_and_rejects_overflow(width):
    rng = random.Random(width)
    full = 2 ** (8 * width) - 1
    for n in (0, 1, 16, 33, 100):
        for coeffs in ([0] * n, [full] * n, [rng.randrange(full + 1) for _ in range(n)]):
            assert kernels.unpack(kernels.pack(coeffs, width), width, n, full + 1) == coeffs
    for bad in (-1, full + 1):
        with pytest.raises(OverflowError):
            kernels.pack([0, bad, 0], width)


def _check_every_order(sub, var, f, top):
    """sub.apply at every order 1..top against one oracle composition.

    With g(0) = 0, f(g) mod X^n depends only on f and g mod X^n, so one
    composition at order top gives the expected result at every n <= top.
    """
    g = sub.image
    expected = horner_compose(list(f[:top]), list(g.coeffs[:top]), g.pn, top)
    series = TruncSeries(var, g.p, g.N, tuple(f))
    for n in range(1, top + 1):
        # a fresh object per order, so that every table is built at order n
        fresh = Substitution(g)
        assert fresh.apply(series.truncate(n)).coeffs == tuple(expected[:n])
        assert fresh.apply(series, n).coeffs == tuple(expected[:n])


@pytest.mark.parametrize("p", (3, 5, 7))
def test_context_tables_match_horner(contexts, p):
    ctx = contexts[p]
    rng = random.Random(200 + p)
    pn = ctx.pn
    # pi0-images at the guard order, pi-images at the user pi order (p = 3:
    # the guard pi order too)
    pi_top = ctx.work.M_pi if p == 3 else ctx.profile.M_pi
    cases = [
        (ctx.phi_sub, PI0, ctx.work.M_pi0),
        (ctx.gamma_sub, PI0, ctx.work.M_pi0),
        (ctx.torsion_subs[primitive_root(p) - 1], PI, pi_top),
        (Substitution(ctx.work.pi0_in_pi), PI0, pi_top),
    ]
    for sub, var, top in cases:
        f = [rng.randrange(pn) for _ in range(top + 2)]
        _check_every_order(sub, var, f, top)
    # the largest slot carry through a table
    _check_every_order(ctx.phi_sub, PI0, [pn - 1] * ctx.work.M_pi0, ctx.work.M_pi0)


def test_table_cache_is_bounded(ctx5):
    # one object asked for many orders keeps only the last few power tables,
    # and an evicted order is rebuilt exactly
    sub = Substitution(ctx5.work.phi_pi0)
    top = ctx5.work.M_pi0
    f = [random.Random(7).randrange(ctx5.pn) for _ in range(top)]
    expected = horner_compose(f, list(sub.image.coeffs), ctx5.pn, top)
    series = TruncSeries(PI0, 5, 16, tuple(f))
    for n in list(range(1, top + 1)) + [1, top]:
        assert sub.apply(series, n).coeffs == tuple(expected[:n])
        assert len(sub._tables) <= series_module._TABLES_KEPT
    # quotient tables are kept at every order asked for, and not rebuilt
    # (exact from order N + r on: what truncation cuts off leaves a
    # remainder divisible by p^(n-r))
    first = sub.quotients(top, 4)
    for n in range(20, top + 1):
        assert len(sub.quotients(n, 4)) == len(list(sub.powers(n)))
    assert len(sub._quotients) == top - 19
    assert sub.quotients(top, 4) is first


@pytest.mark.parametrize("p", (3, 5, 7, 17))
def test_quotient_table_matches_compose_then_divide(p):
    # sum_t f_t*Q_t against phi(f) composed by Horner, then divided by
    # pi0*q^r, at the stepper's working order
    ctx = get_context(p)
    sub, pn = ctx.phi_sub, ctx.pn
    n = min(ctx.work.M_pi0, ctx.work.v_gamma_inv.order)
    g = list(sub.image.coeffs)
    rng = random.Random(500 + p)
    for r in (1, p - 1):
        table = sub.quotients(n, r)
        assert len(table) == len(list(sub.powers(n))) and table[0] == [0] * (n - 1 - r)
        assert all(len(Q) == n - 1 - r for Q in table)
        for length in (2, len(table) - 1, len(table), n):
            f = [0] + [rng.randrange(pn) for _ in range(length - 1)]
            expect = q_divide_exact(horner_compose(f, g, pn, n)[1:], p, pn, r)
            got = [sum(c * Q[k] for c, Q in zip(f, table)) % pn for k in range(n - 1 - r)]
            assert got == expect
        assert sub.quotients(n, r) is table  # kept, not rebuilt
    with pytest.raises(InvalidInput):
        sub.quotients(n, n)


def test_quotient_table_checks_every_power():
    # mod 5^4 at order 10 (where truncation leaves multiples of (X+5)
    # divisible): X^k / X = X^(k-1) is not divisible by (X+5)^4 for k = 1
    sub = Substitution(TruncSeries(PI0, 5, 4, (0, 1) + (0,) * 8))
    with pytest.raises(NotDivisible):
        sub.quotients(10, 4)
    assert not sub._quotients  # a failed table is not kept
    # g = X*(X+5): each (g^k/X) / (X+5) is exact, the division by (X+5)^2
    # is not for k = 1
    sub = Substitution(TruncSeries(PI0, 5, 4, (0, 5, 1) + (0,) * 7))
    assert sub.quotients(10, 1)[1][:2] == [1, 0]
    with pytest.raises(NotDivisible):
        sub.quotients(10, 2)


def test_context_unchanged_by_tables():
    ctx = build_context(5)
    m = make_fl(5, 16, (0, 3), random_unit_matrix(random.Random(5), 2, 5, 16))
    w = solve_wach(m, ctx)
    assert verify_wach_axioms(w).ok
    assert ctx.phi_sub._quotients  # the solve built the quotient table
    # one plan per weight tuple, the last few kept: more tuples than the cap
    # evict the first, which is rebuilt and solves to the same G
    rng = random.Random(6)
    others = [t for d in (1, 2) for t in itertools.combinations_with_replacement(range(4), d)]
    others.remove(m.weights)
    assert len(others) > cyclo_module._PLANS_KEPT
    for weights in others:
        solve_wach(make_fl(5, 16, weights, random_unit_matrix(rng, len(weights), 5, 16)), ctx)
        assert len(ctx.plans) <= cyclo_module._PLANS_KEPT
    assert m.weights not in ctx.plans._items
    again = solve_wach(m, ctx)
    assert (again.G, again.iterations_used) == (w.G, w.iterations_used)
    fresh = build_context(5)
    assert ctx == fresh
    assert repr(ctx) == repr(fresh)
    blob = pickle.dumps(ctx)
    assert len(blob) == len(pickle.dumps(fresh))  # tables are not pickled
    again = pickle.loads(blob)
    assert again == ctx
    assert again.phi_sub.apply(w.G[0][1]) == ctx.phi_sub.apply(w.G[0][1])


# ---------------------------------------------------------------------------
# series-matrix helpers

MATRIX_PRIMES = (3, 5, 7, 17)


def _random_matrix(rng, rows, cols, pn, n):
    return [[[rng.randrange(pn) for _ in range(n)] for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_mat_mul_matches_schoolbook(p):
    rng = random.Random(300 + p)
    for N in (1, 8, 16):
        pn = p**N
        for d, m, e in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 1)):
            for n in (1, guard_order(p, N, 16)):
                X = _random_matrix(rng, d, m, pn, n + 2)  # longer than n
                Y = _random_matrix(rng, m, e, pn, n)
                assert kernels.mat_mul(X, Y, pn, n) == oracle_matmul(X, Y, pn, n)


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_mat_mul_largest_slot_sums(p):
    # with every coefficient p^N - 1 = -1, slot k of an entry sums m*(k+1)
    # products equal to 1 mod p^N: the fullest slots a product can have
    for N in range(1, 17):
        pn = p**N
        for m in (1, 4):
            n = guard_order(p, N, 16)
            X = [[[pn - 1] * n] * m] * 2
            Y = [[[pn - 1] * n] * 2] * m
            expect = [m * (k + 1) % pn for k in range(n)]
            assert kernels.mat_mul(X, Y, pn, n) == [[expect] * 2] * 2


def _constant_map(L, R, K, pn, n):
    """L*K*R by the affine-map kernel: with no terms, no coordinate is read."""
    no_terms = [[[] for _ in row] for row in K]
    return kernels.AffineMap(K, no_terms, pn, n).bind(L, R)([])


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_sandwich_matches_schoolbook(p):
    # the constant map A*T*B (what SeriesMat.sandwich computes)
    rng = random.Random(400 + p)
    for N in (1, 8, 16):
        pn = p**N
        n = guard_order(p, N, 16)
        for d, m in ((1, 1), (2, 2), (3, 3), (2, 3)):
            A = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
            B = [[rng.randrange(pn) for _ in range(m)] for _ in range(m)]
            A[0][0] = 0  # a zero scalar is skipped, not misplaced
            for T in (_random_matrix(rng, d, m, pn, n), [[[pn - 1] * n] * m] * d):
                assert _constant_map(A, B, T, pn, n) == scalar_matmul(A, T, B, pn)
            if d == m:
                T = SeriesMat._trusted(p, N, _random_matrix(rng, d, d, pn, n))
                got = T.sandwich(PMatrix.from_lists(A, p, N), PMatrix.from_lists(B, p, N))
                expect = scalar_matmul(A, [list(row) for row in T.rows], B, pn)
                assert [list(map(list, row)) for row in got.rows] == expect


def _combine(coords, basis, pn, n):
    """sum_t coords[t]*basis[t], truncated to n, coefficient by coefficient."""
    return [sum(c * b[k] for c, b in zip(coords, basis) if k < len(b)) % pn for k in range(n)]


def _gamma_terms(F, basis):
    """The Gamma-step's terms: one term (i, F_il, basis) for entry (i, l)."""
    return [[[(i, f, basis)] for f in row] for i, row in enumerate(F)]


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_sandwich_with_factor_and_offset(p):
    # the Gamma-step's shape A*(K + E o F)*B, with o the entrywise product
    # and E_il = sum_t X_il[t]*basis[t], on random entries and on the fullest
    # slots (every coefficient and scalar p^N - 1)
    rng = random.Random(450 + p)
    for N in (1, 8, 16):
        pn = p**N
        n = guard_order(p, N, 16)
        for d in (1, 2, 4):
            A = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
            B = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
            full = [[pn - 1] * d] * d
            F, K = (_random_matrix(rng, d, d, pn, n) for _ in range(2))
            K[0][0] = K[0][0][: n // 2]  # a short entry counts as zero-padded
            F[-1][0] = F[0][-1]  # a factor shared by two entries
            fullest = [[[pn - 1] * n] * d] * d
            # a basis with a short member and one longer than n; coordinate
            # lists longer than the basis are cut to it, a short one is
            # zero-padded
            basis = [[rng.randrange(pn) for _ in range(n - 3)] for _ in range(5)]
            basis += [[rng.randrange(pn) for _ in range(n + 2)]]
            coords = _random_matrix(rng, d, d, pn, 7)
            coords[0][0] = coords[0][0][:2]
            cases = [
                (A, B, F, K, basis, coords),
                (full, full, fullest, fullest, fullest[0], [[[pn - 1] * 6] * d] * d),
            ]
            for A_, B_, F_, K_, basis_, X in cases:
                E = [[_combine(x, basis_, pn, n) for x in row] for row in X]
                inner = [
                    [
                        [(a + b) % pn for a, b in zip(k + [0] * (n - len(k)), schoolbook_mul(e, f, pn, n))]
                        for k, e, f in zip(kr, er, fr)
                    ]
                    for kr, er, fr in zip(K_, E, F_)
                ]
                got = kernels.AffineMap(K_, _gamma_terms(F_, basis_), pn, n).bind(A_, B_)(X)
                assert got == scalar_matmul(A_, inner, B_, pn)


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_sandwich_largest_slot_sums(p):
    # every scalar and coefficient p^N - 1 = -1, the fullest slots an affine
    # map can have.  The constant map sums d^2 terms (-1)*(-1)*K = -1.  In
    # the Gamma-step's shape over a basis of L members, with R all 1 so the
    # scalars stay -1, F*basis[t] is k+1 at slot k, so Y = -L*(k+1) and a
    # term is -(K + Y) = 1 + L*(k+1).
    for N in range(1, 17):
        pn = p**N
        for n, d in itertools.product((guard_order(p, N, 16), 200), (1, 4)):
            full, ones = [[pn - 1] * d] * d, [[[pn - 1] * n] * d] * d
            assert _constant_map(full, full, ones, pn, n) == [[[-d * d % pn] * n] * d] * d
            L, unit = 18, [[1] * d] * d
            basis, coords = [[pn - 1] * n] * L, [[[pn - 1] * L] * d] * d
            affine = kernels.AffineMap(ones, _gamma_terms(ones, basis), pn, n).bind(full, unit)
            expect = [d * d * (1 + L * (k + 1)) % pn for k in range(n)]
            assert affine(coords) == [[expect] * d] * d


def _sides(L, F, R, phi, gamma, pn, n):
    """commutation_sides at its own width, as a list of pairs."""
    width = kernels.certificate_width(pn, len(F), n)
    tables = [None if g is None else kernels.power_table(g, pn, n, width) for g in (phi, gamma)]
    return list(kernels.commutation_sides(L, F, R, *tables, width, pn, n))


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_commutation_sides_match_schoolbook(p):
    # L*phi(F) and F*gamma(R), or F*R, entry by entry in row-major order,
    # against Horner compositions and schoolbook products; operands longer
    # than n are read only below n
    rng = random.Random(520 + p)
    for N in (1, 8, 16):
        pn = p**N
        for d, n in ((1, 1), (1, 16), (2, 9), (3, 16)):
            L, F, R = (
                [[[rng.randrange(pn) for _ in range(n + 2)] for _ in range(d)] for _ in range(d)]
                for _ in range(3)
            )
            phi, gamma = ([0] + [rng.randrange(pn) for _ in range(n)] for _ in range(2))
            phiF = [[horner_compose(e, phi, pn, n) for e in row] for row in F]
            gammaR = [[horner_compose(e, gamma, pn, n) for e in row] for row in R]
            lhs = oracle_matmul(L, phiF, pn, n)
            for table, right in ((gamma, gammaR), (None, R)):
                rhs = oracle_matmul(F, right, pn, n)
                expect = [(a, b) for lrow, rrow in zip(lhs, rhs) for a, b in zip(lrow, rrow)]
                assert _sides(L, F, R, phi, table, pn, n) == expect


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_commutation_sides_largest_slot_sums(p):
    # every coefficient p^N - 1 = -1, and every member of both power tables
    # too (n members of n slots, more than an image of valuation 1 has
    # nonzero): phi(F_kj) holds n*(pn - 1)^2 in every slot, unreduced, and
    # slot s of a side sums d*(s+1) of its products with a third residue,
    # up to d*n^2*(pn - 1)^3 in the top slot.  Each side is then
    # -d*n*(s+1), and F*R is d*(s+1).
    for N in range(1, 17):
        pn = p**N
        for n, d in itertools.product((1, guard_order(p, N, 16)), (1, 4)):
            width = kernels.certificate_width(pn, d, n)
            full = [pn - 1] * n
            table = [kernels.pack(full, width)] * n
            ones = [[full] * d] * d
            sides = list(kernels.commutation_sides(ones, ones, ones, table, table, width, pn, n))
            expect = [-d * n * (s + 1) % pn for s in range(n)]
            assert sides == [(expect, expect)] * (d * d)
            sides = list(kernels.commutation_sides(ones, ones, ones, table, None, width, pn, n))
            assert sides == [(expect, [d * (s + 1) % pn for s in range(n)])] * (d * d)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17))
def test_graded_solve_largest_slot_sums(p):
    # table members X^(k*step)*(pn - 1)*(1 + X + X^2 + ...) and every
    # coordinate 1, so f_s = -(s + 1): each solved degree adds the product
    # (pn - 1)*(pn - 1) to every slot above it, and slot s holds s + 1 of
    # them on top of f_s, up to n*(pn - 1)^2 + pn - 1 below n.  Orders up to
    # the bootstrap's (p - 1)*guard_order; at one byte less, some slot below
    # n carries into the next
    step, short = p - 1, 0
    for N in (1, 2, 3, 5, 8, 16):
        pn = p**N
        for n in (1, step, 2 * step + 1, step * guard_order(p, N, 16)):
            f = [-(s + 1) % pn for s in range(n)]
            members = [[0] * (k * step) + [pn - 1] * (n - k * step) for k in range(-(-n // step))]
            ones = [[1] * len(range(j, n, step)) for j in range(step)]
            width = kernels.slot_width(pn, n)
            table = [kernels.pack(m, width) for m in members]
            assert kernels.graded_solve(f, table, width, pn, step, n) == ones
            if 8 * (width - 1) >= pn.bit_length():
                table = [kernels.pack(m, width - 1) for m in members]
                short += kernels.graded_solve(f, table, width - 1, pn, step, n) != ones
    assert short


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_affine_product_matches_schoolbook(p):
    # the normalization's shape L*(K + F*E)*R with E_kl = sum_t X_kl[t]*H_l[t]
    # and terms (k, F_ik, H_l) for k < d, on random entries (L = Id, as the
    # normalization has it, and a random L) and on the fullest slots (every
    # coefficient and scalar p^N - 1, 18 basis members); two columns share
    # a basis, and coordinates past a column's basis are not read
    rng = random.Random(470 + p)
    for N in (1, 8, 16):
        pn = p**N
        n = guard_order(p, N, 16)
        for d in (1, 3):
            ident = [[int(i == j) for j in range(d)] for i in range(d)]
            L = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
            R = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
            R[0][0] = 0  # a zero scalar is skipped, not misplaced
            F, K = (_random_matrix(rng, d, d, pn, n) for _ in range(2))
            shared = [[rng.randrange(pn) for _ in range(n)] for _ in range(5)]
            own = [[rng.randrange(pn) for _ in range(n + 2)] for _ in range(3)]
            full = [[[pn - 1] * n] * d] * d
            neg = [[pn - 1] * d] * d
            bases = [shared, own, shared][:d]
            cases = [
                (ident, F, bases, R, K, _random_matrix(rng, d, d, pn, 7)),
                (L, F, bases, R, K, _random_matrix(rng, d, d, pn, 7)),
                (neg, full, [[[pn - 1] * n] * 18] * d, neg, full, [[[pn - 1] * 18] * d] * d),
            ]
            for L_, F_, bases_, R_, K_, X in cases:
                E = [[_combine(x, basis, pn, n) for x, basis in zip(row, bases_)] for row in X]
                FE = oracle_matmul(F_, E, pn, n)
                inner = [[[(a + b) % pn for a, b in zip(k, e)] for k, e in zip(kr, er)] for kr, er in zip(K_, FE)]
                terms = [[[(k, f, basis) for k, f in enumerate(row)] for basis in bases_] for row in F_]
                got = kernels.AffineMap(K_, terms, pn, n).bind(L_, R_)(X)
                assert got == scalar_matmul(L_, inner, R_, pn)


@pytest.mark.parametrize("p", MATRIX_PRIMES)
def test_series_mat_product_at_the_shorter_order(p):
    # X*Y is exact to the shorter of the two orders, as series_multiply is
    rng = random.Random(500 + p)
    N = 16
    pn = p**N
    X, Y = (
        SeriesMat([[TruncSeries(PI0, p, N, [rng.randrange(pn) for _ in range(o)]) for _ in range(2)] for _ in range(2)], p, N)
        for o in (20, 13)
    )
    for got in (X @ Y, (Y @ X)):
        assert got.order == 13
    expect = oracle_matmul([[list(e.coeffs) for e in row] for row in X], [[list(e.coeffs) for e in row] for row in Y], pn, 13)
    assert [[list(e.coeffs) for e in row] for row in X @ Y] == expect


def test_smat_mul_rejects_mixed_rings():
    # a series matrix holds pi0-series over one ring, and a product takes two
    a = TruncSeries(PI0, 5, 4, (1, 2))
    with pytest.raises(VariableMismatch):
        SeriesMat([[a, a], [a, TruncSeries(PI, 5, 4, (1, 2))]], 5, 4)
    with pytest.raises(ProfileMismatch):
        SeriesMat([[a, a], [a, TruncSeries(PI0, 5, 3, (1, 2))]], 5, 4)
    with pytest.raises(ProfileMismatch):
        SeriesMat([[a]], 5, 4) @ SeriesMat([[TruncSeries(PI0, 5, 3, (1, 2))]], 5, 3)


def test_trusted_series_match_public_constructor(ctx5):
    # kernel results skip the reduction of the public constructor: they are
    # canonical already, so the two constructions agree
    rng = random.Random(9)
    pn = ctx5.pn
    f = TruncSeries(PI0, 5, 16, [rng.randrange(-pn, 2 * pn) for _ in range(30)])
    g = TruncSeries(PI0, 5, 16, [rng.randrange(-pn, 2 * pn) for _ in range(30)])
    assert all(0 <= c < pn for c in f.coeffs)
    for out in (
        series_multiply(f, g),
        series_add(f, g),
        series_sub(f, g),
        series_scale(f, -7),
        ctx5.phi_sub.apply(f),
        f.truncate(11),
    ):
        assert all(0 <= c < pn for c in out.coeffs)
        assert out == TruncSeries(out.var, out.p, out.N, out.coeffs)
    with pytest.raises(InvalidInput):
        TruncSeries("x", 5, 16, (1,))
