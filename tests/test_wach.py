import random
import time

import pytest

from oracles import commutation_entry, difference_valuations, residual_entry, horner_compose, lattice_membership_oracle, scalar_matmul, schoolbook_mul, series_det, series_pow, shift_multiply
from wachkit.cyclo import build_context, get_context
from wachkit.errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    SingularBasis,
    ValidationFailed,
    WeightOverflow,
)
from wachkit.flmod import LatticeSub, make_fl, unit_fl
from wachkit.padic import PMatrix, matrix_inverse_mod
from wachkit.series import (
    PI0,
    SeriesMat,
    TruncSeries,
    constant_series,
    q_divide_exact,
    q_powers,
    series_add,
    series_multiply,
)
from wachkit.suite import generate_suite, random_unit_matrix
from wachkit.wach import (
    WachModule,
    build_phi_matrix,
    check_lattice_stability,
    commutation_residual,
    direct_sum_wach,
    iterate_to_window,
    phi_matrix,
    solve_gamma_matrix,
    solve_wach,
    tensor_wach,
    verify_wach_axioms,
)


def perm_conjugate(X, perm, p, N):
    """P X P^T for the permutation sending basis vector k to position perm[k]."""
    d = len(X)
    return SeriesMat(
        [[X[perm.index(i)][perm.index(j)] for j in range(d)] for i in range(d)], p, N
    )


class TestPhiMatrix:
    def test_rank_one_trivial(self, ctx3):
        C = build_phi_matrix(unit_fl(3, 16, 0, 1), ctx3)
        assert C[0][0] == constant_series(PI0, 1, 3, 16, 16)

    def test_rank_one_weight_one(self, ctx3):
        C = build_phi_matrix(unit_fl(3, 16, 1, 1), ctx3)
        assert C[0][0].coeffs == (3, 1) + (0,) * 14

    def test_diag(self, ctx3):
        m = make_fl(3, 16, (0, 1), PMatrix.identity(2, 3, 16))
        C = build_phi_matrix(m, ctx3)
        assert C[0][0].coeffs[:2] == (1, 0)
        assert C[1][1].coeffs[:2] == (3, 1)
        assert C[0][1].is_zero() and C[1][0].is_zero()

    @pytest.mark.parametrize("p, N, order", [(3, 16, 16), (5, 1, 6), (7, 3, 4)])
    def test_q_powers_match_repeated_products(self, p, N, order):
        q = TruncSeries(PI0, p, N, ((p, 1) + (0,) * order)[:order])
        acc = constant_series(PI0, 1, p, N, order)
        for e, qe in enumerate(q_powers(q, 2 * p - 3)):
            assert qe == acc, e
            acc = series_multiply(acc, q)
        with pytest.raises(ValueError):
            q_powers(series_add(q, q), 1)

    @pytest.mark.parametrize(
        "p, N, M, weights",
        [(3, 16, 16, (0, 1, 1)), (5, 16, 16, (3, 0)), (7, 16, 16, (0, 2, 5)), (7, 2, 2, (5, 0, 2)), (3, 1, 1, (1, 0))],
    )
    def test_entries_are_a_times_the_q_power(self, p, N, M, weights):
        # at the user order, at the guard order, and at an order below
        # r + 1 (profiles (2, 2) and (1, 1)), where q^r is cut
        ctx, d, pn = get_context(p, N, M), len(weights), p**N
        A = random_unit_matrix(random.Random(100 * p + M), d, p, N)
        for q in (ctx.q, ctx.work.q):
            want = tuple(
                tuple(tuple(A.at(i, j) * c % pn for c in q_powers(q, r)[r].coeffs) for j, r in enumerate(weights))
                for i in range(d)
            )
            C = phi_matrix(A, weights, q)
            assert (C.p, C.N, C.rows) == (p, N, want), q.order
        assert phi_matrix(PMatrix(0, 0, (), p, N), (), ctx.q).rows == ()

    def test_validation(self, ctx3):
        bad = make_fl(3, 16, (2,), PMatrix(1, 1, (1,), 3, 16))
        with pytest.raises(ValidationFailed):
            build_phi_matrix(bad, ctx3)


class TestSolver:
    def test_scalar_weight_zero(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 0, 2), ctx3)
        assert w.G[0][0] == constant_series(PI0, 1, 3, 16, 16)
        assert w.iterations_used == 1

    def test_scalar_weight_one(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 1), ctx3)
        assert w.G[0][0].coeffs[0] == 1
        assert not w.G[0][0].is_zero()
        assert commutation_entry(w.C, w.G, ctx3) is None

    def test_direct_sum_blocks(self, ctx3):
        w0 = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        w1 = solve_wach(unit_fl(3, 16, 1, 1), ctx3)
        m = make_fl(3, 16, (0, 1), PMatrix.identity(2, 3, 16))
        w = solve_wach(m, ctx3)
        assert w.G[0][1].is_zero() and w.G[1][0].is_zero()
        assert w.G[0][0] == w0.G[0][0]
        assert w.G[1][1] == w1.G[0][0]

    def test_stabilization_budget(self, contexts):
        rng = random.Random(99)
        for p, ctx in contexts.items():
            for d in (1, 2, 3):
                weights = sorted(rng.randint(0, p - 2) for _ in range(d))
                m = make_fl(p, 16, weights, random_unit_matrix(rng, d, p, 16))
                w = solve_wach(m, ctx)
                assert w.iterations_used <= 20

    def test_uniqueness_from_random_start(self, ctx5, solver_step):
        # G = Id + pi0*X is the unique fixed point: the solve's step reaches
        # it from random X as well, within the proved N + M_pi0 - 1 steps
        rng = random.Random(5)
        m = make_fl(5, 16, (1, 3), random_unit_matrix(rng, 2, 5, 16))
        w = solve_wach(m, ctx5)
        step, X0 = solver_step(solve_wach, m, ctx5)
        fixed = [[list(e[1:]) for e in row] for row in w.G.rows]
        for _ in range(4):
            X = [[[rng.randrange(ctx5.pn) for _ in e] for e in row] for row in X0]
            assert iterate_to_window(step, X, 16 + 16 - 1)[0] == fixed

    @pytest.mark.parametrize(
        "p, weights, sparse",
        [(7, (5, 5), "diagonal"), (7, (1, 2, 5), "permutation"), (5, (0, 3), "permutation")],
    )
    def test_plan_ignores_the_zero_pattern_of_A(self, p, weights, sparse):
        # a context keeps one plan per weight tuple, sized for d^2 scalars
        # per entry: built for a sparse A it serves a dense one, and the other
        # way round, with G and the step count of a context that has built
        # no plan (at p = 7, weights (5, 5), the slots carry the most)
        d = len(weights)
        rng = random.Random(80 + p + d)
        entries = [0] * (d * d)
        for i in range(d):
            j = i if sparse == "diagonal" else (i + 1) % d
            entries[i * d + j] = rng.randrange(1, p)
        modules = [
            make_fl(p, 16, weights, PMatrix(d, d, tuple(entries), p, 16)),
            make_fl(p, 16, weights, random_unit_matrix(rng, d, p, 16)),
        ]
        expect = [solve_wach(m, build_context(p)) for m in modules]
        for order in (modules, modules[::-1]):
            ctx = build_context(p)
            for m in order:
                w = solve_wach(m, ctx)
                e = expect[modules.index(m)]
                assert (w.G, w.iterations_used) == (e.G, e.iterations_used)
            assert len(ctx.plans) == 1

    def test_budget_is_a_safety_net(self):
        # past the proved bound the fault is the step's: a step that never
        # repeats is stopped after exactly `budget` calls
        calls = []

        def step(X):
            calls.append(X)
            return [[[len(calls)]]]

        with pytest.raises(NoConvergence):
            iterate_to_window(step, [[[0]]], 7)
        assert len(calls) == 7

    @pytest.mark.parametrize("tamper", ["one coefficient moved", "another module's C"])
    def test_certificate_rejects_a_C_that_is_not_A_times_Q(self, ctx5, tamper):
        # the iteration reads only A and the weights: the certificate
        # C*phi(G) = G*gamma(C) is what ties the returned G to C
        rng = random.Random(17)
        m = make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16))
        C = build_phi_matrix(m, ctx5)
        if tamper == "one coefficient moved":
            rows = [[list(e) for e in row] for row in C.rows]
            rows[0][1][3] = (rows[0][1][3] + 1) % ctx5.pn
            C = SeriesMat._trusted(5, 16, rows)
        else:
            C = build_phi_matrix(make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16)), ctx5)
        with pytest.raises(AxiomViolation):
            solve_gamma_matrix(C, m.weights, m.A, ctx5)

    @pytest.mark.parametrize(
        "fault, error",
        [
            ("weight above p-2", ValidationFailed),
            ("negative weight", ValidationFailed),
            ("A not d x d", InvalidInput),
            ("C of another rank", InvalidInput),
        ],
    )
    def test_bad_arguments_are_typed_errors(self, ctx5, fault, error):
        m = make_fl(5, 16, (0, 2), random_unit_matrix(random.Random(24), 2, 5, 16))
        C, weights, A = build_phi_matrix(m, ctx5), m.weights, m.A
        if fault == "weight above p-2":
            weights = (0, 4)
        elif fault == "negative weight":
            weights = (-1, 2)
        elif fault == "A not d x d":
            A = PMatrix.identity(3, 5, 16)
        else:
            C = SeriesMat.identity(3, 5, 16, 16)
        with pytest.raises(error):
            solve_gamma_matrix(C, weights, A, ctx5)

    def test_rank_zero_is_invalid_input(self, ctx5):
        # FLModule accepts weights (); the solver must refuse it with a typed
        # error before it builds anything
        m = make_fl(5, 16, (), PMatrix(0, 0, (), 5, 16))
        with pytest.raises(InvalidInput):
            solve_wach(m, ctx5)

    @pytest.mark.parametrize(
        "p, N, M, width",
        [(3, 16, 16, 16), (5, 16, 16, 16), (7, 16, 16, 16), (5, 8, 12, 12), (11, 4, 9, 9), (3, 1, 1, 2)],
    )
    def test_step_matches_compose_then_divide(self, solver_step, p, N, M, width):
        # the step the Gamma-solve iterates, on X with G = Id + pi0*X, against
        # the update written out at the working order n: E = phi(G - Id)
        # composed by Horner and divided by pi0*q^(p-1), then
        # G' = A*(diag(v^-r) + E o F)*A^-1 by schoolbook products, with
        # F = pi0*q^(p-1+r_i-r_j)*v^(-r_j); the step is X' = (G' - Id)/pi0
        # on the M - 1 coefficients G' reads on the window.  The step's input
        # carries `width` >= M - 1 of X's coefficients: those from M - 1 on,
        # and all of them from `width` on, must not change its output.
        ctx = get_context(p, N, M)
        pn, work = ctx.pn, ctx.work
        n = min(work.M_pi0, work.v_gamma_inv.order)
        m = M - 1
        rng = random.Random(70 + p)
        weights = (0, 1, p - 2)
        A = random_unit_matrix(rng, 3, p, N)
        step, X0 = solver_step(solve_gamma_matrix, phi_matrix(A, weights, ctx.q), weights, A, ctx)
        assert [len(e) for row in X0 for e in row] == [m] * 9

        def power(f, e):
            out = [1] + [0] * (n - 1)
            for _ in range(e):
                out = schoolbook_mul(out, f, pn, n)
            return out

        q = [p % pn, 1] + [0] * (n - 2)
        vinv = list(work.v_gamma_inv.coeffs[:n])
        X = [[[rng.randrange(pn) for _ in range(n - 1)] for j in range(3)] for i in range(3)]
        inner = []
        for i, ri in enumerate(weights):
            row = []
            for j, rj in enumerate(weights):
                f = horner_compose([0] + X[i][j], list(work.phi_pi0.coeffs), pn, n)
                E = q_divide_exact(f[1:], p, pn, p - 1)
                F = [0] + schoolbook_mul(power(q, p - 1 + ri - rj), power(vinv, rj), pn, n - 1)
                T = schoolbook_mul(E, F, pn, n)
                K = power(vinv, rj) if i == j else [0] * n
                row.append([(a + b) % pn for a, b in zip(K, T)])
            inner.append(row)
        Ainv = matrix_inverse_mod(A).to_lists()
        expect = scalar_matmul(A.to_lists(), inner, Ainv, pn)
        got = step([[e[:width] for e in row] for row in X])
        assert got == [[e[1:M] for e in row] for row in expect]

    def test_successive_differences_contract(self, solver_step):
        # successive iterates approach the fixed point in the (p, pi0)-adic
        # filtration: over the golden suite, the weighted valuation
        # min(k + v_p(c_k)) of X_(n+1) - X_n strictly increases until the
        # difference vanishes on the window, after the solve's step count
        for m in generate_suite(7, count=33):
            ctx = get_context(m.p)
            w = solve_wach(m, ctx)
            step, X = solver_step(solve_wach, m, ctx)
            vals = difference_valuations(step, X, 15, m.p, 16, 20)
            assert all(a < b for a, b in zip(vals, vals[1:])), (m.weights, vals)
            assert len(vals) + 1 == w.iterations_used

    def test_cocycle_for_squared_generator(self):
        # gamma' = gamma^2: G' = G * gamma(G)
        for p in (3, 5):
            ctx = get_context(p)
            ctx2 = get_context(p, chi_gamma=(1 + p) ** 2)
            rng = random.Random(p)
            m = make_fl(p, 16, (0, p - 2), random_unit_matrix(rng, 2, p, 16))
            w = solve_wach(m, ctx)
            w2 = solve_wach(m, ctx2)
            expected = w.G @ w.G.substitute(ctx.gamma_sub, 16)
            assert w2.G == expected

    @pytest.mark.parametrize("p", (3, 5, 7, 11))
    @pytest.mark.parametrize("N, M", ((16, 16), (4, 9)))
    def test_cocycle_for_powers_of_the_generator(self, p, N, M):
        # gamma' = gamma^a: G' = G * gamma(G) * ... * gamma^(a-1)(G) on the
        # user window, which runs the bootstrap's chi*omega_a binomials at
        # other generators; p | a makes chi^a = 1 mod p^2, no generator
        ctx = get_context(p, N, M)
        rng = random.Random(p * N)
        m = make_fl(p, N, (0, p - 2), random_unit_matrix(rng, 2, p, N))
        G = solve_wach(m, ctx).G
        for a in (2, 3):
            if a % p == 0:
                continue
            expected, image = G, G
            for _ in range(a - 1):
                image = image.substitute(ctx.gamma_sub, M)
                expected = expected @ image
            assert solve_wach(m, get_context(p, N, M, chi_gamma=(1 + p) ** a)).G == expected, a


# The certificate's grid: 6 primes x 4 profiles x ranks 1-3 x 7 artifacts.
GRID_PRIMES = (3, 5, 7, 11, 13, 17)
GRID_PROFILES = ((16, 16), (4, 9), (2, 2), (6, 12))
GRID_MOVES = ("genuine", "G", "C", "G G", "C C", "C G", "C G, one entry")


def _moved(rows, spots, rng, pn):
    """Rows with coefficient k of entry (i, j) moved by a nonzero amount, for each spot (i, j, k)."""
    out = [[list(e) for e in row] for row in rows]
    for i, j, k in spots:
        out[i][j][k] = (out[i][j][k] + rng.randrange(1, pn)) % pn
    return out


class TestCertificate:
    """commutation_residual, the one packed certificate, against its oracle, and verify on the same artifacts."""

    @pytest.mark.parametrize("p", GRID_PRIMES)
    def test_first_residual_matches_the_oracle(self, p):
        # genuine artifacts, one coefficient of G or of C moved, and two
        # moved (in G, in C, in both, and in the same entry of both): the
        # same verdict and the same first (i, j) as the unpacked oracle,
        # for C1 = gamma(C) formed packed and for C1 given as a matrix.
        # A moved coefficient of G is never its constant term, so G stays
        # Id mod pi0 and, G being unique, a move of G alone must be caught
        # at the default profile.  (At the small ones a weight r >= N makes
        # C vanish mod p^N on the window, and then no G is pinned down.)
        rng = random.Random(2000 + p)
        cases = 0
        for N, M in GRID_PROFILES:
            ctx = get_context(p, N, M)
            pn = ctx.pn
            for d in (1, 2, 3):
                weights = tuple(sorted(rng.randint(0, p - 2) for _ in range(d)))
                w = solve_wach(make_fl(p, N, weights, random_unit_matrix(rng, d, p, N)), ctx)
                for move in GRID_MOVES:
                    names = [] if move == "genuine" else move.split(",")[0].split()
                    spots = [(rng.randrange(d), rng.randrange(d)) for _ in names]
                    if move.endswith("one entry"):
                        spots[1] = spots[0]
                    spots = [(i, j, rng.randrange(name == "G", M)) for name, (i, j) in zip(names, spots)]
                    C = SeriesMat._trusted(p, N, _moved(w.C.rows, [s for n, s in zip(names, spots) if n == "C"], rng, pn))
                    G = SeriesMat._trusted(p, N, _moved(w.G.rows, [s for n, s in zip(names, spots) if n == "G"], rng, pn))
                    bad = commutation_entry(C, G, ctx)
                    assert commutation_residual(C, G, ctx) == bad, (N, M, weights, move)
                    gamma_C = C.substitute(ctx.gamma_sub, M)
                    assert commutation_residual(C, G, ctx, gamma_C) == residual_entry(C, G, gamma_C, ctx)
                    if move == "genuine" or N == 16 and "C" not in names:
                        assert (bad is None) == (move == "genuine"), (N, M, weights, spots, move)
                    # verify decides where commutation cannot: it accepts
                    # only genuine artifacts, each with no residual, and
                    # refuses a weight the window cannot carry
                    report = verify_wach_axioms(WachModule(ctx, weights, C, G))
                    assert report.ok == (move == "genuine" and max(weights) < M), (N, M, weights, spots, move)
                    assert not report.ok or bad is None
                    if move == "genuine" and not report.ok:
                        assert report.checks[0].detail == f"the window pi0^{M} cannot carry weight {max(weights)}"
                    cases += 1
        assert cases == 84

    def test_verify_reports_the_first_residual(self, ctx5):
        # the certificate names the oracle's first entry in row-major order,
        # and verify rejects the same artifact: its G is not the fixed point
        rng = random.Random(31)
        w = solve_wach(make_fl(5, 16, (0, 3), random_unit_matrix(rng, 2, 5, 16)), ctx5)
        G = SeriesMat._trusted(5, 16, _moved(w.G.rows, [(1, 1, 4), (1, 0, 2)], rng, ctx5.pn))
        bad = commutation_entry(w.C, G, ctx5)
        assert bad is not None and commutation_residual(w.C, G, ctx5) == bad
        assert verify_wach_axioms(WachModule(ctx5, w.weights, w.C, G)).failed() == ("gamma_fixed_point",)


class TestVerify:
    def test_solver_output_passes(self, ctx5):
        rng = random.Random(1)
        m = make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16))
        w = solve_wach(m, ctx5)
        assert verify_wach_axioms(w).ok

    def test_reports_the_three_axioms(self, ctx5):
        w = solve_wach(make_fl(5, 16, (0, 3), random_unit_matrix(random.Random(2), 2, 5, 16)), ctx5)
        names = [c.name for c in verify_wach_axioms(w).checks]
        assert names == ["phi_canonical", "gamma_trivial_mod_pi0", "gamma_fixed_point"]

    def test_tampered_gamma_fails_the_fixed_point(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 1), ctx3)
        bad_entry = series_add(
            w.G[0][0], shift_multiply(constant_series(PI0, 1, 3, 16, 15), 1)
        )
        tampered = WachModule(
            ctx=ctx3,
            weights=w.weights,
            C=w.C,
            G=SeriesMat([[bad_entry]], 3, 16),
            iterations_used=w.iterations_used,
        )
        rep = verify_wach_axioms(tampered)
        assert rep.failed() == ("gamma_fixed_point",)

    def test_tampered_constant_fails_mod_pi0(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 1), ctx3)
        tampered = WachModule(
            ctx=ctx3,
            weights=w.weights,
            C=w.C,
            G=SeriesMat([[series_add(w.G[0][0], constant_series(PI0, 1, 3, 16, 16))]], 3, 16),
        )
        rep = verify_wach_axioms(tampered)
        assert "gamma_trivial_mod_pi0" in rep.failed()

    def test_wrong_height_fails_phi_canonical(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 1), ctx3)
        q_sq = series_pow(w.C[0][0], 2)  # height 2 but declared weight 1
        tampered = WachModule(ctx=ctx3, weights=(1,), C=SeriesMat([[q_sq]], 3, 16), G=w.G)
        rep = verify_wach_axioms(tampered)
        assert rep.failed() == ("phi_canonical", "gamma_fixed_point")
        assert rep.checks[2].detail == "not decided: phi_canonical failed"

    def test_det_helper(self, ctx3):
        rng = random.Random(7)
        m = make_fl(3, 16, (0, 1, 1), random_unit_matrix(rng, 3, 3, 16))
        C = build_phi_matrix(m, ctx3)
        det = series_det(C)
        # oracle: det(A*diag(q^r)) = det(A) * q^(sum r)
        detA = (
            m.A.at(0, 0) * (m.A.at(1, 1) * m.A.at(2, 2) - m.A.at(1, 2) * m.A.at(2, 1))
            - m.A.at(0, 1) * (m.A.at(1, 0) * m.A.at(2, 2) - m.A.at(1, 2) * m.A.at(2, 0))
            + m.A.at(0, 2) * (m.A.at(1, 0) * m.A.at(2, 1) - m.A.at(1, 1) * m.A.at(2, 0))
        ) % ctx3.pn
        from wachkit.series import series_scale

        expect = series_scale(series_pow(ctx3.q, 2), detA)
        assert det == expect


class TestFunctoriality:
    def test_tensor_matches_direct_solve(self, ctx5):
        rng = random.Random(20)
        m1 = make_fl(5, 16, (0, 1), random_unit_matrix(rng, 2, 5, 16))
        m2 = make_fl(5, 16, (1,), random_unit_matrix(rng, 1, 5, 16))
        w1, w2 = solve_wach(m1, ctx5), solve_wach(m2, ctx5)
        t = tensor_wach(w1, w2)
        from wachkit.flmod import tensor_fl

        mt = tensor_fl(m1, m2)
        wt = solve_wach(mt, ctx5)
        # the direct solve lives in the weight-sorted basis
        G_lex_sorted = perm_conjugate(t.G, list(mt.sort_perm), 5, 16)
        C_lex_sorted = perm_conjugate(t.C, list(mt.sort_perm), 5, 16)
        assert wt.G == G_lex_sorted
        assert wt.C == C_lex_sorted

    def test_sum_matches_direct_solve(self, ctx3):
        rng = random.Random(21)
        m1 = make_fl(3, 16, (1,), random_unit_matrix(rng, 1, 3, 16))
        m2 = make_fl(3, 16, (0,), random_unit_matrix(rng, 1, 3, 16))
        w1, w2 = solve_wach(m1, ctx3), solve_wach(m2, ctx3)
        s = direct_sum_wach(w1, w2)
        from wachkit.flmod import direct_sum_fl

        ms = direct_sum_fl(m1, m2)
        ws = solve_wach(ms, ctx3)
        G_sorted = perm_conjugate(s.G, list(ms.sort_perm), 3, 16)
        assert ws.G == G_sorted
        assert verify_wach_axioms(s).ok

    def test_tensor_unit(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 2), ctx3)
        unit = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        t = tensor_wach(w, unit)
        assert t.C == w.C and t.G == w.G

    def test_tensor_weight_overflow(self, ctx5):
        # (0, 3) x (0, 3) has weight 6 > p - 2: its artifact would not load
        w = solve_wach(make_fl(5, 16, (0, 3), random_unit_matrix(random.Random(22), 2, 5, 16)), ctx5)
        with pytest.raises(WeightOverflow):
            tensor_wach(w, w)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("N, M_pi0", [(16, 16), (4, 9)])
    def test_extension_is_block_triangular(self, p, N, M_pi0):
        # A = [[A1, B], [0, A2]] with weights r1 ++ r2 is an extension of M2
        # by M1.  By uniqueness of the lift its G, in the unsorted basis, is
        # block upper triangular with the G of M1 and of M2 on the diagonal,
        # and the equation of the corner is linear in B with no constant
        # term, so the corner of B1 + B2 is the sum of the corners
        ctx = get_context(p, N, M_pi0)
        pn = p**N
        rng = random.Random(1300 + 10 * p + N)
        d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
        r1 = [rng.randint(0, p - 2) for _ in range(d1)]
        r2 = [rng.randint(0, p - 2) for _ in range(d2)]
        A1, A2 = random_unit_matrix(rng, d1, p, N), random_unit_matrix(rng, d2, p, N)

        def G_unsorted(weights, A):
            m = make_fl(p, N, weights, A)
            rows, perm = solve_wach(m, ctx).G.rows, m.sort_perm
            return [[rows[perm[k]][perm[l]] for l in range(len(perm))] for k in range(len(perm))]

        def extension(B):
            top = [[A1.at(i, j) for j in range(d1)] + B[i] for i in range(d1)]
            bottom = [[0] * d1 + [A2.at(i, j) for j in range(d2)] for i in range(d2)]
            return G_unsorted(r1 + r2, PMatrix.from_lists(top + bottom, p, N))

        B1, B2 = ([[rng.randrange(pn) for _ in range(d2)] for _ in range(d1)] for _ in range(2))
        G1, G2 = G_unsorted(r1, A1), G_unsorted(r2, A2)
        zero = (0,) * M_pi0
        corners = []
        for B in (B1, B2, [[(a + b) % pn for a, b in zip(x, y)] for x, y in zip(B1, B2)]):
            G = extension(B)
            assert [row[:d1] for row in G[d1:]] == [[zero] * d1] * d2
            assert [row[:d1] for row in G[:d1]] == G1
            assert [row[d1:] for row in G[d1:]] == G2
            corners.append([row[d1:] for row in G[:d1]])
        total = [
            [tuple((a + b) % pn for a, b in zip(x, y)) for x, y in zip(row1, row2)]
            for row1, row2 in zip(corners[0], corners[1])
        ]
        assert corners[2] == total


    @pytest.mark.parametrize("combine", [tensor_wach, direct_sum_wach])
    def test_different_contexts_are_invalid_input(self, ctx5, combine):
        w = solve_wach(unit_fl(5, 16, 0, 2), ctx5)
        other = solve_wach(unit_fl(5, 4, 0, 2), get_context(5, 4, 4))
        with pytest.raises(InvalidInput, match="different contexts"):
            combine(w, other)


class TestLatticeStability:
    def test_full_lattice(self, ctx3):
        rng = random.Random(30)
        m = make_fl(3, 16, (0, 1), random_unit_matrix(rng, 2, 3, 16))
        w = solve_wach(m, ctx3)
        L = LatticeSub(2, PMatrix.identity(2, 3, 16), (0, 0))
        assert check_lattice_stability(w, L).stable

    def test_diagonal_in_double(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 1, 2), ctx3)
        ww = direct_sum_wach(w, w)
        F = PMatrix.from_lists([[1, 1], [1, -1]], 3, 16)
        L = LatticeSub(2, F, (0, None))
        assert check_lattice_stability(ww, L).stable

    def test_scaled_coordinate_lattice(self, ctx5):
        rng = random.Random(31)
        m = make_fl(5, 16, (0, 3), random_unit_matrix(rng, 2, 5, 16))
        w = solve_wach(m, ctx5)
        # e_1, p*e_2 spans a phi-stable sublattice only when G is lower
        # triangular-compatible; use the direct sum of two rank-1 modules
        w1 = solve_wach(unit_fl(5, 16, 1, 2), ctx5)
        w2 = solve_wach(unit_fl(5, 16, 3, 3), ctx5)
        ww = direct_sum_wach(w1, w2)
        L = LatticeSub(2, PMatrix.identity(2, 5, 16), (0, 1))
        assert check_lattice_stability(ww, L).stable

    def test_unstable_detected_and_oracle_agrees(self):
        # small profile so the membership oracle is cheap
        ctx = get_context(3, 4, 6)
        rng = random.Random(8)
        found_unstable = False
        for _ in range(40):
            m = make_fl(3, 4, (0, 1), random_unit_matrix(rng, 2, 3, 4))
            w = solve_wach(m, ctx)
            F = random_unit_matrix(rng, 2, 3, 4)
            L = LatticeSub(2, F, (0, 1))
            fast = check_lattice_stability(w, L).stable
            slow = lattice_membership_oracle(w, L)
            assert fast == slow
            found_unstable = found_unstable or not fast
        assert found_unstable

    def test_short_entry_cuts_only_its_own_terms(self, ctx3):
        # a ragged G is zero-extended: one short off-diagonal entry must not
        # shorten the check of the others (X = F^-1 G F = G for F = Id)
        p, N = 3, 16
        one = constant_series(PI0, 1, p, N, 8)
        bad = TruncSeries(PI0, p, N, (0, 0, 0, 1, 0, 0, 0, 0))  # pi0^3: not in p*R
        short = constant_series(PI0, 0, p, N, 1)
        ww = WachModule(ctx3, (0, 0), SeriesMat.identity(2, p, N, 8), SeriesMat([[one, short], [bad, one]], p, N))
        report = check_lattice_stability(ww, LatticeSub(2, PMatrix.identity(2, p, N), (0, 1)))
        assert report.violations == (
            "column 0: coefficient pi0^3 of row 1 not divisible by p^1",
        )
        F = PMatrix.from_lists([[0, 1], [1, 0]], p, N)
        X = ww.G.sandwich(F, F)
        assert [[e.order for e in row] for row in X] == [[8, 8], [8, 8]]
        assert X[0][1] == bad and X[1][0].is_zero()

    def test_other_ambient_rank_is_invalid_input(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        with pytest.raises(InvalidInput, match="ambient rank"):
            check_lattice_stability(w, LatticeSub(2, PMatrix.identity(2, 3, 16), (0, 0)))

    def test_singular_basis(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        with pytest.raises(SingularBasis):
            check_lattice_stability(
                w, LatticeSub(1, PMatrix(1, 1, (3,), 3, 16), (0,))
            )


@pytest.mark.parametrize(
    "entry", ["build_phi_matrix", "solve_gamma_matrix", "normalize_basis", "check_lattice_stability"]
)
def test_other_modulus_is_a_validation_error(ctx5, entry):
    # an argument over another (p, N) than the context's is refused as
    # build_phi_matrix refuses it; before, the first two failed in the solve
    # (NotDivisible, NotCongruent) and the third reported stable=True
    from wachkit.reduction import normalize_basis

    m = make_fl(5, 16, (0, 2), random_unit_matrix(random.Random(23), 2, 5, 16))
    A8 = PMatrix(2, 2, tuple(c % 5**8 for c in m.A.entries), 5, 8)
    with pytest.raises(ValidationFailed, match="moduli differ"):
        if entry == "build_phi_matrix":
            build_phi_matrix(make_fl(5, 8, m.weights, A8), ctx5)
        elif entry == "solve_gamma_matrix":
            solve_gamma_matrix(build_phi_matrix(m, ctx5), m.weights, A8, ctx5)
        elif entry == "normalize_basis":
            normalize_basis(build_phi_matrix(m, ctx5), make_fl(5, 8, m.weights, A8), ctx5)
        else:
            lattice = LatticeSub(2, PMatrix.identity(2, 3, 16), (0, 1))
            check_lattice_stability(solve_wach(m, ctx5), lattice)


class TestLargePrime:
    def test_p17_bootstrap_solve_verify(self):
        # 17^16 >= 2^63: the first prime whose coefficients outgrow a machine word
        t0 = time.perf_counter()
        ctx = build_context(17)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"p = 17 bootstrap took {elapsed:.2f}s"
        m = make_fl(17, 16, (0, 15), random_unit_matrix(random.Random(17), 2, 17, 16))
        w = solve_wach(m, ctx)
        assert verify_wach_axioms(w).ok
        # sum of weights 21 > M_pi0: q^21 does not fit the window, but C and
        # G are decided without it
        w = solve_wach(make_fl(17, 16, (6, 15), PMatrix.identity(2, 17, 16)), ctx)
        assert verify_wach_axioms(w).ok
