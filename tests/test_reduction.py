import pickle
import random

import pytest

from oracles import difference_valuations, full_fil_lattice, normalization_step_by_division, schoolbook_mul, shift_multiply
from wachkit.cyclo import get_context
from wachkit.errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    NotCongruent,
    NotDivisible,
    ProfileMismatch,
    VariableMismatch,
)
from wachkit.flmod import make_fl, unit_fl
from wachkit.padic import PMatrix
from wachkit.reduction import (
    _fil_lattice,
    _phi_r_image,
    normalize_basis,
    recover_filtration,
    reduce_mod_pi0,
    roundtrip_check,
)
from wachkit.series import PI, PI0, SeriesMat, Substitution, TruncSeries, constant_series, pad, q_powers, series_scale
from wachkit.suite import generate_suite, random_unit_matrix
from wachkit.wach import WachModule, phi_matrix, solve_wach


def planted_perturbation(ctx, m, seed):
    """(C_pert, P0) at guard order with P0 = Id + pi0*R for seeded random R."""
    rng = random.Random(seed)
    mw = ctx.work.M_pi0
    pn = ctx.pn
    d = m.rank
    R = SeriesMat(
        [
            [
                TruncSeries(
                    PI0, m.p, m.N, tuple(rng.randrange(pn) for _ in range(ctx.profile.M_pi0 - 1))
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ],
        m.p,
        m.N,
    )
    P0 = SeriesMat.identity(d, m.p, m.N, mw) + SeriesMat(
        [[pad(shift_multiply(e, 1), mw) for e in row] for row in R], m.p, m.N
    )
    qpow = q_powers(ctx.work.q, m.h)
    AQ = SeriesMat(
        [
            [series_scale(qpow[m.weights[j]], m.A.at(i, j)) for j in range(d)]
            for i in range(d)
        ],
        m.p,
        m.N,
    )
    phi_P0 = SeriesMat([[ctx.phi_sub.apply(e) for e in row] for row in P0], m.p, m.N)
    C_pert = P0.unipotent_inverse() @ AQ @ phi_P0
    return C_pert, P0, AQ


class TestReduce:
    def test_rank_one(self, ctx3):
        C0, G0 = reduce_mod_pi0(solve_wach(unit_fl(3, 16, 0, 2), ctx3))
        assert C0.entries == (2,) and G0.entries == (1,)

    def test_weights_through_constants(self, ctx3):
        m = make_fl(3, 16, (0, 1), PMatrix.identity(2, 3, 16))
        C0, _ = reduce_mod_pi0(solve_wach(m, ctx3))
        assert C0.to_lists() == [[1, 0], [0, 3]]

    def test_weights_recovered_from_elementary_divisors(self, ctx5):
        # the reduction constants determine the weights as p-valuations of
        # the elementary divisors of C0
        from wachkit.padic import smith_elementary_divisors

        rng = random.Random(77)
        m = make_fl(5, 16, (0, 1, 3), random_unit_matrix(rng, 3, 5, 16))
        C0, _ = reduce_mod_pi0(solve_wach(m, ctx5))
        assert tuple(sorted(smith_elementary_divisors(C0))) == m.weights

    def test_tampered(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        bad = WachModule(
            ctx=ctx3,
            weights=w.weights,
            C=w.C,
            G=SeriesMat([[constant_series(PI0, 2, 3, 16, 16)]], 3, 16),
        )
        with pytest.raises(AxiomViolation):
            reduce_mod_pi0(bad)


class TestRecoverFiltration:
    def test_rank_one_weight_zero(self, ctx3):
        red = recover_filtration(solve_wach(unit_fl(3, 16, 0, 2), ctx3), 0)
        assert red.fil_ranks == (1, 0)
        assert red.weights_recovered == (0,)

    def test_rank_two(self, ctx3):
        m = make_fl(3, 16, (0, 1), PMatrix.identity(2, 3, 16))
        red = recover_filtration(solve_wach(m, ctx3), 1)
        assert red.fil_ranks == (2, 1, 0)
        assert red.weights_recovered == (0, 1)
        assert red.A_recovered == PMatrix.identity(2, 3, 16)

    def test_lattice_matches_full_lift_system(self, contexts):
        # the x-only system drops the lift unknowns y_k; the full (x, y)
        # system must give the same Howell form for every r <= h + 1
        rng = random.Random(15)
        for p, ctx in contexts.items():
            for weights in ((0, p - 2), (1, 1, p - 2)):
                m = make_fl(p, 16, weights, random_unit_matrix(rng, len(weights), p, 16))
                w = solve_wach(m, ctx)
                for r in range(m.h + 2):
                    assert _fil_lattice(w, r) == full_fil_lattice(w, r), (p, weights, r)

    def test_random_roundtrips(self, contexts):
        rng = random.Random(14)
        for p, ctx in contexts.items():
            for _ in range(3):
                d = rng.randint(1, 3)
                weights = sorted(rng.randint(0, p - 2) for _ in range(d))
                m = make_fl(p, 16, weights, random_unit_matrix(rng, d, p, 16))
                red = recover_filtration(solve_wach(m, ctx), m.h)
                assert red.weights_recovered == m.weights

    def test_invariant_under_planted_base_change(self, ctx3):
        # fil_ranks do not move under P = Id mod pi0 conjugation of C
        rng = random.Random(55)
        m = make_fl(3, 16, (0, 1, 1), random_unit_matrix(rng, 3, 3, 16))
        w = solve_wach(m, ctx3)
        C_pert, _, _ = planted_perturbation(ctx3, m, seed=4)
        perturbed = WachModule(
            ctx=ctx3,
            weights=m.weights,
            C=C_pert.pad(16),
            G=w.G,  # G is ignored by the filtration solve
        )
        red0 = recover_filtration(w, m.h)
        red1 = recover_filtration(perturbed, m.h)
        assert red0.fil_ranks == red1.fil_ranks
        assert red0.weights_recovered == red1.weights_recovered

    def test_divided_frobenius_compatibility(self, ctx5):
        # on Fil^(r+1): phi^r = p * phi^(r+1)
        rng = random.Random(66)
        m = make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16))
        w = solve_wach(m, ctx5)
        red = recover_filtration(w, m.h)
        pn = 5**16
        lat = red.fil_generators[2]  # Fil^2 generators
        for i in range(lat.rows):
            x = list(lat.row(i))
            low = _phi_r_image(w, x, 1)
            high = _phi_r_image(w, x, 2)
            assert low == [(5 * v) % pn for v in high]

    def test_h_max_guard(self, ctx3):
        w = solve_wach(unit_fl(3, 16, 0, 1), ctx3)
        with pytest.raises(Exception):
            recover_filtration(w, 5)
        with pytest.raises(InvalidInput):  # no steps to recover: was an IndexError
            recover_filtration(w, -1)


class TestNormalize:
    def test_identity_perturbation(self, ctx3):
        m = make_fl(3, 16, (1,), PMatrix(1, 1, (1,), 3, 16))
        qpow = q_powers(ctx3.work.q, 1)
        AQ = SeriesMat([[qpow[1]]], 3, 16)
        P = normalize_basis(AQ, m, ctx3)
        assert P == SeriesMat.identity(1, 3, 16, 16)

    def test_plant_and_recover(self, contexts):
        rng = random.Random(3)
        for p, ctx in contexts.items():
            d = rng.randint(1, 2)
            weights = sorted(rng.randint(0, p - 2) for _ in range(d))
            m = make_fl(p, 16, weights, random_unit_matrix(rng, d, p, 16))
            C_pert, P0, AQ = planted_perturbation(ctx, m, seed=p)
            P = normalize_basis(C_pert, m, ctx)
            # P must invert the planted base change on the user window
            P0inv = P0.unipotent_inverse()
            assert P == P0inv.pad(16)

    def test_scalar_perturbation_p3(self, ctx3):
        # rank 1, r = 1, perturbation a*(1+pi0)
        m = make_fl(3, 16, (1,), PMatrix(1, 1, (1,), 3, 16))
        mw = ctx3.work.M_pi0
        q = ctx3.work.q
        pert = SeriesMat(
            [[TruncSeries(PI0, 3, 16, tuple((q.coeffs[k] + q.coeff(k - 1) if k else q.coeffs[0]) for k in range(mw)))]],
            3,
            16,
        )  # (1 + X) * q
        P = normalize_basis(pert, m, ctx3)
        # residual is certified inside normalize_basis; P must be nontrivial
        assert P != SeriesMat.identity(1, 3, 16, 16)

    def test_not_congruent(self, ctx3):
        m = make_fl(3, 16, (1,), PMatrix(1, 1, (1,), 3, 16))
        wrong = SeriesMat([[constant_series(PI0, 5, 3, 16, ctx3.work.M_pi0)]], 3, 16)
        with pytest.raises(NotCongruent):
            normalize_basis(wrong, m, ctx3)

    def test_no_convergence_budget(self, ctx5):
        # the first step moves Cm off zero, so one step cannot show a stable window
        rng = random.Random(8)
        m = make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16))
        C_pert, _, _ = planted_perturbation(ctx5, m, seed=8)
        assert normalize_basis(C_pert, m, ctx5) is not None
        with pytest.raises(NoConvergence):
            normalize_basis(C_pert, m, ctx5, max_iter=1)


    @pytest.mark.parametrize(
        "shape, error",
        [
            ("1x1", InvalidInput),
            ("3x3", InvalidInput),
            ("ragged", InvalidInput),
            ("pi-series", VariableMismatch),
            ("other-modulus", ProfileMismatch),
        ],
    )
    def test_malformed_input_is_typed(self, ctx5, shape, error):
        m = make_fl(5, 16, (0, 1), PMatrix.identity(2, 5, 16))
        one = constant_series(PI0, 1, 5, 16, 16)
        C = {
            "1x1": [[one]],
            "3x3": [[one] * 3] * 3,
            "ragged": [[one, one], [one]],
            "pi-series": [[one, one], [one, constant_series(PI, 1, 5, 16, 16)]],
            "other-modulus": [[one, one], [one, constant_series(PI0, 1, 5, 15, 16)]],
        }[shape]
        with pytest.raises(error):
            normalize_basis(C, m, ctx5)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_step_matches_the_division_oracle(self, solver_step, p):
        # the step normalize_basis iterates against the update computed with
        # d^2 compositions and a division by q^(r_j) per step, on random Cm
        # (whose coefficients past the window the oracle reads and must
        # ignore), for every weight; C' = A*Q + pi0*R*Q has Delta = R*Q
        ctx = get_context(p)
        rng = random.Random(600 + p)
        pn, mw = ctx.pn, ctx.work.M_pi0
        qpow = q_powers(ctx.work.q, p - 2)
        for r in range(p - 1):
            weights = tuple(sorted((r, rng.randrange(p - 1))))
            A = random_unit_matrix(rng, 2, p, 16)
            AQ = phi_matrix(A, weights, ctx.work.q)
            Cp = SeriesMat._trusted(p, 16, [
                [
                    [(x + y) % pn for x, y in zip(a, [0] + schoolbook_mul(
                        [rng.randrange(pn) for _ in range(mw)], qpow[rj].coeffs, pn, mw - 1
                    ))]
                    for a, rj in zip(row, weights)
                ]
                for row in AQ.rows
            ])
            step, zero = solver_step(normalize_basis, Cp, make_fl(p, 16, weights, A), ctx)
            oracle = normalization_step_by_division(Cp, AQ, weights, A, ctx)
            m = ctx.profile.M_pi0 - 1
            assert zero == [[[0] * m] * 2] * 2
            for _ in range(2):
                Cm = [[[rng.randrange(pn) for _ in range(m + 5)] for _ in range(2)] for _ in range(2)]
                expect = [[e[:m] for e in row] for row in oracle(Cm)]
                assert step([[e[:m] for e in row] for row in Cm]) == expect

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_quotient_table_is_the_series_on_the_window(self, p):
        # Q_(t+1)^(r) = phi(pi0)^(t+1)/(pi0*q^r) is u*q^(p-1-r)*phi(pi0)^t
        # below m = M_pi0 - 1, for every r and at every table order from u's
        # up to the guard order
        ctx = get_context(p)
        work = ctx.work
        pn, m = ctx.pn, ctx.profile.M_pi0 - 1
        phi = list(work.phi_pi0.coeffs)
        qpow = q_powers(work.q, p - 1)
        for r in range(p):
            series = schoolbook_mul(list(work.u.coeffs), list(qpow[p - 1 - r].coeffs), pn, m)
            for n in (work.u.order, work.M_pi0 - 1, work.M_pi0):
                table = ctx.phi_sub.quotients(n, r)
                power = series
                for t in range(len(table) - 1):
                    assert table[t + 1][:m] == power
                    power = schoolbook_mul(power, phi, pn, m)
                assert not any(power)  # the table stops where the powers vanish

    def test_normalization_keeps_its_quotient_tables(self, monkeypatch):
        # a normalization reads one quotient table per distinct weight: at
        # p = 7 with weights 0..4 it builds five on the first call and none
        # on later ones (the cache used to keep four, so every call rebuilt
        # all five); and the Gamma-solve reads the same tables, so after a
        # solve a normalization builds none
        builds = []
        powers = Substitution.powers

        def counted(sub, n):
            builds.append(n)
            return powers(sub, n)

        monkeypatch.setattr(Substitution, "powers", counted)
        m = make_fl(7, 16, (0, 1, 2, 3, 4), random_unit_matrix(random.Random(15), 5, 7, 16))

        def fresh():  # a context's tables are not pickled
            return pickle.loads(pickle.dumps(get_context(7)))

        ctx = fresh()
        C = phi_matrix(m.A, m.weights, ctx.work.q)
        counts = []
        for _ in range(3):
            before = len(builds)
            normalize_basis(C, m, ctx)
            counts.append(len(builds) - before)
        assert counts == [5, 0, 0]

        ctx = fresh()
        w = solve_wach(m, ctx)
        before = len(builds)
        normalize_basis(w.C, m, ctx)
        assert len(builds) == before

    def test_successive_differences_contract(self, solver_step):
        # as for the Gamma-solve: over the planted perturbations of the
        # golden suite, the weighted valuation min(k + v_p(c_k)) of
        # Cm_(n+1) - Cm_n strictly increases until the difference vanishes
        for i, m in enumerate(generate_suite(7, count=33)):
            ctx = get_context(m.p)
            C_pert, _, _ = planted_perturbation(ctx, m, seed=i)
            step, X = solver_step(normalize_basis, C_pert, m, ctx)
            vals = difference_valuations(step, X, 15, m.p, 16, 40)
            assert all(a < b for a, b in zip(vals, vals[1:])), (m.weights, vals)

    def test_delta_not_divisible(self, ctx5):
        # C' = A*Q + pi0*E with E nonzero only in the weight-2 column: Delta's
        # column is a nonzero constant, which q^2 does not divide; in the
        # weight-0 column the same perturbation is realizable
        rng = random.Random(14)
        m = make_fl(5, 16, (0, 2), random_unit_matrix(rng, 2, 5, 16))
        AQ = phi_matrix(m.A, m.weights, ctx5.work.q)

        def perturbed(j):
            rows = [[list(e) for e in row] for row in AQ.rows]
            rows[0][j][1] = (rows[0][j][1] + 1) % ctx5.pn
            return SeriesMat._trusted(5, 16, rows)

        with pytest.raises(NotDivisible):
            normalize_basis(perturbed(1), m, ctx5)
        assert normalize_basis(perturbed(0), m, ctx5) is not None


class TestRoundtrip:
    def test_rank_one(self, ctx3):
        rep = roundtrip_check(unit_fl(3, 16, 0, 1), ctx3)
        assert rep.ok

    def test_reports_the_five_checks(self, ctx5):
        m = make_fl(5, 16, (0, 2), random_unit_matrix(random.Random(10), 2, 5, 16))
        rep = roundtrip_check(m, ctx5, seed=3)
        names = tuple(name for name, _, _ in rep.checks)
        assert names == ("validate", "solve", "fil_ranks", "weights_and_A", "normalize")
        assert rep.ok

    def test_boundary_weight(self, contexts):
        rng = random.Random(9)
        for p, ctx in contexts.items():
            m = make_fl(p, 16, (p - 2,), random_unit_matrix(rng, 1, p, 16))
            assert roundtrip_check(m, ctx, seed=1).ok

    def test_normalize_failures_reported_programming_errors_raised(self, ctx3, monkeypatch):
        from wachkit import reduction
        from wachkit.errors import NotDivisible

        m = unit_fl(3, 16, 1, 1)

        def fail(exc):
            def normalize(*args, **kwargs):
                raise exc
            return normalize

        monkeypatch.setattr(reduction, "normalize_basis", fail(NotDivisible("planted")))
        rep = roundtrip_check(m, ctx3)
        assert ("normalize", False, "NotDivisible: planted") in rep.checks
        assert not rep.ok
        monkeypatch.setattr(reduction, "normalize_basis", fail(TypeError("a bug")))
        with pytest.raises(TypeError):
            roundtrip_check(m, ctx3)

    def test_stabilizer_comparison_tied_weights(self, ctx5):
        # equal weights allow any unimodular block; recovery must still match
        rng = random.Random(12)
        m = make_fl(5, 16, (2, 2), random_unit_matrix(rng, 2, 5, 16))
        assert roundtrip_check(m, ctx5, seed=2).ok
