"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact equality of canonical residues at the user window
(p^16, pi0^16) unless a criterion states otherwise.  Randomized inputs are
seeded; the timing budgets hold on the packed big-integer kernels.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

import pytest

from oracles import commutation_entry, lattice_membership_oracle, make_series, projector, repeated_binomial, series_pow, series_scale, shift_multiply, user_window, weierstrass_divide_q_power, x_series, zero_series
from wachkit.cli import main as cli_main
from wachkit.cyclo import build_context, get_context
from wachkit.flmod import LatticeSub, direct_sum_fl, make_fl, tensor_fl, unit_fl
from wachkit.padic import PMatrix
from wachkit.reduction import roundtrip_check, normalize_basis
from wachkit.series import (
    PI,
    PI0,
    SeriesMat,
    Substitution,
    TruncSeries,
    binomial_powers,
    constant_series,
    pad,
    pi0_coordinates,
    q_powers,
    series_add,
    series_invert_unit,
    series_multiply,
)
from wachkit.suite import generate_suite, random_unit_matrix
from wachkit.wach import (
    check_lattice_stability,
    direct_sum_wach,
    iterate_to_window,
    solve_gamma_matrix,
    solve_wach,
    tensor_wach,
)

SEED = 20260808
PRIMES = (3, 5, 7)


def note(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def suite():
    mods = generate_suite(SEED, primes=PRIMES, count=30, max_rank=3)
    rng = random.Random(SEED + 1)
    for p in PRIMES:  # boundary weight p-2 per prime
        mods.append(make_fl(p, 16, (p - 2,), random_unit_matrix(rng, 1, p, 16)))
    return mods


@pytest.fixture(scope="module")
def solved(suite):
    out = []
    for m in suite:
        ctx = get_context(m.p)
        out.append(solve_wach(m, ctx))
    return out


def test_c01_bootstrap_anchors():
    t0 = time.perf_counter()
    ctx = build_context(3, 16, 16)
    elapsed = time.perf_counter() - t0
    win = user_window(ctx)
    order = win.pi0_in_pi.order
    # oracle: closed form from 1 + (1+pi) + (1+pi)^(-1) - 3 = pi^2/(1+pi)
    one_plus = make_series(PI, [1, 1] + [0] * (order - 2), 3, 16)
    closed = series_multiply(
        series_pow(x_series(PI, 3, 16, order), 2), series_invert_unit(one_plus)
    )
    assert win.pi0_in_pi == closed
    assert win.u == constant_series(PI0, 1, 3, 16, win.u.order)
    assert ctx.q.coeffs == (3, 1) + (0,) * 14
    assert elapsed < 1.0, f"bootstrap took {elapsed:.2f}s"
    note(f"01 bootstrap anchors (p=3): PASS in {elapsed:.3f}s")


def test_c02_unit_identities():
    t0 = time.perf_counter()
    for p in PRIMES:
        ctx = build_context(p, 16, 16)
        win = user_window(ctx)
        lhs = shift_multiply(
            series_multiply(win.u, series_pow(ctx.q, p - 1)), 1
        ).truncate(16)
        assert lhs.coeffs == win.phi_pi0.coeffs[:16]
        gamma_q = series_add(constant_series(PI0, p, p, 16, 16), win.gamma_pi0)
        assert series_multiply(win.v_gamma, ctx.q).coeffs == gamma_q.coeffs[:16]
        assert win.u.coeffs[0] % p != 0
        assert win.v_gamma.coeffs[0] == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"unit identities took {elapsed:.2f}s"
    note(f"02 unit identities (p in {PRIMES}): PASS in {elapsed:.3f}s")


def test_c03_commutation_suite(suite, solved):
    assert len(suite) >= 30
    worst = 0.0
    for m, w in zip(suite, solved):
        t0 = time.perf_counter()
        bad = commutation_entry(w.C, w.G, w.ctx)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert bad is None, f"nonzero residual for {m.weights} over p={m.p}"
        assert w.iterations_used <= 20
        assert elapsed < 10.0
    note(
        f"03 commutation suite ({len(suite)} modules): PASS, "
        f"max iterations {max(w.iterations_used for w in solved)}, "
        f"slowest residual check {worst:.3f}s"
    )


def test_c04_uniqueness(suite, solved, solver_step):
    # G = Id + pi0*X is the unique fixed point of the solve's step: from a
    # random X the step reaches it too, within the proved N + M_pi0 - 1 steps
    rng = random.Random(SEED + 2)
    worst = 0
    for m, w in zip(suite, solved):
        step, X0 = solver_step(solve_wach, m, w.ctx)
        X = [[[rng.randrange(w.ctx.pn) for _ in e] for e in row] for row in X0]
        X, used = iterate_to_window(step, X, 16 + 16 - 1)
        assert X == [[list(e[1:]) for e in row] for row in w.G.rows], (
            f"distinct fixed point for p={m.p}, {m.weights}"
        )
        worst = max(worst, used)
    note(f"04 uniqueness from random starts ({len(suite)} modules): PASS, max steps {worst}")


def _perm_conjugate(X, perm):
    d = len(X)
    return SeriesMat([[X[perm.index(i)][perm.index(j)] for j in range(d)] for i in range(d)], X.p, X.N)


def test_c05_functoriality(suite, solved):
    sums = tensors = 0
    by_p = {}
    for m, w in zip(suite, solved):
        by_p.setdefault(m.p, []).append((m, w))
    for p, items in by_p.items():
        ctx = get_context(p)
        for (m1, w1), (m2, w2) in itertools.combinations(items, 2):
            if sums < 3:
                ms = direct_sum_fl(m1, m2)
                ws = solve_wach(ms, ctx)
                block = direct_sum_wach(w1, w2)
                assert ws.G == _perm_conjugate(block.G, list(ms.sort_perm))
                assert ws.C == _perm_conjugate(block.C, list(ms.sort_perm))
                sums += 1
            if tensors < 3 and m1.h + m2.h <= p - 2 and m1.rank * m2.rank <= 6:
                mt = tensor_fl(m1, m2)
                wt = solve_wach(mt, ctx)
                kron = tensor_wach(w1, w2)
                assert wt.G == _perm_conjugate(kron.G, list(mt.sort_perm))
                assert wt.C == _perm_conjugate(kron.C, list(mt.sort_perm))
                tensors += 1
    assert sums >= 3 and tensors >= 1
    note(f"05 functoriality: PASS ({sums} direct sums, {tensors} tensors)")


def test_c06_lattice_stability():
    rng = random.Random(SEED + 3)
    stable_cases = 0

    for p in (3, 5):
        ctx = get_context(p)
        w1 = solve_wach(unit_fl(p, 16, 1, 1 + p * rng.randrange(1, p)), ctx)
        w2 = solve_wach(unit_fl(p, 16, p - 2, 2), ctx)
        rank2 = solve_wach(
            make_fl(p, 16, (0, 1), random_unit_matrix(rng, 2, p, 16)), ctx
        )
        I2 = PMatrix.identity(2, p, 16)
        double = direct_sum_wach(w1, w1)
        mixed = direct_sum_wach(w1, w2)
        tens = tensor_wach(rank2, rank2) if 2 <= p - 2 else None

        cases = [
            (rank2, LatticeSub(2, I2, (0, 0))),  # full lattice
            (rank2, LatticeSub(2, I2, (1, 1))),  # p-scaled full lattice
            (mixed, LatticeSub(2, I2, (0, 1))),  # mixed exponents
            (mixed, LatticeSub(2, I2, (0, None))),  # coordinate line, OMITTED
            (double, LatticeSub(2, PMatrix.from_lists([[1, 1], [1, -1]], p, 16), (0, None))),
            (double, LatticeSub(2, PMatrix.from_lists([[1, 0], [3, 1]], p, 16), (0, None))),
            (double, LatticeSub(2, PMatrix.from_lists([[1, 1], [1, -1]], p, 16), (2, None))),
        ]
        if tens is not None:
            F_sym = PMatrix.from_lists(
                [[1, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, -1], [0, 0, 1, 0]], p, 16
            )  # columns: e11, e12+e21, e22, e12-e21
            cases.append((tens, LatticeSub(4, F_sym, (0, 0, 0, None))))  # Sym^2
            cases.append((tens, LatticeSub(4, F_sym, (None, None, None, 0))))  # Lambda^2
            cases.append((tens, LatticeSub(4, PMatrix.identity(4, p, 16), (0, 0, 0, 0))))
        for wmod, L in cases:
            rep = check_lattice_stability(wmod, L)
            assert rep.stable, rep.violations
            stable_cases += 1
    assert stable_cases >= 10

    # unstable side, cross-checked against the brute-force membership oracle
    ctx_small = get_context(3, 4, 6)
    agree = 0
    unstable_found = False
    for _ in range(40):
        m = make_fl(3, 4, (0, 1), random_unit_matrix(rng, 2, 3, 4))
        w = solve_wach(m, ctx_small)
        L = LatticeSub(2, random_unit_matrix(rng, 2, 3, 4), (0, 1))
        fast = check_lattice_stability(w, L).stable
        slow = lattice_membership_oracle(w, L)
        assert fast == slow
        agree += 1
        unstable_found = unstable_found or not fast
    assert unstable_found
    note(
        f"06 lattice stability: PASS ({stable_cases} planted stable, "
        f"oracle agreement on {agree} random lattices incl. unstable)"
    )


def test_c07_roundtrip(suite):
    t0 = time.perf_counter()
    boundary_seen = set()
    for idx, m in enumerate(suite):
        ctx = get_context(m.p)
        rep = roundtrip_check(m, ctx, seed=SEED + idx)
        assert rep.ok, (m.p, m.weights, [c for c in rep.checks if not c[1]])
        if m.h == m.p - 2:
            boundary_seen.add(m.p)
    assert boundary_seen == set(PRIMES)
    note(
        f"07 roundtrip through reduction ({len(suite)} modules incl. boundary "
        f"weights): PASS in {time.perf_counter() - t0:.1f}s"
    )


def test_c08_normalize_and_recognize():
    rng = random.Random(SEED + 4)
    cases = 0
    for p in PRIMES:
        ctx = get_context(p)
        for _ in range(2):
            d = rng.randint(1, 2)
            weights = sorted(rng.randint(0, p - 2) for _ in range(d))
            m = make_fl(p, 16, weights, random_unit_matrix(rng, d, p, 16))
            w = solve_wach(m, ctx)
            mw = ctx.work.M_pi0
            pn = ctx.pn
            R = SeriesMat(
                [
                    [
                        TruncSeries(PI0, p, 16, tuple(rng.randrange(pn) for _ in range(15)))
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ],
                p,
                16,
            )
            P0 = SeriesMat.identity(d, p, 16, mw) + SeriesMat(
                [[pad(shift_multiply(e, 1), mw) for e in row] for row in R], p, 16
            )
            qpow = q_powers(ctx.work.q, m.h)
            AQ = SeriesMat(
                [
                    [series_scale(qpow[m.weights[j]], m.A.at(i, j)) for j in range(d)]
                    for i in range(d)
                ],
                p,
                16,
            )
            phi_P0 = SeriesMat([[ctx.phi_sub.apply(e) for e in row] for row in P0], p, 16)
            C_pert = P0.unipotent_inverse() @ AQ @ phi_P0
            # normalize_basis certifies residual == 0 on the window internally
            P = normalize_basis(C_pert, m, ctx)
            assert P == P0.unipotent_inverse().pad(16)
            G2, _ = solve_gamma_matrix(w.C, m.weights, m.A, ctx)
            assert G2 == w.G
            cases += 1
    note(f"08 normalize-and-recognize planted perturbations: PASS ({cases} cases)")


def test_c09_ring_layer():
    # binomial powers vs repeated multiplication
    for c in range(21):
        expect = repeated_binomial(c, 5**16, 12)
        assert list(next(binomial_powers([c], 5, 16, 12)).coeffs) == expect

    rng = random.Random(SEED + 5)
    for p in PRIMES:
        ctx = get_context(p)
        pn = ctx.pn
        pi0 = Substitution(user_window(ctx).pi0_in_pi)
        order = ctx.profile.M_pi
        window = (p - 1) * 16
        # coordinate-change roundtrips on 100 random series each way
        for _ in range(100):
            f = make_series(PI, [rng.randrange(pn) for _ in range(order)], p, 16)
            parts = pi0_coordinates(f, pi0, out_order=16)
            rec = zero_series(PI, p, 16, order)
            for j, part in enumerate(parts):
                rec = series_add(rec, shift_multiply(pi0.apply(part, order), j).truncate(order))
            assert rec.coeffs[:window] == f.coeffs[:window]
        for _ in range(100):
            parts = [
                make_series(PI0, [rng.randrange(pn) for _ in range(16)], p, 16)
                for _ in range(p - 1)
            ]
            f = zero_series(PI, p, 16, order)
            for j, part in enumerate(parts):
                f = series_add(f, shift_multiply(pi0.apply(part, order), j).truncate(order))
            rec = pi0_coordinates(f, pi0, out_order=16)
            assert [r.coeffs for r in rec] == [q.coeffs for q in parts]

        # Weierstrass reconstruction on random series
        for _ in range(40):
            f = make_series(PI0, [rng.randrange(pn) for _ in range(16)], p, 16)
            r = rng.randint(0, p - 1)
            quot, rem = weierstrass_divide_q_power(f, r)
            back = series_multiply(
                series_pow(make_series(PI0, [p, 1] + [0] * 14, p, 16), r),
                make_series(PI0, list(quot.coeffs) + [0] * r, p, 16),
            )
            back = series_add(back, make_series(PI0, list(rem) + [0] * (16 - r), p, 16))
            assert back.coeffs == f.coeffs

        # projector identities
        f = make_series(PI, [rng.randrange(pn) for _ in range(order)], p, 16)
        comps = [projector(ctx, i, f) for i in range(p - 1)]
        total = zero_series(PI, p, 16, order)
        for i, comp in enumerate(comps):
            total = series_add(total, comp)
            assert projector(ctx, i, comp) == comp
            assert projector(ctx, (i + 1) % (p - 1), comp).is_zero()
        assert total == f
    note("09 ring layer (binomials, coordinates, Weierstrass, projectors): PASS")


def test_c10_determinism(tmp_path):
    src = tmp_path / "m.json"
    src.write_text(
        json.dumps(
            {"kind": "fl", "p": 5, "N": 16, "weights": [0, 2], "A": [["2", "1"], ["1", "1"]]}
        ),
        encoding="utf-8",
    )
    artifacts = []
    for run in (1, 2):
        build_out = tmp_path / f"w{run}.json"
        rt_out = tmp_path / f"rt{run}.json"
        assert cli_main(["build", "-i", str(src), "--out", str(build_out)]) == 0
        assert (
            cli_main(
                [
                    "roundtrip", "--generate", "--seed", "11", "--count", "3",
                    "--primes", "3,5", "--max-rank", "2", "--out", str(rt_out),
                ]
            )
            == 0
        )
        artifacts.append((build_out.read_bytes(), rt_out.read_bytes()))
    assert artifacts[0] == artifacts[1]
    note("10 determinism (byte-identical artifacts on equal seeds): PASS")
