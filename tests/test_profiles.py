"""Precision is earned: a coarse profile agrees with a finer one.

A solve at the profile (N, M_pi0) must give the truncation of the solve at
(N + 4, M_pi0 + 6) of any lift of its input, and recover_filtration must give
the same recovered data or a typed PrecisionExhausted where the coarse window
cannot carry the weights; it never returns other weights.  verify_wach_axioms
gives the same verdict at both profiles, or refuses with a typed detail where
the coarse window cannot carry the largest weight.  direct_sum_wach and
tensor_wach of coarse solves are the truncations of those of fine ones (or,
for tensor_wach, the same typed refusal where the coarse window cannot carry
a weight r + s), and normalize_basis of
a perturbed C' is the truncation of that of a lift of C' by multiples of p^N.
The inputs are the golden suite's shapes (prime, weights), with A drawn at
the fine modulus and reduced.  Coarse and fine solves alternate, so
per-context state that leaked from one profile into another (a solve plan, a
table) would show.  At these small profiles the proved iteration bound
N + M_pi0 - 1 is nearly tight, so each test also runs it close to its edge.
"""

import random
from functools import cache
from itertools import combinations
from math import comb

import pytest

from oracles import schoolbook_mul
from wachkit.cyclo import get_context
from wachkit.errors import AxiomViolation, PrecisionExhausted, WeightOverflow
from wachkit.flmod import make_fl
from wachkit.padic import PMatrix
from wachkit.reduction import normalize_basis, recover_filtration
from wachkit.series import PI0, TruncSeries
from wachkit.suite import generate_suite, random_unit_matrix
from wachkit.wach import direct_sum_wach, iterate_to_window, solve_wach, tensor_wach, verify_wach_axioms

SHAPES = [(m.p, m.weights) for m in generate_suite(7, count=33)]
PROFILES = [(2, 2), (3, 5), (4, 9), (8, 8), (6, 12)]


def _cut(rows, pn, M):
    """Series-matrix rows reduced mod pn and cut to M coefficients."""
    return tuple(tuple(tuple(c % pn for c in e[:M]) for e in row) for row in rows)


def _reduce(A: PMatrix, N: int) -> PMatrix:
    return PMatrix(A.rows, A.cols, A.entries, A.p, N)


def _recover(w):
    try:
        return recover_filtration(w, max(w.weights))
    except PrecisionExhausted:
        return None


@cache
def _solved(N, M):
    """(coarse module, coarse solve, fine solve) of every shape, alternating
    between the profiles."""
    rng = random.Random(1000 * N + M)
    out = []
    for p, weights in SHAPES:
        A = random_unit_matrix(rng, len(weights), p, N + 4)
        m = make_fl(p, N, weights, _reduce(A, N))
        coarse = solve_wach(m, get_context(p, N, M))
        fine = solve_wach(make_fl(p, N + 4, weights, A), get_context(p, N + 4, M + 6))
        out.append((m, coarse, fine))
    return out


@pytest.mark.parametrize("N, M", PROFILES)
def test_coarse_profile_is_the_truncation_of_a_finer_one(N, M):
    exhausted = 0
    for (p, weights), (_, coarse, fine) in zip(SHAPES, _solved(N, M)):
        pn = p**N
        assert coarse.C.rows == _cut(fine.C.rows, pn, M), (p, weights)
        assert coarse.G.rows == _cut(fine.G.rows, pn, M), (p, weights)
        got, want = _recover(coarse), _recover(fine)
        if got is None:
            exhausted += 1
            continue
        assert want is not None, (p, weights)
        assert (got.fil_ranks, got.weights_recovered) == (want.fil_ranks, want.weights_recovered)
        assert got.weights_recovered == weights
        assert got.A_recovered == _reduce(want.A_recovered, N)
        assert got.adapted_basis == _reduce(want.adapted_basis, N)
    assert exhausted < len(SHAPES)


@pytest.mark.parametrize("N, M", PROFILES)
def test_direct_sum_at_a_coarse_profile_is_the_truncation_of_a_finer_one(N, M):
    by_p = {}
    for _, coarse, fine in _solved(N, M):
        by_p.setdefault(coarse.ctx.p, []).append((coarse, fine))
    for p, solved in by_p.items():
        for (coarse1, fine1), (coarse2, fine2) in zip(solved, solved[1:]):
            pn = p**N
            coarse, fine = direct_sum_wach(coarse1, coarse2), direct_sum_wach(fine1, fine2)
            assert coarse.weights == fine.weights
            assert coarse.C.rows == _cut(fine.C.rows, pn, M)
            assert coarse.G.rows == _cut(fine.G.rows, pn, M)
            assert verify_wach_axioms(coarse).ok == (max(coarse.weights) < M), (p, coarse.weights)


@pytest.mark.parametrize("N, M", PROFILES)
def test_tensor_at_a_coarse_profile_is_the_truncation_of_a_finer_one(N, M):
    # tensor_wach verifies its product: where the coarse window cannot
    # carry the largest weight r + s, it refuses with verify's window check,
    # and where r + s > p - 2 both profiles refuse alike
    by_p = {}
    for _, coarse, fine in _solved(N, M):
        by_p.setdefault(coarse.ctx.p, []).append((coarse, fine))
    built = 0
    for p, solved in by_p.items():
        for (coarse1, fine1), (coarse2, fine2) in combinations(solved, 2):
            weights = tuple(r + s for r in fine1.weights for s in fine2.weights)
            if max(weights) > p - 2:
                for w1, w2 in ((coarse1, coarse2), (fine1, fine2)):
                    with pytest.raises(WeightOverflow):
                        tensor_wach(w1, w2)
                continue
            fine = tensor_wach(fine1, fine2)
            if max(weights) >= M:
                with pytest.raises(AxiomViolation, match="phi_canonical"):
                    tensor_wach(coarse1, coarse2)
                continue
            coarse = tensor_wach(coarse1, coarse2)
            built += 1
            assert coarse.weights == fine.weights == weights
            assert coarse.C.rows == _cut(fine.C.rows, p**N, M), (p, weights)
            assert coarse.G.rows == _cut(fine.G.rows, p**N, M), (p, weights)
    assert built > 0


@pytest.mark.parametrize("N, M", PROFILES)
def test_verify_at_a_coarse_profile_agrees_with_a_finer_one(N, M):
    # a genuine module gets the fine profile's verdict at the coarse one,
    # except where the coarse window cannot carry its largest weight: there
    # verify refuses with that detail, a typed refusal to vouch for the
    # module and not a different verdict on a module it can vouch for
    refused = 0
    for (p, weights), (_, coarse, fine) in zip(SHAPES, _solved(N, M)):
        got, want = verify_wach_axioms(coarse), verify_wach_axioms(fine)
        assert want.ok == (max(weights) < M + 6), (p, weights)
        if max(weights) >= M:
            refused += 1
            assert got.checks[0] == ("phi_canonical", False, f"the window pi0^{M} cannot carry weight {max(weights)}")
        else:
            assert got == want, (p, weights)
    assert refused < len(SHAPES)


def _perturbed(A: PMatrix, weights, S, pn) -> list:
    """C' = (A + pi0*S)*diag(q^(r_j)) mod pn, as exact polynomials.

    (C' - A*Q)/pi0 = S*Q has each column j divisible by q^(r_j), so C'
    presents the module of (weights, A) in another basis.
    """
    p = A.p
    return [
        [
            schoolbook_mul([A.at(i, j)] + s, [comb(r, k) * p ** (r - k) for k in range(r + 1)], pn, len(s) + 1 + r)
            for j, (s, r) in enumerate(zip(srow, weights))
        ]
        for i, srow in enumerate(S)
    ]


def _series_matrix(rows, p, N):
    pn = p**N
    return [[TruncSeries(PI0, p, N, tuple(c % pn for c in e)) for e in row] for row in rows]


@pytest.mark.parametrize("N, M", PROFILES)
def test_normalization_at_a_coarse_profile_is_the_truncation_of_a_finer_one(N, M):
    # C' is drawn at the fine modulus: the coarse input is C' mod p^N, so
    # the fine one lifts it by random multiples of p^N
    rng = random.Random(2000 * N + M)
    for p, weights in SHAPES:
        d, pn = len(weights), p ** (N + 4)
        fine_m = make_fl(p, N + 4, weights, random_unit_matrix(rng, d, p, N + 4))
        coarse_m = make_fl(p, N, weights, _reduce(fine_m.A, N))
        S = [[[rng.randrange(pn) for _ in range(M - 1)] for _ in range(d)] for _ in range(d)]
        C = _perturbed(fine_m.A, weights, S, pn)
        coarse = normalize_basis(_series_matrix(C, p, N), coarse_m, get_context(p, N, M))
        fine = normalize_basis(_series_matrix(C, p, N + 4), fine_m, get_context(p, N + 4, M + 6))
        assert coarse.rows == _cut(fine.rows, p**N, M), (p, weights)


@pytest.mark.parametrize("N, M", PROFILES)
def test_uniqueness_from_random_starts_within_the_proved_bound(N, M, solver_step):
    # the solve's step reaches G = Id + pi0*X from a random X as well,
    # within N + M_pi0 - 1 steps: iterate_to_window raises past its budget
    rng = random.Random(3000 * N + M)
    for m, w, _ in _solved(N, M):
        step, X0 = solver_step(solve_wach, m, w.ctx)
        X = [[[rng.randrange(m.p**N) for _ in e] for e in row] for row in X0]
        X, _ = iterate_to_window(step, X, N + M - 1)
        assert X == [[list(e[1:]) for e in row] for row in w.G.rows], (m.p, m.weights)
