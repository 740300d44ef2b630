"""Precision is earned: a coarse profile agrees with a finer one.

A solve at the profile (N, M_pi0) must give the truncation of the solve at
(N + 4, M_pi0 + 6) of any lift of its input, and recover_filtration must give
the same recovered data or a typed PrecisionExhausted where the coarse window
cannot carry the weights; it never returns other weights.  The inputs are the
golden suite's shapes (prime, weights), with A drawn at the fine modulus and
reduced.  Coarse and fine solves alternate, so per-context state that leaked
from one profile into another (a solve plan, a table) would show.
"""

import random

import pytest

from wachkit.cyclo import get_context
from wachkit.errors import PrecisionExhausted
from wachkit.flmod import make_fl
from wachkit.padic import PMatrix
from wachkit.reduction import recover_filtration
from wachkit.suite import generate_suite, random_unit_matrix
from wachkit.wach import solve_wach

SHAPES = [(m.p, m.weights) for m in generate_suite(7, count=33)]


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


@pytest.mark.parametrize("N, M", [(2, 2), (3, 5), (4, 9), (8, 8), (6, 12)])
def test_coarse_profile_is_the_truncation_of_a_finer_one(N, M):
    rng = random.Random(1000 * N + M)
    exhausted = 0
    for p, weights in SHAPES:
        A = random_unit_matrix(rng, len(weights), p, N + 4)
        coarse = solve_wach(make_fl(p, N, weights, _reduce(A, N)), get_context(p, N, M))
        fine = solve_wach(make_fl(p, N + 4, weights, A), get_context(p, N + 4, M + 6))
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
