"""Cross-checks of the packed series kernels against naive oracles."""

import pickle
import random

import pytest

from oracles import horner_compose, schoolbook_mul
from wachkit import kernels
from wachkit import series as series_module
from wachkit.cyclo import build_context, context_to_dict, guard_order
from wachkit.flmod import make_fl
from wachkit.series import PI, PI0, Substitution, TruncSeries
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
                assert kernels.series_compose(f, g, pn, out_len) == horner_compose(f, g, pn, out_len)


def test_large_slot_carry():
    # p^N - 1 everywhere maximizes every slot of the product and the table sum
    pn = 17**16  # wider than a machine word
    for n in (1, 2, 68, 100):
        a = [pn - 1] * n
        assert kernels.series_mul(a, a, pn, n) == schoolbook_mul(a, a, pn, n)
        g = [0] + [pn - 1] * (n - 1)
        width, table = kernels.power_table(g, pn, n)
        assert kernels.compose_table(a, table, width, pn, n) == horner_compose(a, g, pn, n)


def test_fallback_handles_any_modulus():
    pn = 17**16  # wider than a machine word
    a = [pn - 1, pn - 2]
    b = [pn - 1, 1]
    out = kernels.series_mul(a, b, pn, 3)
    assert out == schoolbook_mul(a, b, pn, 3)
    assert out[0] == ((pn - 1) * (pn - 1)) % pn


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
        (ctx.torsion_subs[ctx.primitive_root() - 1], PI, pi_top),
        (ctx.pi0_sub, PI0, pi_top),
    ]
    for sub, var, top in cases:
        f = [rng.randrange(pn) for _ in range(top + 2)]
        _check_every_order(sub, var, f, top)
    # the largest slot carry through a table
    _check_every_order(ctx.phi_sub, PI0, [pn - 1] * ctx.work.M_pi0, ctx.work.M_pi0)


def test_table_cache_is_bounded(ctx5):
    # one object asked for many orders keeps only the last few tables, and
    # an evicted order is rebuilt exactly
    sub = Substitution(ctx5.work.phi_pi0)
    top = ctx5.work.M_pi0
    f = [random.Random(7).randrange(ctx5.pn) for _ in range(top)]
    expected = horner_compose(f, list(sub.image.coeffs), ctx5.pn, top)
    series = TruncSeries(PI0, 5, 16, tuple(f))
    for n in list(range(1, top + 1)) + [1, top]:
        assert sub.apply(series, n).coeffs == tuple(expected[:n])
        assert len(sub._tables) <= series_module._TABLES_KEPT


def test_context_unchanged_by_tables():
    ctx = build_context(5)
    m = make_fl(5, 16, (0, 3), random_unit_matrix(random.Random(5), 2, 5, 16))
    w = solve_wach(m, ctx)
    assert verify_wach_axioms(w).ok
    fresh = build_context(5)
    assert ctx == fresh
    assert repr(ctx) == repr(fresh)
    assert context_to_dict(ctx) == context_to_dict(fresh)
    blob = pickle.dumps(ctx)
    assert len(blob) == len(pickle.dumps(fresh))  # tables are not pickled
    again = pickle.loads(blob)
    assert again == ctx
    assert again.phi_sub.apply(w.G[0][1]) == ctx.phi_sub.apply(w.G[0][1])
