import dataclasses
import random

import pytest

from oracles import make_series, series_pow, shift_multiply, x_series
from wachkit.cyclo import (
    GAMMA,
    PHI,
    OperatorTag,
    _in_s0,
    apply_operator,
    build_context,
    decompose_gamma_f,
    get_context,
    projector,
    torsion,
)
from wachkit.errors import InvalidInput, VariableMismatch
from wachkit.flmod import make_fl
from wachkit.series import (
    PI,
    PI0,
    Substitution,
    binomial_power,
    constant_series,
    series_add,
    series_invert_unit,
    series_multiply,
    series_scale,
    series_sub,
    zero_series,
)
from wachkit.suite import random_unit_matrix
from wachkit.wach import solve_wach, verify_wach_axioms


def closed_form_pi0_p3(ctx):
    order = ctx.pi0_in_pi.order
    one_plus = make_series(PI, [1, 1] + [0] * (order - 2), 3, ctx.N)
    return series_multiply(
        series_pow(x_series(PI, 3, ctx.N, order), 2), series_invert_unit(one_plus)
    )


class TestBootstrapAnchors:
    def test_pi0_closed_form_p3(self, ctx3):
        assert ctx3.pi0_in_pi == closed_form_pi0_p3(ctx3)

    def test_u_is_one_p3(self, ctx3):
        assert ctx3.u == constant_series(PI0, 1, 3, 16, ctx3.u.order)

    def test_q(self, contexts):
        for p, ctx in contexts.items():
            assert ctx.q.coeffs == (p, 1) + (0,) * 14

    def test_chi_validation(self):
        with pytest.raises(InvalidInput):
            build_context(5, 4, 4, chi_gamma=2)  # not 1 mod p
        with pytest.raises(InvalidInput):
            build_context(5, 4, 4, chi_gamma=26)  # 1 mod p^2

    @pytest.mark.parametrize("p", [0, 1, 2, 4, 9])
    def test_invalid_prime_is_reported_before_chi(self, p):
        # the default chi = 1 + p is checked against p only once p is known
        # to be an odd prime: p = 0 used to divide by zero, p = 1 to report
        # a chi(gamma) error
        with pytest.raises(InvalidInput, match="odd prime"):
            build_context(p)


class TestUnitIdentities:
    def test_phi_pi0_factorization(self, contexts):
        # phi(pi0) = u * pi0 * q^(p-1), exactly at the window
        for p, ctx in contexts.items():
            lhs = shift_multiply(
                series_multiply(ctx.u, series_pow(ctx.q, p - 1)), 1
            ).truncate(16)
            assert lhs.coeffs == ctx.phi_pi0.coeffs[:16]

    def test_gamma_q_factorization(self, contexts):
        for p, ctx in contexts.items():
            gamma_q = series_add(
                constant_series(PI0, p, p, 16, 16), ctx.gamma_pi0
            )
            assert series_multiply(ctx.v_gamma, ctx.q).coeffs == gamma_q.coeffs[:16]

    def test_units_normalized(self, contexts):
        for p, ctx in contexts.items():
            assert ctx.u.coeffs[0] % p != 0
            assert ctx.v_gamma.coeffs[0] == 1

    @pytest.mark.parametrize("p", (3, 5))
    def test_closed_form_images_match_composition(self, contexts, p):
        # phi(pi0) and gamma(pi0) are built as Teichmueller sums over the
        # exponents p*omega_a and chi*omega_a; composing pi0_in_pi with
        # phi(pi) = (1+pi)^p - 1 and gamma(pi) = (1+pi)^chi - 1 gives the
        # same images
        ctx = contexts[p]
        w = ctx.work
        earned = (p - 1) * w.M_pi0  # pi-degrees an order-M_pi0 pi0-series fixes
        pi0_sub = Substitution(w.pi0_in_pi)
        one = constant_series(PI, 1, p, ctx.N, w.M_pi)
        phi_pi, gamma_pi = (
            series_sub(binomial_power(e, p, ctx.N, w.M_pi), one) for e in (p, ctx.chi_gamma)
        )
        for image, op_pi in ((w.phi_pi0, phi_pi), (w.gamma_pi0, gamma_pi)):
            composed = Substitution(op_pi).apply(w.pi0_in_pi)
            pure = _in_s0(composed, pi0_sub, w.M_pi0)
            assert pure == image
            assert pi0_sub.apply(image, earned) == composed.truncate(earned)

    def test_images_vanish_mod_pi0(self, contexts):
        for ctx in contexts.values():
            assert ctx.phi_pi0.coeffs[0] == 0
            assert ctx.gamma_pi0.coeffs[0] == 0


class TestOperators:
    def test_phi_gamma_commute_on_pi0(self, contexts):
        for ctx in contexts.values():
            a = apply_operator(ctx, PHI, ctx.gamma_pi0)
            b = apply_operator(ctx, GAMMA, ctx.phi_pi0)
            assert a == b

    def test_phi_of_q(self, ctx3):
        lhs = apply_operator(ctx3, PHI, ctx3.q)
        rhs = series_add(constant_series(PI0, 3, 3, 16, 16), ctx3.phi_pi0)
        assert lhs == rhs

    def test_variable_guard(self, ctx3):
        with pytest.raises(VariableMismatch):
            apply_operator(ctx3, PHI, x_series(PI, 3, 16, 8))
        with pytest.raises(VariableMismatch):
            apply_operator(ctx3, torsion(1), x_series(PI0, 3, 16, 8))

    def test_operator_errors_are_typed(self, ctx3):
        # p = 3: torsion indices lie in [1, 2] and projector indices in [0, 1]
        f = x_series(PI, 3, 16, 8)
        for tag in (torsion(0), torsion(3), projector(-1), projector(2), OperatorTag("frobenius")):
            with pytest.raises(InvalidInput):
                apply_operator(ctx3, tag, f)
        with pytest.raises(VariableMismatch):
            apply_operator(ctx3, projector(0), x_series(PI0, 3, 16, 8))

    def test_projector_fixes_invariants(self, contexts):
        for ctx in contexts.values():
            assert apply_operator(ctx, projector(0), ctx.pi0_in_pi) == ctx.pi0_in_pi

    def test_projector_kills_constants(self, contexts):
        for ctx in contexts.values():
            one = constant_series(PI, 1, ctx.p, ctx.N, 12)
            assert apply_operator(ctx, projector(1), one).is_zero()
            assert apply_operator(ctx, projector(0), one) == one

    def test_projector_identities(self, contexts):
        # idempotence, orthogonality, partition of unity
        rng = random.Random(17)
        for ctx in contexts.values():
            pn = ctx.pn
            f = make_series(PI, [rng.randrange(pn) for _ in range(ctx.profile.M_pi)], ctx.p, ctx.N)
            comps = decompose_gamma_f(ctx, f)
            total = zero_series(PI, ctx.p, ctx.N, f.order)
            for i, c in enumerate(comps):
                total = series_add(total, c)
                assert apply_operator(ctx, projector(i), c) == c
                other = (i + 1) % (ctx.p - 1)
                assert apply_operator(ctx, projector(other), c).is_zero()
            assert total == f

    def test_decompose_eigenspaces(self, ctx5):
        # torsion generator acts on component i by omega_a^i
        rng = random.Random(23)
        ctx = ctx5
        f = make_series(PI, [rng.randrange(ctx.pn) for _ in range(ctx.profile.M_pi)], 5, 16)
        comps = decompose_gamma_f(ctx, f)
        a = ctx.primitive_root()
        omega = ctx.teich[a - 1]
        for i, c in enumerate(comps):
            image = apply_operator(ctx, torsion(a), c)
            assert image == series_scale(c, pow(omega, i, ctx.pn))

    def test_decompose_of_invariant(self, ctx3):
        comps = decompose_gamma_f(ctx3, ctx3.pi0_in_pi)
        assert comps[0] == ctx3.pi0_in_pi
        assert all(c.is_zero() for c in comps[1:])

    def test_decompose_pi_sums_back(self, ctx3):
        f = x_series(PI, 3, 16, ctx3.profile.M_pi)
        p0f, p1f = decompose_gamma_f(ctx3, f)
        assert series_add(p0f, p1f) == f
        assert not p0f.is_zero() and not p1f.is_zero()


class TestGeneratorIndependence:
    def test_alternative_generator(self):
        # chi' = chi^(1+p) is another topological generator; the same
        # identities must hold for its context
        for p in (3, 5):
            chi2 = (1 + p) ** (1 + p)
            ctx = build_context(p, 16, 16, chi_gamma=chi2)
            gamma_q = series_add(constant_series(PI0, p, p, 16, 16), ctx.gamma_pi0)
            assert series_multiply(ctx.v_gamma, ctx.q).coeffs == gamma_q.coeffs[:16]
            assert ctx.v_gamma.coeffs[0] == 1
            a = apply_operator(ctx, PHI, ctx.gamma_pi0)
            b = apply_operator(ctx, GAMMA, ctx.phi_pi0)
            assert a == b

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_negative_generator(self, p):
        # chi = 1 - p (-2 at p = 3) is a topological generator; it ended in
        # "negative exponent".  Its context is that of 1 - p + p^40, which
        # agrees with it mod the p^K the binomials read, and its solves verify
        ctx = build_context(p, chi_gamma=1 - p)
        other = build_context(p, chi_gamma=1 - p + p**40)
        assert ctx.chi_gamma == 1 - p
        assert dataclasses.replace(ctx, chi_gamma=other.chi_gamma) == other
        m = make_fl(p, 16, (0, p - 2), random_unit_matrix(random.Random(p), 2, p, 16))
        assert verify_wach_axioms(solve_wach(m, ctx)).ok


class TestInvarianceAndSerialization:
    def test_context_cache(self):
        assert get_context(3, 8, 8) is get_context(3, 8, 8)
