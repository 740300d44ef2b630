import dataclasses
import random

import pytest

from oracles import (
    GAMMA,
    PHI,
    decompose_gamma_f,
    make_series,
    primitive_root,
    projector,
    series_pow,
    series_scale,
    shift_multiply,
    torsion,
    user_window,
    x_series,
    zero_series,
)
from wachkit.cyclo import OperatorTag, _in_s0, apply_operator, build_context, get_context
from wachkit.errors import InvalidInput, VariableMismatch
from wachkit.flmod import make_fl
from wachkit.series import (
    PI,
    PI0,
    Substitution,
    TruncationProfile,
    binomial_powers,
    constant_series,
    series_add,
    series_invert_unit,
    series_multiply,
    series_sub,
)
from wachkit.suite import random_unit_matrix
from wachkit.wach import solve_wach, verify_wach_axioms


def closed_form_pi0_p3(ctx):
    order = ctx.profile.M_pi
    one_plus = make_series(PI, [1, 1] + [0] * (order - 2), 3, ctx.N)
    return series_multiply(
        series_pow(x_series(PI, 3, ctx.N, order), 2), series_invert_unit(one_plus)
    )


class TestBootstrapAnchors:
    def test_pi0_closed_form_p3(self, ctx3):
        assert user_window(ctx3).pi0_in_pi == closed_form_pi0_p3(ctx3)

    def test_u_is_one_p3(self, ctx3):
        u = user_window(ctx3).u
        assert u == constant_series(PI0, 1, 3, 16, u.order)

    def test_q(self, contexts):
        for p, ctx in contexts.items():
            assert ctx.q.coeffs == (p, 1) + (0,) * 14

    def test_chi_validation(self):
        with pytest.raises(InvalidInput):
            build_context(5, 4, 4, chi_gamma=2)  # not 1 mod p
        with pytest.raises(InvalidInput):
            build_context(5, 4, 4, chi_gamma=26)  # 1 mod p^2

    @pytest.mark.parametrize(
        "call, args",
        [
            (build_context, (3, 16, 16, "x")),
            (get_context, (3, 16, 16, "x")),
            (build_context, (3, "a")),
            (build_context, (3, 16, 16, 4.7)),
            (build_context, (3.0,)),
            (build_context, (3, True, 16)),
            (TruncationProfile, (3, 2.5, 3)),
            (TruncationProfile, (3, 2, 2.5)),
            (TruncationProfile, (3, 1, True)),
        ],
        ids=["chi-str", "chi-str-cached", "N-str", "chi-float", "p-float", "N-bool", "N-float", "M-float", "M-bool"],
    )
    def test_non_integer_profile_input_is_invalid(self, call, args):
        # a str used to escape as ValueError or TypeError, a float to be
        # truncated (chi = 4.7 built chi = 4) and a bool to be read as 0 or 1
        with pytest.raises(InvalidInput, match="integer"):
            call(*args)

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
            win = user_window(ctx)
            lhs = shift_multiply(
                series_multiply(win.u, series_pow(ctx.q, p - 1)), 1
            ).truncate(16)
            assert lhs.coeffs == win.phi_pi0.coeffs[:16]

    def test_gamma_q_factorization(self, contexts):
        for p, ctx in contexts.items():
            win = user_window(ctx)
            gamma_q = series_add(
                constant_series(PI0, p, p, 16, 16), win.gamma_pi0
            )
            assert series_multiply(win.v_gamma, ctx.q).coeffs == gamma_q.coeffs[:16]

    def test_units_normalized(self, contexts):
        for p, ctx in contexts.items():
            win = user_window(ctx)
            assert win.u.coeffs[0] % p != 0
            assert win.v_gamma.coeffs[0] == 1

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
            series_sub(next(binomial_powers([e], p, ctx.N, w.M_pi)), one) for e in (p, ctx.chi_gamma)
        )
        for image, op_pi in ((w.phi_pi0, phi_pi), (w.gamma_pi0, gamma_pi)):
            composed = Substitution(op_pi).apply(w.pi0_in_pi)
            pure = _in_s0(composed, pi0_sub, w.M_pi0)
            assert pure == image
            assert pi0_sub.apply(image, earned) == composed.truncate(earned)

    def test_images_vanish_mod_pi0(self, contexts):
        for ctx in contexts.values():
            win = user_window(ctx)
            assert win.phi_pi0.coeffs[0] == 0
            assert win.gamma_pi0.coeffs[0] == 0


class TestOperators:
    def test_phi_gamma_commute_on_pi0(self, contexts):
        for ctx in contexts.values():
            win = user_window(ctx)
            a = apply_operator(ctx, PHI, win.gamma_pi0)
            b = apply_operator(ctx, GAMMA, win.phi_pi0)
            assert a == b

    def test_phi_of_q(self, ctx3):
        lhs = apply_operator(ctx3, PHI, ctx3.q)
        rhs = series_add(constant_series(PI0, 3, 3, 16, 16), user_window(ctx3).phi_pi0)
        assert lhs == rhs

    def test_variable_guard(self, ctx3):
        with pytest.raises(VariableMismatch):
            apply_operator(ctx3, PHI, x_series(PI, 3, 16, 8))
        with pytest.raises(VariableMismatch):
            apply_operator(ctx3, torsion(1), x_series(PI0, 3, 16, 8))

    def test_operator_errors_are_typed(self, ctx3):
        # p = 3: torsion indices lie in [1, 2]; the projectors are test
        # oracles, so "projector" is an unknown kind
        f = x_series(PI, 3, 16, 8)
        for tag in (torsion(0), torsion(3), OperatorTag("projector"), OperatorTag("frobenius")):
            with pytest.raises(InvalidInput):
                apply_operator(ctx3, tag, f)

    def test_projector_fixes_invariants(self, contexts):
        for ctx in contexts.values():
            pi0_in_pi = user_window(ctx).pi0_in_pi
            assert projector(ctx, 0, pi0_in_pi) == pi0_in_pi

    def test_projector_kills_constants(self, contexts):
        for ctx in contexts.values():
            one = constant_series(PI, 1, ctx.p, ctx.N, 12)
            assert projector(ctx, 1, one).is_zero()
            assert projector(ctx, 0, one) == one

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
                assert projector(ctx, i, c) == c
                other = (i + 1) % (ctx.p - 1)
                assert projector(ctx, other, c).is_zero()
            assert total == f

    def test_decompose_eigenspaces(self, ctx5):
        # torsion generator acts on component i by omega_a^i
        rng = random.Random(23)
        ctx = ctx5
        f = make_series(PI, [rng.randrange(ctx.pn) for _ in range(ctx.profile.M_pi)], 5, 16)
        comps = decompose_gamma_f(ctx, f)
        a = primitive_root(ctx.p)
        omega = user_window(ctx).teich[a - 1]
        for i, c in enumerate(comps):
            image = apply_operator(ctx, torsion(a), c)
            assert image == series_scale(c, pow(omega, i, ctx.pn))

    def test_decompose_of_invariant(self, ctx3):
        pi0_in_pi = user_window(ctx3).pi0_in_pi
        comps = decompose_gamma_f(ctx3, pi0_in_pi)
        assert comps[0] == pi0_in_pi
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
            win = user_window(ctx)
            gamma_q = series_add(constant_series(PI0, p, p, 16, 16), win.gamma_pi0)
            assert series_multiply(win.v_gamma, ctx.q).coeffs == gamma_q.coeffs[:16]
            assert win.v_gamma.coeffs[0] == 1
            a = apply_operator(ctx, PHI, win.gamma_pi0)
            b = apply_operator(ctx, GAMMA, win.phi_pi0)
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
