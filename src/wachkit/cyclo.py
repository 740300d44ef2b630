"""Bootstrap and application of the cyclotomic operators.

A :class:`CycloContext` packages, for one truncation profile and one choice
of Gamma-generator character value chi(gamma), the distinguished data:

* pi0_in_pi: the invariant coordinate -p + 1 + sum_a (1+pi)^(omega_a) over the
  Teichmueller exponents omega_a (NOT the integer exponents 0..p-1 - only the
  Teichmueller sum is fixed by the torsion substitutions),
* the images phi(pi0), gamma(pi0) in pi0-coordinates,
* q = p + pi0 and the unit certificates u = phi(pi0)/(pi0 q^(p-1)) and
  v_gamma = gamma(q)/q, with v_gamma(0) = 1 (kept as its inverse).

Everything is computed, and kept on ``ctx.work``, at the guard order
M_pi0 + N + 2p + 2: the canonical quotient of a Weierstrass division carries
noise in its top coefficients, and the guard keeps every coefficient in the
user window exact (see the valuation argument of guard_order).  ``ctx.work``
also holds the torsion images (1+pi)^(omega_a) - 1.  The solvers read these
guard-order twins; the context exposes only q at the user profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInput, NotInS0, VariableMismatch
from .padic import teichmueller_lift
from .series import (
    PI,
    PI0,
    Cache,
    Substitution,
    TruncationProfile,
    TruncSeries,
    _ceil_log,
    binomial_powers,
    constant_series,
    default_pi_order,
    pi0_coordinates,
    series_add,
    series_invert_unit,
    series_sub,
    shift_divide_exact,
    weierstrass_divide_exact,
)


@dataclass(frozen=True)
class OperatorTag:
    """Which semilinear operator to apply: phi, gamma or torsion(a), a = index."""

    kind: str
    index: int = 0

    PHI = "phi"
    GAMMA = "gamma"
    TORSION = "torsion"


@dataclass(frozen=True)
class CycloWork:
    """Guard-order twins of the context series, for the exact solvers."""

    M_pi0: int
    M_pi: int
    pi0_in_pi: TruncSeries
    torsion_pi: tuple[TruncSeries, ...]
    phi_pi0: TruncSeries
    gamma_pi0: TruncSeries
    q: TruncSeries
    u: TruncSeries
    v_gamma_inv: TruncSeries


@dataclass(frozen=True)
class CycloContext:
    """Immutable bootstrap data for one (profile, chi(gamma)) choice."""

    profile: TruncationProfile
    chi_gamma: int
    work: CycloWork
    # substitutions of the guard-order images phi(pi0), gamma(pi0) and each
    # torsion image; their power tables are a cache, so they take no part in
    # equality or repr
    phi_sub: Substitution = field(compare=False, repr=False)
    gamma_sub: Substitution = field(compare=False, repr=False)
    torsion_subs: tuple[Substitution, ...] = field(compare=False, repr=False)
    # the Gamma-solve's plans, per weight tuple (wach.gamma_plan): a cache
    plans: Cache = field(compare=False, repr=False)

    @property
    def p(self) -> int:
        return self.profile.p

    @property
    def N(self) -> int:
        return self.profile.N

    @property
    def pn(self) -> int:
        return self.profile.pn

    @property
    def q(self) -> TruncSeries:
        """q = p + pi0 at the user window."""
        return self.work.q.truncate(self.profile.M_pi0)


# Gamma-solve plans kept per context.  A plan holds T packed products per
# pair of distinct weights (T <= M_pi0), so the cap bounds memory when many
# weight tuples are solved over one context; the benchmark's build table
# solves at most four tuples per context.
_PLANS_KEPT = 8


def guard_order(p: int, N: int, M_pi0: int) -> int:
    """Internal working order.

    Quotients of monic division carry noise above the input's valid order;
    the worst pipeline (the unit u, valid to guard-p, feeding a p-1-deep
    division stack) leaves noise of weighted valuation >= guard - 2p + 2,
    and a user-window monomial has weighted valuation at most N + M_pi0 - 2,
    so this choice keeps every emitted window coefficient exact with margin.
    """
    return M_pi0 + N + 2 * p + 2


def check_profile(p: int, N: int, M_pi0: int, chi_gamma: int | None) -> tuple[TruncationProfile, int]:
    """The profile and chi(gamma) of a context, checked before any bootstrap (InvalidInput)."""
    profile = TruncationProfile(p, N, M_pi0)  # checks p first
    chi = (1 + p) if chi_gamma is None else chi_gamma
    if type(chi) is not int:  # a float would be truncated, a str or bool misread
        raise InvalidInput(f"chi(gamma) must be an integer, got {chi!r}")
    if (chi - 1) % p != 0:
        raise InvalidInput("chi(gamma) must be congruent to 1 mod p")
    if (chi - 1) % (p * p) == 0:
        raise InvalidInput("chi(gamma) must not be 1 mod p^2 (needs a topological generator)")
    return profile, chi


def _in_s0(f: TruncSeries, pi0_in_pi: Substitution, out_order: int) -> TruncSeries:
    """The pi0-series f_0 with f = f_0(pi0); NotInS0 if f has a pi^j part, j >= 1."""
    f0, *rest = pi0_coordinates(f, pi0_in_pi, out_order)
    for j, part in enumerate(rest, start=1):
        if not part.is_zero():
            raise NotInS0(f"component at pi^{j} is nonzero")
    return f0


def build_context(
    p: int,
    N: int = 16,
    M_pi0: int = 16,
    chi_gamma: int | None = None,
) -> CycloContext:
    """Construct the cyclotomic bootstrap data for an odd prime p.

    chi_gamma is an exact integer representative of the cyclotomic character
    of the chosen Gamma_0-generator (default 1 + p).
    """
    profile, chi = check_profile(p, N, M_pi0, chi_gamma)

    mw = guard_order(p, N, M_pi0)
    mpw = default_pi_order(p, mw)

    # Teichmueller exponents at enough precision for order-mpw binomials
    K = N + _ceil_log(p, mpw)
    teich_K = tuple(teichmueller_lift(a, p, K) for a in range(1, p))

    # pi0 = -p + 1 + sum_a (1+pi)^(omega_a).  phi and gamma send 1+pi to
    # (1+pi)^p and (1+pi)^chi, so their images of pi0 are the same sum over
    # the exponents p*omega_a and chi*omega_a: the closed form of composing
    # pi0_in_pi with phi(pi) and gamma(pi), exact for integer exponents.
    # Below order mpw the binomials mod p^N depend only on the exponent mod
    # p^K, so chi*omega_a is taken mod p^K: a negative chi is a valid
    # generator (chi = 1 - p at p = 3 is -2).
    one = constant_series(PI, 1, p, N, mpw)
    pi0_in_pi_w = constant_series(PI, 1 - p, p, N, mpw)
    phi_pi0_in_pi = gamma_pi0_in_pi = pi0_in_pi_w
    torsion_w = []
    # one batch shares the binomials' denominators and forms each series as
    # it is read, here three at a time: omega_a, p*omega_a, chi*omega_a
    exponents = [e for omega in teich_K for e in (omega, p * omega.value, chi * omega.value % p**K)]
    series = binomial_powers(exponents, p, N, mpw)
    for pw, phi_pw, gamma_pw in zip(series, series, series):
        pi0_in_pi_w = series_add(pi0_in_pi_w, pw)
        torsion_w.append(series_sub(pw, one))
        phi_pi0_in_pi = series_add(phi_pi0_in_pi, phi_pw)
        gamma_pi0_in_pi = series_add(gamma_pi0_in_pi, gamma_pw)
    if pi0_in_pi_w.constant_term() != 0:
        raise AssertionError("pi0 bootstrap: nonzero constant term")
    if any(pi0_in_pi_w.coeffs[1 : p - 1]):
        raise AssertionError("pi0 bootstrap: expected exact valuation p-1")
    if pi0_in_pi_w.coeff(p - 1) % p == 0:
        raise AssertionError("pi0 bootstrap: leading coefficient not a unit")

    # images of pi0 back to pi0-coordinates; _in_s0 doubles as the
    # Gamma_f-invariance assertion.  Both read the powers of pi0(pi) from one
    # table, built here and dropped with it: no later operation asks for this
    # order, and the context keeps only the tables its callers use.
    powers_of_pi0 = Substitution(pi0_in_pi_w)
    phi_pi0_w = _in_s0(phi_pi0_in_pi, powers_of_pi0, mw)
    gamma_pi0_w = _in_s0(gamma_pi0_in_pi, powers_of_pi0, mw)
    if phi_pi0_w.constant_term() != 0 or gamma_pi0_w.constant_term() != 0:
        raise AssertionError("phi/gamma must preserve the maximal ideal")

    q_w = TruncSeries(PI0, p, N, (p, 1) + (0,) * (mw - 2))

    # u = phi(pi0) / (pi0 * q^(p-1)), division-free fixpoint certificates
    u_w = weierstrass_divide_exact(shift_divide_exact(phi_pi0_w, 1), p - 1)
    if u_w.coeff(0) % p == 0:
        raise AssertionError("u is not a unit")

    gamma_q_w = series_add(
        constant_series(PI0, p, p, N, mw), gamma_pi0_w
    )  # gamma(q) = p + gamma(pi0)
    v_w = weierstrass_divide_exact(gamma_q_w, 1)
    if v_w.coeff(0) != 1:
        raise AssertionError("v_gamma(0) must be exactly 1")
    v_inv_w = series_invert_unit(v_w)

    work = CycloWork(
        M_pi0=mw,
        M_pi=mpw,
        pi0_in_pi=pi0_in_pi_w,
        torsion_pi=tuple(torsion_w),
        phi_pi0=phi_pi0_w,
        gamma_pi0=gamma_pi0_w,
        q=q_w,
        u=u_w,
        v_gamma_inv=v_inv_w,
    )

    return CycloContext(
        profile=profile,
        chi_gamma=chi,
        work=work,
        phi_sub=Substitution(phi_pi0_w),
        gamma_sub=Substitution(gamma_pi0_w),
        torsion_subs=tuple(Substitution(t) for t in torsion_w),
        plans=Cache(_PLANS_KEPT),
    )


_CONTEXT_CACHE: dict[tuple[int, int, int, int], CycloContext] = {}


def get_context(
    p: int, N: int = 16, M_pi0: int = 16, chi_gamma: int | None = None
) -> CycloContext:
    """Memoized build_context; contexts are immutable and shareable."""
    _, chi = check_profile(p, N, M_pi0, chi_gamma)
    key = (p, N, M_pi0, chi)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = build_context(p, N, M_pi0, chi)
        _CONTEXT_CACHE[key] = ctx
    return ctx


def apply_operator(ctx: CycloContext, tag: OperatorTag, f: TruncSeries) -> TruncSeries:
    """Apply phi, gamma or a torsion substitution.

    phi and gamma act on pi0-series (substitution of the stored image of
    pi0); torsion acts on pi-series.  Coefficients are fixed by the operators
    (the residue field is F_p), so the action is substitution in the variable
    only.
    """
    kind = tag.kind
    if kind in (OperatorTag.PHI, OperatorTag.GAMMA):
        if f.var != PI0:
            raise VariableMismatch("phi/gamma act on pi0-series")
        return (ctx.phi_sub if kind == OperatorTag.PHI else ctx.gamma_sub).apply(f)
    if kind == OperatorTag.TORSION:
        if f.var != PI:
            raise VariableMismatch("torsion substitutions act on pi-series")
        a = tag.index
        if not 1 <= a <= ctx.p - 1:
            raise InvalidInput(f"torsion index {a} outside [1, p-1]")
        return ctx.torsion_subs[a - 1].apply(f)
    raise InvalidInput(f"unknown operator kind {kind!r}")
