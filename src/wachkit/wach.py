"""Construction of the (phi, Gamma)-module matrices from Fontaine-Laffaille data.

Given a rank-d datum (weights r_j, matrix A), the phi-action matrix is
C = A*Q with Q = diag(q^(r_j)) and q = p + pi0.  The Gamma-generator matrix
G is the unique G = Id mod pi0 with C*phi(G) = G*gamma(C): the lift of the
identity (lift_identity, which has the derivation, the orders and the
certificate) with C2 = C and C1 = gamma(C).  As gamma(C) = A*Q*diag(v^(r_j))
with v = gamma(q)/q, writing G = Id + pi0*X the equation is

    X = A*(K + Y)*A^(-1),   K = diag((v^(-r_j) - 1)/pi0),
    Y_ij = q^(r_i)*v^(-r_j) * phi(pi0*X_ij)/(pi0*q^(r_j)),

so L = A, R = A^(-1) and one factor (i, q^(r_i)*v^(-r_j)) per entry.  The
iteration starts at G = Id (or at a given guess) and stops when two
successive iterates agree on the user window; the default budget is
M_pi0 + 4 steps, and exceeding it raises NoConvergence rather than looping.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .cyclo import CycloContext
from .errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    SingularBasis,
    SingularModP,
    ValidationFailed,
    WeightOverflow,
)
from .flmod import FLModule, LatticeSub, require_valid
from .padic import PMatrix, matrix_inverse_mod, pval
from .series import SeriesMat, TruncSeries, cut_table, q_powers, weierstrass_divide_q_power


# ---------------------------------------------------------------------------
# the module object and its constructors


@dataclass(frozen=True)
class WachModule:
    """Solved module: phi-matrix C, gamma-matrix G, both at the user window."""

    ctx: CycloContext
    weights: tuple[int, ...]
    C: SeriesMat
    G: SeriesMat
    source: FLModule | None = None
    iterations_used: int = 0

    @property
    def rank(self) -> int:
        return len(self.weights)


def phi_matrix(A: PMatrix, weights: tuple[int, ...], q: TruncSeries) -> SeriesMat:
    """A*diag(q^(r_j)) at q's order."""
    qpow = q_powers(q, max(weights, default=0))
    pn = q.pn
    return SeriesMat._trusted(q.p, q.N, [
        [[A.at(i, j) * c % pn for c in qpow[r].coeffs] for j, r in enumerate(weights)]
        for i in range(A.rows)
    ])


def build_phi_matrix(m: FLModule, ctx: CycloContext) -> SeriesMat:
    """C = A*diag(q^(r_j)) at the user window; entries are exact polynomials."""
    require_valid(m)
    if (m.p, m.N) != (ctx.p, ctx.N):
        raise ValidationFailed("module and context moduli differ")
    return phi_matrix(m.A, m.weights, ctx.q)


def solve_gamma_matrix(
    C: SeriesMat,
    weights: tuple[int, ...],
    A: PMatrix,
    ctx: CycloContext,
    max_iter: int | None = None,
    initial_guess: SeriesMat | None = None,
) -> tuple[SeriesMat, int]:
    """Fixed-point solve for the Gamma-generator matrix G.

    Returns (G at the user window, iterations used).  C and initial_guess
    are d x d nested sequences of pi0-series over the context.  G is the
    lift of the identity with C2 = C and C1 = gamma(C) (see lift_identity
    and the module docstring); it is certified to satisfy
    C*phi(G) = G*gamma(C) on the user window before it is returned.
    """
    p, N, pn = ctx.p, ctx.N, ctx.pn
    d = len(weights)
    if any(r < 0 or r > p - 2 for r in weights):
        raise ValidationFailed("weights must lie in [0, p-2]")
    if d == 0:
        raise InvalidInput("a module of rank 0 has no matrices to solve for")
    if A.rows != d or A.cols != d:
        raise InvalidInput("A has the wrong shape")
    if (A.p, A.N) != (p, N):
        raise ValidationFailed("A and context moduli differ")
    M = ctx.profile.M_pi0
    if max_iter is None:
        max_iter = M + 4

    C = SeriesMat(C, p, N)
    if len(C) != d:
        raise InvalidInput("C has the wrong shape")
    m = M - 1
    X = [[[0] * m for _ in range(d)] for _ in range(d)]
    if initial_guess is not None:
        guess = SeriesMat(initial_guess, p, N)
        if len(guess) != d:
            raise InvalidInput("initial guess has the wrong shape")
        if non_identity_entry(guess) is not None:
            raise InvalidInput("initial guess must be Id mod pi0")
        X = [[list(e[1:]) for e in row] for row in guess.pad(M).rows]

    # v^(-r) at order M, for K = (v^(-r) - 1)/pi0 and the factors q^(r_i)*v^(-r_j)
    vpow = [[1] + [0] * m]
    for _ in range(max(weights)):
        vpow.append(kernels.series_mul(vpow[-1], ctx.work.v_gamma_inv.coeffs, pn, M))
    qpow = q_powers(ctx.work.q, max(weights))
    factor = {
        (ri, rj): kernels.series_mul(qpow[ri].coeffs, vpow[rj], pn, m)
        for ri in set(weights)
        for rj in set(weights)
    }
    factors = [[[(i, factor[ri, rj])] for rj in weights] for i, ri in enumerate(weights)]
    zero = [0] * m
    K = [[vpow[r][1:] if i == j else zero for j in range(d)] for i, r in enumerate(weights)]
    L = A.to_lists()
    R = matrix_inverse_mod(A).to_lists()
    gamma_C = C.substitute(ctx.gamma_sub, M)
    return lift_identity(L, K, factors, R, C, gamma_C, weights, ctx, max_iter, X)


def lift_identity(
    L: list,
    K: list,
    factors: list,
    R: list,
    C2: SeriesMat,
    C1: SeriesMat,
    weights: tuple[int, ...],
    ctx: CycloContext,
    max_iter: int,
    X: list,
) -> tuple[SeriesMat, int]:
    """The unique F = Id mod pi0 with C2*phi(F) = F*C1, and the steps taken.

    Both fixed-point solves lift an identity morphism, which is unique by
    full faithfulness (Berger, "Limites de representations cristallines",
    Compositio 140, 2004): the Gamma-matrix G (C2 = C, C1 = gamma(C)) and
    the normalizing base change P (C2 = C', C1 = A*Q).  Writing
    F = Id + pi0*X, each caller rearranges its equation into

        X  <-  L*(K + Y)*R,
        Y_ij = sum over (k, f) in factors[i][j] of f * phi(pi0*X_kj)/(pi0*q^(r_j)),

    with scalar matrices L and R, a series matrix K, and r_j the weight of
    column j.  As phi(pi0) = u*pi0*q^(p-1),

        phi(pi0*X_kj)/(pi0*q^r) = sum_t X_kj[t] * Q_(t+1)^(r),

    over the context's table of exact quotients
    Q_k^(r) = phi(pi0)^k/(pi0*q^r) (Substitution.quotients), divided once
    per context with its exactness checked; so a step is one
    kernels.AffineMap call, with no composition, series product or
    division.  Q_(t+1)^(r) = u^(t+1)*pi0^t*q^((p-1)(t+1)-r), and the power
    of q is positive for weights <= p-2: successive differences contract
    strictly in the (p, pi0)-adic filtration, the weighted valuation
    min_k (k + v_p(coeff_k)) growing by at least one per step.

    Orders.  X, the start given by the caller, is kept at m = M_pi0 - 1, the
    coefficients F reads on the user window.  Q_(t+1)^(r) has valuation t,
    so coefficient k of a step reads X's coefficients t <= k only: the
    window is closed under the step, and a repeated window is the
    truncation of the fixed point.  Every table is divided at u's order n;
    its canonical division disturbs only coefficients from n - r - N on,
    so below m it is the series above when n >= m + N + r, which holds at
    every profile (n - m - N = p + 3) and is asserted.  Exceeding max_iter
    steps raises NoConvergence.  The result is certified with == on the
    user window (AxiomViolation otherwise).
    """
    p, N = ctx.p, ctx.N
    m = ctx.profile.M_pi0 - 1
    n = ctx.work.u.order
    if n < m + N + max(weights):
        raise AssertionError("quotient table too short for the solve window")
    bases = {r: cut_table(ctx.phi_sub.quotients(n, r), m)[1:] for r in set(weights)}
    terms = [
        [[(k, f, bases[r]) for k, f in fs] for fs, r in zip(row, weights)] for row in factors
    ]
    step = kernels.AffineMap(L, R, K, terms, ctx.pn, m)
    window, iterations = iterate_to_window(step, X, m, max_iter)
    F = SeriesMat._trusted(p, N, [
        [(int(i == j),) + tuple(e) for j, e in enumerate(row)] for i, row in enumerate(window)
    ])
    if residual_entry(C2, F, C1, ctx) is not None:
        raise AxiomViolation("fixed-point residual is nonzero at the user window")
    return F, iterations


def iterate_to_window(step, X: list, window: int, max_iter: int) -> tuple[list, int]:
    """Apply step to X until two successive iterates agree on the window.

    X and the iterates are matrices of coefficient lists.  Returns (the
    last iterate cut to its first `window` coefficients, steps taken), and
    raises NoConvergence when max_iter steps do not get there.
    """
    prev = [[e[:window] for e in row] for row in X]
    for iterations in range(1, max_iter + 1):
        X = step(X)
        cur = [[e[:window] for e in row] for row in X]
        if cur == prev:
            return cur, iterations
        prev = cur
    raise NoConvergence(f"no stabilization within {max_iter} iterations")


def non_identity_entry(G: SeriesMat) -> tuple[int, int] | None:
    """The first entry (i, j) at which G differs from Id mod pi0, or None."""
    return next(
        (
            (i, j)
            for i, row in enumerate(G.constant_terms())
            for j, c in enumerate(row)
            if c != int(i == j)
        ),
        None,
    )


def residual_entry(
    L: SeriesMat, Y: SeriesMat, R: SeriesMat, ctx: CycloContext
) -> tuple[int, int] | None:
    """The first entry (i, j) at which L*phi(Y) and Y*R differ, or None.

    phi(Y) is taken at most at the user window, and a product is no longer
    than its operands, so for Y at the window the two sides are compared on
    exactly the window.
    """
    lhs = L @ Y.substitute(ctx.phi_sub, ctx.profile.M_pi0)
    rhs = Y @ R
    n = min(lhs.order, rhs.order)
    return next(
        (
            (i, j)
            for i, (lrow, rrow) in enumerate(zip(lhs.rows, rhs.rows))
            if lrow != rrow
            for j, (a, b) in enumerate(zip(lrow, rrow))
            if a[:n] != b[:n]
        ),
        None,
    )


def commutation_entry(C: SeriesMat, G: SeriesMat, ctx: CycloContext) -> tuple[int, int] | None:
    """The first entry at which C*phi(G) - G*gamma(C) is nonzero on the user window."""
    return residual_entry(C, G, C.substitute(ctx.gamma_sub, ctx.profile.M_pi0), ctx)


def solve_wach(m: FLModule, ctx: CycloContext, max_iter: int | None = None) -> WachModule:
    """Full construction: phi-matrix plus solved gamma-matrix."""
    C = build_phi_matrix(m, ctx)
    G, used = solve_gamma_matrix(C, m.weights, m.A, ctx, max_iter=max_iter)
    return WachModule(
        ctx=ctx, weights=m.weights, C=C, G=G, source=m, iterations_used=used
    )


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)


def verify_wach_axioms(w: WachModule) -> AxiomReport:
    """Check the three structural axioms, reporting each as pass/fail.

    1. commutation C*phi(G) = G*gamma(C),
    2. G = Id mod pi0,
    3. det(C) = unit * q^(sum of weights).

    Invariance under the torsion subgroup is not checked: C and G are
    pi0-series, and pi0 is torsion-invariant, so every entry is invariant by
    construction.
    """
    checks: list[CheckResult] = []

    bad = commutation_entry(w.C, w.G, w.ctx)
    checks.append(
        CheckResult(
            "commutation",
            bad is None,
            "" if bad is None else f"nonzero residual at entry {bad}",
        )
    )

    bad = non_identity_entry(w.G)
    checks.append(
        CheckResult(
            "gamma_trivial_mod_pi0",
            bad is None,
            "" if bad is None else f"G mod pi0 differs from Id at entry {bad}",
        )
    )

    total = sum(w.weights)
    det = w.C.det()
    if total > det.order:
        checks.append(
            CheckResult("det_q_height", False, f"window too small for q^{total}")
        )
    else:
        quot, rem = weierstrass_divide_q_power(det, total)
        ok = not any(rem) and quot.is_unit()
        detail = "" if ok else (
            f"remainder {rem}" if any(rem) else "quotient is not a unit"
        )
        checks.append(CheckResult("det_q_height", ok, detail))

    return AxiomReport(tuple(checks))


def tensor_wach(w1: WachModule, w2: WachModule) -> WachModule:
    """Kronecker product module (lexicographic basis order), axioms re-verified.

    Raises WeightOverflow if a weight r + s exceeds p - 2, as tensor_fl does.
    """
    if w1.ctx is not w2.ctx and (
        w1.ctx.profile != w2.ctx.profile or w1.ctx.chi_gamma != w2.ctx.chi_gamma
    ):
        raise InvalidInput("tensor of modules over different contexts")
    weights = tuple(r + s for r in w1.weights for s in w2.weights)
    p = w1.ctx.p
    if max(weights) > p - 2:  # as tensor_fl: the artifact must load again
        raise WeightOverflow(f"weight {max(weights)} exceeds p-2 = {p - 2}")
    out = WachModule(
        ctx=w1.ctx,
        weights=weights,
        C=w1.C.kron(w2.C),
        G=w1.G.kron(w2.G),
        source=None,
        iterations_used=max(w1.iterations_used, w2.iterations_used),
    )
    report = verify_wach_axioms(out)
    if not report.ok:
        raise AxiomViolation(f"tensor product fails axioms: {report.failed()}")
    return out


def direct_sum_wach(w1: WachModule, w2: WachModule) -> WachModule:
    """Block-diagonal sum in the concatenated basis order."""
    if w1.ctx is not w2.ctx and (
        w1.ctx.profile != w2.ctx.profile or w1.ctx.chi_gamma != w2.ctx.chi_gamma
    ):
        raise InvalidInput("sum of modules over different contexts")
    return WachModule(
        ctx=w1.ctx,
        weights=w1.weights + w2.weights,
        C=w1.C.block_diag(w2.C),
        G=w1.G.block_diag(w2.G),
        source=None,
        iterations_used=max(w1.iterations_used, w2.iterations_used),
    )


# ---------------------------------------------------------------------------
# sub-lattice stability


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    violations: tuple[str, ...]


def check_lattice_stability(w: WachModule, L: LatticeSub) -> StabilityReport:
    """Does the Gamma-action preserve the sub-lattice spanned by p^(a_i) F_i?

    Writes X = F^(-1) G F; the image of generator j decomposes along the
    F-basis with coefficients X_{ij} p^(alpha_j), so stability is the
    coefficient-wise divisibility by p^(alpha_i) on included rows and exact
    vanishing on omitted rows.
    """
    if L.ambient_rank != w.rank:
        raise InvalidInput("lattice ambient rank differs from the module rank")
    if (L.F.p, L.F.N) != (w.ctx.p, w.ctx.N):
        raise ValidationFailed("lattice and module moduli differ")
    try:
        Finv = matrix_inverse_mod(L.F)
    except SingularModP as exc:
        raise SingularBasis(str(exc)) from exc
    X = w.G.sandwich(Finv, L.F).rows
    p, N = w.ctx.p, w.ctx.N
    violations: list[str] = []
    for j in L.included():
        aj = L.exponents[j]
        for i in range(w.rank):
            entry = X[i][j]
            ai = L.exponents[i]
            if ai is None:
                if any((c * p**aj) % p**N for c in entry):
                    violations.append(
                        f"column {j}: row {i} is omitted but X[{i}][{j}]*p^{aj} != 0"
                    )
            else:
                need = min(ai, N)
                for k, c in enumerate(entry):
                    if (pval(c, p, N) + aj) < need:
                        violations.append(
                            f"column {j}: coefficient pi0^{k} of row {i} not divisible "
                            f"by p^{ai - aj}"
                        )
                        break
    return StabilityReport(stable=not violations, violations=tuple(violations))
