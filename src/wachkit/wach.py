"""Construction of the (phi, Gamma)-module matrices from Fontaine-Laffaille data.

Given a rank-d datum (weights r_j, matrix A), the phi-action matrix is
C = A*Q with Q = diag(q^(r_j)) and q = p + pi0.  The Gamma-generator matrix
G is the unique G = Id mod pi0 with C*phi(G) = G*gamma(C): the lift of the
identity (lift_identity, which has the derivation, the orders and the
certificate) with C2 = C and C1 = gamma(C).  As gamma(C) = A*Q*diag(v^(r_j))
with v = gamma(q)/q, writing G = Id + pi0*X the equation is

    X = A*(K + Y)*A^(-1),   K = diag((v^(-r_j) - 1)/pi0),
    Y_ij = q^(r_i)*v^(-r_j) * phi(pi0*X_ij)/(pi0*q^(r_j)),

so L = A, the right factor A^(-1), and one factor (i, q^(r_i)*v^(-r_j))
per entry.  Only the scalars read A: the rest of the step (K, the factors and their packed
products with the quotient tables) is the plan of gamma_plan, built on the
first solve of a weight tuple and kept on the context.  The iteration
starts at G = Id and stops when two successive iterates agree on the user
window, which lift_identity proves happens within N + M_pi0 - 1 steps for
every input (31 at the default profile).  That bound is the only budget;
a solve that exceeds it raises NoConvergence, a fault of wachkit rather
than of its input.

A is a unit mod p exactly when it inverts, and the lift needs A^(-1), so
solve_gamma_matrix's one inversion of A is the unit check; build_phi_matrix
checks only the weights, and lift_identity re-checks nothing its callers decided.

One certificate checks a lift: commutation_residual compares
C2*phi(F) with F*C1 on the user window, with ==, and names the first entry
that differs; the solvers run it on their result (lift_identity).  Each
side is one packed sum per entry (kernels.commutation_sides): phi(F), and
gamma(C) where C1 = gamma(C2), are formed over the images' packed power
tables and never unpacked, so no substitution, series product or
intermediate matrix is built.  verify_wach_axioms instead recomputes an
artifact with build's own code, phi_matrix and the Gamma-step: G is unique
by full faithfulness, so == on the window decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
from .series import SeriesMat, TruncSeries, cut_table, q_divide_exact, q_powers


# ---------------------------------------------------------------------------
# the module object and its constructors


@dataclass(frozen=True)
class WachModule:
    """Solved module: phi-matrix C, gamma-matrix G, both at the user window."""

    ctx: CycloContext
    weights: tuple[int, ...]
    C: SeriesMat
    G: SeriesMat
    iterations_used: int = 0

    @property
    def rank(self) -> int:
        return len(self.weights)


def phi_matrix(A: PMatrix, weights: tuple[int, ...], q: TruncSeries) -> SeriesMat:
    """A*diag(q^(r_j)) at q's order.

    q^r = (p + pi0)^r has r + 1 coefficients, so entry (i, j) multiplies
    A_ij into the first r_j + 1 coefficients of q^(r_j), cut at the order,
    and pads the rest with zeros.
    """
    qpow = q_powers(q, max(weights, default=0))
    n, pn = q.order, q.pn
    heads = [qpow[r].coeffs[: r + 1] for r in weights]
    pads = [(0,) * (n - len(h)) for h in heads]
    return SeriesMat._trusted(q.p, q.N, [
        [tuple([a * c % pn for c in h]) + z for a, h, z in zip(A.row(i), heads, pads)]
        for i in range(A.rows)
    ])


def build_phi_matrix(m: FLModule, ctx: CycloContext) -> SeriesMat:
    """C = A*diag(q^(r_j)) at the user window; entries are exact polynomials.

    Only the weights are checked here: a weight outside [0, p-2] raises
    ValidationFailed with validate_fl's full list of failures.  Forming A*Q
    needs no inverse, so A is not checked, and a singular A gives its A*Q;
    solve_gamma_matrix's inversion of A is the unit check of solve_wach.
    """
    if any(not 0 <= r <= m.p - 2 for r in m.weights):
        require_valid(m)
    if (m.p, m.N) != (ctx.p, ctx.N):
        raise ValidationFailed("module and context moduli differ")
    return phi_matrix(m.A, m.weights, ctx.q)


def solve_gamma_matrix(
    C: SeriesMat,
    weights: tuple[int, ...],
    A: PMatrix,
    ctx: CycloContext,
) -> tuple[SeriesMat, int]:
    """Fixed-point solve for the Gamma-generator matrix G.

    Returns (G at the user window, iterations used).  C is a d x d nested
    sequence of pi0-series over the context.  G is the lift of the identity
    with C2 = C and C1 = gamma(C) (see lift_identity and the module
    docstring), reached from G = Id within lift_identity's proved bound; it
    is certified to satisfy C*phi(G) = G*gamma(C) on the user window before
    it is returned.  A SeriesMat over the context's (p, N) is taken as it
    is, and gamma(C) is formed only inside the certificate.  A is inverted
    once, after the other arguments are checked, and that inversion is the
    unit check: a singular A raises ValidationFailed("A is singular mod p"),
    validate_fl's wording, and not SingularModP.
    """
    p, N = ctx.p, ctx.N
    d = len(weights)
    if any(r < 0 or r > p - 2 for r in weights):
        raise ValidationFailed("weights must lie in [0, p-2]")
    if d == 0:
        raise InvalidInput("a module of rank 0 has no matrices to solve for")
    if A.rows != d or A.cols != d:
        raise InvalidInput("A has the wrong shape")
    if (A.p, A.N) != (p, N):
        raise ValidationFailed("A and context moduli differ")
    if not (isinstance(C, SeriesMat) and (C.p, C.N) == (p, N)):
        C = SeriesMat(C, p, N)
    if len(C) != d:
        raise InvalidInput("C has the wrong shape")
    try:
        Ainv = matrix_inverse_mod(A)
    except SingularModP:
        raise ValidationFailed("A is singular mod p") from None

    plan = ctx.plans.get(weights, lambda w: gamma_plan(ctx, w))
    return lift_identity(plan, A, Ainv, C, None, ctx)


def gamma_plan(ctx: CycloContext, weights: tuple[int, ...]) -> kernels.AffineMap:
    """The Gamma-solve's step without A: the fixed part of lift_identity's map.

    v^(-r), q^r, the factors q^(r_i)*v^(-r_j), K = diag((v^(-r_j) - 1)/pi0)
    and the products over the quotient bases read only the context and the
    weights, so solve_gamma_matrix builds them on the first solve of a
    weight tuple and keeps them in ctx.plans.  The slot width holds the d^2
    scalars A_ik*A^(-1)_lj an entry can sum (K is d x d), so a plan built
    for a sparse A serves a dense one.
    """
    pn, M, d = ctx.pn, ctx.profile.M_pi0, len(weights)
    m = M - 1
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
    return lift_step(K, factors, weights, ctx)


def table_order(ctx: CycloContext) -> int:
    """u's order n, at which the lift divides by q^r: its tables and offsets.

    A canonical division by q^r at order n disturbs only coefficients from
    n - r - N on, so it is exact below m = M_pi0 - 1, the coefficients the
    lift reads, when n >= m + N + r: true at every profile for r <= p + 3
    (n - m - N = p + 3).  Every caller has checked r <= p - 2, and past
    p - 1 the quotient tables raise NotDivisible on their own.
    """
    return ctx.work.u.order


def divide_columns(D: list, weights: tuple[int, ...], ctx: CycloContext) -> list:
    """D*diag(q^(-r_j)) at the table order: column j of D divided by q^(r_j), exactly (NotDivisible)."""
    p, pn = ctx.p, ctx.pn
    n = table_order(ctx)
    return [[q_divide_exact(e[:n], p, pn, r) for e, r in zip(row, weights)] for row in D]


def lift_step(K: list, factors: list, weights: tuple[int, ...], ctx: CycloContext) -> kernels.AffineMap:
    """The part of lift_identity's map that does not read L or A.

    K and factors are as in lift_identity; each factor is paired with the
    quotient basis of its column's weight, divided at the table order.  The
    slots are sized from K's shape (kernels.AffineMap).
    """
    m = ctx.profile.M_pi0 - 1
    n = table_order(ctx)
    bases = {r: cut_table(ctx.phi_sub.quotients(n, r), m)[1:] for r in set(weights)}
    terms = [
        [[(k, f, bases[r]) for k, f in fs] for fs, r in zip(row, weights)] for row in factors
    ]
    return kernels.AffineMap(K, terms, ctx.pn, m)


def lift_identity(
    fixed: kernels.AffineMap,
    L: PMatrix,
    Ainv: PMatrix,
    C2: SeriesMat,
    C1: SeriesMat | None,
    ctx: CycloContext,
) -> tuple[SeriesMat, int]:
    """The unique F = Id mod pi0 with C2*phi(F) = F*C1, and the steps taken.

    Both fixed-point solves lift an identity morphism, which is unique by
    full faithfulness (Berger, "Limites de representations cristallines",
    Compositio 140, 2004): the Gamma-matrix G (C2 = C, C1 = gamma(C),
    passed as None) and the normalizing base change P (C2 = C',
    C1 = A*Q).  Writing F = Id + pi0*X, each caller rearranges its
    equation into

        X  <-  L*(K + Y)*A^(-1),
        Y_ij = sum over (k, f) in factors[i][j] of f * phi(pi0*X_kj)/(pi0*q^(r_j)),

    with scalar matrices L and A, a series matrix K, and r_j the weight of
    column j.  The caller passes A^(-1), from the inversion that is its
    check that A is a unit; nothing here re-checks A, the weights or the
    moduli.  As phi(pi0) = u*pi0*q^(p-1),

        phi(pi0*X_kj)/(pi0*q^r) = sum_t X_kj[t] * Q_(t+1)^(r),

    over the context's table of exact quotients
    Q_k^(r) = phi(pi0)^k/(pi0*q^r) (Substitution.quotients), divided once
    per context with its exactness checked; so a step is one
    kernels.AffineMap call, with no composition, series product or
    division.

    The map comes in two parts: `fixed`, from lift_step, holds K and the
    packed products of the factors with the quotients, and L and A^(-1) are
    bound to it here.  The Gamma-solve's fixed part reads only the context
    and the weights, so it is built once per (context, weights)
    (gamma_plan); the normalization's factors are entries of its input C',
    so it builds its own on every call.

    Orders.  X is kept at m = M_pi0 - 1, the coefficients F reads on the
    user window, and starts at zero (F = Id).
    Q_(t+1)^(r) has valuation t, so coefficient k of a step reads X's
    coefficients t <= k only: the window is closed under the step, and a
    repeated iterate is the truncation of the fixed point.  The tables are
    exact below m (table_order).

    Budget.  Let w(D) = min_k (k + v_p(D[k])) over Z/p^N (v_p(0) infinite)
    and D_n = X_(n+1) - X_n.  The step is affine, so
    D_(n+1) = L*Y(D_n)*A^(-1) with Y linear, and Q_(t+1)^(r) is
    u^(t+1)*pi0^t*q^e with e = (p-1)(t+1) - r >= 1 and w(q) = 1: the term
    D_n[t]*Q_(t+1)^(r) has w >= t + v_p(D_n[t]) + 1, and the factors and
    scalars have w >= 0.  So w(D_n) >= n from any start; coefficient k < m
    of D_n has v_p >= n - k and vanishes mod p^N for n >= N + k, so D_n
    vanishes on the window for n >= N + m - 1 = N + M_pi0 - 2, and the loop
    sees two equal iterates at step N + M_pi0 - 1 at the latest (31 at the
    default profile).  The argument holds from any start and for any
    input, so that bound is the only budget, and exceeding it
    (NoConvergence) is a fault of the step, not of the input.  The result
    is certified with == on the user window by commutation_residual, the
    one packed certificate (AxiomViolation otherwise); C1 = gamma(C2) is
    formed there, packed, and never as a matrix.
    """
    p, N, M = ctx.p, ctx.N, ctx.profile.M_pi0
    X = [[[0] * (M - 1) for _ in range(Ainv.rows)] for _ in range(Ainv.rows)]
    step = fixed.bind(L.to_lists(), Ainv.to_lists())
    X, iterations = iterate_to_window(step, X, N + M - 1)  # the bound proved under Budget
    F = SeriesMat._trusted(p, N, [
        [(int(i == j),) + tuple(e) for j, e in enumerate(row)] for i, row in enumerate(X)
    ])
    if commutation_residual(C2, F, ctx, C1) is not None:
        raise AxiomViolation("fixed-point residual is nonzero at the user window")
    return F, iterations


def iterate_to_window(step, X: list, budget: int) -> tuple[list, int]:
    """Apply step to X until two successive iterates are equal.

    X and the iterates are matrices of coefficient lists at the window's
    length, which step keeps.  Returns (the last iterate, steps taken), and
    raises NoConvergence when budget steps do not get there.
    """
    for iterations in range(1, budget + 1):
        nxt = step(X)
        if nxt == X:
            return nxt, iterations
        X = nxt
    raise NoConvergence(f"no stabilization within {budget} iterations")


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


def commutation_residual(
    C2: SeriesMat, F: SeriesMat, ctx: CycloContext, C1: SeriesMat | None = None
) -> tuple[int, int] | None:
    """The first entry (i, j), row-major, at which C2*phi(F) and F*C1 differ, or None.

    C1 defaults to gamma(C2).  C2, F and C1 must be over the context's
    (p, N), as lift_identity's callers have checked.  The sides are
    compared on the user window and on no more coefficients than every
    operand carries: phi(F) and gamma(C2) are taken at most at the window,
    and a product is no longer than its operands.  Each entry of each side
    is one packed sum and one unpack (kernels.commutation_sides), over the
    power tables of phi(pi0) and gamma(pi0) packed at the certificate's
    width and kept per context.
    """
    phi, gamma = ctx.phi_sub, ctx.gamma_sub
    right = C2 if C1 is None else C1
    n = min(C2.order, F.order, right.order, ctx.profile.M_pi0, phi.image.order)
    if C1 is None:
        n = min(n, gamma.image.order)
    d, pn = len(F), ctx.pn
    width = kernels.certificate_width(pn, d, n)
    gamma_table = gamma.wide_table(n, width) if C1 is None else None
    sides = kernels.commutation_sides(
        C2.rows, F.rows, right.rows, phi.wide_table(n, width), gamma_table, width, pn, n
    )
    return next(((k // d, k % d) for k, (a, b) in enumerate(sides) if a != b), None)


def solve_wach(m: FLModule, ctx: CycloContext) -> WachModule:
    """Full construction: phi-matrix plus solved gamma-matrix."""
    C = build_phi_matrix(m, ctx)
    G, used = solve_gamma_matrix(C, m.weights, m.A, ctx)
    return WachModule(ctx=ctx, weights=m.weights, C=C, G=G, iterations_used=used)


# ---------------------------------------------------------------------------
# axioms


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    """Named pass/fail checks: the axioms of verify_wach_axioms, the stages of roundtrip_check."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)


def verify_wach_axioms(w: WachModule) -> CheckReport:
    """Decide an artifact by recomputing it, reporting three checks.

    1. phi_canonical: C = phi_matrix(A, weights, q), A a unit mod p.  The
       pi0^r coefficient of q^r = (p + pi0)^r is 1, so A_ij is coefficient
       r_j of C_ij, which the window carries only when every r_j < M_pi0;
       a larger weight fails with that detail.  A forged weight list or a
       wrong height fails here.  Before A is read, it also fails, naming
       the fault, for a weight outside [0, p-2], a weight count other than
       C's rank, a G of another rank, and a C or G that is not over the
       context's (p, N) at M_pi0 coefficients: the loader refuses such
       files, and a module built in code gets a report, not an exception.
    2. gamma_trivial_mod_pi0: G = Id mod pi0.
    3. gamma_fixed_point: X = (G - Id)/pi0, on M_pi0 - 1 coefficients, is
       a fixed point of the Gamma-step (the context's gamma_plan bound to
       A and A^(-1)).  The step has exactly one fixed point on the window
       (lift_identity's Budget), so this holds exactly when G is the G the
       solve returns.  It fails, naming the earlier check, when 1 or 2 did.

    Invariance under the torsion subgroup is not checked: C and G are
    pi0-series, and pi0 is torsion-invariant, so every entry is invariant by
    construction.
    """
    ctx, weights, M = w.ctx, w.weights, w.ctx.profile.M_pi0
    p, N, C, G = ctx.p, ctx.N, w.C, w.G
    top = max(weights, default=0)
    if min(weights, default=0) < 0 or top > p - 2:
        phi = f"weights {list(weights)} leave [0, p-2] = [0, {p - 2}]"
    elif len(weights) != len(C):
        phi = f"weights {list(weights)} do not match C of rank {len(C)}"
    elif len(G) != len(C):
        phi = f"G has rank {len(G)}, C has rank {len(C)}"
    elif (C.p, C.N, C.order, G.p, G.N, G.order) != (p, N, M, p, N, M):
        phi = f"C and G must be series mod {p}^{N} at {M} coefficients"
    elif top >= M:
        phi = f"the window pi0^{M} cannot carry weight {top}"
    else:
        A = PMatrix.from_lists([[e[r] for e, r in zip(row, weights)] for row in C.rows], p, N)
        try:
            Ainv = matrix_inverse_mod(A)
        except SingularModP:
            phi = "A, read from C, is not a unit mod p"
        else:
            canonical = C.rows == phi_matrix(A, weights, ctx.q).rows
            phi = "" if canonical else "C differs from A*diag(q^r) for the A it carries"
    bad = non_identity_entry(G)
    if phi or bad is not None:
        fixed = "not decided: " + ("phi_canonical" if phi else "gamma_trivial_mod_pi0") + " failed"
    else:
        plan = ctx.plans.get(weights, lambda r: gamma_plan(ctx, r))
        X = [[list(e[1:M]) for e in row] for row in G.rows]
        step = plan.bind(A.to_lists(), Ainv.to_lists())
        fixed = "" if step(X) == X else "G - Id over pi0 is not the fixed point of the Gamma-step"
    return CheckReport((
        CheckResult("phi_canonical", not phi, phi),
        CheckResult(
            "gamma_trivial_mod_pi0",
            bad is None,
            "" if bad is None else f"G mod pi0 differs from Id at entry {bad}",
        ),
        CheckResult("gamma_fixed_point", not fixed, fixed),
    ))


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
