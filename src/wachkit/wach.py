"""Construction of the (phi, Gamma)-module matrices from Fontaine-Laffaille data.

Given a rank-d datum (weights r_j, matrix A), the phi-action matrix is
C = A*diag(q^(r_j)) with q = p + pi0.  The Gamma-generator matrix G is the
unique fixed point congruent to Id mod pi0 of

    H  |->  A*Q*phi(H)*gamma(Q)^(-1)*A^(-1),

computed by the division-free reformulation: writing G_n = Id + Delta_n and
extracting E_n = phi(Delta_n) / (pi0*q^(p-1)) (exact, because
phi(pi0) = u*pi0*q^(p-1)),

    G_(n+1) = A*diag(v^(-r_j))*A^(-1)
              + pi0 * A*Q*E_n*diag(q^(p-1-r_j))*diag(v^(-r_j))*A^(-1),

where v = gamma(q)/q.  Every intermediate stays integral because
p-1-r_j >= 1 for weights <= p-2.

Precision: E_n is linear in Delta_n, so it is the combination
sum_t Delta_n[t]*Q_t over a per-context table of exact quotients
Q_t = phi(pi0)^t / (pi0*q^(p-1)), divided once, with its exactness checked,
at the context's guard order less the one order that v^(-1) lacks (the
working order n); no division runs inside the loop.  The iterates are kept
only at the read order m: the user window, or more if the low coefficients
of the table read further (see _gamma_stepper).  Their coefficients below m
equal those of the iteration at order n, and the iteration stops when two
successive iterates agree on the user window.  Successive differences
contract strictly in the (p, pi0)-adic filtration (the weighted valuation
min_k (k + v_p(coeff_k)) grows by at least one per step, by the column
factors q^(p-1-r_j)), so the window stabilizes on the truncation of the true
fixed point within the default budget of M_pi0 + 4 steps at the default
profile; exceeding the budget raises NoConvergence rather than looping.
Noise from the canonical division quotients stays above the guard margin and
never reaches the emitted window, so the commutation residual
C*phi(G) - G*gamma(C) vanishes identically there.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .cyclo import CycloContext
from .errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    NotDivisible,
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


def _gamma_stepper(weights: tuple[int, ...], A: PMatrix, ctx: CycloContext):
    """One update of the fixed-point iteration, on coefficient lists.

    Returns (step, identity).  Both work on d x d nested lists of canonical
    coefficient lists at the read order m, and

        step(G) = A*(diag(v^(-r_j)) + T)*A^(-1),
        T_ij = E_ij * F_ij,   E = phi(G - Id) / (pi0*q^(p-1)),
        F_ij = pi0 * q^(r_i) * q^(p-1-r_j) * v^(-r_j).

    E is linear in G - Id: entry by entry it is sum_t G_ij[t]*Q_t over the
    context's table Q_t = phi(pi0)^t / (pi0*q^(p-1)) (t >= 1), whose
    exactness the table proves once when it is built.  So a step is one
    kernels.AffineMap call with one term (i, F_ij, Q) per entry, and each
    output entry is unpacked once; the only check left per step is that G
    is Id mod pi0.

    Orders: the table is divided at the working order n = min(guard order,
    order of v^-1), because its top-down division makes low quotient
    coefficients depend on high ones.  Below an order m, a step reads
    coefficient t of an iterate only through Q_t mod pi0^m, so it reads
    the coefficients up to the last Q_t nonzero mod pi0^m (11 / 8 / 6 of
    them at p = 3 / 5 / 7 and m = 16); the window test reads the first
    M_pi0.  The iterates, F and diag(v^(-r_j)) are kept at the least such
    m >= M_pi0 that covers what a step reads (M_pi0 at the default
    profiles, against n = 39 / 43 / 47), and by induction their
    coefficients below m are those of the iteration at order n.
    """
    p, pn = ctx.p, ctx.pn
    d = len(weights)
    work = ctx.work
    n = min(work.M_pi0, work.v_gamma_inv.order)
    table = ctx.phi_sub.quotients(n, p - 1)
    m = ctx.profile.M_pi0
    basis = cut_table(table, m)
    while len(basis) > m:  # what a step reads grows with m, up to len(table) <= n
        m = len(basis)
        basis = cut_table(table, m)
    A_l = A.to_lists()
    Ainv_l = matrix_inverse_mod(A).to_lists()

    vpow = [[1] + [0] * (m - 1)]
    for _ in range(max(weights)):
        vpow.append(kernels.series_mul(vpow[-1], work.v_gamma_inv.coeffs, pn, m))
    qpow = q_powers(work.q, p - 1 + max(weights) - min(weights))
    factor = {
        (ri, rj): [0] + kernels.series_mul(qpow[p - 1 + ri - rj].coeffs, vpow[rj], pn, m - 1)
        for ri in set(weights)
        for rj in set(weights)
    }
    terms = [[[(i, factor[ri, rj], basis)] for rj in weights] for i, ri in enumerate(weights)]
    ident = [[[int(i == j)] + [0] * (m - 1) for j in range(d)] for i in range(d)]
    zero = [0] * m
    diag_v = [[vpow[r] if i == j else zero for j in range(d)] for i, r in enumerate(weights)]
    affine = kernels.AffineMap(A_l, Ainv_l, diag_v, terms, pn, m)

    def step(G: list) -> list:
        # G - Id differs from G in the constant terms only, which Q_0 = 0
        # ignores; they must vanish for phi(G - Id) to be divisible by pi0
        for i, row in enumerate(G):
            for j, e in enumerate(row):
                if e[0] != (i == j):
                    raise NotDivisible("low coefficients are nonzero")
        return affine(G)

    return step, ident


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
    are d x d nested sequences of pi0-series over the context.  The
    iteration is the division-free update described in the module docstring;
    it stops at exact stabilization of the user window and certifies the
    commutation C*phi(G) = G*gamma(C) and triviality mod pi0 before returning.
    """
    p = ctx.p
    d = len(weights)
    if any(r < 0 or r > p - 2 for r in weights):
        raise ValidationFailed("weights must lie in [0, p-2]")
    if d == 0:
        raise InvalidInput("a module of rank 0 has no matrices to solve for")
    if A.rows != d or A.cols != d:
        raise InvalidInput("A has the wrong shape")
    target = ctx.profile.M_pi0
    if max_iter is None:
        max_iter = target + 4

    C = SeriesMat(C, p, ctx.N)
    if len(C) != d:
        raise InvalidInput("C has the wrong shape")
    step, G = _gamma_stepper(weights, A, ctx)
    if initial_guess is not None:
        guess = SeriesMat(initial_guess, p, ctx.N)
        if len(guess) != d:
            raise InvalidInput("initial guess has the wrong shape")
        if non_identity_entry(guess) is not None:
            raise InvalidInput("initial guess must be Id mod pi0")
        G = [[list(e) for e in row] for row in guess.pad(len(G[0][0])).rows]

    window, iterations = iterate_to_window(step, G, target, max_iter)
    G_out = SeriesMat._trusted(p, ctx.N, window)
    _assert_solution(C, G_out, ctx)
    return G_out, iterations


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


def _assert_solution(C: SeriesMat, G: SeriesMat, ctx: CycloContext) -> None:
    bad = non_identity_entry(G)
    if bad is not None:
        raise AxiomViolation(f"G not Id mod pi0 at entry {bad}")
    if commutation_entry(C, G, ctx) is not None:
        raise AxiomViolation("commutation residual is nonzero at the user window")


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
