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

Precision: the iteration runs at the context's guard order and stops when two
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

from .cyclo import CycloContext, is_gamma_f_invariant, push_to_pi
from .errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    SingularBasis,
    SingularModP,
    ValidationFailed,
)
from .flmod import FLModule, LatticeSub, require_valid
from .padic import PMatrix, matrix_inverse_mod, pval
from .series import (
    PI0,
    Substitution,
    TruncSeries,
    constant_series,
    series_add,
    series_multiply,
    series_scale,
    series_sub,
    shift_divide_exact,
    shift_multiply,
    weierstrass_divide_exact,
    weierstrass_divide_q_power,
    zero_series,
)

SeriesMat = tuple[tuple[TruncSeries, ...], ...]


# ---------------------------------------------------------------------------
# small series-matrix helpers (dense, d is tiny)


def smat(rows) -> SeriesMat:
    return tuple(tuple(row) for row in rows)


def smat_identity(d: int, p: int, N: int, order: int) -> SeriesMat:
    return smat(
        [
            [constant_series(PI0, 1 if i == j else 0, p, N, order) for j in range(d)]
            for i in range(d)
        ]
    )


def smat_add(X: SeriesMat, Y: SeriesMat) -> SeriesMat:
    return smat([[series_add(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(X, Y)])


def smat_sub(X: SeriesMat, Y: SeriesMat) -> SeriesMat:
    return smat([[series_sub(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(X, Y)])


def smat_mul(X: SeriesMat, Y: SeriesMat) -> SeriesMat:
    d, m, n = len(X), len(Y), len(Y[0])
    out = []
    for i in range(d):
        row = []
        for j in range(n):
            acc = None
            for k in range(m):
                term = series_multiply(X[i][k], Y[k][j])
                acc = term if acc is None else series_add(acc, term)
            row.append(acc)
        out.append(row)
    return smat(out)


def smat_scalar_left(A: PMatrix, X: SeriesMat) -> SeriesMat:
    out = []
    for i in range(A.rows):
        row = []
        for j in range(len(X[0])):
            acc = zero_series(X[0][0].var, X[0][0].p, X[0][0].N, X[0][0].order)
            for k in range(A.cols):
                a = A.at(i, k)
                if a:
                    acc = series_add(acc, series_scale(X[k][j], a))
            row.append(acc)
        out.append(row)
    return smat(out)


def smat_scalar_right(X: SeriesMat, A: PMatrix) -> SeriesMat:
    out = []
    for i in range(len(X)):
        row = []
        for j in range(A.cols):
            acc = zero_series(X[0][0].var, X[0][0].p, X[0][0].N, X[0][0].order)
            for k in range(A.rows):
                a = A.at(k, j)
                if a:
                    acc = series_add(acc, series_scale(X[i][k], a))
            row.append(acc)
        out.append(row)
    return smat(out)


def smat_map(X: SeriesMat, fn) -> SeriesMat:
    return smat([[fn(e) for e in row] for row in X])


def smat_substitute(
    X: SeriesMat, sub: Substitution, window: int | None = None
) -> SeriesMat:
    """Apply a context image entrywise, at each entry's order (at most window)."""
    if window is None:
        return smat_map(X, sub.apply)
    return smat_map(X, lambda e: sub.apply(e, min(e.order, window)))


def smat_truncate(X: SeriesMat, order: int) -> SeriesMat:
    return smat_map(X, lambda e: e.truncate(min(order, e.order)))


def smat_kron(X: SeriesMat, Y: SeriesMat) -> SeriesMat:
    dx, dy = len(X), len(Y)
    out = []
    for i1 in range(dx):
        for i2 in range(dy):
            row = []
            for j1 in range(dx):
                for j2 in range(dy):
                    row.append(series_multiply(X[i1][j1], Y[i2][j2]))
            out.append(row)
    return smat(out)


def smat_block_diag(X: SeriesMat, Y: SeriesMat) -> SeriesMat:
    dx, dy = len(X), len(Y)
    ref = X[0][0]
    z = zero_series(ref.var, ref.p, ref.N, ref.order)
    out = []
    for i in range(dx):
        out.append(list(X[i]) + [z] * dy)
    for i in range(dy):
        out.append([z] * dx + list(Y[i]))
    return smat(out)


def smat_eq(X: SeriesMat, Y: SeriesMat) -> bool:
    if len(X) != len(Y) or len(X[0]) != len(Y[0]):
        return False
    for rx, ry in zip(X, Y):
        for a, b in zip(rx, ry):
            n = min(a.order, b.order)
            if a.coeffs[:n] != b.coeffs[:n]:
                return False
    return True


def smat_is_zero(X: SeriesMat) -> bool:
    return all(e.is_zero() for row in X for e in row)


def _pad(f: TruncSeries, order: int) -> TruncSeries:
    if f.order >= order:
        return f.truncate(order)
    return TruncSeries(f.var, f.p, f.N, f.coeffs + (0,) * (order - f.order))


def smat_det(X: SeriesMat) -> TruncSeries:
    """Determinant by minor expansion with memoization on column subsets."""
    d = len(X)
    ref = X[0][0]
    memo: dict[int, TruncSeries] = {0: constant_series(ref.var, 1, ref.p, ref.N, ref.order)}

    def rec(cols_mask: int, row: int) -> TruncSeries:
        if cols_mask in memo:
            return memo[cols_mask]
        acc = zero_series(ref.var, ref.p, ref.N, ref.order)
        sign = 1 if row % 2 == 0 else -1  # expansion along row index `row`
        for j in range(d):
            if cols_mask & (1 << j):
                sub = rec(cols_mask & ~(1 << j), row - 1)
                term = series_multiply(X[row][j], sub)
                acc = series_add(acc, term if sign > 0 else series_scale(term, -1))
                sign = -sign
        memo[cols_mask] = acc
        return acc

    return rec((1 << d) - 1, d - 1)


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


def _q_powers(q: TruncSeries, up_to: int) -> list[TruncSeries]:
    pows = [constant_series(PI0, 1, q.p, q.N, q.order)]
    for _ in range(up_to):
        pows.append(series_multiply(pows[-1], q))
    return pows


def build_phi_matrix(m: FLModule, ctx: CycloContext) -> SeriesMat:
    """C = A*diag(q^(r_j)) at the user window; entries are exact polynomials."""
    require_valid(m)
    if (m.p, m.N) != (ctx.p, ctx.N):
        raise ValidationFailed("module and context moduli differ")
    qpow = _q_powers(ctx.q, m.h)
    rows = []
    for i in range(m.rank):
        rows.append(
            [series_scale(qpow[m.weights[j]], m.A.at(i, j)) for j in range(m.rank)]
        )
    return smat(rows)


def _extract_phi_factor(f: TruncSeries, p: int) -> TruncSeries:
    """phi(Delta)-entry divided by pi0*q^(p-1), padded back to its window."""
    order = f.order
    out = weierstrass_divide_exact(shift_divide_exact(f, 1), p - 1)
    return _pad(out, order)


def _gamma_stepper(weights: tuple[int, ...], A: PMatrix, ctx: CycloContext):
    """One update of the fixed-point iteration, at the guard order.

    Returns (step, identity) where step(G) = A*diag(v^-r)*A^-1
    + pi0*A*Q*E(G)*diag(q^(p-1-r_j) v^-r_j)*A^-1.
    """
    p, N = ctx.p, ctx.N
    d = len(weights)
    Ainv = matrix_inverse_mod(A)
    work = ctx.work
    mw = work.M_pi0

    qpow = _q_powers(work.q, p - 1)
    vinv_pow = [constant_series(PI0, 1, p, N, mw)]
    for _ in range(max(weights, default=0)):
        vinv_pow.append(series_multiply(vinv_pow[-1], work.v_gamma_inv))

    diag_v = smat(
        [
            [
                vinv_pow[weights[j]]
                if i == j
                else zero_series(PI0, p, N, mw)
                for j in range(d)
            ]
            for i in range(d)
        ]
    )
    K1 = smat_scalar_left(A, smat_scalar_right(diag_v, Ainv))
    col_factor = [
        series_multiply(qpow[p - 1 - weights[j]], vinv_pow[weights[j]])
        for j in range(d)
    ]
    ident = smat_identity(d, p, N, mw)

    def step(G: SeriesMat) -> SeriesMat:
        delta = smat_sub(G, ident)
        E = smat_map(
            smat_substitute(delta, ctx.phi_sub),
            lambda e: _extract_phi_factor(e, p),
        )
        # T_{ij} = q^(r_i) * E_{ij} * q^(p-1-r_j) v^(-r_j)
        T = smat(
            [
                [
                    series_multiply(
                        series_multiply(qpow[weights[i]], E[i][j]), col_factor[j]
                    )
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )
        inner = smat_scalar_left(A, smat_scalar_right(T, Ainv))
        return smat_add(
            K1, smat_map(inner, lambda e: shift_multiply(e, 1).truncate(mw))
        )

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

    Returns (G at the user window, iterations used).  The iteration is the
    division-free update described in the module docstring; it stops at exact
    stabilization of the user window and certifies the commutation
    C*phi(G) = G*gamma(C) and triviality mod pi0 before returning.
    """
    p = ctx.p
    d = len(weights)
    if any(r < 0 or r > p - 2 for r in weights):
        raise ValidationFailed("weights must lie in [0, p-2]")
    if A.rows != d or A.cols != d:
        raise InvalidInput("A has the wrong shape")
    target = ctx.profile.M_pi0
    if max_iter is None:
        max_iter = target + 4

    step, ident = _gamma_stepper(weights, A, ctx)
    mw = ctx.work.M_pi0
    if initial_guess is None:
        G = ident
    else:
        G = smat_map(initial_guess, lambda e: _pad(e, mw))
        for i in range(d):
            for j in range(d):
                if G[i][j].constant_term() != (1 if i == j else 0):
                    raise InvalidInput("initial guess must be Id mod pi0")

    prev_window = smat_truncate(G, target)
    iterations = 0
    for n in range(1, max_iter + 1):
        G = step(G)
        iterations = n
        cur_window = smat_truncate(G, target)
        if smat_eq(cur_window, prev_window):
            G_out = cur_window
            break
        prev_window = cur_window
    else:
        raise NoConvergence(f"no stabilization within {max_iter} iterations")

    _assert_solution(C, G_out, ctx)
    return G_out, iterations


def commutation_residual(C: SeriesMat, G: SeriesMat, ctx: CycloContext) -> SeriesMat:
    """C*phi(G) - G*gamma(C) at the common window."""
    window = ctx.profile.M_pi0
    return smat_sub(
        smat_mul(C, smat_substitute(G, ctx.phi_sub, window)),
        smat_mul(G, smat_substitute(C, ctx.gamma_sub, window)),
    )


def _assert_solution(C: SeriesMat, G: SeriesMat, ctx: CycloContext) -> None:
    for i, row in enumerate(G):
        for j, e in enumerate(row):
            if e.constant_term() != (1 if i == j else 0):
                raise AxiomViolation(f"G not Id mod pi0 at entry ({i},{j})")
    res = commutation_residual(smat_truncate(C, ctx.profile.M_pi0), G, ctx)
    if not smat_is_zero(res):
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
    """Check the four structural axioms, reporting each as pass/fail.

    1. commutation C*phi(G) = G*gamma(C),
    2. G = Id mod pi0,
    3. det(C) = unit * q^(sum of weights),
    4. entries lie in the invariant subring (pushed to pi-coordinates they are
       fixed by the torsion substitutions).
    """
    ctx = w.ctx
    checks: list[CheckResult] = []

    res = commutation_residual(w.C, w.G, ctx)
    bad = next(
        (
            (i, j)
            for i, row in enumerate(res)
            for j, e in enumerate(row)
            if not e.is_zero()
        ),
        None,
    )
    checks.append(
        CheckResult(
            "commutation",
            bad is None,
            "" if bad is None else f"nonzero residual at entry {bad}",
        )
    )

    bad = next(
        (
            (i, j)
            for i, row in enumerate(w.G)
            for j, e in enumerate(row)
            if e.constant_term() != (1 if i == j else 0)
        ),
        None,
    )
    checks.append(
        CheckResult(
            "gamma_trivial_mod_pi0",
            bad is None,
            "" if bad is None else f"G mod pi0 differs from Id at entry {bad}",
        )
    )

    total = sum(w.weights)
    det = smat_det(w.C)
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

    bad = None
    for i, row in enumerate(w.C + w.G):
        for j, e in enumerate(row):
            if not is_gamma_f_invariant(ctx, push_to_pi(ctx, e)):
                bad = ("C" if i < w.rank else "G", i % w.rank, j)
                break
        if bad:
            break
    checks.append(
        CheckResult(
            "entries_invariant",
            bad is None,
            "" if bad is None else f"entry {bad} leaves the invariant subring",
        )
    )

    return AxiomReport(tuple(checks))


def tensor_wach(w1: WachModule, w2: WachModule) -> WachModule:
    """Kronecker product module (lexicographic basis order), axioms re-verified."""
    if w1.ctx is not w2.ctx and (
        w1.ctx.profile != w2.ctx.profile or w1.ctx.chi_gamma != w2.ctx.chi_gamma
    ):
        raise InvalidInput("tensor of modules over different contexts")
    weights = tuple(r + s for r in w1.weights for s in w2.weights)
    out = WachModule(
        ctx=w1.ctx,
        weights=weights,
        C=smat_kron(w1.C, w2.C),
        G=smat_kron(w1.G, w2.G),
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
        C=smat_block_diag(w1.C, w2.C),
        G=smat_block_diag(w1.G, w2.G),
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
    X = smat_scalar_left(Finv, smat_scalar_right(w.G, L.F))
    p, N = w.ctx.p, w.ctx.N
    violations: list[str] = []
    for j in L.included():
        aj = L.exponents[j]
        for i in range(w.rank):
            entry = X[i][j]
            ai = L.exponents[i]
            if ai is None:
                if any((c * p**aj) % p**N for c in entry.coeffs):
                    violations.append(
                        f"column {j}: row {i} is omitted but X[{i}][{j}]*p^{aj} != 0"
                    )
            else:
                need = min(ai, N)
                for k, c in enumerate(entry.coeffs):
                    if (pval(c, p, N) + aj) < need:
                        violations.append(
                            f"column {j}: coefficient pi0^{k} of row {i} not divisible "
                            f"by p^{ai - aj}"
                        )
                        break
    return StabilityReport(stable=not violations, violations=tuple(violations))
