"""Reduction mod pi0, filtration recovery, and basis normalization.

The reduction functor sends a solved module to its constant coefficients
(C0, G0 = Id).  The filtration of the reduction is recovered from the
q-divisibility conditions: x lies in Fil^r iff some lift x + sum pi0^k y_k
has phi-image divisible by q^r.  A term pi0^k y_k (k >= 1) adds
C*phi(pi0)^k*y_k = C*u^k*pi0^k*q^(k(p-1))*y_k, which q^r divides for every
r <= p-1, so the condition is that q^r divides C*x: a linear system over
Z/p^N in x alone, solved by the Howell kernel.  The divided Frobenius on
Fil^r is the constant term of the exact quotient by (X+p)^r.

normalize_basis is the recognition recursion: given C_pert = A*Q + pi0*(...)
presenting a module isomorphic to the target, it finds the base change
P = Id + pi0*Cm with P^(-1)*C_pert*phi(P) = A*Q by iterating

    Cm  <-  [Delta + u*q^(p-1)*C_pert*phi(Cm)] * Q^(-1) * A^(-1),

with Delta = (C_pert - A*Q)/pi0, which contracts because the column factor
q^(p-1-r_j) has positive valuation for weights <= p-2.  No composition,
series product or division runs in the loop.  As u*q^(p-1) = phi(pi0)/pi0,
column j of the bracket divided by q^(r_j) is

    Delta_j / q^(r_j)  +  C_pert * sum_t Cm_j[t] * Q_(t+1)^(r_j),

over the context's table of exact quotients Q_k^(r) = phi(pi0)^k/(pi0*q^r),
the table the Gamma-solve reads at r = p-1.  The division by q^(r_j) is
Z/p^N-linear and the second term is a multiple of q^(r_j) for every Cm,
each Q_k^(r) having been divided exactly when the table was built; so the
bracket is divisible iff Delta_j is, and Delta is divided once per call,
with that check, instead of in every step.  The products
C_pert_ik*Q_(t+1)^(r) are packed once per call, and a step is one packed
combination per entry followed by A^(-1): the affine-map kernel
(kernels.AffineMap) that the Gamma-solve's step runs on too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from . import kernels
from .cyclo import CycloContext
from .errors import (
    AxiomViolation,
    InvalidInput,
    NotCongruent,
    PrecisionExhausted,
    WachkitError,
)
from .flmod import FLModule, require_valid, validate_fl
from .padic import (
    PMatrix,
    howell_form,
    howell_kernel,
    matrix_inverse_mod,
    pval,
    smith_elementary_divisors,
)
from .series import SeriesMat, cut_table, q_divide_exact, q_divmod
from .wach import (
    WachModule,
    iterate_to_window,
    non_identity_entry,
    phi_matrix,
    residual_entry,
    solve_wach,
)


@dataclass(frozen=True)
class FilteredReduction:
    """Recovered filtered data of the reduction mod pi0."""

    d: int
    fil_ranks: tuple[int, ...]  # rank(Fil^r) for r = 0..h_max+1
    weights_recovered: tuple[int, ...]
    A_recovered: PMatrix
    fil_generators: tuple[PMatrix, ...]  # canonical Howell rows per r
    adapted_basis: PMatrix  # columns b_j, ascending recovered weights


def reduce_mod_pi0(w: WachModule) -> tuple[PMatrix, PMatrix]:
    """Constant coefficients (C0, G0); G0 must be the identity."""
    bad = non_identity_entry(w.G)
    if bad is not None:
        raise AxiomViolation(f"G mod pi0 is not the identity at entry {bad}")
    C0 = PMatrix.from_lists(w.C.constant_terms(), w.C.p, w.C.N)
    return C0, PMatrix.identity(w.rank, w.ctx.p, w.ctx.N)


def _fil_lattice(w: WachModule, r: int) -> PMatrix:
    """Canonical generators of Fil^r as rows of a Howell form.

    Row i2*r + t of the system is the coefficient of X^t in the Weierstrass
    remainder of (C*x)_i2 by q^r, linear in the unknowns x (the module
    docstring says why the lift terms y_k drop out).  Its coefficients in the
    basis (X+p)^t would give the same kernel, as that change of basis is
    unitriangular.  The remainders are taken at the guard order (module
    entries are exact polynomials on the user window, so zero-padding is
    exact); at the user window the canonical division junk would pollute
    them mod p^N and fake near-p^N kernel vectors.
    """
    ctx = w.ctx
    p, N = ctx.p, ctx.N
    d = w.rank
    mw = ctx.work.M_pi0
    if r == 0:
        return PMatrix.identity(d, p, N)
    C = w.C.pad(mw).rows
    rows: list[list[int]] = [[0] * d for _ in range(r * d)]
    for i2 in range(d):  # ambient coordinate
        for i in range(d):  # unknown index
            _, rem = q_divmod(C[i2][i], p, ctx.pn, r)
            for t in range(r):
                rows[i2 * r + t][i] = rem[t]
    kern = howell_kernel(PMatrix.from_lists(rows, p, N))
    xs = [list(kern.row(i)) for i in range(kern.rows)]
    xs = [row for row in xs if any(row)]
    if not xs:
        return PMatrix(0, d, (), p, N)
    return howell_form(PMatrix.from_lists(xs, p, N))


def _saturation_guard(lat: PMatrix) -> None:
    for i in range(lat.rows):
        row = lat.row(i)
        piv = next(x for x in row if x)
        if pval(piv, lat.p, lat.N) != 0:
            raise PrecisionExhausted(
                "recovered filtration lattice is not p-saturated"
            )


def _phi_r_image(w: WachModule, x: list[int], r: int) -> list[int]:
    """Constant term of C*x / q^r for x in Fil^r (divided Frobenius value).

    Guard-order evaluation for the same reason as _fil_lattice: the constant
    term of a user-window quotient is only exact mod p^(M_pi0 - r).
    """
    ctx = w.ctx
    pn = ctx.pn
    out = []
    for row in w.C.pad(ctx.work.M_pi0).rows:
        acc = [sum(map(mul, col, x)) % pn for col in zip(*row)]
        out.append(q_divide_exact(acc, ctx.p, pn, r)[0])
    return out


def recover_filtration(w: WachModule, h_max: int) -> FilteredReduction:
    """Recover fil_ranks, weights, the divided Frobenius matrix and an
    adapted basis from the q-divisibility conditions."""
    ctx = w.ctx
    p, N = ctx.p, ctx.N
    if not 0 <= h_max <= p - 2:
        raise InvalidInput(f"h_max {h_max} is outside [0, p-2]")
    d = w.rank

    lattices = [_fil_lattice(w, r) for r in range(h_max + 2)]
    for lat in lattices:
        _saturation_guard(lat)
    fil_ranks = tuple(lat.rows for lat in lattices)
    if fil_ranks[0] != d:
        raise PrecisionExhausted("Fil^0 does not have full rank")
    if fil_ranks[-1] != 0:
        raise PrecisionExhausted(f"Fil^{h_max + 1} is nonzero")
    for a, b in zip(fil_ranks, fil_ranks[1:]):
        if b > a:
            raise PrecisionExhausted("filtration ranks are not decreasing")

    weights: list[int] = []
    for r in range(1, h_max + 2):
        weights.extend([r - 1] * (fil_ranks[r - 1] - fil_ranks[r]))
    weights_rec = tuple(sorted(weights))

    # adapted basis: extend a basis of Fil^(r+1) to one of Fil^r, descending r
    chosen: list[tuple[int, list[int]]] = []  # (weight, vector)
    for r in range(h_max, -1, -1):
        lat = lattices[r]
        for i in range(lat.rows):
            if len(chosen) == fil_ranks[r]:
                break
            cand = list(lat.row(i))
            # the rank mod p is the number of unit Smith divisors over Z/p
            vectors = PMatrix.from_lists([v for _, v in chosen] + [cand], p, 1)
            if smith_elementary_divisors(vectors).count(0) > len(chosen):
                chosen.append((r, cand))
        if len(chosen) != fil_ranks[r]:
            raise PrecisionExhausted(f"cannot complete a basis of Fil^{r}")
    chosen.sort(key=lambda t: t[0])  # ascending weights; stable

    T = PMatrix(
        d,
        d,
        tuple(chosen[j][1][i] for i in range(d) for j in range(d)),
        p,
        N,
    )
    phi_cols = [_phi_r_image(w, vec, wt) for wt, vec in chosen]
    Phi = PMatrix(
        d, d, tuple(phi_cols[j][i] for i in range(d) for j in range(d)), p, N
    )
    A_rec = matrix_inverse_mod(T).mul(Phi)

    return FilteredReduction(
        d=d,
        fil_ranks=fil_ranks,
        weights_recovered=weights_rec,
        A_recovered=A_rec,
        fil_generators=tuple(lattices),
        adapted_basis=T,
    )


# ---------------------------------------------------------------------------
# basis normalization (recognition direction)


def _normalization_step(
    Cp: SeriesMat, AQ: SeriesMat, weights: tuple[int, ...], A: PMatrix, ctx: CycloContext
) -> tuple[kernels.AffineMap, int]:
    """The update of normalize_basis on coefficient lists, and its order m.

    Cp and AQ are at the guard order.  The step maps Cm, d x d coefficient
    lists at order m = M_pi0 - 1 (what P = Id + pi0*Cm reads), to

        (D + Cp*E)*A^(-1),   D_ij = Delta_ij / q^(r_j),
        E_kj = sum_t Cm_kj[t] * Q_(t+1)^(r_j),

    the module docstring's update on the window: a kernels.AffineMap with
    L = Id, R = A^(-1), K = D and the terms (k, Cp_ik, Q^(r_j)[1:]), k < d,
    for entry (i, j).  Coefficient k of a step reads Cm's coefficients
    t <= k only, as Q_(t+1)^(r) has valuation t, so the window is closed
    under the step.  The table Q^(r) is divided at u's order n; its
    canonical division disturbs only coefficients from n - r - N on, so
    below m it is u*q^(p-1-r)*phi(pi0)^t when n >= m + N + r, which holds
    at every profile (n - m - N = p + 3) and is asserted.  D is divided once, at order n as the table is, and raises
    NotDivisible when a column of Delta is not a multiple of q^(r_j).
    """
    p, N, pn = ctx.p, ctx.N, ctx.pn
    m = ctx.profile.M_pi0 - 1
    n = ctx.work.u.order
    if n < m + N + max(weights):
        raise AssertionError("quotient table too short for the normalization window")
    D = [
        [
            q_divide_exact([(x - y) % pn for x, y in zip(c[1 : n + 1], a[1 : n + 1])], p, pn, r)
            for r, c, a in zip(weights, crow, arow)
        ]
        for crow, arow in zip(Cp.rows, AQ.rows)
    ]
    bases = {r: cut_table(ctx.phi_sub.quotients(n, r), m)[1:] for r in set(weights)}
    terms = [
        [[(k, f, bases[r]) for k, f in enumerate(row)] for r in weights] for row in Cp.rows
    ]
    ident = [[int(i == j) for j in range(len(weights))] for i in range(len(weights))]
    Ainv = matrix_inverse_mod(A).to_lists()
    return kernels.AffineMap(ident, Ainv, D, terms, pn, m), m


def normalize_basis(
    C_perturbed: SeriesMat,
    target: FLModule,
    ctx: CycloContext,
    max_iter: int | None = None,
) -> SeriesMat:
    """Base change P = Id mod pi0 with P^(-1)*C_perturbed*phi(P) = A*Q.

    C_perturbed is any d x d nested sequence of pi0-series over the context;
    each series is taken as exact at its stated truncation.  Raises
    InvalidInput for a wrong shape, NotCongruent if C_perturbed does not
    reduce to A*diag(p^(r_j)) mod pi0, NotDivisible if the perturbation is
    not realizable over the ring, and NoConvergence if the iteration budget
    is exhausted.  The iteration is the affine map of the module docstring
    on the coefficients of Cm that P reads; it stops when two successive
    iterates agree there, and the residual C_perturbed*phi(P) = P*A*Q is
    certified on the user window before P is returned.
    """
    require_valid(target)
    p, N = ctx.p, ctx.N
    d = target.rank
    Cp = SeriesMat(C_perturbed, p, N)
    if len(Cp) != d:
        raise InvalidInput(f"C_perturbed is {len(Cp)}x{len(Cp)}, the target has rank {d}")
    weights = target.weights
    A = target.A
    work = ctx.work
    mw = work.M_pi0
    t_order = ctx.profile.M_pi0
    if max_iter is None:
        max_iter = N + t_order + p + 4

    AQ = phi_matrix(A, weights, work.q)
    expected = AQ.constant_terms()
    for i, row in enumerate(Cp.constant_terms()):
        for j, c in enumerate(row):
            if c != expected[i][j]:
                raise NotCongruent(
                    f"C mod pi0 differs from A*diag(p^r) at entry ({i},{j})"
                )

    Cp = Cp.pad(mw)
    step, m = _normalization_step(Cp, AQ, weights, A, ctx)
    zero = [[[0] * m for _ in range(d)] for _ in range(d)]
    window, _ = iterate_to_window(step, zero, m, max_iter)
    P = SeriesMat._trusted(p, N, [
        [(int(i == j),) + tuple(e) for j, e in enumerate(row)]
        for i, row in enumerate(window)
    ])
    # certify the residual on the user window: C_pert*phi(P) = P*A*Q
    if residual_entry(Cp, P, AQ, ctx) is not None:
        raise AxiomViolation("normalization residual is nonzero at the user window")
    return P


# ---------------------------------------------------------------------------
# roundtrip


@dataclass(frozen=True)
class RoundtripReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _expected_fil_ranks(weights: tuple[int, ...], h: int) -> tuple[int, ...]:
    return tuple(sum(1 for r in weights if r >= t) for t in range(h + 2))


def _stabilizer_match(
    m: FLModule, red: FilteredReduction
) -> tuple[bool, str]:
    """Compare recovered data with the source up to the splitting stabilizer.

    The recovered adapted basis T must be filtration-compatible (T_{ij} = 0
    whenever weight(e_i) < weight(b_j)), invertible, and satisfy the divided
    Frobenius morphism identity A*D(T) = T*A_rec where
    D(T)_{ij} = T_{ij} p^(r_i - r_j).
    """
    p, N = m.p, m.N
    pm = p**N
    d = m.rank
    if red.weights_recovered != m.weights:
        return False, f"weights {red.weights_recovered} != {m.weights}"
    T = red.adapted_basis
    if not T.is_unit_matrix():
        return False, "adapted basis is singular mod p"
    for i in range(d):
        for j in range(d):
            if m.weights[i] < m.weights[j] and T.at(i, j) != 0:
                return False, f"basis vector {j} is not in Fil^{m.weights[j]}"
    D = PMatrix(
        d,
        d,
        tuple(
            (T.at(i, j) * pow(p, m.weights[i] - m.weights[j], pm)) % pm
            if m.weights[i] >= m.weights[j]
            else 0
            for i in range(d)
            for j in range(d)
        ),
        p,
        N,
    )
    lhs = m.A.mul(D)
    rhs = T.mul(red.A_recovered)
    if lhs != rhs:
        return False, "A_recovered is not stabilizer-equivalent to A"
    return True, ""


def roundtrip_check(
    m: FLModule, ctx: CycloContext, seed: int = 0
) -> RoundtripReport:
    """Build, recover the filtration, and recognize; passes iff all stages agree.

    The report has five checks: validate, solve, fil_ranks, weights_and_A
    and normalize.  The recognition stage plants a seeded random base change
    P0 = Id + pi0*R in C and normalizes it away; normalize_basis certifies
    its own residual.
    """
    checks: list[tuple[str, bool, str]] = []
    rep = validate_fl(m)
    checks.append(("validate", rep.ok, "; ".join(rep.failures)))
    if not rep.ok:
        return RoundtripReport(tuple(checks))

    w = solve_wach(m, ctx)
    checks.append(("solve", True, f"iterations={w.iterations_used}"))

    red = recover_filtration(w, m.h)
    ranks_ok = red.fil_ranks == _expected_fil_ranks(m.weights, m.h)
    checks.append(
        ("fil_ranks", ranks_ok, f"{red.fil_ranks}")
    )
    ok, why = _stabilizer_match(m, red)
    checks.append(("weights_and_A", ok, why))

    # recognition leg: plant C_pert = P0^(-1)*A*Q*phi(P0), normalize it away
    rng = random.Random(seed)
    pm = m.p**m.N
    mw = ctx.work.M_pi0
    d = m.rank
    n = ctx.profile.M_pi0 - 1
    R = [[[rng.randrange(pm) for _ in range(n)] for _ in range(d)] for _ in range(d)]
    P0 = SeriesMat._trusted(m.p, m.N, [
        [[int(i == j)] + e + [0] * (mw - 1 - len(e)) for j, e in enumerate(row)]
        for i, row in enumerate(R)
    ])
    AQ_w = phi_matrix(m.A, m.weights, ctx.work.q)
    C_pert = P0.unipotent_inverse() @ AQ_w @ P0.substitute(ctx.phi_sub, mw)
    try:
        normalize_basis(C_pert, m, ctx)
        norm_ok = True
        detail = ""
    except WachkitError as exc:  # report, don't raise: this is a check
        norm_ok, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append(("normalize", norm_ok, detail))

    return RoundtripReport(tuple(checks))

