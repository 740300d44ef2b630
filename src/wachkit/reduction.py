"""Reduction mod pi0, filtration recovery, and basis normalization.

The reduction functor sends a solved module to its constant coefficients
(C0, G0 = Id).  The filtration of the reduction is recovered from the
q-divisibility conditions: x lies in Fil^r iff some lift x + sum pi0^k y_k
has phi-image divisible by q^r.  A term pi0^k y_k (k >= 1) adds
C*phi(pi0)^k*y_k = C*u^k*pi0^k*q^(k(p-1))*y_k, which q^r divides for every
r <= p-1, so the condition is that q^r divides C*x: a linear system over
Z/p^N in x alone, solved by the Howell kernel.  recover_filtration divides
each entry of C by q = X + p once, h_max + 1 steps of series.q_steps, and
reads everything from those steps: the Fil^r system is the first r step
remainders of each entry (the remainder's coordinates in the basis
(X+p)^s, a unitriangular change from X^s that leaves the kernel as it is),
and, the division being linear, the divided Frobenius of x in Fil^r is the
constant term of C*x/q^r = sum_i x_i*Q_r(C_(i2,i)), Q_r the r-th step
quotient (Q_0 = C, its constant terms).

normalize_basis is the recognition recursion: given C' = A*Q + pi0*(...)
presenting a module isomorphic to the target, with Q = diag(q^(r_j)), it
finds the base change P = Id mod pi0 with C'*phi(P) = P*A*Q: the lift of
the identity (wach.lift_identity, which has the derivation) with C2 = C'
and C1 = A*Q.  Writing P = Id + pi0*X, the equation is

    X = (K + Y)*A^(-1),   K = Delta*Q^(-1),   Y_ij = sum_k C'_ik*phi(pi0*X_kj)/(pi0*q^(r_j)),

with Delta = (C' - A*Q)/pi0: L = Id, the right factor A^(-1) and the
factors (k, C'_ik) for entry (i, j).  C'*phi(pi0*X) is a multiple of pi0*q^(p-1), hence of
pi0*q^(r_j), for every X, so the update is integral iff each column
Delta_j is a multiple of q^(r_j); K is divided once per call, at the
lift's table order and with that check (wach.divide_columns, NotDivisible).
A^(-1) comes from the target's validation (flmod.require_valid), whose one
inversion of A is its check that A is a unit mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cyclo import CycloContext
from .errors import (
    AxiomViolation,
    InvalidInput,
    NotCongruent,
    PrecisionExhausted,
    ValidationFailed,
    WachkitError,
)
from .flmod import FLModule, require_valid, validate_fl
from .padic import PMatrix, howell_form, howell_kernel, matrix_inverse_mod, pval
from .series import SeriesMat, q_steps
from .wach import CheckReport, CheckResult, WachModule, divide_columns, lift_identity, lift_step
from .wach import non_identity_entry, phi_matrix, solve_wach


@dataclass(frozen=True)
class FilteredReduction:
    """Recovered filtered data of the reduction mod pi0."""

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


def _fil_lattice(entries, r: int, p: int, N: int) -> PMatrix:
    """Canonical generators of Fil^r: the Howell kernel of its system.

    entries[i2][i] holds the q_steps of C_(i2,i); row i2*r + s - 1 of the
    system is the step remainder c_s of (C*x)_i2, s = 1..r, linear in the
    unknowns x (the module docstring says why the lift terms y_k drop out).
    """
    if r == 0:
        return PMatrix.identity(len(entries), p, N)
    rows = [[rems[s] for rems, _ in row] for row in entries for s in range(r)]
    return howell_kernel(PMatrix.from_lists(rows, p, N))


def _saturation_guard(lat: PMatrix) -> None:
    for i in range(lat.rows):
        row = lat.row(i)
        piv = next(x for x in row if x)
        if pval(piv, lat.p, lat.N) != 0:
            raise PrecisionExhausted(
                "recovered filtration lattice is not p-saturated"
            )


def _divided_frobenius(entries, x: list[int], r: int, pn: int) -> list[int]:
    """Constant term of C*x/q^r for x in Fil^r: sum_i x_i*Q_r(C_(i2,i))[0]."""
    return [sum(quots[r][0] * xi for (_, quots), xi in zip(row, x)) % pn for row in entries]


def recover_filtration(w: WachModule, h_max: int) -> FilteredReduction:
    """Recover fil_ranks, weights, the divided Frobenius matrix and an
    adapted basis from the q-divisibility conditions."""
    ctx = w.ctx
    p, N = ctx.p, ctx.N
    if not 0 <= h_max <= p - 2:
        raise InvalidInput(f"h_max {h_max} is outside [0, p-2]")
    d = w.rank

    # every entry of C divided by q h_max + 1 times (q_steps), at the guard
    # order: entries are exact polynomials on the user window, so padding
    # them is exact, while at the user window the division's top junk would
    # pollute the remainders mod p^N and fake near-p^N kernel vectors
    entries = [[q_steps(e, p, ctx.pn, h_max + 1) for e in row] for row in w.C.pad(ctx.work.M_pi0).rows]
    lattices = [_fil_lattice(entries, r, p, N) for r in range(h_max + 2)]
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
            # the rank mod p is the row count of the Howell form over Z/p
            vectors = PMatrix.from_lists([v for _, v in chosen] + [cand], p, 1)
            if howell_form(vectors).rows > len(chosen):
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
    phi_cols = [_divided_frobenius(entries, vec, wt, ctx.pn) for wt, vec in chosen]
    Phi = PMatrix(
        d, d, tuple(phi_cols[j][i] for i in range(d) for j in range(d)), p, N
    )
    A_rec = matrix_inverse_mod(T).mul(Phi)

    return FilteredReduction(
        fil_ranks=fil_ranks,
        weights_recovered=weights_rec,
        A_recovered=A_rec,
        fil_generators=tuple(lattices),
        adapted_basis=T,
    )


# ---------------------------------------------------------------------------
# basis normalization (recognition direction)


def normalize_basis(
    C_perturbed: SeriesMat,
    target: FLModule,
    ctx: CycloContext,
) -> SeriesMat:
    """Base change P = Id mod pi0 with P^(-1)*C_perturbed*phi(P) = A*Q.

    C_perturbed is any d x d nested sequence of pi0-series over the context;
    each series is taken as exact at its stated truncation.  The target is
    checked first (require_valid: its one inversion of A is the unit check
    and gives the A^(-1) the lift binds).  Raises ValidationFailed for an
    invalid target or one whose modulus is not the context's, InvalidInput
    for a wrong shape, NotCongruent if C_perturbed does not
    reduce to A*diag(p^(r_j)) mod pi0, and NotDivisible if the perturbation
    is not realizable over the ring.  P is the lift of the identity of the
    module docstring, reached from P = Id within lift_identity's proved
    bound of N + M_pi0 - 1 steps and certified by
    C_perturbed*phi(P) = P*A*Q on the user window (AxiomViolation
    otherwise).
    """
    Ainv = require_valid(target)
    p, N, pn = ctx.p, ctx.N, ctx.pn
    if (target.p, target.N) != (p, N):
        raise ValidationFailed("target and context moduli differ")
    d = target.rank
    Cp = SeriesMat(C_perturbed, p, N)
    if len(Cp) != d:
        raise InvalidInput(f"C_perturbed is {len(Cp)}x{len(Cp)}, the target has rank {d}")
    weights = target.weights
    AQ = phi_matrix(target.A, weights, ctx.work.q)
    expected = AQ.constant_terms()
    for i, row in enumerate(Cp.constant_terms()):
        for j, c in enumerate(row):
            if c != expected[i][j]:
                raise NotCongruent(
                    f"C mod pi0 differs from A*diag(p^r) at entry ({i},{j})"
                )

    Cp = Cp.pad(ctx.work.M_pi0)
    delta = [
        [[(x - y) % pn for x, y in zip(c[1:], a[1:])] for c, a in zip(crow, arow)]
        for crow, arow in zip(Cp.rows, AQ.rows)
    ]
    K = divide_columns(delta, weights, ctx)
    factors = [[list(enumerate(row))] * d for row in Cp.rows]
    fixed = lift_step(K, factors, weights, ctx)
    P, _ = lift_identity(fixed, PMatrix.identity(d, p, N), Ainv, Cp, AQ, ctx)
    return P


# ---------------------------------------------------------------------------
# roundtrip


def _expected_fil_ranks(weights: tuple[int, ...], h: int) -> tuple[int, ...]:
    return tuple(sum(1 for r in weights if r >= t) for t in range(h + 2))


def _stabilizer_match(
    m: FLModule, red: FilteredReduction
) -> tuple[bool, str]:
    """Compare recovered data with the source up to the splitting stabilizer.

    The recovered adapted basis T must be filtration-compatible (T_{ij} = 0
    whenever weight(e_i) < weight(b_j)) and satisfy the divided Frobenius
    morphism identity A*D(T) = T*A_rec where D(T)_{ij} = T_{ij} p^(r_i - r_j).
    T is invertible: recover_filtration inverts it to form A_rec, and that
    inversion raises on a singular T.
    """
    p, N = m.p, m.N
    pm = p**N
    d = m.rank
    if red.weights_recovered != m.weights:
        return False, f"weights {red.weights_recovered} != {m.weights}"
    T = red.adapted_basis
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
) -> CheckReport:
    """Build, recover the filtration, and recognize; passes iff all stages agree.

    The report has five checks: validate, solve, fil_ranks, weights_and_A
    and normalize.  The recognition stage plants a seeded random base change
    P0 = Id + pi0*R in C and normalizes it away; normalize_basis certifies
    its own residual.
    """
    checks: list[CheckResult] = []
    rep = validate_fl(m)
    checks.append(CheckResult("validate", rep.ok, "; ".join(rep.failures)))
    if not rep.ok:
        return CheckReport(tuple(checks))

    w = solve_wach(m, ctx)
    checks.append(CheckResult("solve", True, f"iterations={w.iterations_used}"))

    red = recover_filtration(w, m.h)
    ranks_ok = red.fil_ranks == _expected_fil_ranks(m.weights, m.h)
    checks.append(CheckResult("fil_ranks", ranks_ok, f"{red.fil_ranks}"))
    ok, why = _stabilizer_match(m, red)
    checks.append(CheckResult("weights_and_A", ok, why))

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
    checks.append(CheckResult("normalize", norm_ok, detail))

    return CheckReport(tuple(checks))

