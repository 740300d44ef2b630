"""Independent oracles used by the tests.

These deliberately avoid the library code paths they check: kernels are
enumerated exhaustively, packed slots are read by plain shifts and
remainders, series products and compositions are recomputed by
schoolbook convolution and Horner's rule on plain ints, and lattice
membership is decided by plain Z/p^N linear algebra on stacked coefficient
vectors.  The series constructors, the binary power, the division by
(X + p)^r with remainder, the determinant, the second compound, the
eigenspace projectors of the torsion subgroup Delta and the user-window
view of a context below are test helpers only: the library itself has no
use for them.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

from wachkit import kernels
from wachkit.cyclo import OperatorTag
from wachkit.errors import InvalidInput, VariableMismatch
from wachkit.padic import PMatrix, howell_form, howell_kernel, matrix_inverse_mod, pval, teichmueller_lift
from wachkit.series import (
    PI,
    PI0,
    SeriesMat,
    TruncSeries,
    constant_series,
    pad,
    q_divide_exact,
    q_divmod,
    q_powers,
    series_add,
    series_invert_unit,
    series_multiply,
)

PHI = OperatorTag(OperatorTag.PHI)
GAMMA = OperatorTag(OperatorTag.GAMMA)


def torsion(a: int) -> OperatorTag:
    return OperatorTag(OperatorTag.TORSION, a)


def make_series(var: str, coeffs, p: int, N: int) -> TruncSeries:
    return TruncSeries(var, p, N, tuple(coeffs))


def zero_series(var: str, p: int, N: int, order: int) -> TruncSeries:
    return TruncSeries(var, p, N, (0,) * order)


def series_scale(f: TruncSeries, c: int) -> TruncSeries:
    return TruncSeries(f.var, f.p, f.N, tuple(c * x for x in f.coeffs))


def x_series(var: str, p: int, N: int, order: int) -> TruncSeries:
    coeffs = [0] * order
    if order > 1:
        coeffs[1] = 1
    return TruncSeries(var, p, N, tuple(coeffs))


def shift_multiply(f: TruncSeries, k: int) -> TruncSeries:
    """Multiply by X^k; the valid order grows by k (coefficients are known)."""
    return TruncSeries(f.var, f.p, f.N, (0,) * k + f.coeffs)


def series_pow(f: TruncSeries, e: int) -> TruncSeries:
    """e-th power by binary powering, e >= 0."""
    if e < 0:
        raise InvalidInput("negative power")
    result = constant_series(f.var, 1, f.p, f.N, f.order)
    base = f
    while e:
        if e & 1:
            result = series_multiply(result, base)
        base = series_multiply(base, base) if e > 1 else base
        e >>= 1
    return result


def weierstrass_divide_q_power(f: TruncSeries, r: int) -> tuple[TruncSeries, tuple[int, ...]]:
    """Divide a pi0-series by (X + p)^r with remainder of degree < r (series.q_divmod).

    Reconstruction f = (X+p)^r * quotient + remainder holds exactly at the
    truncation.
    """
    if f.var != PI0:
        raise VariableMismatch("Weierstrass division expects a pi0-series")
    quot, rem = q_divmod(f.coeffs, f.p, f.pn, r)
    return TruncSeries(PI0, f.p, f.N, tuple(quot)), rem


def series_det(X) -> TruncSeries:
    """Determinant of a SeriesMat by minor expansion along the last row, memoized on column subsets."""
    rows, d, n, pn = X.rows, len(X.rows), X.order, X.pn
    memo = {0: [1] + [0] * (n - 1)}

    def minor(cols: int, row: int) -> list[int]:
        if cols not in memo:
            acc = [0] * n
            sign = 1 if row % 2 == 0 else -1
            for j in range(d):
                if cols & (1 << j):
                    term = schoolbook_mul(rows[row][j], minor(cols & ~(1 << j), row - 1), pn, n)
                    acc = [(a + sign * t) % pn for a, t in zip(acc, term)]
                    sign = -sign
            memo[cols] = acc
        return memo[cols]

    return TruncSeries(PI0, X.p, X.N, tuple(minor((1 << d) - 1, d - 1)))


def compound_2(X: SeriesMat) -> SeriesMat:
    """Second compound of a SeriesMat: its 2x2 minors, rows and columns indexed by the pairs i < j, lexicographic."""
    rows, pn, n = X.rows, X.pn, X.order
    pairs = list(itertools.combinations(range(len(rows)), 2))

    def minor(i: int, j: int, k: int, l: int) -> tuple[int, ...]:
        a = schoolbook_mul(rows[i][k], rows[j][l], pn, n)
        b = schoolbook_mul(rows[i][l], rows[j][k], pn, n)
        return tuple((x - y) % pn for x, y in zip(a, b))

    return SeriesMat._trusted(X.p, X.N, [[minor(i, j, k, l) for k, l in pairs] for i, j in pairs])


def brute_kernel(A: PMatrix) -> set[tuple[int, ...]]:
    """All solutions of A x = 0 mod p^N by exhaustive enumeration."""
    pn = A.modulus
    out = set()
    rows = [A.row(i) for i in range(A.rows)]
    for x in itertools.product(range(pn), repeat=A.cols):
        if all(sum(a * b for a, b in zip(row, x)) % pn == 0 for row in rows):
            out.add(x)
    return out


def in_row_span(H: PMatrix, v: list[int]) -> bool:
    """Membership of v in the row span of a Howell form H.

    The Howell form is canonical, so v lies in the span iff adding it as a
    row leaves the form unchanged.
    """
    return howell_form(PMatrix.from_lists(H.to_lists() + [v], H.p, H.N)) == H


def span_of_rows(K: PMatrix) -> set[tuple[int, ...]]:
    """Every Z/p^N-combination of the rows of K, enumerated."""
    pn = K.modulus
    rows = [list(K.row(i)) for i in range(K.rows)]
    out = set()
    for coefs in itertools.product(range(pn), repeat=len(rows)):
        v = [0] * K.cols
        for c, r in zip(coefs, rows):
            for j in range(K.cols):
                v[j] = (v[j] + c * r[j]) % pn
        out.add(tuple(v))
    return out


def slots(x: int, width: int, n: int, pn: int) -> list[int]:
    """Slots 0..n-1 of a packed int by plain arithmetic, each reduced mod pn."""
    return [(x >> (8 * width * k)) % 2 ** (8 * width) % pn for k in range(n)]


def schoolbook_mul(a: list[int], b: list[int], pn: int, out_len: int) -> list[int]:
    out = [0] * out_len
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < out_len:
                out[i + j] = (out[i + j] + ai * bj) % pn
    return out


def schoolbook_matmul(X, Y, pn: int, out_len: int) -> list:
    """Product of matrices of coefficient lists, entry by entry and term by term."""
    out = []
    for row in X:
        out_row = []
        for j in range(len(Y[0])):
            acc = [0] * out_len
            for k, x in enumerate(row):
                term = schoolbook_mul(x, Y[k][j], pn, out_len)
                acc = [(a + b) % pn for a, b in zip(acc, term)]
            out_row.append(acc)
        out.append(out_row)
    return out


def scalar_matmul(A, X, B, pn: int) -> list:
    """A*X*B for scalar matrices A, B and a matrix X of equal-length coefficient lists."""
    n = len(X[0][0])
    return [
        [
            [
                sum(A[i][k] * X[k][l][t] * B[l][j] for k in range(len(X)) for l in range(len(B)))
                % pn
                for t in range(n)
            ]
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def horner_compose(f: list[int], g: list[int], pn: int, out_len: int) -> list[int]:
    """f(g(X)) truncated to out_len by Horner's rule on schoolbook products."""
    out = [0] * out_len
    for c in reversed(f):
        out = schoolbook_mul(out, g[:out_len], pn, out_len)
        if out_len:
            out[0] = (out[0] + c) % pn
    return out


def repeated_binomial(c: int, pn: int, order: int) -> list[int]:
    """(1+X)^c for a small nonnegative integer c, by repeated multiplication."""
    out = [1] + [0] * (order - 1)
    base = [1, 1][:order] + [0] * max(0, order - 2)
    for _ in range(c):
        out = schoolbook_mul(out, base, pn, order)
    return out


def comb_binomial(n: int, pn: int, order: int) -> list[int]:
    """(1+X)^n for any nonnegative integer n, coefficient k = C(n, k) mod pn."""
    return [math.comb(n, k) % pn for k in range(order)]


def lattice_membership_oracle(w, L) -> bool:
    """Gamma-stability by a direct membership solve over Z/p^N.

    Stacks the truncated-series coordinates of the lattice generators
    pi0^k p^(alpha_i) F_i as plain vectors of length d*M and asks, via a
    Howell form, whether each G-image of a generator lies in their span.
    """
    p, N = w.ctx.p, w.ctx.N
    pn = p**N
    d = w.rank
    M = w.ctx.profile.M_pi0
    gens = []
    for i in L.included():
        col = [(L.F.at(r, i) * p ** L.exponents[i]) % pn for r in range(d)]
        for k in range(M):
            vec = [0] * (d * M)
            for r in range(d):
                vec[r * M + k] = col[r]
            gens.append(vec)
    H = howell_form(PMatrix.from_lists(gens, p, N))
    for j in L.included():
        col = [(L.F.at(r, j) * p ** L.exponents[j]) % pn for r in range(d)]
        image = [[0] * M for _ in range(d)]
        for r in range(d):
            for i in range(d):
                e = w.G[r][i]
                for k in range(min(M, e.order)):
                    image[r][k] = (image[r][k] + e.coeffs[k] * col[i]) % pn
        flat = [image[r][k] for r in range(d) for k in range(M)]
        if not in_row_span(H, flat):
            return False
    return True


def full_fil_lattice(w, r: int) -> PMatrix:
    """Fil^r from the full lift system in (x, y_1, ..., y_(M-1)).

    x is in Fil^r iff some lift x + sum_k pi0^k y_k has phi-image C*x +
    sum_k C*phi(pi0)^k*y_k divisible by q^r.  Every unknown gets its column
    of Weierstrass remainders at the guard order, the Howell kernel of the
    whole system is projected to x and put in Howell form.
    """
    ctx = w.ctx
    p, N = ctx.p, ctx.N
    d = w.rank
    M0 = ctx.profile.M_pi0
    mw = ctx.work.M_pi0
    if r == 0:
        return PMatrix.identity(d, p, N)
    phi = ctx.work.phi_pi0
    phi_pows = [TruncSeries(phi.var, p, N, (1,) + (0,) * (phi.order - 1))]
    for _ in range(M0 - 1):
        phi_pows.append(series_multiply(phi_pows[-1], phi))
    rows = [[0] * (d * M0) for _ in range(r * d)]
    for i2 in range(d):
        for i in range(d):
            base = pad(w.C[i2][i], mw)
            for k in range(M0):
                prod = base if k == 0 else series_multiply(base, phi_pows[k])
                _, rem = weierstrass_divide_q_power(prod, r)
                for t in range(r):
                    rows[i2 * r + t][k * d + i] = rem[t]
    kern = howell_kernel(PMatrix.from_lists(rows, p, N))
    xs = [list(kern.row(i)[:d]) for i in range(kern.rows)]
    xs = [row for row in xs if any(row)]
    if not xs:
        return PMatrix(0, d, (), p, N)
    return howell_form(PMatrix.from_lists(xs, p, N))


def normalization_step_by_division(Cp, AQ, weights, A: PMatrix, ctx):
    """The normalization update computed as written, with a division per step.

    Cp and AQ are SeriesMats at the guard order.  The step takes Cm at any
    order and returns [Delta + u*q^(p-1)*Cp*phi(Cm)]*Q^(-1)*A^(-1) at the
    order of its input: phi(Cm) by d^2 table compositions at u's order n, the
    product with u*q^(p-1)*Cp packed, each column divided exactly by q^(r_j)
    (NotDivisible otherwise), then the scalar product by A^(-1), coefficient
    by coefficient.
    """
    p, pn = ctx.p, ctx.pn
    work = ctx.work
    uq = series_multiply(work.u, q_powers(work.q, p - 1)[p - 1])
    n = uq.order
    CpU = [[kernels.series_mul(uq.coeffs, e, pn, n) for e in row] for row in Cp.rows]
    delta = [
        [[(x - y) % pn for x, y in zip(c[1 : n + 1], a[1 : n + 1])] for c, a in zip(crow, arow)]
        for crow, arow in zip(Cp.rows, AQ.rows)
    ]
    Ainv = matrix_inverse_mod(A).to_lists()

    def step(Cm):
        m = len(Cm[0][0])
        S = kernels.mat_mul(CpU, [[ctx.phi_sub.compose(e, n) for e in row] for row in Cm], pn, n)
        quot = [
            [
                q_divide_exact([(x + y) % pn for x, y in zip(a, b)], p, pn, r)
                for r, a, b in zip(weights, drow, srow)
            ]
            for drow, srow in zip(delta, S)
        ]
        return [
            [[sum(e[t] * a for e, a in zip(qrow, col)) % pn for t in range(m)] for col in zip(*Ainv)]
            for qrow in quot
        ]

    return step


def residual_entry(L, Y, R, ctx) -> tuple[int, int] | None:
    """The first entry (i, j) at which L*phi(Y) and Y*R differ, or None.

    The oracle of wach.commutation_residual, with every intermediate
    unpacked: phi(Y) entry by entry through the context's Substitution, then
    two series-matrix products.  phi(Y) is taken at most at the user window,
    and a product is no longer than its operands, so for Y at the window the
    two sides are compared on exactly the window.
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


def commutation_entry(C, G, ctx) -> tuple[int, int] | None:
    """The first entry at which C*phi(G) - G*gamma(C) is nonzero on the user window."""
    return residual_entry(C, G, C.substitute(ctx.gamma_sub, ctx.profile.M_pi0), ctx)


def difference_valuations(step, X, window: int, p: int, N: int, max_iter: int) -> list[int]:
    """Weighted valuations min_k (k + v_p(c_k)) of successive differences of
    the iterates of step from X, on the first `window` coefficients, up to
    the first difference that vanishes there; AssertionError if none does
    within max_iter steps."""
    pn = p**N
    vals = []
    for _ in range(max_iter):
        nxt = step(X)
        diffs = [
            k + pval((a - b) % pn, p, N)
            for rx, ry in zip(nxt, X)
            for ex, ey in zip(rx, ry)
            for k, (a, b) in enumerate(zip(ex[:window], ey[:window]))
            if a != b
        ]
        if not diffs:
            return vals
        vals.append(min(diffs))
        X = nxt
    raise AssertionError(f"no vanishing difference within {max_iter} steps")


def user_window(ctx) -> SimpleNamespace:
    """The context's series at the user profile, from its guard-order twins.

    teich holds omega_a mod p^N for a = 1..p-1; pi0_in_pi is cut to the
    pi-order M_pi, phi_pi0, gamma_pi0 and u to M_pi0.  v_gamma = gamma(q)/q is
    the inverse of the truncated v_gamma_inv: inversion at an order reads
    only the coefficients below it, so this is v_gamma truncated.
    """
    w, M_pi0 = ctx.work, ctx.profile.M_pi0
    return SimpleNamespace(
        teich=tuple(teichmueller_lift(a, ctx.p, ctx.N).value for a in range(1, ctx.p)),
        pi0_in_pi=w.pi0_in_pi.truncate(ctx.profile.M_pi),
        phi_pi0=w.phi_pi0.truncate(M_pi0),
        gamma_pi0=w.gamma_pi0.truncate(M_pi0),
        u=w.u.truncate(M_pi0),
        v_gamma=series_invert_unit(w.v_gamma_inv.truncate(M_pi0)),
    )


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)^*; its torsion substitution generates Delta."""
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = (x * g) % p
            order += 1
        if order == p - 1:
            return g
    raise AssertionError("no primitive root found")


def _torsion_images(ctx, f: TruncSeries) -> list[TruncSeries]:
    """[a]f for a = 1..p-1, by the context's torsion substitutions."""
    if f.var != PI:
        raise VariableMismatch("projectors act on pi-series")
    return [sub.apply(f) for sub in ctx.torsion_subs]


def _eigencomponent(ctx, i: int, images) -> TruncSeries:
    """(1/(p-1)) sum_a omega_a^(-i) [a]f, with omega_a the Teichmueller lift of a."""
    p, N, pn = ctx.p, ctx.N, ctx.pn
    acc = zero_series(PI, p, N, images[0].order)
    for a, image in enumerate(images, start=1):
        acc = series_add(acc, series_scale(image, pow(teichmueller_lift(a, p, N).value, -i, pn)))
    return series_scale(acc, pow(p - 1, -1, pn))


def projector(ctx, i: int, f: TruncSeries) -> TruncSeries:
    """The component of a pi-series on which Delta acts by omega^i, 0 <= i <= p-2."""
    return _eigencomponent(ctx, i, _torsion_images(ctx, f))


def decompose_gamma_f(ctx, f: TruncSeries) -> tuple[TruncSeries, ...]:
    """Split a pi-series into its p-1 torsion-character eigencomponents.

    The components sum to f exactly at the truncation.  Each component is
    certified to transform by omega_a^i under a generating torsion
    substitution, which pins its eigenspace.
    """
    images = _torsion_images(ctx, f)
    comps = tuple(_eigencomponent(ctx, i, images) for i in range(ctx.p - 1))
    a = primitive_root(ctx.p)
    omega = teichmueller_lift(a, ctx.p, ctx.N).value
    for i, comp in enumerate(comps):
        moved = ctx.torsion_subs[a - 1].apply(comp)
        if moved != series_scale(comp, pow(omega, i, ctx.pn)).truncate(moved.order):
            raise AssertionError(f"component {i} left its eigenspace")
    return comps
