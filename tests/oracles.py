"""Independent oracles used by the tests.

These deliberately avoid the library code paths they check: kernels are
enumerated exhaustively, series products and compositions are recomputed by
schoolbook convolution and Horner's rule on plain ints, and lattice
membership is decided by plain Z/p^N linear algebra on stacked coefficient
vectors.  The series constructors and the binary power below are test
helpers only: the library itself has no use for them.
"""

from __future__ import annotations

import itertools
import math

from wachkit import kernels
from wachkit.errors import InvalidInput
from wachkit.padic import PMatrix, howell_form, howell_kernel, matrix_inverse_mod, pval
from wachkit.series import (
    TruncSeries,
    constant_series,
    pad,
    q_divide_exact,
    q_powers,
    series_multiply,
    weierstrass_divide_q_power,
)


def make_series(var: str, coeffs, p: int, N: int) -> TruncSeries:
    return TruncSeries(var, p, N, tuple(coeffs))


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
