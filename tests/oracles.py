"""Independent oracles used by the tests.

These deliberately avoid the library code paths they check: kernels are
enumerated exhaustively, series products and compositions are recomputed by
schoolbook convolution and Horner's rule on plain ints, and lattice
membership is decided by plain Z/p^N linear algebra on stacked coefficient
vectors.
"""

from __future__ import annotations

import itertools
import math

from wachkit.padic import PMatrix, howell_form, howell_member


def brute_kernel(A: PMatrix) -> set[tuple[int, ...]]:
    """All solutions of A x = 0 mod p^N by exhaustive enumeration."""
    pn = A.modulus
    out = set()
    for x in itertools.product(range(pn), repeat=A.cols):
        if all(v == 0 for v in A.matvec(list(x))):
            out.add(x)
    return out


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
        if not howell_member(H, flat):
            return False
    return True
