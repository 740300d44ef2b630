"""Truncated series kernels over Z/p^N on packed big integers.

Series are plain lists of canonical residues in [0, pn), index k holding the
coefficient of X^k.  A list is packed into one Python int by Kronecker
substitution: slot k holds coefficient k in ``width`` whole bytes,
little-endian.  :func:`slot_width` makes a slot wide enough for any sum of n
products of canonical residues, so one big-int product (or one linear
combination of packed powers) computes every slot of an n-term convolution
with no carry between slots, and unpacking reduces each slot mod pn.  See
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44 (2009), and Brent & Kung, "Fast
algorithms for manipulating formal power series", J. ACM 25 (1978), for the
power-table substitution.

Series matrices are nested lists of coefficient lists.  Their products
(:func:`mat_mul`), scalar sandwiches (:class:`Sandwich`) and affine
products (:class:`AffineProduct`) are accumulated on the packed entries, so
an output entry costs one unpack however many terms it sums; only this
module knows the slot layout.
"""

from __future__ import annotations

from operator import add, mul

_from_bytes = int.from_bytes


def slot_width(pn: int, n: int, factors: int = 2) -> int:
    """Bytes per slot holding a sum of n products of `factors` residues mod pn.

    That is factors*bitlen(pn) + bitlen(n) + 1 bits, rounded up.
    """
    return (factors * pn.bit_length() + n.bit_length() + 8) // 8


def pack(coeffs, width: int) -> int:
    """One int whose slot k holds coeffs[k]; coefficients must be < 2^(8*width)."""
    return _from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def unpack(x: int, width: int, n: int, pn: int) -> list[int]:
    """Slots 0..n-1 of a nonnegative packed int, each reduced mod pn."""
    size = n * width
    buf = (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [_from_bytes(buf[i : i + width], "little") % pn for i in range(0, size, width)]


def series_mul(a: list, b: list, pn: int, out_len: int) -> list:
    """Truncated product of coefficient lists a, b modulo pn."""
    width = slot_width(pn, out_len)
    # slot k < out_len sums at most out_len products; carries out of higher
    # slots only move up, so truncating the operands keeps the low slots exact
    prod = pack(a[:out_len], width) * pack(b[:out_len], width)
    return unpack(prod, width, out_len, pn)


def _powers(g, pn: int, n: int, width: int):
    """Yield packed g^0, g^1, ... truncated at order n, up to the first that vanishes.

    With g = X^v * u, g^k = X^(kv) * u^k and only u^k mod X^(n-kv) is
    needed, so each product is taken on operands cut to the shrinking order
    n - kv and shifted into place.
    """
    yield 1
    v = next((i for i, c in enumerate(g[:n]) if c), n)
    if v == 0 < n:  # g^k would never vanish: no truncation ends the loop
        raise ValueError("substitution argument has nonzero constant term")
    u = pack(g[v:n], width)
    cur, k, m = u, 1, n - v
    while m > 0 and cur:
        yield cur << (8 * width * k * v)
        k, m = k + 1, m - v
        if m > 0:
            mask = (1 << (8 * width * m)) - 1
            cur = pack(unpack((cur & mask) * (u & mask), width, m, pn), width)


def power_table(g, pn: int, n: int) -> tuple[int, list[int]]:
    """(width, packed g^0, g^1, ...) truncated at order n; requires g[0] == 0.

    The table stops at the first power that vanishes mod X^n, so an image of
    valuation v holds at most about n/v powers.
    """
    width = slot_width(pn, n)
    return width, list(_powers(g, pn, n, width))


def compose_table(f, table: list[int], width: int, pn: int, n: int) -> list[int]:
    """f(g) truncated at order n from g's power table at order n."""
    # a generator, not a list: one product of n slots is alive at a time
    return unpack(sum(c * t for c, t in zip(f, table) if c), width, n, pn)


def mat_mul(X, Y, pn: int, n: int) -> list[list[list[int]]]:
    """(X*Y)_ij = sum_k X_ik * Y_kj truncated to n, for series matrices.

    Every operand is packed once, each output entry sums its packed products
    and is unpacked once: d^2 unpacks for a d x d product instead of d^3.
    """
    width = slot_width(pn, len(Y) * n)
    Xp = [[pack(e[:n], width) for e in row] for row in X]
    cols = list(zip(*[[pack(e[:n], width) for e in row] for row in Y]))
    return [[unpack(sum(map(mul, xr, col)), width, n, pn) for col in cols] for xr in Xp]


class Sandwich:
    """out_ij = sum_(k,l) A_ik*B_lj * (K_kl + E_kl*F_kl), truncated to n.

    A and B are scalar matrices (nested lists of residues mod pn); E, the
    entrywise factor F and the offset K are series matrices.  F and K are
    fixed, so they are packed once; a call packs E's entries, sums each
    output entry's terms on the packed ints and unpacks it once.  Without F
    and K this is the product A*E*B.  terms[i][j] lists (k*m + l, A_ik*B_lj)
    for the nonzero scalars, m = len(B).

    With a basis (a list of series, packed once), a call's E entries are
    coordinate lists over it: E_kl = sum_t E_kl[t]*basis[t], formed on the
    packed basis, so E is never packed or unpacked.
    """

    def __init__(self, A, B, pn: int, n: int, factor=None, offset=None, basis=None):
        m = len(B)
        cols = list(zip(*B))
        self.terms = []
        for row in A:
            trow = []
            for col in cols:
                t = [(k * m + l, a * b % pn) for k, a in enumerate(row) for l, b in enumerate(col)]
                trow.append([(kl, c) for kl, c in t if c])
            self.terms.append(trow)
        # a term's slot is a scalar times the sum of one K residue and at
        # most n products E*F (one E residue without F), where each E residue
        # is itself a sum of len(basis) products with a basis
        per_term = (1 if factor is None else n) * (1 if basis is None else len(basis))
        per_term += offset is not None
        factors = 2 + (factor is not None) + (basis is not None)
        most = max(len(t) for row in self.terms for t in row)
        width = slot_width(pn, most * per_term, factors=factors)
        self.width, self.n, self.pn = width, n, pn
        self.factor = None if factor is None else self._pack(factor)
        self.offset = None if offset is None else self._pack(offset)
        self.basis = None if basis is None else self._pack([basis])

    def _pack(self, M) -> list[int]:
        """M's entries packed, row-major; a list repeated in M is packed once."""
        width, n = self.width, self.n
        seen: dict[int, int] = {}
        out = []
        for row in M:
            for e in row:
                x = seen.get(id(e))
                if x is None:
                    x = seen[id(e)] = pack(e[:n], width) if any(e) else 0
                out.append(x)
        return out

    def __call__(self, E) -> list[list[list[int]]]:
        width, n, pn = self.width, self.n, self.pn
        if self.basis is None:
            P = self._pack(E)
        else:
            basis = self.basis
            P = [sum(map(mul, e, basis)) for row in E for e in row]
        if self.factor is not None:
            P = list(map(mul, P, self.factor))
        if self.offset is not None:
            P = list(map(add, P, self.offset))
        return [
            [unpack(sum([c * P[kl] for kl, c in t]), width, n, pn) for t in trow]
            for trow in self.terms
        ]


class AffineProduct:
    """out = (K + F*E)*B truncated to n, with E_kl = sum_t X_kl[t]*H_l[t].

    F and the offset K are series matrices, B a scalar matrix, and H_l, the
    basis of column l, a list of series (columns may share one list).  A
    call takes the coordinate lists X_kl; coordinates beyond len(H_l) are
    not read.  The products F_ik*H_l[t] and K*B are formed once, on packed
    ints cut to n slots, so a call sums each entry of F*E as one packed
    combination of them, combines those by B's scalars and unpacks each
    output entry once: no series product and no other unpack.
    """

    def __init__(self, F, bases, B, pn: int, n: int, offset):
        d = len(F)
        # an output slot sums, over the nonzero B_lj, one K residue or d*T
        # coordinates times a slot of F_ik*H_l[t], itself n products
        most = max(map(len, bases))
        width = slot_width(pn, len(B) * (d * most * n + 1), factors=4)
        self.width, self.n, self.pn = width, n, pn
        mask = (1 << (8 * width * n)) - 1
        Fp = [[pack(e[:n], width) for e in row] for row in F]
        products: dict[int, list] = {}
        for basis in bases:
            if id(basis) not in products:
                Hp = [pack(h[:n], width) for h in basis]
                products[id(basis)] = [[[f * h & mask for h in Hp] for f in row] for row in Fp]
        # products[l][i][k][t] = F_ik*H_l[t]
        self.products = [products[id(basis)] for basis in bases]
        self.terms = [[(l, b) for l, b in enumerate(col) if b] for col in zip(*B)]
        Kp = [[pack(e[:n], width) for e in row] for row in offset]
        self.offset = [[sum([b * krow[l] for l, b in t]) for t in self.terms] for krow in Kp]

    def __call__(self, X) -> list[list[list[int]]]:
        width, n, pn = self.width, self.n, self.pn
        FE = [
            [
                sum([sum(map(mul, x, fh)) for x, fh in zip(col, prod[i])])
                for col, prod in zip(zip(*X), self.products)
            ]
            for i in range(len(self.offset))
        ]
        return [
            [unpack(k + sum([b * row[l] for l, b in t]), width, n, pn) for k, t in zip(krow, self.terms)]
            for krow, row in zip(self.offset, FE)
        ]
