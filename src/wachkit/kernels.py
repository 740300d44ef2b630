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
(:func:`mat_mul`), the affine maps of the fixed-point solvers
(:class:`AffineMap`) and the two sides of the commutation certificate
(:func:`commutation_sides`) are accumulated on the packed entries, so an
output entry costs one unpack however many terms it sums; only this module
knows the slot layout.  The certificate's slots are the widest: a side's
entry sums d*n^2 products of three residues (:func:`certificate_width`),
as a substituted entry stays packed and unreduced before its product.

The triangular solve of :func:`graded_solve`, which splits a pi-series into
pi0-coordinates, runs on a power table as it stands: its residual is one
packed int in the table's slots, and each solved degree adds one product
of two residues to a slot below n, so slot_width(pn, n) holds every sum.

Every product, step and certificate ends in :func:`unpack`.  Up to
_SHIFT_SLOTS = 32 slots it reads the int itself by shift and mask, which
is the case for every entry of the solvers, the certificate and the
products at the default order (15 or 16 slots); longer series, which only
the quotient tables at a context's guard order unpack, go through one
conversion to bytes, since each shift copies the rest of the int and the
loop is quadratic in the length.  unpack's docstring has the measured
crossover.  A power table, whose members run to hundreds of slots in the
bootstrap, reduces each new member in one bytes round trip and never unpacks.
"""

from __future__ import annotations

from operator import mul

_from_bytes = int.from_bytes
# unpack reads up to this many slots by shift and mask, more through bytes
_SHIFT_SLOTS = 32


def slot_width(pn: int, n: int, factors: int = 2) -> int:
    """Bytes per slot holding a sum of n products of `factors` residues mod pn.

    That is factors*bitlen(pn) + bitlen(n) + 1 bits, rounded up.
    """
    return (factors * pn.bit_length() + n.bit_length() + 8) // 8


def pack(coeffs, width: int) -> int:
    """One int whose slot k holds coeffs[k]; coefficients must be < 2^(8*width)."""
    return _from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def unpack(x: int, width: int, n: int, pn: int) -> list[int]:
    """Slots 0..n-1 of a nonnegative packed int, each reduced mod pn.

    Up to _SHIFT_SLOTS slots, slot 0 is read as x & mask and x is shifted
    down one slot; beyond, x is converted to bytes once and each slot is
    one slice.  A shift copies the rest of x, slots above n included, so
    the loop is quadratic in n where the bytes are linear.  On a 2-vCPU
    x86-64 VM with Python 3.11 (best of 9, us per call, bytes -> shift):
    15 slots of 15 bytes (a p = 3 step) 4.3 -> 2.4, of 24 bytes (p = 7)
    7.3 -> 4.6; 16 slots of a 31-slot product 6.7 -> 5.1; 32 slots 8.3 ->
    6.0, but 11.0 -> 13.8 when x carries 32 more; 288 slots of a 576-slot
    product (the p = 7 bootstrap) 133 -> 891.  The context bootstrap, which
    then unpacked every power it formed, took the same time with the
    crossover anywhere from 16 to 48 slots, and 20% longer with no bytes
    path.
    """
    if n > _SHIFT_SLOTS:
        size = n * width
        buf = (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        return [_from_bytes(buf[i : i + width], "little") % pn for i in range(0, size, width)]
    bits = 8 * width
    mask = (1 << bits) - 1
    out = []
    for _ in range(n):
        out.append((x & mask) % pn)
        x >>= bits
    return out


def series_mul(a: list, b: list, pn: int, out_len: int) -> list:
    """Truncated product of coefficient lists a, b modulo pn."""
    width = slot_width(pn, out_len)
    # slot k < out_len sums at most out_len products; carries out of higher
    # slots only move up, so truncating the operands keeps the low slots exact
    prod = pack(a[:out_len], width) * pack(b[:out_len], width)
    return unpack(prod, width, out_len, pn)


def power_table(g, pn: int, n: int, width: int) -> list[int]:
    """Packed g^0, g^1, ... truncated at order n, in slots of `width` bytes; requires g[0] == 0.

    slot_width(pn, n) is enough to compose with the table; the certificate
    asks for wider slots (certificate_width).  The table stops at the first
    power that vanishes mod X^n, so an image of valuation v holds at most
    about n/v powers.  With g = X^v * u, g^k = X^(kv) * u^k and only u^k mod
    X^(n-kv) is needed, so each product is taken on operands cut to the
    shrinking order n - kv and shifted into place: an odd power is
    u^(k-1) * u, an even one the square of u^(k/2), read back from its
    member by a shift, which CPython multiplies as a square.  A slot of
    either sums at most n products of two residues, and the kept slots are
    reduced mod pn in one bytes round trip before the next product.
    """
    table = [1]
    v = next((i for i, c in enumerate(g[:n]) if c), n)
    if v == 0 < n:  # g^k would never vanish: no truncation ends the loop
        raise ValueError("substitution argument has nonzero constant term")
    bits = 8 * width
    u = pack(g[v:n], width)
    cur, k, m = u, 1, n - v
    while m > 0 and cur:
        table.append(cur << (bits * k * v))
        k, m = k + 1, m - v
        if m > 0:
            mask = (1 << (bits * m)) - 1
            if k % 2:
                prod = (cur & mask) * (u & mask)
            else:
                half = (table[k // 2] >> (bits * (k // 2) * v)) & mask
                prod = half * half
            buf = (prod & mask).to_bytes(m * width, "little")
            reduced = [
                (_from_bytes(buf[i : i + width], "little") % pn).to_bytes(width, "little")
                for i in range(0, m * width, width)
            ]
            cur = _from_bytes(b"".join(reduced), "little")
    return table


def compose_table(f, table: list[int], width: int, pn: int, n: int) -> list[int]:
    """f(g) truncated at order n from g's power table at order n."""
    # a generator, not a list: one product of n slots is alive at a time
    return unpack(sum(c * t for c, t in zip(f, table) if c), width, n, pn)


def graded_solve(f, table: list[int], width: int, pn: int, step: int, n: int) -> list[list[int]]:
    """Coordinates c[j][k] with f = sum_jk c[j][k]*X^j*g^k mod X^n, for 0 <= j < step.

    table is g's power table at order n, at `width` >= slot_width(pn, n),
    and each g^k must have exact valuation k*step with a unit leading
    coefficient; c[j] lists the coordinates of the degrees d = k*step + j < n.
    The degrees are solved upwards, and the residual stays one packed int,
    shifted down one slot per degree so that its slot 0 is the degree being
    solved: c is that slot over g^k's leading coefficient, and
    (pn - c)*X^j*g^k is added, never subtracted, so no slot borrows.  A slot
    below n gains at most one product of two residues per solved degree, on
    top of f's residue, so it never holds more than slot_width(pn, n) allows
    and no carry crosses into a slot that is read.
    """
    bits = 8 * width
    mask = (1 << bits) - 1
    coords: list[list[int]] = [[] for _ in range(step)]
    residual = pack(f[:n], width)
    for k, gk in enumerate(table):
        gk >>= bits * k * step  # g^k / X^(k*step): slot 0 is the leading coefficient
        inv = pow(gk & mask, -1, pn)
        for j in range(min(step, n - k * step)):
            c = (residual & mask) * inv % pn
            coords[j].append(c)
            residual = (residual + (pn - c) * gk if c else residual) >> bits
    return coords


def mat_mul(X, Y, pn: int, n: int) -> list[list[list[int]]]:
    """(X*Y)_ij = sum_k X_ik * Y_kj truncated to n, for series matrices.

    Every operand is packed once, each output entry sums its packed products
    and is unpacked once: d^2 unpacks for a d x d product instead of d^3.
    """
    width = slot_width(pn, len(Y) * n)
    Xp = [[pack(e[:n], width) for e in row] for row in X]
    cols = list(zip(*[[pack(e[:n], width) for e in row] for row in Y]))
    return [[unpack(sum(map(mul, xr, col)), width, n, pn) for col in cols] for xr in Xp]


def certificate_width(pn: int, d: int, n: int) -> int:
    """Bytes per slot of commutation_sides for d x d matrices at order n.

    A composition over a power table of at most n members leaves a slot
    summing n products of two residues, unreduced; its product with a
    packed entry sums n of those per slot, and a side's entry sums d such
    products: d*n^2 products of three residues.
    """
    return slot_width(pn, d * n * n, factors=3)


def commutation_sides(L, F, R, phi: list[int], gamma: list[int] | None, width: int, pn: int, n: int):
    """Yield the entries of L*phi(F) and F*gamma(R) mod X^n, row-major, as pairs of coefficient lists.

    phi and gamma are the power tables of two images, packed at `width`
    (certificate_width or wider); with gamma None the right side is F*R.
    Each phi(F_kj), and each gamma(R_kj), is one packed combination over
    its table, kept unreduced, and is multiplied as it stands by the packed
    entries of the other factor, so an entry of each side is one packed sum
    and one unpack.  Every operand has at least n coefficients, and only
    the first n are read.
    """
    Lp = [[pack(e[:n], width) for e in row] for row in L]
    Fp = [[pack(e[:n], width) for e in row] for row in F]
    # phi(F) and gamma(R) by columns: entry (i, j) reads column j of each
    left = list(zip(*[[sum(map(mul, e, phi)) for e in row] for row in F]))
    if gamma is None:
        right = list(zip(*[[pack(e[:n], width) for e in row] for row in R]))
    else:
        right = list(zip(*[[sum(map(mul, e, gamma)) for e in row] for row in R]))
    for lrow, frow in zip(Lp, Fp):
        for lcol, rcol in zip(left, right):
            yield (
                unpack(sum(map(mul, lrow, lcol)), width, n, pn),
                unpack(sum(map(mul, frow, rcol)), width, n, pn),
            )


class AffineMap:
    """The fixed part of X |-> L*(K + Y)*R truncated to n, Y_il = sum of f*E over terms[i][l].

    L and R are scalar matrices (nested lists of residues mod pn), K a
    series matrix, and terms[i][l] a list of triples (k, f, H): a series f
    and a list of series H, read against column l of the argument,
    E = sum_t X_kl[t]*H[t].  The argument X is a matrix of coordinate lists
    of K's shape; coordinates beyond len(H) are not read.  With no terms the
    map is the constant L*K*R.

    The map comes in two parts.  This object is the part that does not read
    L or R: K packed once as the offset, each distinct product f*H[t] (by
    object identity of f and H) formed once on packed ints cut to n slots,
    and the slot width.  :meth:`bind` adds the scalars L_ik*R_lj and returns
    the map, so one fixed part serves every L and R a caller brings: the
    Gamma-solve keeps its fixed part per (context, weights) and binds each
    A to it.  Output entry (i, j) gets its scalars as one dense list, zeros
    included, in the order k*m + l of the entries (k, l) of Y, so it sums
    exactly one scalar per entry of K and the width is sized from K's
    shape, never from the zero pattern of L and R, which changes with every
    L and R.  A call sums each entry's terms as one packed combination of
    the products, adds K, combines the entries with each output entry's
    scalars and unpacks each output entry once: no series product and no
    other unpack.
    """

    def __init__(self, K, terms, pn: int, n: int):
        # an output slot sums, over the len(K)*m scalars, one K residue and
        # each coordinate times a slot of f*H[t], itself at most n products
        reads = max((sum(len(H) for _, _, H in t) for row in terms for t in row), default=0)
        m = len(K[0])
        width = slot_width(pn, len(K) * m * (reads * n + 1), factors=4)
        self.width, self.n, self.pn = width, n, pn
        mask = (1 << (8 * width * n)) - 1
        # each f, each H's members and each product f*H[t] packed once;
        # while terms holds them, distinct objects have distinct ids
        packed: dict[int, object] = {}
        products: dict[tuple[int, int], list[int]] = {}
        # terms, row-major: (k*m + l, packed f*H[t]) for each term of entry (i, l)
        self.terms = []
        for trow in terms:
            for l, t in enumerate(trow):
                entry = []
                for k, f, H in t:
                    key = idf, idH = id(f), id(H)
                    prods = products.get(key)
                    if prods is None:
                        if idf not in packed:
                            packed[idf] = pack(f[:n], width)
                        if idH not in packed:
                            packed[idH] = [pack(h[:n], width) for h in H]
                        fp = packed[idf]
                        prods = products[key] = [fp * h & mask for h in packed[idH]]
                    entry.append((k * m + l, prods))
                self.terms.append(entry)
        self.offset = [pack(e[:n], width) for row in K for e in row]

    def bind(self, L, R):
        """The map X |-> L*(K + Y)*R: this fixed part with the scalars of L and R."""
        pn = self.pn
        cols = list(zip(*R))
        # scalars[i][j][k*m + l] = L_ik*R_lj, in the order of Y
        scalars = [[[a * b % pn for a in row for b in col] for col in cols] for row in L]
        width, n, offset, terms = self.width, self.n, self.offset, self.terms

        def affine(X) -> list[list[list[int]]]:
            X = [x for row in X for x in row]
            Y = [
                c + sum([sum(map(mul, X[kl], prods)) for kl, prods in t])
                for c, t in zip(offset, terms)
            ]
            return [
                [unpack(sum(map(mul, s, Y)), width, n, pn) for s in srow]
                for srow in scalars
            ]

        return affine
