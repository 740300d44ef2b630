"""Truncated power series over Z/p^N in the variables pi and pi0.

A :class:`TruncSeries` is a coefficient tuple (index k = coefficient of X^k,
canonical residues mod p^N) tagged with its variable.  The length of the
tuple is the series' valid order: operations that genuinely lose knowledge of
top coefficients (``shift_divide_exact``) return shorter series instead of
padding with unearned zeros, and binary operations work at the shorter of the
two windows.  A :class:`SeriesMat` is a square matrix of pi0-series, kept as
rows of coefficient tuples at one order.

Every substitution f |-> f(g) goes through a :class:`Substitution` of the
image g, which keeps g's packed power tables.  The two variables are related
by pi0 = pi0_in_pi(pi), a series of exact pi-valuation p-1 with unit leading
coefficient.  A pi0-series goes to pi-coordinates through the Substitution
of pi0_in_pi; :func:`pi0_coordinates` goes back, splitting a pi-series into
f = sum_j pi^j f_j(pi0) by a strictly triangular back-substitution graded by
d = j + k(p-1), with no division by p.

Every division of a pi0-series by q^r = (X+p)^r is the stepwise division
of :func:`q_steps`; the other divisions by q read their results from it.

Profiles: a :class:`TruncationProfile` fixes (p, N, M_pi0) with M_pi0 >= N
(so evaluation at pi0 = -p, the Weierstrass remainder, is exact mod p^N);
the pi-order M_pi = (p-1)*M_pi0 + p follows from them (so pi-coordinates
determine pi0-coordinates to order M_pi0).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from . import kernels
from .errors import (
    InsufficientExponentPrecision,
    InvalidInput,
    NonUnitSeries,
    NonzeroConstant,
    NotDivisible,
    ProfileMismatch,
    VariableMismatch,
)
from .padic import PScalar, check_modulus

PI = "pi"
PI0 = "pi0"

_new = object.__new__
_set = object.__setattr__


def default_pi_order(p: int, M_pi0: int) -> int:
    return (p - 1) * M_pi0 + p


@dataclass(frozen=True)
class TruncationProfile:
    """Truncation orders for one computation: fixed p, N, M_pi0; M_pi is derived."""

    p: int
    N: int
    M_pi0: int

    def __post_init__(self) -> None:
        check_modulus(self.p, self.N)
        if type(self.M_pi0) is not int:
            raise InvalidInput(f"M_pi0 must be an integer, got {self.M_pi0!r}")
        if self.M_pi0 < self.N:
            raise InvalidInput(
                f"M_pi0 = {self.M_pi0} must be >= N = {self.N} "
                "(Weierstrass remainders are only exact mod p^N above that order)"
            )

    @property
    def M_pi(self) -> int:
        return default_pi_order(self.p, self.M_pi0)

    @property
    def pn(self) -> int:
        return self.p**self.N


@dataclass(frozen=True)
class TruncSeries:
    """A truncated series: coefficient of X^k at index k, mod p^N."""

    var: str
    p: int
    N: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.var not in (PI, PI0):
            raise InvalidInput(f"unknown variable tag {self.var!r}")
        pn = self.p**self.N
        object.__setattr__(self, "coeffs", tuple([c % pn for c in self.coeffs]))

    @classmethod
    def _trusted(cls, var: str, p: int, N: int, coeffs: tuple[int, ...]) -> "TruncSeries":
        """A series whose tag is known and whose coefficients are canonical.

        Skips the reduction of the public constructor, for results the
        library computed itself; untrusted data goes through ``TruncSeries``.
        """
        self = _new(cls)
        _set(self, "var", var)
        _set(self, "p", p)
        _set(self, "N", N)
        _set(self, "coeffs", coeffs)
        return self

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def pn(self) -> int:
        return self.p**self.N

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def constant_term(self) -> int:
        return self.coeff(0)

    def is_unit(self) -> bool:
        return self.coeff(0) % self.p != 0

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, order: int) -> "TruncSeries":
        if order > len(self.coeffs):
            raise InvalidInput("cannot extend a series' valid order")
        return TruncSeries._trusted(self.var, self.p, self.N, self.coeffs[:order])


def _same_ring(f: TruncSeries, g: TruncSeries) -> None:
    if (f.p, f.N) != (g.p, g.N):
        raise ProfileMismatch("series over different moduli")
    if f.var != g.var:
        raise VariableMismatch(f"variable tags differ: {f.var} vs {g.var}")


def constant_series(var: str, c: int, p: int, N: int, order: int) -> TruncSeries:
    return TruncSeries(var, p, N, (c,) + (0,) * (order - 1))


@dataclass(frozen=True, init=False)
class SeriesMat:
    """A square matrix of pi0-series over one (p, N), every entry at one order.

    ``rows[i][j]`` is the canonical coefficient tuple of entry (i, j), the
    form the kernels take; the library works on these rows.  For readers,
    ``len(X)``, ``X[i][j]`` and iteration over the rows give TruncSeries.
    Binary operations work at the shorter of the two orders.
    """

    p: int
    N: int
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, entries, p: int, N: int):
        """Validate a d x d nested sequence of pi0-series over (p, N), d >= 1.

        A wrong shape is InvalidInput, a pi-series VariableMismatch and
        another modulus ProfileMismatch.  Each entry is exact at its own
        order, so shorter entries are extended by zeros to the longest.
        """
        try:
            grid = [list(row) for row in entries]
        except TypeError:
            grid = []
        if not grid or any(len(row) != len(grid) for row in grid) or not all(
            isinstance(e, TruncSeries) for row in grid for e in row
        ):
            raise InvalidInput("expected a nonempty square matrix of series")
        for e in (e for row in grid for e in row):
            if e.var != PI0:
                raise VariableMismatch(f"expected pi0-series, got a {e.var}-series")
            if (e.p, e.N) != (p, N):
                raise ProfileMismatch(f"series mod {e.p}^{e.N} in a matrix over {p}^{N}")
        n = max(e.order for row in grid for e in row)
        _set(self, "p", p)
        _set(self, "N", N)
        _set(self, "rows", tuple(tuple(pad(e, n).coeffs for e in row) for row in grid))

    @classmethod
    def _trusted(cls, p: int, N: int, rows) -> "SeriesMat":
        """A matrix of canonical coefficient sequences of one length, computed by the library."""
        self = _new(cls)
        _set(self, "p", p)
        _set(self, "N", N)
        _set(self, "rows", tuple(tuple(tuple(e) for e in row) for row in rows))
        return self

    @classmethod
    def identity(cls, d: int, p: int, N: int, order: int) -> "SeriesMat":
        one, zero = (1,) + (0,) * (order - 1), (0,) * order
        return cls._trusted(p, N, [[one if i == j else zero for j in range(d)] for i in range(d)])

    @property
    def order(self) -> int:
        return len(self.rows[0][0])

    @property
    def pn(self) -> int:
        return self.p**self.N

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[TruncSeries, ...]:
        return tuple(TruncSeries._trusted(PI0, self.p, self.N, e) for e in self.rows[i])

    def __iter__(self):
        return (self[i] for i in range(len(self.rows)))

    def _order_with(self, other: "SeriesMat") -> int:
        if (self.p, self.N) != (other.p, other.N):
            raise ProfileMismatch("series matrices over different moduli")
        return min(self.order, other.order)

    def _combine(self, other: "SeriesMat", sign: int) -> "SeriesMat":
        self._order_with(other)
        pn = self.pn
        return SeriesMat._trusted(self.p, self.N, [
            [[(a + sign * b) % pn for a, b in zip(x, y)] for x, y in zip(rx, ry)]
            for rx, ry in zip(self.rows, other.rows)
        ])

    def __add__(self, other: "SeriesMat") -> "SeriesMat":
        return self._combine(other, 1)

    def __sub__(self, other: "SeriesMat") -> "SeriesMat":
        return self._combine(other, -1)

    def __matmul__(self, other: "SeriesMat") -> "SeriesMat":
        n = self._order_with(other)
        out = kernels.mat_mul(self.rows, other.rows, self.pn, n)
        return SeriesMat._trusted(self.p, self.N, out)

    def pad(self, order: int) -> "SeriesMat":
        """Every entry at exactly the given order: cut, or extended by zeros."""
        ext = (0,) * max(0, order - self.order)
        rows = [[(e + ext)[:order] for e in row] for row in self.rows]
        return SeriesMat._trusted(self.p, self.N, rows)

    def at_precision(self, N: int) -> "SeriesMat":
        """The matrix mod p^N for N <= self.N (InvalidInput above), at the same order."""
        check_modulus(self.p, N)
        if N > self.N:
            raise InvalidInput(f"precision N = {N} exceeds the matrix's N = {self.N}")
        pn = self.p**N
        return SeriesMat._trusted(self.p, N, [[[c % pn for c in e] for e in row] for row in self.rows])

    def constant_terms(self) -> list[list[int]]:
        return [[e[0] if e else 0 for e in row] for row in self.rows]

    def substitute(self, sub: "Substitution", order: int) -> "SeriesMat":
        """Entrywise f |-> f(g) for sub's image g, at most at g's order and `order`."""
        g = sub.image
        if (self.p, self.N) != (g.p, g.N):
            raise ProfileMismatch("series over different moduli")
        n = min(self.order, g.order, order)
        rows = [[sub.compose(e, n) for e in row] for row in self.rows]
        return SeriesMat._trusted(self.p, self.N, rows)

    def sandwich(self, A, B) -> "SeriesMat":
        """A*X*B for scalar matrices A and B (PMatrix): an affine map with no terms."""
        no_terms = [[[] for _ in row] for row in self.rows]
        AXB = kernels.AffineMap(self.rows, no_terms, self.pn, self.order)
        return SeriesMat._trusted(self.p, self.N, AXB.bind(A.to_lists(), B.to_lists())(self.rows))

    def kron(self, other: "SeriesMat") -> "SeriesMat":
        """Kronecker product: entry (i1*d2 + i2, j1*d2 + j2) is X_(i1 j1) * Y_(i2 j2)."""
        n, pn = self._order_with(other), self.pn
        return SeriesMat._trusted(self.p, self.N, [
            [kernels.series_mul(a, b, pn, n) for a in rx for b in ry]
            for rx in self.rows
            for ry in other.rows
        ])

    def block_diag(self, other: "SeriesMat") -> "SeriesMat":
        n = self._order_with(other)
        zero = (0,) * n
        left = [row + (zero,) * len(other) for row in self.pad(n).rows]
        right = [(zero,) * len(self) + row for row in other.pad(n).rows]
        return SeriesMat._trusted(self.p, self.N, left + right)

    def unipotent_inverse(self) -> "SeriesMat":
        """Inverse of a matrix congruent to Id mod pi0, by the Neumann series."""
        ident = SeriesMat.identity(len(self), self.p, self.N, self.order)
        nil = ident - self  # vanishes mod pi0
        acc = power = ident
        for _ in range(self.order):
            power = power @ nil
            if not any(any(e) for row in power.rows for e in row):
                break
            acc = acc + power
        return acc


def series_add(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    _same_ring(f, g)
    pn = f.pn
    return TruncSeries._trusted(
        f.var, f.p, f.N, tuple([(a + b) % pn for a, b in zip(f.coeffs, g.coeffs)])
    )


def series_sub(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    _same_ring(f, g)
    pn = f.pn
    return TruncSeries._trusted(
        f.var, f.p, f.N, tuple([(a - b) % pn for a, b in zip(f.coeffs, g.coeffs)])
    )


def series_multiply(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Exact truncated product at the shorter of the two windows."""
    _same_ring(f, g)
    n = min(f.order, g.order)
    out = kernels.series_mul(f.coeffs, g.coeffs, f.pn, n)
    return TruncSeries._trusted(f.var, f.p, f.N, tuple(out))


def series_invert_unit(f: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with unit constant term."""
    if not f.is_unit():
        raise NonUnitSeries("constant term is not a unit mod p")
    pn = f.pn
    inv0 = pow(f.coeffs[0], -1, pn)
    out = [0] * f.order
    out[0] = inv0
    for k in range(1, f.order):
        acc = 0
        for i in range(1, k + 1):
            fi = f.coeffs[i] if i < f.order else 0
            if fi:
                acc += fi * out[k - i]
        out[k] = (-inv0 * acc) % pn
    return TruncSeries._trusted(f.var, f.p, f.N, tuple(out))


class Cache:
    """The values built for the last `cap` keys asked for, least recently used dropped first.

    A cache rides along with an immutable object (a Substitution's power
    tables, a context's solve plans): a pickled Cache comes back empty, and
    the owner's equality and repr should not look at it.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._items: dict = {}

    def __reduce__(self):
        return (Cache, (self.cap,))

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key, build):
        """The value kept for key, or build(key), kept as the most recently used."""
        items = self._items
        if key in items:
            value = items.pop(key)
        else:
            value = build(key)
            if len(items) >= self.cap:
                del items[next(iter(items))]
        items[key] = value  # most recently used last
        return value


# Power tables kept per image.  The library's own calls ask an image for at
# most three orders (the user window, the guard order and u's order, where
# the quotient tables are divided); the cap bounds memory when loaded
# artifacts bring series of many other lengths.  The certificate's wide
# tables are kept apart, with the same cap, per (order, width): the width
# follows the rank, and in one cache the ranks of a few artifacts would
# evict the library's orders.  Quotient tables are not capped: the library
# asks for them only at u's order, one per weight, so at most p - 1 exist.
_TABLES_KEPT = 4


class Substitution:
    """f |-> f(g) for one fixed image g, by packed power tables.

    The powers g^0, g^1, ... truncated at an order n are packed the first
    time order n is asked for and kept (the last few orders used); each
    substitution at that order is then one big-int linear combination and
    one unpack.  The wide tables of :meth:`wide_table`, which the
    commutation certificate combines without unpacking, are kept the same
    way per (order, width), and the quotient tables of :meth:`quotients`
    for every (order, exponent) asked for.  The tables are a cache: they
    are not pickled, and equality of the objects that hold a Substitution
    should not look at it.
    """

    def __init__(self, image: TruncSeries):
        if image.constant_term() != 0:
            raise NonzeroConstant("substitution argument has nonzero constant term")
        self.image = image
        self._tables = Cache(_TABLES_KEPT)
        self._wide = Cache(_TABLES_KEPT)
        self._quotients: dict[tuple[int, int], list[list[int]]] = {}

    def __reduce__(self):
        return (Substitution, (self.image,))

    def _table(self, n: int) -> tuple[int, list[int]]:
        return self._tables.get(n, self._power_table)

    def _power_table(self, n: int) -> tuple[int, list[int]]:
        width = kernels.slot_width(self.image.pn, n)
        return width, self._packed_powers((n, width))

    def _packed_powers(self, key: tuple[int, int]) -> list[int]:
        g = self.image
        n, width = key
        return kernels.power_table(g.coeffs, g.pn, n, width)

    def wide_table(self, n: int, width: int) -> list[int]:
        """The packed powers g^0, g^1, ... truncated at order n, in slots of `width` bytes."""
        return self._wide.get((n, width), self._packed_powers)

    def quotients(self, n: int, r: int) -> list[list[int]]:
        """Q_k = (g^k mod X^n) / (X*(X+p)^r) for each g^k of :meth:`powers`, of length n-1-r.

        For f with f(0) = 0, (f(g) mod X^n) / (X*(X+p)^r) is the linear
        combination sum_k f_k*Q_k (Q_0 = 0), as the division is Z/p^N-linear.
        Each Q_k is divided by :func:`q_divide_exact`, which raises
        NotDivisible on a nonzero remainder, so by linearity the table proves
        the division exact for every such f.
        """
        if not 0 <= r < n:
            raise InvalidInput("division exponent out of range")
        entry = self._quotients.get((n, r))
        if entry is None:
            g = self.image
            powers = self.powers(n)
            next(powers)  # g^0 = 1 has no part above the constant term
            entry = [[0] * (n - 1 - r)]
            entry += [q_divide_exact(gk[1:], g.p, g.pn, r) for gk in powers]
            self._quotients[n, r] = entry
        return entry

    def powers(self, n: int):
        """Yield g^0, g^1, ... as coefficient lists of length n, up to the first zero."""
        width, table = self._table(n)
        pn = self.image.pn
        for t in table:
            yield kernels.unpack(t, width, n, pn)

    def compose(self, coeffs, n: int) -> list[int]:
        """f(g) truncated at order n <= g's order, for a coefficient list f."""
        width, table = self._table(n)
        return kernels.compose_table(coeffs, table, width, self.image.pn, n)

    def apply(self, f: TruncSeries, order: int | None = None) -> TruncSeries:
        """f(g) at the operand's order, or at ``order``; never above g's order.

        f and g may carry different tags (a coordinate change substitutes a
        pi-series for pi0); the result inherits g's.
        """
        g = self.image
        if (f.p, f.N) != (g.p, g.N):
            raise ProfileMismatch("series over different moduli")
        n = min(f.order if order is None else order, g.order)
        return TruncSeries._trusted(g.var, g.p, g.N, tuple(self.compose(f.coeffs, n)))


def _ceil_log(p: int, m: int) -> int:
    k, q = 0, 1
    while q < m:
        q *= p
        k += 1
    return k


def binomial_powers(exponents, p: int, N: int, order: int) -> Iterator[TruncSeries]:
    """An iterator over (1 + pi)^c truncated at the given order, for each c of ``exponents``.

    Each ``c`` may be a plain int (an exact exponent) or a :class:`PScalar`
    given mod p^K, which must satisfy K >= N + ceil(log_p order): C(n, k)
    mod p^N for k < order depends only on n mod p^K then.  Every exponent is
    checked before the first series is formed.  Coefficient k is the
    binomial C(n, k) of the nonnegative integer representative n, written as
    p^(v_k - w_k) * num_k / den_k from C(n, k) = prod_(i<=k) (n-i+1)/i, where
    w_k and den_k are the p-valuation of k! and the prefix product mod p^N of
    the unit parts of 1..k, and v_k and num_k the same for n(n-1)...(n-k+1).
    The denominators do not depend on n, so the batch forms them once: the
    last den_k is inverted, and walking k back down, that inverse times the
    unit part of k is the inverse of den_(k-1).  So a batch takes one
    modular inversion, and each series, formed as the iterator is read, only
    its numerators, exact mod p^N on small integers.
    """
    ns = []
    for c in exponents:
        if isinstance(c, PScalar):
            if c.p != p:
                raise ProfileMismatch("exponent lives over a different prime")
            need = N + _ceil_log(p, order)
            if c.N < need:
                raise InsufficientExponentPrecision(
                    f"exponent precision {c.N} below required {need}"
                )
            n = c.value
        else:
            n = int(c)
            if n < 0:
                raise InvalidInput("negative exponent; invert the unit instead")
        ns.append(n)
    if order < 1:
        raise InvalidInput("order must be positive")
    pn = p**N
    units, vals = [], []  # for k = 1, ..., order-1: the unit part of k, and w_k
    den, w = 1, 0
    for k in range(1, order):
        unit = k
        while unit % p == 0:
            unit //= p
            w += 1
        units.append(unit)
        vals.append(w)
        den = den * unit % pn
    inv = pow(den, -1, pn)  # 1/den_(order-1)
    inv_dens = []
    for unit in reversed(units):
        inv_dens.append(inv)
        inv = inv * unit % pn  # 1/den_(k-1)
    inv_dens.reverse()
    ppow = [p**e for e in range(N)]

    def expand(n: int) -> TruncSeries:
        coeffs = [1]
        num_k, v = 1, 0
        # k = 1, ..., min(order - 1, n): C(n, k) = 0 past n
        for num, w_k, inv_k in zip(range(n, max(n - order + 1, 0), -1), vals, inv_dens):
            while num % p == 0:
                num //= p
                v += 1
            num_k = num_k * num % pn
            e = v - w_k
            coeffs.append(num_k * inv_k * ppow[e] % pn if e < N else 0)
        coeffs += [0] * (order - len(coeffs))
        return TruncSeries._trusted(PI, p, N, tuple(coeffs))

    return map(expand, ns)


def cut_table(table: list[list[int]], m: int) -> list[list[int]]:
    """table's members up to the last one nonzero below order m, each cut to m.

    A combination sum_t x_t*table[t] mod X^m reads no coordinate x_t past
    these, so a fixed-point step over a quotient table keeps only them.
    """
    reads = 1 + max((t for t, Q in enumerate(table) if any(Q[:m])), default=0)
    return [Q[:m] for Q in table[:reads]]


def q_steps(coeffs, p: int, pn: int, r: int) -> tuple[list[int], list[list[int]]]:
    """Divide a canonical coefficient list f by (X+p) r times, top down, with no inversion.

    Returns the step remainders [c_1, ..., c_r] and quotients [Q_0, ..., Q_r],
    where Q_0 = f and Q_(s-1) = (X+p)*Q_s + c_s, so Q_s has length len(f) - s
    and

        f = (X+p)^r*Q_r + sum_s c_s*(X+p)^(s-1).

    The c_s are the coordinates of the remainder of f by (X+p)^r in the basis
    (X+p)^(s-1); as those are monic of distinct degrees, the remainder
    vanishes iff every c_s does.  Every step is Z/p^N-linear in f.
    """
    if not 0 <= r <= len(coeffs):
        raise InvalidInput("division exponent out of range")
    rems: list[int] = []
    quots = [list(coeffs)]
    for _ in range(r):
        quot, carry = [], 0
        for a in reversed(quots[-1]):
            carry = (a - p * carry) % pn
            quot.append(carry)
        rems.append(quot.pop())
        quot.reverse()
        quots.append(quot)
    return rems, quots


def q_divmod(coeffs, p: int, pn: int, r: int) -> tuple[list[int], tuple[int, ...]]:
    """Quotient and remainder (degree < r) of a canonical coefficient list by (X+p)^r.

    The remainder is the step remainders of :func:`q_steps` expanded to the
    X-basis by Horner's rule, c_1 + (X+p)*(c_2 + (X+p)*(...)).
    """
    rems, quots = q_steps(coeffs, p, pn, r)
    rem: list[int] = []
    for c in reversed(rems):
        rem = [(a + p * b) % pn for a, b in zip([0] + rem, rem + [0])]
        rem[0] = (rem[0] + c) % pn
    return quots[-1], tuple(rem)


def q_divide_exact(coeffs, p: int, pn: int, r: int) -> list[int]:
    """Quotient of a canonical coefficient list by (X+p)^r, which must divide it (NotDivisible)."""
    quot, rem = q_divmod(coeffs, p, pn, r)
    if any(rem):
        raise NotDivisible(f"nonzero remainder {rem} dividing by (X+p)^{r}")
    return quot


def weierstrass_divide_exact(f: TruncSeries, r: int) -> TruncSeries:
    """Division by (X+p)^r that must leave remainder zero mod p^N."""
    if f.var != PI0:
        raise VariableMismatch("Weierstrass division expects a pi0-series")
    quot = q_divide_exact(f.coeffs, f.p, f.pn, r)
    return TruncSeries._trusted(PI0, f.p, f.N, tuple(quot))


def shift_divide_exact(f: TruncSeries, k: int) -> TruncSeries:
    """Exact division by X^k; the valid order shrinks by k."""
    if k < 0 or k > f.order:
        raise InvalidInput("shift out of range")
    if any(f.coeffs[:k]):
        raise NotDivisible("low coefficients are nonzero")
    return TruncSeries._trusted(f.var, f.p, f.N, f.coeffs[k:])


def pad(f: TruncSeries, order: int) -> TruncSeries:
    """f at exactly the given order: truncated, or extended by zeros."""
    if f.order >= order:
        return f.truncate(order)
    return TruncSeries._trusted(f.var, f.p, f.N, f.coeffs + (0,) * (order - f.order))


def q_powers(q: TruncSeries, up_to: int) -> list[TruncSeries]:
    """q^0, ..., q^up_to at q's order, for q = p + pi0, by the binomial theorem."""
    p, pn, n = q.p, q.pn, q.order
    if q.coeffs != ((p % pn, 1) + (0,) * n)[:n]:
        raise ValueError("q must be p + pi0")
    pows, zeros = [], (0,) * n
    for e in range(up_to + 1):
        c = tuple([comb(e, k) * p ** (e - k) % pn for k in range(min(e + 1, n))])
        pows.append(TruncSeries._trusted(PI0, p, q.N, c + zeros[len(c):]))
    return pows


def pi0_coordinates(f: TruncSeries, pi0_in_pi: Substitution, out_order: int) -> tuple[TruncSeries, ...]:
    """The pi0-series (f_0, ..., f_{p-2}) with f = sum_j pi^j f_j(pi0).

    ``pi0_in_pi`` substitutes the coordinate series pi0(pi); its power
    tables are shared across calls.  Strictly triangular back-substitution
    along the grading d = j + k(p-1): pi^j * pi0_in_pi^k has exact
    pi-valuation d with unit leading coefficient, so each residual
    coefficient determines one unknown with no division by p.  Only residual
    degrees below d_limit = min(order of f, (p-1)*out_order) are read, so
    the packed powers of pi0_in_pi are read as they stand from its table at
    that order, and :func:`kernels.graded_solve` keeps the residual packed
    in the table's slots: each solved degree adds at most one product of two
    residues to a slot below d_limit, the d_limit products that
    slot_width(pn, d_limit) sizes the table for.
    """
    if f.var != PI:
        raise VariableMismatch("expected a pi-series")
    p, pn = f.p, f.pn
    d_limit = min(f.order, (p - 1) * out_order)
    width, table = pi0_in_pi._table(d_limit)
    coords = kernels.graded_solve(f.coeffs, table, width, pn, p - 1, d_limit)
    return tuple(
        TruncSeries._trusted(PI0, p, f.N, tuple(c) + (0,) * (out_order - len(c))) for c in coords
    )
