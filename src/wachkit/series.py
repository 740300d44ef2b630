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

Profiles: a :class:`TruncationProfile` fixes (p, N, M_pi0, M_pi) with
M_pi0 >= N (so evaluation at pi0 = -p, the Weierstrass remainder, is exact
mod p^N) and M_pi >= (p-1)*M_pi0 + p (so pi-coordinates determine
pi0-coordinates to order M_pi0).
"""

from __future__ import annotations

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
    """Truncation orders for one computation: fixed p, N, M_pi0, M_pi."""

    p: int
    N: int
    M_pi0: int
    M_pi: int

    def __post_init__(self) -> None:
        check_modulus(self.p, self.N)
        if self.M_pi0 < self.N:
            raise InvalidInput(
                f"M_pi0 = {self.M_pi0} must be >= N = {self.N} "
                "(Weierstrass remainders are only exact mod p^N above that order)"
            )
        if self.M_pi < default_pi_order(self.p, self.M_pi0):
            raise InvalidInput(
                f"M_pi = {self.M_pi} must be >= (p-1)*M_pi0 + p = "
                f"{default_pi_order(self.p, self.M_pi0)}"
            )

    @staticmethod
    def default(p: int, N: int = 16, M_pi0: int = 16) -> "TruncationProfile":
        return TruncationProfile(p, N, M_pi0, default_pi_order(p, M_pi0))

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


def zero_series(var: str, p: int, N: int, order: int) -> TruncSeries:
    return TruncSeries(var, p, N, (0,) * order)


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
        AXB = kernels.AffineMap(A.to_lists(), B.to_lists(), self.rows, no_terms, self.pn, self.order)
        return SeriesMat._trusted(self.p, self.N, AXB(self.rows))

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

    def det(self) -> TruncSeries:
        """Determinant by minor expansion, memoized on column subsets."""
        X, d, n, pn = self.rows, len(self.rows), self.order, self.pn
        memo: dict[int, list[int]] = {0: [1] + [0] * (n - 1)}

        def rec(cols_mask: int, row: int) -> list[int]:
            if cols_mask not in memo:
                acc = [0] * n
                sign = 1 if row % 2 == 0 else -1  # expansion along row index `row`
                for j in range(d):
                    if cols_mask & (1 << j):
                        minor = rec(cols_mask & ~(1 << j), row - 1)
                        term = kernels.series_mul(X[row][j], minor, pn, n)
                        acc = [(a + sign * t) % pn for a, t in zip(acc, term)]
                        sign = -sign
                memo[cols_mask] = acc
            return memo[cols_mask]

        return TruncSeries._trusted(PI0, self.p, self.N, tuple(rec((1 << d) - 1, d - 1)))

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


def series_scale(f: TruncSeries, c: int) -> TruncSeries:
    pn = f.pn
    return TruncSeries._trusted(f.var, f.p, f.N, tuple([c * x % pn for x in f.coeffs]))


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


# Power tables kept per image.  The library's own calls ask an image for at
# most three orders (the user window, the guard order and u's order, where
# the quotient tables are divided); the cap bounds memory when loaded
# artifacts bring series of many other lengths.  Quotient tables are not
# capped: the library asks for them only at u's order, one per weight, so
# at most p - 1 exist.
_TABLES_KEPT = 4


class Substitution:
    """f |-> f(g) for one fixed image g, by packed power tables.

    The powers g^0, g^1, ... truncated at an order n are packed the first
    time order n is asked for and kept (the last few orders used); each
    substitution at that order is then one big-int linear combination and
    one unpack.  The quotient tables of :meth:`quotients` are kept for
    every (order, exponent) asked for.  The tables are a cache: they are
    not pickled, and equality of the objects that hold a Substitution should
    not look at it.
    """

    def __init__(self, image: TruncSeries):
        if image.constant_term() != 0:
            raise NonzeroConstant("substitution argument has nonzero constant term")
        self.image = image
        self._tables: dict[int, tuple[int, list[int]]] = {}
        self._quotients: dict[tuple[int, int], list[list[int]]] = {}

    def __reduce__(self):
        return (Substitution, (self.image,))

    def _table(self, n: int) -> tuple[int, list[int]]:
        tables = self._tables
        entry = tables.pop(n, None)
        if entry is None:
            g = self.image
            entry = kernels.power_table(g.coeffs, g.pn, n)
            if len(tables) >= _TABLES_KEPT:  # drop the least recently used
                del tables[next(iter(tables))]
        tables[n] = entry  # most recently used last
        return entry

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


def binomial_power(
    c, p: int, N: int, order: int, var: str = PI
) -> TruncSeries:
    """(1 + X)^c truncated at the given order.

    ``c`` may be a plain int (an exact exponent) or a :class:`PScalar` given
    mod p^K, which must satisfy K >= N + ceil(log_p order): C(n, k) mod p^N
    for k < order depends only on n mod p^K then.  Coefficient k is the
    binomial C(n, k) of the nonnegative integer representative n, built by the
    recurrence C(n, k) = C(n, k-1) * (n-k+1) / k on C(n, k) = p^v * unit:
    each factor's power of p moves v, and its unit part multiplies (or, by
    its inverse mod p^N, divides) the unit, so every step is exact mod p^N
    on small integers.
    """
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
    if order < 1:
        raise InvalidInput("order must be positive")
    pn = p**N
    coeffs = [0] * order
    coeffs[0] = 1
    unit, v = 1, 0  # C(n, k) = p^v * unit
    for k in range(1, min(order, n + 1)):
        num, den = n - k + 1, k
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        unit = unit * num * pow(den, -1, pn) % pn
        if v < N:
            coeffs[k] = unit * p**v % pn
    return TruncSeries(var, p, N, tuple(coeffs))


def _divmod_linear(f: list[int], p_const: int, pn: int) -> tuple[list[int], int]:
    """Polynomial division of f by the monic linear factor (X + p_const).

    Returns (quotient of length len(f)-1, constant remainder); exact identity
    f = (X + p_const) * q + r in Z/pn[X], computed top-down with no scalar
    inversions.
    """
    m = len(f)
    if m == 1:
        return [], f[0] % pn
    q = [0] * (m - 1)
    q[m - 2] = f[m - 1] % pn
    for k in range(m - 2, 0, -1):
        q[k - 1] = (f[k] - p_const * q[k]) % pn
    r = (f[0] - p_const * q[0]) % pn
    return q, r


def _q_divide(coeffs: list[int], p: int, pn: int, r: int) -> tuple[list[int], list[int]]:
    """Quotient by (X + p)^r and the r stage remainders, by r linear divisions."""
    stages: list[int] = []
    for _ in range(r):
        coeffs, c = _divmod_linear(coeffs, p, pn)
        stages.append(c)
    return coeffs, stages


def _q_remainder(stages: list[int], p: int, pn: int, r: int) -> tuple[int, ...]:
    """The remainder sum_i c_i * (X+p)^(i-1) of the stages, expanded to degree < r."""
    rem = [0] * r
    basis = [1] + [0] * max(0, r - 1)
    for c in stages:
        if c:
            for t in range(r):
                rem[t] = (rem[t] + c * basis[t]) % pn
        # multiply basis by (X+p)
        nxt = [0] * r
        for t in range(r):
            if basis[t]:
                nxt[t] = (nxt[t] + p * basis[t]) % pn
                if t + 1 < r:
                    nxt[t + 1] = (nxt[t + 1] + basis[t]) % pn
        basis = nxt
    return tuple(rem)


def cut_table(table: list[list[int]], m: int) -> list[list[int]]:
    """table's members up to the last one nonzero below order m, each cut to m.

    A combination sum_t x_t*table[t] mod X^m reads no coordinate x_t past
    these, so a fixed-point step over a quotient table keeps only them.
    """
    reads = 1 + max((t for t, Q in enumerate(table) if any(Q[:m])), default=0)
    return [Q[:m] for Q in table[:reads]]


def q_divide_exact(coeffs: list[int], p: int, pn: int, r: int) -> list[int]:
    """Quotient of a canonical coefficient list by (X+p)^r, which must divide it.

    The remainder vanishes iff every stage remainder does, since the
    (X+p)^(i-1) are monic of distinct degrees; NotDivisible otherwise.
    """
    quot, stages = _q_divide(coeffs, p, pn, r)
    if any(stages):
        rem = _q_remainder(stages, p, pn, r)
        raise NotDivisible(f"nonzero remainder {rem} dividing by (X+p)^{r}")
    return quot


def weierstrass_divide_q_power(
    f: TruncSeries, r: int
) -> tuple[TruncSeries, tuple[int, ...]]:
    """Divide a pi0-series by (X + p)^r with remainder of degree < r.

    Reconstruction f = (X+p)^r * quotient + remainder holds exactly at the
    truncation; the division is r iterated monic linear divisions, so it uses
    no scalar inversions.
    """
    if f.var != PI0:
        raise VariableMismatch("Weierstrass division expects a pi0-series")
    if r < 0 or r > f.order:
        raise InvalidInput("division exponent out of range")
    quot, rem = q_divmod(f.coeffs, f.p, f.pn, r)
    return TruncSeries._trusted(PI0, f.p, f.N, tuple(quot)), rem


def q_divmod(coeffs, p: int, pn: int, r: int) -> tuple[list[int], tuple[int, ...]]:
    """Quotient and remainder (degree < r) of a canonical coefficient list by (X+p)^r."""
    quot, stages = _q_divide(list(coeffs), p, pn, r)
    return quot, _q_remainder(stages, p, pn, r)


def weierstrass_divide_exact(f: TruncSeries, r: int) -> TruncSeries:
    """Division by (X+p)^r that must leave remainder zero mod p^N."""
    if f.var != PI0:
        raise VariableMismatch("Weierstrass division expects a pi0-series")
    if r < 0 or r > f.order:
        raise InvalidInput("division exponent out of range")
    quot = q_divide_exact(list(f.coeffs), f.p, f.pn, r)
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
    pows = []
    for e in range(up_to + 1):
        c = tuple(comb(e, k) * p ** (e - k) % pn for k in range(min(e + 1, n)))
        pows.append(TruncSeries._trusted(PI0, p, q.N, c + (0,) * (n - len(c))))
    return pows


def pi0_coordinates(
    f: TruncSeries, pi0_in_pi: Substitution, out_order: int | None = None
) -> tuple[TruncSeries, ...]:
    """The pi0-series (f_0, ..., f_{p-2}) with f = sum_j pi^j f_j(pi0).

    ``pi0_in_pi`` substitutes the coordinate series pi0(pi); its power
    tables are shared across calls.  Strictly triangular back-substitution
    along the grading d = j + k(p-1): pi^j * pi0_in_pi^k has exact
    pi-valuation d with unit leading coefficient, so each residual
    coefficient determines one unknown with no division by p.  Only residual
    degrees below (p-1)*out_order are read, so the powers of pi0_in_pi are
    taken from its table at that order.
    """
    if f.var != PI:
        raise VariableMismatch("expected a pi-series")
    p, pn = f.p, f.pn
    m = f.order
    if out_order is None:
        out_order = (m - p + 1) // (p - 1) + 1
    d_limit = min(m, (p - 1) * out_order)
    residual = list(f.coeffs)
    out = [[0] * out_order for _ in range(p - 1)]
    # degree d = k(p-1) + j is solved with the k-th power; one is unpacked
    # at a time
    for k, pk in enumerate(pi0_in_pi.powers(d_limit)):
        for j in range(p - 1):
            d = k * (p - 1) + j
            if d >= d_limit:
                break
            if residual[d] == 0:
                continue
            c = (residual[d] * pow(pk[k * (p - 1)], -1, pn)) % pn
            out[j][k] = c
            for s in range(k * (p - 1), d_limit - j):
                if pk[s]:
                    residual[j + s] = (residual[j + s] - c * pk[s]) % pn
    return tuple(TruncSeries._trusted(PI0, f.p, f.N, tuple(row)) for row in out)
