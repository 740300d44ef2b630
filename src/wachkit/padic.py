"""Exact arithmetic over Z/p^N (p an odd prime) and canonical linear algebra.

Scalars are represented by :class:`PScalar` (a canonical residue in
[0, p^N) together with its modulus data); matrices by :class:`PMatrix`, which
stores a row-major tuple of plain int residues sharing one (p, N).  Mixed
moduli are rejected rather than coerced.

The linear algebra is what a local PIR Z/p^N supports exactly, and one
elimination does all of it: the Howell form, the canonical echelon form
whose rows include the p-power "shadows" needed so that row spans can be
compared and membership decided.  From it come

* inverses of matrices that are invertible mod p (the form of [A | I]),
* ranks mod p (the row count of the form at N = 1),
* kernels (the form of the augmented transpose [A^T | I]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInput, NonUnit, ProfileMismatch, SingularModP

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes: exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int, N: int) -> None:
    # exact ints only: a float would be truncated, and a bool passes isinstance(_, int)
    if type(p) is not int or type(N) is not int:
        raise InvalidInput(f"p and N must be integers, got p={p!r}, N={N!r}")
    if p < 3 or N < 1 or not _is_prime(p):
        raise InvalidInput(f"need an odd prime p >= 3 and N >= 1, got p={p}, N={N}")


def pval(x: int, p: int, N: int) -> int:
    """p-adic valuation of a residue mod p^N; val(0) = N."""
    if x == 0:
        return N
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class PScalar:
    """A canonical residue mod p^N."""

    value: int
    p: int
    N: int

    def __post_init__(self) -> None:
        check_modulus(self.p, self.N)
        object.__setattr__(self, "value", self.value % self.p**self.N)

    @property
    def modulus(self) -> int:
        return self.p**self.N

    def is_unit(self) -> bool:
        return self.value % self.p != 0


def scalar_inverse(a: PScalar) -> PScalar:
    """Inverse of a unit mod p^N."""
    if not a.is_unit():
        raise NonUnit(f"{a.value} is divisible by {a.p}")
    return PScalar(pow(a.value, -1, a.modulus), a.p, a.N)


def teichmueller_lift(a: int, p: int, N: int) -> PScalar:
    """The (p-1)-th root of unity congruent to a mod p.

    Computed by iterating x -> x^p, which stabilizes in at most N steps.
    """
    check_modulus(p, N)
    if a % p == 0:
        raise InvalidInput("Teichmueller lift needs a nonzero residue mod p")
    pn = p**N
    x = a % pn
    for _ in range(N + 1):
        y = pow(x, p, pn)
        if y == x:
            return PScalar(x, p, N)
        x = y
    raise AssertionError("Teichmueller iteration failed to stabilize in N steps")


@dataclass(frozen=True)
class PMatrix:
    """A rows x cols matrix over Z/p^N, entries row-major canonical residues."""

    rows: int
    cols: int
    entries: tuple[int, ...]
    p: int
    N: int

    def __post_init__(self) -> None:
        check_modulus(self.p, self.N)
        if len(self.entries) != self.rows * self.cols:
            raise InvalidInput("entry count does not match dimensions")
        pn = self.p**self.N
        object.__setattr__(self, "entries", tuple(e % pn for e in self.entries))

    @property
    def modulus(self) -> int:
        return self.p**self.N

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _same(self, other: "PMatrix") -> None:
        if (self.p, self.N) != (other.p, other.N):
            raise ProfileMismatch("mixed moduli in matrix operation")

    @staticmethod
    def identity(n: int, p: int, N: int) -> "PMatrix":
        ents = [0] * (n * n)
        for i in range(n):
            ents[i * n + i] = 1
        return PMatrix(n, n, tuple(ents), p, N)

    @staticmethod
    def from_lists(rows: list[list[int]], p: int, N: int) -> "PMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise InvalidInput("ragged matrix")
        return PMatrix(r, c, tuple(x for row in rows for x in row), p, N)

    def mul(self, other: "PMatrix") -> "PMatrix":
        self._same(other)
        if self.cols != other.rows:
            raise InvalidInput("dimension mismatch in matrix product")
        pn = self.modulus
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                aik = self.entries[base + k]
                if aik == 0:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    out[rbase + j] = (out[rbase + j] + aik * other.entries[obase + j]) % pn
        return PMatrix(self.rows, other.cols, tuple(out), self.p, self.N)

    def transpose(self) -> "PMatrix":
        ents = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return PMatrix(self.cols, self.rows, ents, self.p, self.N)

    def kron(self, other: "PMatrix") -> "PMatrix":
        self._same(other)
        r, c = self.rows * other.rows, self.cols * other.cols
        ents = [0] * (r * c)
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                a = self.at(i1, j1)
                if a == 0:
                    continue
                for i2 in range(other.rows):
                    for j2 in range(other.cols):
                        ents[(i1 * other.rows + i2) * c + (j1 * other.cols + j2)] = (
                            a * other.at(i2, j2)
                        ) % self.modulus
        return PMatrix(r, c, tuple(ents), self.p, self.N)

    @staticmethod
    def block_diag(a: "PMatrix", b: "PMatrix") -> "PMatrix":
        a._same(b)
        r, c = a.rows + b.rows, a.cols + b.cols
        ents = [0] * (r * c)
        for i in range(a.rows):
            for j in range(a.cols):
                ents[i * c + j] = a.at(i, j)
        for i in range(b.rows):
            for j in range(b.cols):
                ents[(a.rows + i) * c + (a.cols + j)] = b.at(i, j)
        return PMatrix(r, c, tuple(ents), a.p, a.N)


def matrix_inverse_mod(A: PMatrix) -> PMatrix:
    """Inverse of a matrix with unit determinant mod p, exact mod p^N.

    The rows of [A | I] span the pairs (x*A, x), so their Howell form has
    unit pivots on all of A's columns exactly when some X has X*A = I; it is
    then [I | A^(-1)].
    """
    if A.rows != A.cols:
        raise InvalidInput("inverse needs a square matrix")
    n = A.rows
    aug = [list(A.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    H = _howell_rows(aug, A.p, A.N)
    if len(H) < n or any(H[i][i] != 1 for i in range(n)):
        raise SingularModP("matrix is singular mod p")
    return PMatrix(n, n, tuple(x for row in H[:n] for x in row[n:]), A.p, A.N)


def _howell_rows(rows: list[list[int]], p: int, N: int) -> list[list[int]]:
    """Howell form of the span of the given rows, as a list of pivot rows.

    Each pivot is p^v and every entry above it lies in [0, p^v).  The
    p^(N-v)-shadow of each pivot row rejoins the pool, so for every k the
    rows that vanish on the first k columns span all of the span that does
    (the Howell property).  The form is canonical: equal spans give equal
    lists.
    """
    pn = p**N
    m = len(rows[0]) if rows else 0
    work = [[x % pn for x in r] for r in rows if any(x % pn for x in r)]
    pivots: list[tuple[int, int, list[int]]] = []  # (col, val, row)
    for col in range(m):
        best = None
        bestval = N
        for idx, r in enumerate(work):
            v = pval(r[col], p, N)
            if v < bestval:
                bestval, best = v, idx
        if best is None:
            continue
        row = work.pop(best)
        unit = row[col] // p**bestval
        inv = pow(unit, -1, pn)
        row = [(x * inv) % pn for x in row]  # pivot becomes p^bestval
        for r in work:
            if r[col]:
                f = (r[col] // p**bestval) % pn
                for j in range(col, m):
                    r[j] = (r[j] - f * row[j]) % pn
        # Howell closure: the p^(N-val)-shadow of the pivot row re-enters the pool
        if bestval > 0:
            shadow = [(x * p ** (N - bestval)) % pn for x in row]
            if any(shadow):
                work.append(shadow)
        work = [r for r in work if any(r)]
        pivots.append((col, bestval, row))
    # reduce entries above each pivot
    for k, (col, val, _) in enumerate(pivots):
        pk = p**val
        for j in range(k):
            r = pivots[j][2]
            if r[col] >= pk:
                f = r[col] // pk
                for t in range(col, m):
                    r[t] = (r[t] - f * pivots[k][2][t]) % pn
    return [row for (_, _, row) in pivots]


def howell_form(A: PMatrix) -> PMatrix:
    """Canonical Howell form of the row span of A (zero rows dropped)."""
    rows = _howell_rows(A.to_lists(), A.p, A.N)
    if not rows:
        return PMatrix(0, A.cols, (), A.p, A.N)
    return PMatrix.from_lists(rows, A.p, A.N)


def howell_kernel(A: PMatrix) -> PMatrix:
    """Canonical generating set (rows) of {x : A x = 0 mod p^N}.

    The rows of [A^T | I] span the pairs ((A y)^T, y).  In their Howell form
    the rows whose A^T-part vanished span the kernel (the Howell property),
    and their identity parts are already the kernel's Howell form.
    """
    n, m = A.rows, A.cols
    aug = [[A.at(i, j) for i in range(n)] + [int(j == k) for k in range(m)] for j in range(m)]
    gens = [r[n:] for r in _howell_rows(aug, A.p, A.N) if not any(r[:n])]
    if not gens:
        return PMatrix(0, m, (), A.p, A.N)
    return PMatrix.from_lists(gens, A.p, A.N)
