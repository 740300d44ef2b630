"""Fontaine-Laffaille module data in adapted-basis presentation.

An :class:`FLModule` is a rank-d datum: weights r_1 <= ... <= r_d in
[0, p-2] and an invertible-mod-p matrix A giving the divided Frobenius on an
adapted basis.  Weights are kept sorted ascending; constructors that would
disturb the order (tensor, direct sum, dual twist) re-sort and conjugate the
matrix by the recorded permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InvalidInput, SingularModP, ValidationFailed, WeightOverflow
from .padic import PMatrix, matrix_inverse_mod


def sort_weights(
    weights: tuple[int, ...], A: PMatrix
) -> tuple[tuple[int, ...], PMatrix, tuple[int, ...]]:
    """Stable-sort weights ascending; conjugate A into the sorted basis.

    Returns (sorted_weights, A', perm) where perm[k] is the sorted
    position of original basis vector k and A' is A in the sorted basis.
    """
    order = sorted(range(len(weights)), key=lambda k: (weights[k], k))
    perm = tuple(order.index(k) for k in range(len(weights)))
    d = len(order)
    # new basis f_i = e_{order[i]}, so A'_{ij} = A_{order[i], order[j]}
    if (A.rows, A.cols) != (d, d):
        raise InvalidInput("matrix shape does not match the weights")
    sorted_A = PMatrix(d, d, tuple(A.at(i, j) for i in order for j in order), A.p, A.N)
    return tuple(weights[k] for k in order), sorted_A, perm


@dataclass(frozen=True)
class FLModule:
    """Rank-d filtered Frobenius datum: ascending weights and unit matrix A."""

    p: int
    N: int
    weights: tuple[int, ...]
    A: PMatrix
    labels: tuple[str, ...] | None = None
    sort_perm: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if list(self.weights) != sorted(self.weights):
            raise InvalidInput("weights must be sorted ascending; use make_fl")
        if self.A.rows != self.A.cols or self.A.rows != len(self.weights):
            raise InvalidInput("matrix shape does not match the weights")
        if (self.A.p, self.A.N) != (self.p, self.N):
            raise InvalidInput("matrix modulus differs from the module's")
        if not self.sort_perm:
            object.__setattr__(self, "sort_perm", tuple(range(self.rank)))

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def h(self) -> int:
        return max(self.weights, default=0)

    def at_precision(self, N: int) -> "FLModule":
        """The module mod p^N for N <= self.N, as its data read at N gives it (InvalidInput above)."""
        if N > self.N:
            raise InvalidInput(f"precision N = {N} exceeds the module's N = {self.N}")
        return replace(self, N=N, A=PMatrix(self.rank, self.rank, self.A.entries, self.p, N))


def make_fl(
    p: int,
    N: int,
    weights,
    A: PMatrix,
    labels=None,
) -> FLModule:
    """Build an FLModule, sorting the weights and conjugating A accordingly.

    labels, one per basis vector, follow their vectors through the sort.
    """
    w, As, perm = sort_weights(tuple(int(r) for r in weights), A)
    if labels is not None:
        if len(labels) != len(w):
            raise InvalidInput(f"{len(labels)} labels for a module of rank {len(w)}")
        labels = tuple(labels[perm.index(i)] for i in range(len(w)))
    return FLModule(p, N, w, As, labels=labels, sort_perm=perm)


@dataclass(frozen=True)
class LatticeSub:
    """A p-power-scaled sub-lattice of an ambient rank-D module.

    Column i of the basis matrix F contributes the generator p^(alpha_i) F_i;
    alpha_i = None (OMITTED) excludes the column, encoding a rank-deficient
    sub-lattice.
    """

    ambient_rank: int
    F: PMatrix
    exponents: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if self.F.rows != self.ambient_rank or self.F.cols != self.ambient_rank:
            raise InvalidInput("lattice basis must be square of the ambient rank")
        if len(self.exponents) != self.ambient_rank:
            raise InvalidInput("one exponent per basis column required")
        for a in self.exponents:
            if a is not None and a < 0:
                raise InvalidInput("exponents must be nonnegative or OMITTED")

    def included(self) -> list[int]:
        return [i for i, a in enumerate(self.exponents) if a is not None]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def _validate(m: FLModule) -> tuple[ValidationReport, PMatrix | None]:
    """validate_fl's report, and A^(-1) when A is a unit mod p: the inversion is the unit check."""
    failures: list[str] = []
    if m.h > m.p - 2:
        failures.append(f"max weight {m.h} exceeds p-2 = {m.p - 2}")
    for r in m.weights:
        if r < 0:
            failures.append(f"negative weight {r}")
    try:
        Ainv = matrix_inverse_mod(m.A)
    except SingularModP:
        Ainv = None
        failures.append("A is singular mod p")
    return ValidationReport(ok=not failures, failures=tuple(failures)), Ainv


def validate_fl(m: FLModule) -> ValidationReport:
    """Check the Fontaine-Laffaille bounds, and that A is a unit mod p by inverting it; never raises."""
    return _validate(m)[0]


def require_valid(m: FLModule) -> PMatrix:
    """A^(-1) of a valid module, from validate_fl's one inversion.

    Raises ValidationFailed with validate_fl's failures, joined by "; ".
    """
    report, Ainv = _validate(m)
    if not report.ok:
        raise ValidationFailed("; ".join(report.failures))
    return Ainv


def tensor_fl(m1: FLModule, m2: FLModule) -> FLModule:
    """Tensor product: weights r_i + r'_j, matrix A1 (x) A2.

    The Kronecker data is formed in lexicographic basis order (i, j) and then
    canonicalized to ascending weights; the permutation is recorded on the
    result.
    """
    if (m1.p, m1.N) != (m2.p, m2.N):
        raise InvalidInput("tensor of modules over different moduli")
    p = m1.p
    weights = []
    for r in m1.weights:
        for s in m2.weights:
            if r + s > p - 2:
                raise WeightOverflow(f"weight {r}+{s} exceeds p-2 = {p - 2}")
            weights.append(r + s)
    return make_fl(p, m1.N, weights, m1.A.kron(m2.A))


def direct_sum_fl(m1: FLModule, m2: FLModule) -> FLModule:
    """Direct sum: block-diagonal matrix, concatenated (re-sorted) weights."""
    if (m1.p, m1.N) != (m2.p, m2.N):
        raise InvalidInput("sum of modules over different moduli")
    return make_fl(
        m1.p, m1.N, m1.weights + m2.weights, PMatrix.block_diag(m1.A, m2.A)
    )


def dual_twist_fl(m: FLModule, h: int) -> FLModule:
    """Twisted dual: weights h - r_j (re-sorted), matrix transpose-inverse.

    Pairing convention: tensoring with the original must give q^r * q^(h-r) =
    q^h on each line, which pins the matrix to the transpose-inverse up to
    the recorded permutation.
    """
    if h > m.p - 2:
        raise WeightOverflow(f"twist {h} exceeds p-2 = {m.p - 2}")
    if m.weights and h < m.h:
        raise WeightOverflow(f"twist {h} below max weight {m.h}")
    dual_A = matrix_inverse_mod(m.A).transpose()
    return make_fl(m.p, m.N, tuple(h - r for r in m.weights), dual_A)


def unit_fl(p: int, N: int, r: int = 0, a: int = 1) -> FLModule:
    """Rank-1 module with weight r and Frobenius scalar a."""
    return make_fl(p, N, (r,), PMatrix(1, 1, (a,), p, N))
