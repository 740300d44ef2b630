"""Seeded inputs, the three workload operations and their output checks.

Everything the library is asked to do comes from here, and everything it
returns is checked here against answers computed with plain-integer series
arithmetic that shares no code with the library.

The benchmark touches only a stable surface of wachkit: names in
``wachkit.__all__``, the public functions of ``wachkit.serialize``,
``wachkit.series.series_multiply``, ``wachkit.cyclo.get_context`` and the
fields of ``CycloContext`` (``work.M_pi0`` and ``work.phi_pi0`` for the guard
order).  Library calls go through module attributes at call time
(``wk.solve_wach``), so the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from math import comb

import wachkit as wk
from wachkit import serialize as ser

N = 16  # default profile: N = M_pi0 = 16
PRIMES = (3, 5, 7)

# Module shapes per workload: (p, ascending weights).  The seed draws the
# matrices A, the tamper positions and the perturbations R; the shapes are
# fixed so that runs on different seeds do the same amount of work.  Every
# prime has a module of boundary weight p-2 and one with all weights 0, and
# ranks 1-3 all occur.  Each table has an odd number of operations per pass
# (so the median falls inside one module's samples) and its four costliest
# operations have the same shape (so the tail percentile stays inside them
# whether a run makes 3 passes or 10).  Passes stay near 2 reference seconds
# so that a run of 12 makes at least three.
BUILD_SHAPES = (
    (3, (0, 0, 0)), (3, (1,)), (3, (1, 1, 1)),
    (3, (0, 1)), (3, (0, 1)), (3, (0, 1)), (3, (0, 1)),
    (5, (0, 0)), (5, (2,)), (5, (3,)),
    (7, (0, 0, 0)), (7, (5,)), (7, (5, 5)),
)
# Each certify module yields three artifacts: genuine, one G coefficient
# changed, and every series truncated to one coefficient.
CERTIFY_SHAPES = (
    (3, (0, 0, 0)), (3, (0, 1, 1)),
    (5, (0, 0)), (5, (3,)),
    (7, (0, 0, 0)), (7, (5,)), (7, (5,)),
)
RECOGNIZE_SHAPES = (
    (3, (1,)), (3, (1, 1)), (3, (1, 1)), (3, (1, 1)), (3, (0, 1)),
    (3, (0, 0, 0)), (3, (0, 0, 0)), (3, (0, 0, 0)), (3, (0, 0, 0)),
    (5, (0,)), (5, (3,)),
    (7, (0,)), (7, (5,)),
)
# One boundary-weight module per prime: the traced run times, on these, the
# layers that a workload's own loop never calls.
PROBE_SHAPES = ((3, (1,)), (5, (3,)), (7, (5,)))


# ---------------------------------------------------------------------------
# plain-integer truncated series over Z/p^N (coefficient lists, index = degree)


def mul(a, b, pn, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] += ai * bj
    return [c % pn for c in out]


def compose(f, g, pn, n):
    """f(g) by Horner's rule; g has zero constant term."""
    out = [0] * n
    for c in reversed(f):
        out = mul(out, g, pn, n)
        out[0] = (out[0] + c) % pn
    return out


def matmul(X, Y, pn, n):
    d = len(X)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = [0] * n
            for k in range(d):
                acc = [a + b for a, b in zip(acc, mul(X[i][k], Y[k][j], pn, n))]
            row.append([c % pn for c in acc])
        out.append(row)
    return out


def inverse_unipotent(P, pn, n):
    """Inverse of a series matrix P = Id mod pi0, coefficient by coefficient.

    With P = sum_k P_k X^k and P_0 = Id, the inverse has X_0 = Id and
    X_k = -sum_{j=1..k} P_j X_{k-j}.
    """
    d = len(P)
    X = [[[int(i == j)] + [0] * (n - 1) for j in range(d)] for i in range(d)]
    for k in range(1, n):
        for i in range(d):
            for j in range(d):
                acc = 0
                for t in range(1, k + 1):
                    for m in range(d):
                        acc += P[i][m][t] * X[m][j][k - t]
                X[i][j][k] = -acc % pn
    return X


def q_power(p, r, pn, n):
    """(p + X)^r by the binomial theorem."""
    return [comb(r, k) * p ** (r - k) % pn if k <= r else 0 for k in range(n)]


def phi_matrix(A, weights, p, pn, n):
    """A * diag((p + pi0)^r_j), truncated at order n."""
    d = len(weights)
    cols = [q_power(p, r, pn, n) for r in weights]
    return [[[A[i][j] * c % pn for c in cols[j]] for j in range(d)] for i in range(d)]


def _det(A):
    if len(A) == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * _det([row[:j] + row[j + 1 :] for row in A[1:]])
        for j in range(len(A))
    )


def generic_matrix(rng, d, p, pn):
    """Uniform A with every entry and the determinant units mod p.

    For mixed weights, a non-unit entry changes the iteration count of the
    Gamma-solve (11 instead of 20 steps for weights (0, 1) at p = 3), so a
    generic A makes a module's shape fix its cost.
    """
    while True:
        A = [[rng.randrange(pn) for _ in range(d)] for _ in range(d)]
        if all(x % p for row in A for x in row) and _det(A) % p:
            return A


# ---------------------------------------------------------------------------
# prepared inputs


@dataclass
class Item:
    """One operation's input and the answer its output is checked against."""

    p: int
    weights: tuple
    A: list
    module: object  # wachkit.FLModule
    ctx: object  # wachkit.CycloContext
    text: str = ""  # artifact text (certify, recognize)
    genuine: bool = True  # certify: should verify accept it?
    tamper: str = "none"
    c_pert: list = None  # recognize: planted C' at the guard order
    p_expected: list = None  # recognize: P0^-1 on the user window
    digest: str = None  # build: recorded SHA-256 of the artifact (default seed)


def make_items(shapes, rng, contexts):
    items = []
    for p, weights in shapes:
        pn = p**N
        A = generic_matrix(rng, len(weights), p, pn)
        entries = tuple(x for row in A for x in row)
        module = wk.FLModule(p, N, weights, wk.PMatrix(len(A), len(A), entries, p, N))
        items.append(Item(p, weights, A, module, contexts[p]))
    return items


def artifact_text(item):
    w = wk.solve_wach(item.module, item.ctx)
    return ser.dumps_canonical(ser.wach_to_dict(w))


def prepare(kind, shapes, seed, contexts):
    """Inputs for one workload; this harness work counts toward no metric."""
    rng = random.Random(f"{kind}:{seed}")
    items = make_items(shapes, rng, contexts)
    if kind == "certify":
        out = []
        for item in items:
            text = artifact_text(item)
            out.append(replace(item, text=text))
            data = json.loads(text)
            d = len(item.weights)
            # k > 0: a changed constant term would also break G = Id mod pi0,
            # which verify rejects about ten times faster, so the seed would
            # change the work.
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(1, N)
            data["G"][i][j][k] = str((int(data["G"][i][j][k]) + 1) % item.p**N)
            out.append(replace(item, text=ser.dumps_canonical(data), genuine=False, tamper="flip"))
            data = json.loads(text)
            for name in ("C", "G"):
                data[name] = [[s[:1] for s in row] for row in data[name]]
            out.append(replace(item, text=ser.dumps_canonical(data), genuine=False, tamper="truncate"))
        return out
    if kind == "recognize":
        for item in items:
            item.text = artifact_text(item)
            plant(item, rng)
    return items


def plant(item, rng):
    """C' = P0^-1 * A*Q * phi(P0) with P0 = Id + pi0*R, at the guard order."""
    p, ctx = item.p, item.ctx
    pn, mw, d = p**N, ctx.work.M_pi0, len(item.weights)
    phi_pi0 = list(ctx.work.phi_pi0.coeffs)
    P0 = [
        [[int(i == j)] + [rng.randrange(pn) for _ in range(N - 1)] + [0] * (mw - N)
         for j in range(d)]
        for i in range(d)
    ]
    P0inv = inverse_unipotent(P0, pn, mw)
    phiP0 = [[compose(e, phi_pi0, pn, mw) for e in row] for row in P0]
    AQ = phi_matrix(item.A, item.weights, p, pn, mw)
    item.c_pert = matmul(matmul(P0inv, AQ, pn, mw), phiP0, pn, mw)
    item.p_expected = [[e[:N] for e in row] for row in P0inv]


# ---------------------------------------------------------------------------
# operations (timed) and checks (not timed)
#
# An operation returns its output; check() returns (ok, detail).  A failed
# check on a genuine input is a correctness failure; a tampered artifact that
# verify accepts is counted as a failed operation.


def op_build(item, tracer):
    w = wk.solve_wach(item.module, item.ctx)
    with tracer.span("serialize.dump"):
        text = ser.dumps_canonical(ser.wach_to_dict(w))
    tracer.count("wach.solve_iterations", w.iterations_used)
    return text


def check_build(item, text):
    data = json.loads(text)
    pn = item.p**N
    d = len(item.weights)
    C = [[[int(c) for c in s] for s in row] for row in data["C"]]
    if C != phi_matrix(item.A, item.weights, item.p, pn, N):
        return False, "C differs from A*diag((p+pi0)^r)"
    if any(int(data["G"][i][j][0]) != int(i == j) for i in range(d) for j in range(d)):
        return False, "G is not Id mod pi0"
    if item.digest and hashlib.sha256(text.encode()).hexdigest() != item.digest:
        return False, "artifact digest differs from the recorded one"
    return True, ""


def load(text, tracer):
    with tracer.span("serialize.load"):
        return ser.wach_from_dict(json.loads(text))


def op_certify(item, tracer):
    """Load and verify; returns the verdict (True = accepted) and a detail."""
    try:
        w = load(item.text, tracer)
        report = wk.verify_wach_axioms(w)
    except wk.WachkitError as exc:
        return False, f"{type(exc).__name__} at load or verify"
    return report.ok, ",".join(report.failed())


def check_certify(item, verdict):
    accepted, detail = verdict
    if accepted == item.genuine:
        return True, ""
    if item.genuine:
        return False, f"genuine artifact rejected ({detail})"
    return False, f"{item.tamper} artifact accepted"


def op_recognize(item, tracer):
    w = load(item.text, tracer)
    red = wk.recover_filtration(w, max(item.weights))
    p = item.p
    c_pert = tuple(tuple(wk.TruncSeries(wk.PI0, p, N, tuple(e)) for e in row)
                   for row in item.c_pert)
    P = wk.normalize_basis(c_pert, item.module, item.ctx)
    return red, P


def check_recognize(item, out):
    red, P = out
    h = max(item.weights)
    fil_ranks = tuple(sum(r >= t for r in item.weights) for t in range(h + 2))
    if tuple(red.weights_recovered) != item.weights:
        return False, f"weights {red.weights_recovered} != {item.weights}"
    if tuple(red.fil_ranks) != fil_ranks:
        return False, f"fil_ranks {red.fil_ranks} != {fil_ranks}"
    got = [[list(e.coeffs[:N]) for e in row] for row in P]
    if got != item.p_expected:
        return False, "P differs from P0^-1 on the user window"
    return True, ""


OPS = {
    "build": (op_build, check_build),
    "certify": (op_certify, check_certify),
    "recognize": (op_recognize, check_recognize),
}
SHAPES = {"build": BUILD_SHAPES, "certify": CERTIFY_SHAPES, "recognize": RECOGNIZE_SHAPES}
