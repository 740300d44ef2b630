"""Seeded generation of module suites for tests and the roundtrip command."""

from __future__ import annotations

import random

from .errors import InvalidInput, SingularModP
from .flmod import FLModule, make_fl
from .padic import PMatrix, check_modulus, matrix_inverse_mod


def random_unit_matrix(rng: random.Random, d: int, p: int, N: int) -> PMatrix:
    """Uniform entries, rejection-sampled until invertible mod p (matrix_inverse_mod decides)."""
    pn = p**N
    while True:
        M = PMatrix(d, d, tuple(rng.randrange(pn) for _ in range(d * d)), p, N)
        try:
            matrix_inverse_mod(M)
        except SingularModP:
            continue
        return M


def random_fl(rng: random.Random, p: int, N: int, max_rank: int = 3) -> FLModule:
    d = rng.randint(1, max_rank)
    weights = sorted(rng.randint(0, p - 2) for _ in range(d))
    return make_fl(p, N, weights, random_unit_matrix(rng, d, p, N))


def generate_suite(
    seed: int,
    primes: tuple[int, ...] = (3, 5, 7),
    count: int = 30,
    max_rank: int = 3,
    N: int = 16,
) -> list[FLModule]:
    """Deterministic list of random modules, cycling through the primes."""
    if not primes or count < 0 or max_rank < 1:
        raise InvalidInput("a suite needs a prime, a count >= 0 and max_rank >= 1")
    for p in primes:
        check_modulus(p, N)
    rng = random.Random(seed)
    return [random_fl(rng, primes[i % len(primes)], N, max_rank) for i in range(count)]
