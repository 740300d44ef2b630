"""The reference clock: times scaled to a fixed machine speed.

On a shared virtual machine the speed of the same pure-Python work changes
by up to a factor of two within seconds (measured on a 2-vCPU x86-64 VM;
process CPU time follows wall time there, so the CPU itself slows, not the
scheduler).  Every timed call is therefore bracketed by a fixed reference
computation, the harness's own schoolbook product of two 40-term series
mod 5^16, and its wall time is multiplied by REF_S over the mean time of
the reference samples taken just before and just after it.

The result is in reference seconds: seconds on a machine on which one
reference sample takes REF_S.  A change to wachkit moves the call's time and
not the reference's, so it moves the scaled time in full; a change of the
machine's speed moves both, and cancels.
"""

from __future__ import annotations

import random
import statistics
import time

# One sample is CHUNK products.  On the VM above one takes 2.3-4.3 ms, with a
# median near 3 ms; REF_S is that VM in its slower moments.
CHUNK = 20
REF_S = 0.004

_PN = 5**16
_rng = random.Random("reference")
_A, _B = ([_rng.randrange(_PN) for _ in range(40)] for _ in range(2))


def _product(a, b):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b[: len(a) - i]):
            out[i + j] += ai * bj
    return [c % _PN for c in out]


def sample(k=1):
    """Wall seconds of one reference sample; the median of k if k > 1."""
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        for _ in range(CHUNK):
            _product(_A, _B)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before, after):
    """Factor from wall seconds to reference seconds for a call between two samples."""
    return 2 * REF_S / (before + after)
