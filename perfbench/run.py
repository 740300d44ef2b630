"""wachkit benchmark: build, certify and recognize on the pure-Python path.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 12 --trace 0

One process, one caller, no threads: a closed loop that starts the next
operation when the previous one returns.  Times are reported in reference
seconds (refclock.py), which a change of the machine's speed does not move.
The last line of standard output is a JSON object {"correct", "attempted",
"failed", "metrics"}; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  perfbench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
# Each round bootstraps every prime once; setup_s is their median.
SETUP_ROUNDS = 2
KERNEL_REPEATS = {"multiply": 15, "apply_phi": 5, "apply_torsion": 5}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    """Import wachkit from this checkout's src/, on the pure kernels only."""
    src = ROOT / "src"
    if not (src / "wachkit" / "__init__.py").is_file():
        die(f"no wachkit sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    if importlib.util.find_spec("wachkit._speedups") is not None:
        die("wachkit._speedups is importable: these numbers would measure the "
            "compiled backend, which the tier-1 tests never run", 3)
    import wachkit

    if Path(wachkit.__file__).resolve().parent != (src / "wachkit").resolve():
        die(f"imported wachkit from {wachkit.__file__}, not from {src}")


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def bootstrap_round(bootstrap, per_prime):
    """Time one context bootstrap of every prime; returns the total.

    Times are reference seconds (refclock.py), from five reference samples
    on each side of each bootstrap.
    """
    total = 0.0
    before = refclock.sample(5)
    for p, times in per_prime.items():
        t0 = time.perf_counter()
        bootstrap(p)
        dt = time.perf_counter() - t0
        after = refclock.sample(5)
        times.append(dt * refclock.scale(before, after))
        total += times[-1]
        before = after
    return total


class Loop:
    """Closed loop over a workload's items: one caller, whole passes.

    With a tracer, each operation runs twice in a row, untraced then traced,
    so both see the same input and the same machine state.  Only the
    operation itself is timed; its output is checked after the clock stops.
    A reference sample (refclock.py) sits between consecutive operations,
    and each operation's latency is kept in reference seconds and in wall
    seconds; `scale` maps each operation id to its factor, for the spans.
    """

    def __init__(self, kind, items, tracer=None):
        from spans import NullTracer
        from workloads import OPS

        self.kind, self.items, self.tracer = kind, items, tracer
        self.op, self.check = OPS[kind]
        self.null = NullTracer()
        self.stats = {
            traced: {"latencies": [], "wall": [], "passes": 0, "pass_s": []}
            for traced in (False, True)
        }
        self.scale = {}
        self.failures, self.attempted = [], 0

    def run(self, seconds):
        """Passes until another one would end after `seconds` (at least one).

        The clock counts operation time in reference seconds, so that the
        number of passes, and with it the percentile behind op_tail_s, does
        not follow the machine's speed.
        """
        elapsed = 0.0
        while True:
            last = self.one_pass()
            elapsed += last
            if elapsed + last > seconds:
                return

    def one_pass(self):
        """Every item once; returns the operation time in reference seconds."""
        busy = {False: 0.0, True: 0.0}
        ref = refclock.sample()
        for item in self.items:
            dt, ref = self._timed(item, self.null, ref)
            busy[False] += dt
            if self.tracer:
                with self.tracer.wrapped():
                    dt, ref = self._timed(item, self.tracer, ref)
                busy[True] += dt
        for traced in (False, True) if self.tracer else (False,):
            self.stats[traced]["passes"] += 1
            self.stats[traced]["pass_s"].append(busy[traced])
        return busy[False] + busy[True]

    def traced_pass(self):
        """Every item once, traced only."""
        ref = refclock.sample()
        with self.tracer.wrapped():
            for item in self.items:
                _, ref = self._timed(item, self.tracer, ref)

    def _timed(self, item, tr, before):
        """One operation in reference seconds, and the reference sample after it."""
        op_id = f"{self.kind}.{self.attempted}"
        dt = self._op(item, tr, op_id)
        after = refclock.sample()
        self.scale[op_id] = refclock.scale(before, after)
        stats = self.stats[tr is self.tracer]
        stats["latencies"].append(dt * self.scale[op_id])
        stats["wall"].append(dt)
        return stats["latencies"][-1], after

    def _op(self, item, tr, op_id):
        tr.op = op_id
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{self.kind}"):
                out = self.op(item, tr)
        except Exception as exc:  # a failed operation, reported by main()
            dt = time.perf_counter() - t0
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
            ok, detail = self.check(item, out)
        if not ok:
            self.failures.append((item, detail))
        return dt


def p50(latencies, per_pass):
    """Median over a pass's operations of each one's median over the passes.

    An operation's median over the passes is steady; the median of all
    samples pooled would jump between the two modules next to the middle
    whenever their samples overlap.
    """
    return statistics.median(
        statistics.median(latencies[i::per_pass]) for i in range(per_pass))


def tail(latencies):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    s = sorted(latencies)
    n = len(s)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, s[rank - 1], n - rank
    return 100, s[-1], 0


def time_call(fn, repeats):
    """Median reference seconds of `repeats` calls, and the last output."""
    times = []
    before = refclock.sample()
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        after = refclock.sample()
        times.append(dt * refclock.scale(before, after))
        before = after
    return statistics.median(times), out


def kernel_probes(contexts, seed):
    """Per-call times of the series kernels on seeded inputs, checked."""
    import wachkit as wk
    from wachkit.series import series_multiply
    from workloads import N, compose, mul

    rng = random.Random(f"kernels:{seed}")
    metrics, ok = {}, True
    for p, ctx in contexts.items():
        pn, mw, m_pi = ctx.pn, ctx.work.M_pi0, ctx.profile.M_pi
        f, g = ([rng.randrange(pn) for _ in range(mw)] for _ in range(2))
        F, G = (wk.TruncSeries(wk.PI0, p, N, tuple(x)) for x in (f, g))
        t, out = time_call(lambda: series_multiply(F, G), KERNEL_REPEATS["multiply"])
        metrics[f"series.multiply_ms.p{p}"] = t * 1e3
        ok &= list(out.coeffs) == mul(f, g, pn, mw)

        phi = wk.OperatorTag(wk.OperatorTag.PHI)
        t, out = time_call(lambda: wk.apply_operator(ctx, phi, F), KERNEL_REPEATS["apply_phi"])
        metrics[f"series.apply_phi_ms.p{p}"] = t * 1e3
        ok &= list(out.coeffs) == compose(f, list(ctx.work.phi_pi0.coeffs[:mw]), pn, mw)

        h = [rng.randrange(pn) for _ in range(m_pi)]
        a = 2  # a = 1 is the identity substitution, which would time nothing
        tors = wk.OperatorTag(wk.OperatorTag.TORSION, a)
        H = wk.TruncSeries(wk.PI, p, N, tuple(h))
        t, out = time_call(lambda: wk.apply_operator(ctx, tors, H), KERNEL_REPEATS["apply_torsion"])
        metrics[f"series.apply_torsion_ms.p{p}"] = t * 1e3
        image = list(ctx.work.torsion_pi[a - 1].coeffs[:m_pi])
        ok &= list(out.coeffs) == compose(h, image, pn, m_pi)
    return metrics, ok


LAYER_SPANS = (
    "wach.build_phi_matrix", "wach.solve_gamma_matrix", "wach.verify_wach_axioms",
    "reduction.normalize_basis", "reduction.recover_filtration",
    "serialize.dump", "serialize.load",
)


def layer_metrics(workload, loop, contexts, seed):
    """Busy reference seconds per pass of each layer, from the traced spans.

    A layer the workload's loop never calls is timed instead over one traced
    pass of the probe modules (one boundary-weight module per prime), so that
    every metric is a measurement.
    """
    from spans import Tracer
    from workloads import OPS, PROBE_SHAPES, prepare

    probe, probe_scale = Tracer(), {}
    probe_failures = []
    for kind in (k for k in OPS if k != workload):
        probe_loop = Loop(kind, prepare(kind, PROBE_SHAPES, seed, contexts), probe)
        probe_loop.traced_pass()
        probe_scale.update(probe_loop.scale)
        probe_failures += [detail for item, detail in probe_loop.failures if item.genuine]
    loop_tracer, traced_passes = loop.tracer, loop.stats[True]["passes"]
    loop_busy, probe_busy = loop_tracer.busy(loop.scale), probe.busy(probe_scale)
    metrics = {}
    for span in LAYER_SPANS:
        if loop_busy.get(span):
            metrics[f"{span}_s"] = loop_busy[span] / traced_passes
        else:
            metrics[f"{span}_s"] = probe_busy[span]
    iterations = loop_tracer.counts.get("wach.solve_iterations")
    if iterations:
        metrics["wach.solve_iterations"] = iterations // traced_passes
    else:
        metrics["wach.solve_iterations"] = probe.counts["wach.solve_iterations"]
    return metrics, probe, probe_failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("build", "certify", "recognize"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()  # before spans and workloads, which import wachkit
    import wachkit as wk
    from spans import Tracer
    from wachkit.cyclo import get_context
    from workloads import BUILD_SHAPES, N, PRIMES, SHAPES, prepare

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} git={git_sha()} python={sys.version.split()[0]} "
          f"wachkit={wk.__version__} backend=pure profile=N{N},M_pi0{N}", flush=True)

    # The first bootstrap round goes through get_context, the entry that
    # wach_from_dict and the CLI use, and leaves the contexts cached for the
    # loop.  The later rounds call build_context after the loop.
    setup_per_prime = {p: [] for p in PRIMES}
    rounds = [bootstrap_round(get_context, setup_per_prime)]
    contexts = {p: get_context(p) for p in PRIMES}
    items = prepare(args.workload, SHAPES[args.workload], args.seed, contexts)
    if args.workload == "build" and args.seed == DEFAULT_SEED:
        recorded = json.loads((BENCH / "digests.json").read_text())["build"]
        if len(recorded) != len(BUILD_SHAPES):
            die("digests.json does not match the build shape table")
        for item, digest in zip(items, recorded):
            item.digest = digest
    gc.collect()

    tracer = Tracer() if args.trace else None
    loop = Loop(args.workload, items, tracer)
    loop.run(args.seconds)
    for _ in range(SETUP_ROUNDS - 1):
        rounds.append(bootstrap_round(wk.build_context, setup_per_prime))
    setup_s = statistics.median(rounds)
    stats, attempted, failures = loop.stats, loop.attempted, loop.failures
    correct = not any(item.genuine for item, _ in failures)
    for (p, weights, tamper, detail), n in Counter(
        (item.p, item.weights, item.tamper, detail) for item, detail in failures
    ).items():
        print(f"perfbench: FAILED {n}x {args.workload} p={p} weights={weights} "
              f"tamper={tamper}: {detail}", flush=True)

    if args.trace:
        untraced, traced = stats[False], stats[True]
        metrics = {
            f"cyclo.build_context_s.p{p}": statistics.median(ts)
            for p, ts in setup_per_prime.items()
        }
        kernels, kernels_ok = kernel_probes(contexts, args.seed)
        metrics.update(kernels)
        layers, probe, probe_failures = layer_metrics(args.workload, loop, contexts, args.seed)
        metrics.update(layers)
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(traced["latencies"]) / statistics.fmean(untraced["latencies"]))
        correct = correct and kernels_ok and not probe_failures
        out_dir = BENCH / "traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "spans": tracer.to_json(), "counts": dict(tracer.counts),
            "probe_spans": probe.to_json(),
        }) + "\n")
        units = {"wach.solve_iterations": "count", "trace.overhead_ratio": "ratio"}
        print(f"perfbench: spans written to {path.relative_to(ROOT)}; traced passes "
              f"{traced['passes']}, untraced passes {untraced['passes']}", flush=True)
        for item in probe_failures:
            print(f"perfbench: FAILED probe: {item}", flush=True)
        if not kernels_ok:
            print("perfbench: FAILED a kernel probe returned a wrong series", flush=True)
        result = {name: {"value": v, "unit": units.get(name, "ms" if "_ms." in name else "s")}
                  for name, v in metrics.items()}
    else:
        lat, wall = stats[False]["latencies"], stats[False]["wall"]
        q, tail_s, beyond = tail(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"perfbench: {len(lat)} operations in {stats[False]['passes']} passes; "
              f"op_tail_s is p{q} with {beyond} samples beyond it; "
              f"failed_op_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}; "
              f"setup rounds {SETUP_ROUNDS}; operation time per pass "
              f"{' '.join(f'{t:.3f}' for t in stats[False]['pass_s'])} s", flush=True)
        ref_ms = refclock.REF_S / statistics.median(loop.scale.values()) * 1e3
        print(f"perfbench: wall clock, unscaled: ops_per_s {len(wall) / sum(wall):.4f}, "
              f"op_p50_s {p50(wall, len(items)):.5f}, op_tail_s {tail(wall)[1]:.5f}; "
              f"median reference sample {ref_ms:.3f} ms (REF_S {refclock.REF_S * 1e3:g} ms)",
              flush=True)
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_p50_s": {"value": p50(lat, len(items)), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
