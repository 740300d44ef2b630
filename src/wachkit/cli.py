"""Command-line front end.

Subcommands: build, verify, reduce, tensor, normalize, roundtrip.  Inputs are
the JSON formats of :mod:`wachkit.serialize`; outputs are canonical JSON
(identical inputs and flags give byte-identical files).  Exit codes: 0 all
checks pass, 1 parse/schema error (an input file that cannot be read or is
not UTF-8 among them), 2 validation error (an --out path that cannot be
written among them), 3 convergence failure (a solve past its proved
iteration bound: a fault of wachkit, not of the input), 4 axiom or check
failure.
"""

from __future__ import annotations

import argparse
import sys

from .cyclo import get_context
from .errors import (
    AxiomViolation,
    InvalidInput,
    NoConvergence,
    NotCongruent,
    NotDivisible,
    NotInS0,
    PrecisionExhausted,
    SchemaError,
    ValidationFailed,
    WachkitError,
    WeightOverflow,
)
from .flmod import tensor_fl
from .reduction import normalize_basis, recover_filtration, roundtrip_check
from .serialize import (
    base_change_to_dict,
    dumps_canonical,
    fl_from_dict,
    fl_to_dict,
    load_json,
    perturbed_from_dict,
    reduction_to_dict,
    report_to_dict,
    wach_from_dict,
    wach_to_dict,
)
from .suite import generate_suite
from .wach import solve_wach, tensor_wach, verify_wach_axioms

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_CHECK = 4


def _emit(text: str, out: str | None) -> None:
    """Write text to the --out path, or to stdout; an unwritable path is invalid input."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"--out {out}: cannot write: {exc.strerror or exc}") from exc


def _context_for(value, args):
    """The input at the context's N, and the context; --prec-p may lower N, never raise it.

    value is an FLModule, or the (FLModule, C) of a perturbed file, read once
    at the file's N.  A lowered N reduces it mod p^N, which is what reading
    the file at that N gives.
    """
    perturbed = isinstance(value, tuple)
    m = value[0] if perturbed else value
    N = m.N
    if args.prec_p is not None:
        if args.prec_p > N:
            raise InvalidInput(
                f"--prec-p {args.prec_p} exceeds the input's precision N = {N}"
            )
        N = args.prec_p
        low = m.at_precision(N)
        value = (low, value[1].at_precision(N)) if perturbed else low
    m_pi0 = N if args.prec_pi0 is None else args.prec_pi0
    return value, get_context(m.p, N, m_pi0, args.chi_gamma)


def _cmd_build(args) -> int:
    m, ctx = _context_for(fl_from_dict(load_json(args.input)), args)
    w = solve_wach(m, ctx)
    _emit(dumps_canonical(wach_to_dict(w)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    w = wach_from_dict(load_json(args.input))
    report = verify_wach_axioms(w)
    _emit(dumps_canonical(report_to_dict(report.checks)), args.out)
    return EXIT_OK if report.ok else EXIT_CHECK


def _cmd_reduce(args) -> int:
    data = load_json(args.input)
    kind = data.get("kind")
    if kind == "fl":
        m, ctx = _context_for(fl_from_dict(data), args)
        w = solve_wach(m, ctx)
        h_max = m.h
    elif kind == "wach":
        solve_flags = {
            "--prec-p": args.prec_p,
            "--prec-pi0": args.prec_pi0,
            "--chi-gamma": args.chi_gamma,
        }
        given = [flag for flag, value in solve_flags.items() if value is not None]
        if given:
            raise InvalidInput(f"{', '.join(given)}: a 'wach' input is already solved")
        w = wach_from_dict(data)
        h_max = max(w.weights, default=0)
    else:
        raise SchemaError("reduce expects an 'fl' or 'wach' input")
    if args.h_max is not None:
        h_max = args.h_max
    _emit(dumps_canonical(reduction_to_dict(recover_filtration(w, h_max))), args.out)
    return EXIT_OK


def _cmd_tensor(args) -> int:
    d1 = load_json(args.inputs[0])
    d2 = load_json(args.inputs[1])
    kinds = (d1.get("kind"), d2.get("kind"))
    if kinds == ("fl", "fl"):
        m = tensor_fl(fl_from_dict(d1), fl_from_dict(d2))
        _emit(dumps_canonical(fl_to_dict(m)), args.out)
    elif kinds == ("wach", "wach"):
        w = tensor_wach(wach_from_dict(d1), wach_from_dict(d2))
        _emit(dumps_canonical(wach_to_dict(w)), args.out)
    else:
        raise SchemaError("tensor expects two 'fl' files or two 'wach' files")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    (m, C_pert), ctx = _context_for(perturbed_from_dict(load_json(args.input)), args)
    P = normalize_basis(C_pert, m, ctx)
    _emit(dumps_canonical(base_change_to_dict(P)), args.out)
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    if args.generate:
        try:
            primes = tuple(int(x) for x in args.primes.split(","))
        except ValueError:
            raise InvalidInput(f"--primes {args.primes!r} is not a comma-separated list of integers") from None
        modules = generate_suite(
            args.seed, primes=primes, count=args.count, max_rank=args.max_rank
        )
    else:
        if not args.input:
            raise SchemaError("roundtrip needs -i FILE or --generate")
        modules = [fl_from_dict(load_json(args.input))]
    checks = []
    all_ok = True
    for idx, m in enumerate(modules):
        m_pi0 = m.N if args.prec_pi0 is None else args.prec_pi0
        ctx = get_context(m.p, m.N, m_pi0, args.chi_gamma)
        rep = roundtrip_check(m, ctx, seed=args.seed + idx)
        ok = rep.ok
        all_ok = all_ok and ok
        detail = "; ".join(f"{n}:{'ok' if o else 'FAIL ' + d}" for n, o, d in rep.checks)
        checks.append(
            (f"module_{idx}_p{m.p}_d{m.rank}", ok, detail)
        )
    _emit(dumps_canonical(report_to_dict(checks, seed=args.seed)), args.out)
    return EXIT_OK if all_ok else EXIT_CHECK


# every flag, defined once; a subcommand takes only the flags its handler reads
_FLAGS = {
    "input": (("-i", "--input"), {"required": True, "help": "input JSON file"}),
    "out": (("--out",), {"help": "output path (default: stdout)"}),
    "prec-p": (("--prec-p",), {"type": int, "help": "lower the p-adic precision N of the input"}),
    "prec-pi0": (("--prec-pi0",), {"type": int, "help": "override series order M_pi0"}),
    "chi-gamma": (("--chi-gamma",), {"type": int, "help": "override chi(gamma), default 1+p"}),
}
_SOLVE_FLAGS = ("input", "out", "prec-p", "prec-pi0", "chi-gamma")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wachkit",
        description="Exact (phi, Gamma)-module construction and verification over Z/p^N",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, flags: tuple[str, ...]) -> argparse.ArgumentParser:
        # no abbreviations: roundtrip would read --prec-p as --prec-pi0
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            sp.add_argument(*names, **kwargs)
        return sp

    command("build", "solve the (phi, Gamma)-matrices of a module", _SOLVE_FLAGS)
    command("verify", "check that a solved file is the canonical (C, G) of its data", ("input", "out"))
    rp = command("reduce", "reduce mod pi0 and recover the filtration", _SOLVE_FLAGS)
    rp.add_argument("--h-max", type=int, help="largest filtration step to recover")
    tp = command("tensor", "tensor two modules", ("out",))
    tp.add_argument("inputs", nargs=2, help="two input JSON files")
    command("normalize", "solve the basis-normalization recursion", _SOLVE_FLAGS)
    rt = command(
        "roundtrip", "build, reduce and recognize; report pass/fail", ("out", "prec-pi0", "chi-gamma")
    )
    rt.add_argument("-i", "--input", help="input FL JSON file")
    rt.add_argument("--generate", action="store_true", help="generate a seeded suite instead")
    rt.add_argument("--count", type=int, default=30)
    rt.add_argument("--primes", default="3,5,7")
    rt.add_argument("--max-rank", type=int, default=3)
    rt.add_argument("--seed", type=int, default=0, help="seed of the suite and the planted perturbations")
    return ap


_HANDLERS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "tensor": _cmd_tensor,
    "normalize": _cmd_normalize,
    "roundtrip": _cmd_roundtrip,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationFailed, WeightOverflow, InvalidInput, NotInS0) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoConvergence,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (AxiomViolation, NotCongruent, NotDivisible, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except WachkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
