"""JSON file formats (bit-exact, deterministic).

All integers serialize as decimal strings to avoid 64-bit ambiguity across
consumers; series are degree-ascending coefficient arrays; matrices are
row-major nested arrays.  Canonical output (sorted keys, two-space indent,
trailing newline) makes identical inputs produce byte-identical artifacts.

The canonical text is json.dumps(obj, indent=2, sort_keys=True) plus a
newline, but CPython runs its pure-Python encoder whenever indent is set, so
dumps_canonical writes the same bytes itself: objects with their keys sorted,
one member per line at two spaces per level, empty containers as [] and {},
tuples as lists.  A list of strings that need no escaping, as every series
and matrix row of an artifact is, is written with one str.join; any other
string goes through json's C escaper, encode_basestring_ascii, and any other
value (a number, true, false, null, a dict with non-string keys) through
json.dumps itself.

Schemas:

* FLModule:   {"kind": "fl", "p": int, "N": int, "weights": [int, ...],
               "A": [["dec", ...], ...], "labels": [str, ...]?}
* WachModule: {"kind": "wach", "p": int, "N": int, "M_pi0": int,
               "chi_gamma": "dec", "C": [[[coeff, ...], ...], ...],
               "G": like C, "meta": {"weights": [...], "iterations_used": n}},
              every C and G series with exactly M_pi0 coefficients,
              every weight in [0, p-2] and n in [0, N + M_pi0 - 1]
* perturbed:  {"kind": "perturbed", "fl": FLModule, "C": like wach C},
              a square C whose series may have any length; a shorter
              series is exact, extended by zeros to the longest
* base_change: {"kind": "base_change", "P": like wach C, "checks": [report]}
* reduction:  {"kind": "reduction", "fil_ranks": [int, ...], "weights": [int, ...],
               "A_recovered": [["dec", ...], ...], "adapted_basis": like A_recovered,
               "fil_generators": [like A_recovered, ...]}, one Howell form
              of generator rows per r = 0..h_max+1
* reports:    {"checks": [{"name": str, "pass": bool, "detail": str}, ...],
               "seed": int (roundtrip only)}

A series matrix is loaded into one SeriesMat over the file's (p, N).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .cyclo import check_profile, get_context
from .errors import SchemaError
from .flmod import FLModule, make_fl
from .padic import PMatrix
from .reduction import FilteredReduction
from .series import PI0, SeriesMat, TruncSeries
from .wach import WachModule


def dumps_canonical(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", written without the pure-Python encoder."""
    return _encode(obj, "\n") + "\n"


def _encode(x, nl: str) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it; nl opens a line at x's own indent."""
    if isinstance(x, str):
        return _quote(x)
    if type(x) is int:
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if isinstance(x[0], str):
            try:
                raw = "".join(x)
            except TypeError:  # not every member is a string
                pass
            else:
                # escaping lengthens what it changes, so this holds only when nothing is escaped
                if len(_quote(raw)) == len(raw) + 2:
                    return "[" + inner + '"' + ('",' + inner + '"').join(x) + '"' + nl + "]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in x]) + nl + "]"
    if isinstance(x, dict) and all(isinstance(k, str) for k in x):
        if not x:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(x.items())]
        ) + nl + "}"
    # its own text has no raw newline: json escapes every newline inside a string
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", nl)


def _need(data: dict, field: str, where: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if field not in data:
        raise SchemaError(f"{where}: missing field {field!r}")
    return data[field]


def _as_int(value, where: str) -> int:
    # a float would be truncated and a boolean read as 0 or 1
    if isinstance(value, (bool, float)):
        raise SchemaError(f"{where}: expected a decimal integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: expected a decimal integer, got {value!r}") from exc


def fl_to_dict(m: FLModule) -> dict:
    out = {
        "kind": "fl",
        "p": m.p,
        "N": m.N,
        "weights": list(m.weights),
        "A": [[str(x) for x in m.A.row(i)] for i in range(m.rank)],
    }
    if m.labels:
        out["labels"] = list(m.labels)
    return out


def fl_from_dict(data: dict, where: str = "fl") -> FLModule:
    if _need(data, "kind", where) != "fl":
        raise SchemaError(f"{where}: kind must be 'fl'")
    p = _as_int(_need(data, "p", where), f"{where}.p")
    N = _as_int(_need(data, "N", where), f"{where}.N")
    weights = _need(data, "weights", where)
    if not isinstance(weights, list) or not weights:
        raise SchemaError(f"{where}.weights: expected a nonempty list")
    rows = _need(data, "A", where)
    d = len(weights)
    if not isinstance(rows, list) or len(rows) != d or any(
        not isinstance(r, list) or len(r) != d for r in rows
    ):
        raise SchemaError(f"{where}.A: expected a {d}x{d} matrix")
    entries = tuple(
        _as_int(x, f"{where}.A[{i}][{j}]") for i, r in enumerate(rows) for j, x in enumerate(r)
    )
    A = PMatrix(d, d, entries, p, N)
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError(f"{where}.labels: expected a list of strings")
    if labels is not None and len(labels) != d:
        raise SchemaError(f"{where}.labels: expected {d} labels, one per weight, got {len(labels)}")
    return make_fl(p, N, [_as_int(w, f"{where}.weights") for w in weights], A, labels)


def _matrix_to_json(M: SeriesMat) -> list:
    return [[[str(c) for c in e] for e in row] for row in M.rows]


def _matrix_from_json(data, p: int, N: int, where: str, order: int | None = None) -> SeriesMat:
    """A square matrix of series; with `order`, every series must have that many coefficients."""
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a nonempty nested array")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data):
            raise SchemaError(f"{where}[{i}]: expected a square matrix of series")
        out = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list):
                raise SchemaError(f"{where}[{i}][{j}]: expected an array of coefficients")
            if order is not None and len(entry) != order:
                raise SchemaError(
                    f"{where}[{i}][{j}]: expected {order} coefficients, got {len(entry)}"
                )
            coeffs = tuple(_as_int(c, f"{where}[{i}][{j}]") for c in entry)
            out.append(TruncSeries(PI0, p, N, coeffs))
        rows.append(out)
    return SeriesMat(rows, p, N)


def wach_to_dict(w: WachModule) -> dict:
    return {
        "kind": "wach",
        "p": w.ctx.p,
        "N": w.ctx.N,
        "M_pi0": w.ctx.profile.M_pi0,
        "chi_gamma": str(w.ctx.chi_gamma),
        "C": _matrix_to_json(w.C),
        "G": _matrix_to_json(w.G),
        "meta": {
            "weights": list(w.weights),
            "iterations_used": w.iterations_used,
        },
    }


def wach_from_dict(data: dict) -> WachModule:
    if _need(data, "kind", "wach") != "wach":
        raise SchemaError("wach: kind must be 'wach'")
    p = _as_int(_need(data, "p", "wach"), "wach.p")
    N = _as_int(_need(data, "N", "wach"), "wach.N")
    m_pi0 = _as_int(_need(data, "M_pi0", "wach"), "wach.M_pi0")
    chi = _as_int(_need(data, "chi_gamma", "wach"), "wach.chi_gamma")
    # the bootstrap, whose cost grows as M_pi0^2, comes after every check of the file
    check_profile(p, N, m_pi0, chi)
    C = _matrix_from_json(_need(data, "C", "wach"), p, N, "wach.C", m_pi0)
    G = _matrix_from_json(_need(data, "G", "wach"), p, N, "wach.G", m_pi0)
    if len(G) != len(C):
        raise SchemaError("wach: C and G differ in rank")
    meta = _need(data, "meta", "wach")
    weights = _need(meta, "weights", "wach.meta")
    if not isinstance(weights, list):
        raise SchemaError("wach.meta.weights: expected a list")
    weights = tuple(_as_int(x, "wach.meta.weights") for x in weights)
    if len(weights) != len(C):
        raise SchemaError("wach: weights length differs from matrix rank")
    if any(not 0 <= r <= p - 2 for r in weights):
        raise SchemaError(f"wach.meta.weights: each weight must lie in [0, p-2] = [0, {p - 2}]")
    iters = _as_int(meta.get("iterations_used", 0), "wach.meta.iterations_used")
    if not 0 <= iters <= N + m_pi0 - 1:  # a solve stops within this proved bound
        raise SchemaError(
            f"wach.meta.iterations_used: must lie in [0, N + M_pi0 - 1] = [0, {N + m_pi0 - 1}]"
        )
    ctx = get_context(p, N, m_pi0, chi)
    return WachModule(ctx=ctx, weights=weights, C=C, G=G, iterations_used=iters)


def perturbed_from_dict(data: dict) -> tuple[FLModule, SeriesMat]:
    """The target module and the perturbed C, over the module's (p, N)."""
    if _need(data, "kind", "perturbed") != "perturbed":
        raise SchemaError("perturbed: kind must be 'perturbed'")
    m = fl_from_dict(_need(data, "fl", "perturbed"), "perturbed.fl")
    return m, _matrix_from_json(_need(data, "C", "perturbed"), m.p, m.N, "perturbed.C")


def base_change_to_dict(P: SeriesMat) -> dict:
    return {
        "kind": "base_change",
        "P": _matrix_to_json(P),
        "checks": [{"name": "residual_zero", "pass": True, "detail": ""}],
    }


def reduction_to_dict(red: FilteredReduction) -> dict:
    def rows(M: PMatrix) -> list:
        return [[str(x) for x in row] for row in M.to_lists()]

    return {
        "kind": "reduction",
        "fil_ranks": list(red.fil_ranks),
        "weights": list(red.weights_recovered),
        "A_recovered": rows(red.A_recovered),
        "adapted_basis": rows(red.adapted_basis),
        "fil_generators": [rows(lat) for lat in red.fil_generators],
    }


def report_to_dict(checks, seed: int | None = None) -> dict:
    out = {
        "checks": [
            {"name": name, "pass": bool(ok), "detail": detail}
            for (name, ok, detail) in checks
        ]
    }
    if seed is not None:
        out["seed"] = seed
    return out


def load_json(path: str) -> dict:
    """The JSON object in a file; SchemaError for an unreadable file, bad JSON or another top level."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"{path}: no such file") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return data
