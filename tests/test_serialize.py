"""The canonical writer against json.dumps, on random trees and on every artifact the CLI writes.

dumps_canonical must give the bytes of json.dumps(obj, indent=2,
sort_keys=True) plus a newline, which test_golden's digests were recorded
with.  The property covers the writer's cases: strings that need escaping
(quotes, backslashes, control characters, DEL, non-ASCII, lone surrogates),
lists of strings that need none (the one-join path), empty containers,
tuples, ints of any size, bools and None.  The golden suite then checks each
artifact kind: fl with labels, wach, reduction, base_change and the verify
and roundtrip reports.
"""

import json
from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wachkit.cyclo import get_context
from wachkit.flmod import make_fl
from wachkit.reduction import normalize_basis, recover_filtration, roundtrip_check
from wachkit.serialize import (
    base_change_to_dict,
    dumps_canonical,
    fl_to_dict,
    reduction_to_dict,
    report_to_dict,
    wach_to_dict,
)
from wachkit.suite import generate_suite
from wachkit.wach import phi_matrix, solve_wach, verify_wach_axioms


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_chars = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\x80", "é", " ", "\ud800", "\udfff", "\U0001f600"]),
)
_text = st.text(_chars, max_size=8)
_digits = st.text(st.sampled_from("0123456789"), max_size=6)
_ints = st.one_of(st.integers(), st.integers(min_value=-(10**300), max_value=10**300))
_leaves = st.one_of(_text, _digits, _ints, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_digits, max_size=4),
        st.lists(_digits, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    )


@settings(deadline=None)
@given(st.recursive(_leaves, _containers, max_leaves=24))
@example([[], (), {}, [[]], {"a": {}, "": ()}])
@example({"b": ["1", "2"], "a": ("3", "4"), "c": ("5",)})
@example(["", ""])
@example(["1", 2, ["3"]])
@example(["1", "\ud800", "\x7f", "\x00", '"', "\\", "é"])
@example([True, None, False, -(10**300), 0])
def test_canonical_writer_matches_json_dumps(obj):
    assert dumps_canonical(obj) == _reference(obj)


@cache
def _golden():
    """(module with labels, its solve) for each golden-suite module at the default profile."""
    out = []
    for m in generate_suite(7, count=33):
        labels = tuple(f'e{j} "r={r}"\t\\' for j, r in enumerate(m.weights))
        m = make_fl(m.p, m.N, m.weights, m.A, labels)
        out.append((m, solve_wach(m, get_context(m.p))))
    return out


def test_every_artifact_of_the_golden_suite_is_json_dumps_text():
    for m, w in _golden():
        ctx = w.ctx
        payloads = [
            fl_to_dict(m),
            wach_to_dict(w),
            reduction_to_dict(recover_filtration(w, m.h)),
            base_change_to_dict(normalize_basis(phi_matrix(m.A, m.weights, ctx.work.q), m, ctx)),
            report_to_dict(verify_wach_axioms(w).checks),
        ]
        for obj in payloads:
            assert dumps_canonical(obj) == _reference(obj), (m.p, m.weights, obj.get("kind"))


def test_roundtrip_reports_are_json_dumps_text():
    # the report as `wachkit roundtrip` writes it: one check per module
    checks = []
    for idx, (m, w) in enumerate(_golden()[:6]):
        rep = roundtrip_check(m, w.ctx, seed=idx)
        detail = "; ".join(f"{n}:{'ok' if o else 'FAIL ' + d}" for n, o, d in rep.checks)
        checks.append((f"module_{idx}_p{m.p}_d{m.rank}", rep.ok, detail))
    for obj in (report_to_dict(checks, seed=7), report_to_dict(checks[:1]), report_to_dict([])):
        assert dumps_canonical(obj) == _reference(obj)
