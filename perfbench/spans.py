"""Spans and counts recorded by the benchmark around calls into wachkit.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span (-1 for an operation's root) and op is the operation id, so
all spans of one operation share it.  Spans stay in memory and are written
once, when the run ends.

The library has no spans of its own yet, so ``wrapped`` replaces the public
layer functions below with recording wrappers for the duration of a traced
operation, in every loaded wachkit module that binds them.  Calls the library
makes internally (``solve_wach`` calling ``solve_gamma_matrix``) are then
recorded too.  Untraced operations run the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import wachkit as wk

# span name -> public function; the names are the per-layer metric names
LAYER_FUNCTIONS = {
    "wach.build_phi_matrix": "build_phi_matrix",
    "wach.solve_gamma_matrix": "solve_gamma_matrix",
    "wach.verify_wach_axioms": "verify_wach_axioms",
    "reduction.recover_filtration": "recover_filtration",
    "reduction.normalize_basis": "normalize_basis",
}


class NullTracer:
    """Records nothing; what untraced passes use."""

    op = None

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, value):
        self.counts[name] += value

    def busy(self, scale):
        """Total duration of the spans of each name, each times scale[its op]."""
        out = defaultdict(float)
        for name, start, end, _, op in self.spans:
            out[name] += (end - start) * scale[op]
        return out

    @contextlib.contextmanager
    def wrapped(self):
        """Route the layer functions through recording wrappers."""
        saved = []
        for span_name, attr in LAYER_FUNCTIONS.items():
            fn = getattr(wk, attr)
            wrapper = self._wrap(span_name, fn)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "wachkit" or name.startswith("wachkit.")) and getattr(
                    mod, attr, None
                ) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _wrap(self, span_name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)

        return recorded

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": par, "op": op}
            for n, s, e, par, op in self.spans
        ]
