"""Per-layer tracing by wrapping dlgram's functions from outside.

Tracer.installed() replaces a fixed set of module and class attributes
of the loaded dlgram package with timing or counting wrappers, and puts
every original back when the block ends, also when it raises.  Each
wrapper is installed where its caller looks the name up: the term
operations as dlgram.engine calls them, predict as dlgram.coordination
calls it, reshape and emit_json as dlgram.cli calls them.

A span is one wrapped call: its name, start, end and parent (the span
below it on the stack).  Spans are folded into per-name totals as they
close, so memory does not grow with the number of calls.  Self time is
a span's duration minus the durations of its direct children.

Term-operation spans are named after their nearest enclosing engine
span: terms.closure.* under match_rule or chart_add, terms.predict.*
under predict.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

CLOSURE = "closure"
PREDICT = "predict"
OTHER = "other"

# (module, attribute, span name, region it opens or None, outcome test)
# The outcome test marks a call as a "hit" for the span's ratio metric.
SPANS = (
    ("dlgram.api", "assert_input", "engine.assert_input", None, None),
    ("dlgram.api", "close", "engine.close", None, None),
    ("dlgram.api", "extract", "engine.extract", None, None),
    ("dlgram.engine", "match_rule", "engine.match_rule", CLOSURE,
     lambda r: not r),
    ("dlgram.engine:Chart", "add", "engine.chart_add", CLOSURE,
     lambda r: not r[1]),
    ("dlgram.coordination", "predict", "engine.predict", PREDICT,
     lambda r: r is not None),
    ("dlgram.coordination", "c_unify", "terms.coordination.c_unify", None,
     None),
    ("dlgram.coordination", "post", "coordination.post", None, None),
    ("dlgram.coordination", "refresh_agenda", "coordination.refresh_agenda",
     None, None),
    ("dlgram.coordination", "attempt", "coordination.attempt", None,
     lambda r: r is not None),
    ("dlgram.coordination", "combine", "coordination.combine", None, None),
    ("dlgram.cli", "reshape", "reshape", None, None),
    ("dlgram.cli", "emit_json", "cli.emit_json", None, None),
)

# term operations, named by region; unify_all's hit is a failed unification
TERM_OPS = (
    ("unify_all", lambda r: r is None),
    ("apply", None),
    ("rename_fresh_all", None),
    ("canonical_text", None),
)

# calls counted (not timed) while predict is the nearest region
PREDICT_COUNTERS = (
    ("dlgram.grammar:Grammar", "rules_for", "engine.predict.build_calls"),
    ("dlgram.engine", "derivation_edges", "engine.predict.gap_lookups"),
)


def _owner(path: str):
    """The loaded module, or a class in it, named "module[:Class]"."""
    module, _, cls = path.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span and counter totals for the dlgram calls made while installed.

    stats[name] is [calls, self seconds, hits, total seconds]; counts[name]
    is a plain counter.  A root span opened with span() frames each operation.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0, 0.0])
        self.counts = defaultdict(int)
        # frame: [name, start, child seconds, region]
        self._stack = [["root", 0.0, 0.0, OTHER]]

    @contextmanager
    def span(self, name: str):
        """An explicit span, used for the operation itself."""
        stack, clock = self._stack, time.perf_counter
        parent = stack[-1]
        frame = [name, clock(), 0.0, parent[3]]
        stack.append(frame)
        try:
            yield frame
        finally:
            stack.pop()
            duration = clock() - frame[1]
            parent[2] += duration
            st = self.stats[name]
            st[0] += 1
            st[1] += duration - frame[2]
            st[3] += duration

    def _timed(self, fn, name, region, hit):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, clock(), 0.0, region or parent[3]]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                parent[2] += duration
                st = stats[name]
                st[0] += 1
                st[1] += duration - frame[2]
                st[3] += duration
            if hit is not None and hit(result):
                st[2] += 1
            return result

        return traced

    def _term_op(self, fn, op, hit):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        names = {region: f"terms.{region}.{op}"
                 for region in (CLOSURE, PREDICT, OTHER)}

        def traced(*args, **kwargs):
            parent = stack[-1]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                parent[2] += duration
                st = stats[names[parent[3]]]
                st[0] += 1
                st[1] += duration
                st[3] += duration
            if hit is not None and hit(result):
                st[2] += 1
            return result

        return traced

    def _predict_counter(self, fn, name):
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            if stack[-1][3] == PREDICT:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrappers(self):
        """(owner, attribute, wrapper) for every patched attribute."""
        for path, attr, name, region, hit in SPANS:
            owner = _owner(path)
            yield owner, attr, self._timed(vars(owner)[attr], name, region, hit)
        engine = _owner("dlgram.engine")
        for op, hit in TERM_OPS:
            yield engine, op, self._term_op(vars(engine)[op], op, hit)
        for path, attr, name in PREDICT_COUNTERS:
            owner = _owner(path)
            yield owner, attr, self._predict_counter(vars(owner)[attr], name)

    @contextmanager
    def installed(self):
        """Patch dlgram for the duration of the block; restore on exit."""
        saved = []
        try:
            for owner, attr, wrapper in list(self._wrappers()):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def patched_attributes():
    """(owner, attribute) for everything Tracer.installed() replaces."""
    return [(owner, attr) for owner, attr, _ in Tracer()._wrappers()]
