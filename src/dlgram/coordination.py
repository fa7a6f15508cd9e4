"""Coordination as suspended constraints over the closure.

Whenever a conjunction edge appears, a constraint is posted: some
category must be found ending where the conjunction starts and starting
where it ends, with parallel structure, and then the combined span gets
that category too.  Candidates are tried closest-scoped first; a failed
candidate leaves no trace (substitutions are persistent values), and the
constraint suspends until new layers supply fresh candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import (Chart, Coordinated, D_CATEGORY, Edge, LEFTWARD,
                     RIGHTWARD, predict)
from .grammar import Grammar
from .terms import EMPTY_SUBST, apply, c_unify, canonical_text

LEFT_COMPLETE = "left"
RIGHT_COMPLETE = "right"


@dataclass
class Candidate:
    side: str  # LEFT_COMPLETE: complete conjunct ends at N; RIGHT_COMPLETE: starts at M
    category: str
    edge_id: int
    tried: bool = False


@dataclass
class CoordConstraint:
    id: int
    conj_edge_id: int
    n: int  # conjunction start
    m: int  # conjunction end
    connective: str
    agenda: list = field(default_factory=list)
    status: str = "suspended"  # suspended | resolved | exhausted
    resolutions: list = field(default_factory=list)  # (source, target, combined) ids


def post(chart: Chart, grammar: Grammar, state: "CoordinationState") -> list:
    """One new constraint per conjunction edge added since the last post.
    The connective is the conj edge's single argument, a constant (the
    grammar's validation guarantees both)."""
    new = []
    for e in chart.edges[state.posted_upto:]:
        if e.category != grammar.conj_category:
            continue
        conn = e.args[0].name
        c = CoordConstraint(
            id=len(state.constraints) + 1,
            conj_edge_id=e.id, n=e.start, m=e.end, connective=conn)
        state.constraints.append(c)
        new.append(c)
        state.log_line(f"C{c.id}: posted {grammar.conj_category}({conn},{c.n},{c.m})")
    state.posted_upto = len(chart.edges)
    return new


def refresh_agenda(c: CoordConstraint, chart: Chart) -> CoordConstraint:
    """Rebuild the candidate agenda from the chart, keeping tried flags.

    Left-complete candidates (ending at N) come first, shortest span
    first, then right-complete ones (starting at M), again shortest span
    first.  Word facts, conjunction edges, and zero-width edges are
    never candidates.
    """
    tried = {(cand.side, cand.edge_id) for cand in c.agenda if cand.tried}
    conj_category = chart.edges[c.conj_edge_id].category

    def usable(e: Edge) -> bool:
        return (e.category not in (D_CATEGORY, conj_category)
                and not e.is_zero_width)

    left = [e for e in chart.ending_at(c.n) if usable(e)]
    right = [e for e in chart.starting_at(c.m) if usable(e)]
    # span-length ordering; ties broken by content so that evaluation
    # order does not depend on edge ids.  With one end fixed, the keys
    # are the chart's dedup keys, so the order is total.
    left.sort(key=lambda e: (-e.start, e.category, canonical_text(e.args)))
    right.sort(key=lambda e: (e.end, e.category, canonical_text(e.args)))
    agenda = [Candidate(LEFT_COMPLETE, e.category, e.id,
                        (LEFT_COMPLETE, e.id) in tried) for e in left]
    agenda += [Candidate(RIGHT_COMPLETE, e.category, e.id,
                         (RIGHT_COMPLETE, e.id) in tried) for e in right]
    c.agenda = agenda
    return c


def combine(left: Edge, right: Edge, conn: str, grammar: Grammar,
            chart: Chart, constraint_id: int,
            source_id: int, target_id: int) -> Edge:
    """Edge for the whole coordination: same category, combined span,
    arguments c-unified pairwise under one threaded substitution."""
    if left.category != right.category or len(left.args) != len(right.args):
        raise AssertionError("combine on mismatched categories; grammar "
                             "validation should have made this unreachable")
    s = EMPTY_SUBST
    parts = []
    for a, b in zip(left.args, right.args):
        part, s = c_unify(a, b, conn, s)
        parts.append(part)
    args = tuple(apply(s, p) for p in parts)
    edge, _added = chart.add(
        left.category, args, left.start, right.end,
        Coordinated(constraint_id, source_id, target_id))
    return edge


def attempt(c: CoordConstraint, chart: Chart, grammar: Grammar,
            state: "CoordinationState") -> Optional[Edge]:
    """Try untried candidates in agenda order.

    A left-complete candidate asks prediction for the same category
    rightward from M; a right-complete one leftward from N.  The first
    successful prediction is combined and ends the constraint in
    first-solution mode; in all-solutions mode every candidate runs and
    every resolution is recorded.
    """
    found = None
    for cand in c.agenda:
        if cand.tried:
            continue
        cand.tried = True
        source = chart.edges[cand.edge_id]
        # step orders (source, predicted) left to right
        if cand.side == LEFT_COMPLETE:
            anchor, direction, step = c.m, RIGHTWARD, 1
        else:
            anchor, direction, step = c.n, LEFTWARD, -1
        predicted = predict(grammar, chart, cand.category, anchor,
                            direction, source, state.gap_budget)
        if predicted is None:
            state.log_line(
                f"C{c.id}: try {cand.side} {_spanned(source)} -> fail")
            continue
        state.log_line(
            f"C{c.id}: try {cand.side} {_spanned(source)} "
            f"-> predicted {_spanned(predicted)}")
        left, right = (source, predicted)[::step]
        combined = combine(left, right, c.connective, grammar, chart,
                           c.id, source.id, predicted.id)
        c.resolutions.append((source.id, predicted.id, combined.id))
        c.status = "resolved"
        state.log_line(
            f"C{c.id}: combine {_spanned(left)} + {_spanned(right)} "
            f"-> {_spanned(combined)}")
        found = combined
        if state.first_solution:
            state.log_line(f"C{c.id}: resolved")
            return combined
    if found is not None:
        state.log_line(f"C{c.id}: resolved")
    return found


def _spanned(e: Edge) -> str:
    return f"{e.category}({e.start},{e.end})"


class CoordinationState:
    """Per-parse constraint store; plugs into closure as the layer hook."""

    def __init__(self, grammar: Grammar, *, first_solution: bool = True,
                 gap_budget: int = 1,
                 trace: Optional[Callable[[str], None]] = None):
        self.grammar = grammar
        self.first_solution = first_solution
        self.gap_budget = gap_budget
        self.trace = trace
        self.constraints: list = []
        self.posted_upto = 0  # chart edges below this id have been posted
        self.log: list = []
        self._revival_pending = False

    def log_line(self, line: str):
        self.log.append(line)
        if self.trace:
            self.trace(line)

    def after_layer(self, chart: Chart):
        """Closure hook: post constraints for new conjunctions, then give
        every live constraint a chance to resolve."""
        post(chart, self.grammar, self)
        revival = self._revival_pending
        self._revival_pending = False
        for c in self.constraints:
            if c.status == "resolved" and self.first_solution and not revival:
                continue
            refresh_agenda(c, chart)
            attempt(c, chart, self.grammar, self)

    def revive(self):
        """Give every constraint one more attempt round (used when closure
        ends without a start parse).  Candidates that already produced a
        resolution stay tried; everything else may be retried, so resolved
        constraints get to try larger-scoped candidates once."""
        self._revival_pending = True
        for c in self.constraints:
            resolved_sources = {src for (src, _tgt, _comb) in c.resolutions}
            for cand in c.agenda:
                if cand.edge_id not in resolved_sources:
                    cand.tried = False
            if c.status == "exhausted":
                c.status = "suspended"

    def finalize(self):
        """Mark constraints that never resolved as exhausted."""
        for c in self.constraints:
            if c.status == "suspended":
                c.status = "exhausted"
                self.log_line(f"C{c.id}: exhausted")
