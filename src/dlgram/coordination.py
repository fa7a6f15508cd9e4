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
from operator import attrgetter
from typing import Callable, Optional

from .engine import Chart, Coordinated, Edge, LEFTWARD, RIGHTWARD, predict
from .grammar import Grammar
from .terms import EMPTY_SUBST, apply, c_unify

LEFT_COMPLETE = "left"
RIGHT_COMPLETE = "right"


@dataclass
class CoordConstraint:
    id: int
    n: int  # conjunction start
    m: int  # conjunction end
    connective: str
    # (side, Edge) pairs; side LEFT_COMPLETE: the complete conjunct ends
    # at N, RIGHT_COMPLETE: it starts at M
    agenda: list = field(default_factory=list)
    tried: set = field(default_factory=set)  # (side, edge id) pairs
    status: str = "suspended"  # suspended | resolved | exhausted
    resolutions: list = field(default_factory=list)  # (source, target, combined) ids


def post(chart: Chart, state: "CoordinationState") -> list:
    """One new constraint per conjunction edge added since the last post.
    The connective is the conj edge's single argument, a constant (the
    grammar's validation guarantees both)."""
    conj_category = state.grammar.conj_category
    new = []
    for e in chart.edges[state.posted_upto:]:
        if e.category != conj_category:
            continue
        conn = e.args[0].name
        c = CoordConstraint(id=len(state.constraints) + 1,
                            n=e.start, m=e.end, connective=conn)
        state.constraints.append(c)
        new.append(c)
        state.log_line(f"C{c.id}: posted {conj_category}({conn},{c.n},{c.m})")
    state.posted_upto = len(chart.edges)
    return new


def refresh_agenda(c: CoordConstraint, chart: Chart,
                   state: "CoordinationState"):
    """Rebuild the candidate agenda from the chart.

    Left-complete candidates (ending at N) come first, shortest span
    first, then right-complete ones (starting at M), again shortest span
    first.  Candidates are looked up under state.candidate_categories,
    so word facts, conjunction edges and gaps (see Chart) are never found.
    """
    cats = state.candidate_categories
    left = [e for cat in cats for e in chart.at_end(cat, c.n)]
    right = [e for cat in cats for e in chart.at_start(cat, c.m)]
    # span-length ordering; ties broken by content so that evaluation
    # order does not depend on edge ids.  With one end fixed, two edges
    # with the same key would have the same category, span and
    # canonical text, so they would be variants, which the chart never
    # holds twice; the order is total.
    left.sort(key=lambda e: (-e.start, e.category, e.args_text))
    right.sort(key=lambda e: (e.end, e.category, e.args_text))
    c.agenda = ([(LEFT_COMPLETE, e) for e in left]
                + [(RIGHT_COMPLETE, e) for e in right])


def combine(left: Edge, right: Edge, conn: str, chart: Chart,
            constraint_id: int, source_id: int, target_id: int) -> Edge:
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


def attempt(c: CoordConstraint, chart: Chart,
            state: "CoordinationState") -> Optional[Edge]:
    """Try untried candidates in agenda order.

    A left-complete candidate asks prediction for the same category
    rightward from M; a right-complete one leftward from N.  The first
    successful prediction is combined and ends the constraint in
    first-solution mode; in all-solutions mode every candidate runs and
    every resolution is recorded.
    """
    found = None
    for side, source in c.agenda:
        if (side, source.id) in c.tried:
            continue
        c.tried.add((side, source.id))
        if side == LEFT_COMPLETE:
            anchor, direction = c.m, RIGHTWARD
        else:
            anchor, direction = c.n, LEFTWARD
        predicted = predict(state.grammar, chart, source.category, anchor,
                            direction, source, state.gap_budget)
        if predicted is None:
            state.log_line(
                f"C{c.id}: try {side} {_spanned(source)} -> fail")
            continue
        state.log_line(
            f"C{c.id}: try {side} {_spanned(source)} "
            f"-> predicted {_spanned(predicted)}")
        # the conjunction lies between the two conjuncts
        left, right = sorted((source, predicted), key=attrgetter("start"))
        combined = combine(left, right, c.connective, chart, c.id,
                           source.id, predicted.id)
        c.resolutions.append((source.id, predicted.id, combined.id))
        c.status = "resolved"
        state.log_line(
            f"C{c.id}: combine {_spanned(left)} + {_spanned(right)} "
            f"-> {_spanned(combined)}")
        found = combined
        if state.first_solution:
            break
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
        # every rule head but the conjunction: the categories of candidates
        self.candidate_categories = ({r.head.category for r in grammar.rules}
                                     - {grammar.conj_category})
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
        post(chart, self)
        revival = self._revival_pending
        self._revival_pending = False
        for c in self.constraints:
            if c.status == "resolved" and self.first_solution and not revival:
                continue
            refresh_agenda(c, chart, self)
            attempt(c, chart, self)

    def revive(self):
        """Give every constraint one more attempt round (used when closure
        ends without a start parse).  Candidates that already produced a
        resolution stay tried; everything else may be retried, so resolved
        constraints get to try larger-scoped candidates once."""
        self._revival_pending = True
        for c in self.constraints:
            resolved_sources = {src for (src, _tgt, _comb) in c.resolutions}
            c.tried = {k for k in c.tried if k[1] in resolved_sources}

    def finalize(self):
        """Mark constraints that never resolved as exhausted."""
        for c in self.constraints:
            if c.status == "suspended":
                c.status = "exhausted"
                self.log_line(f"C{c.id}: exhausted")
