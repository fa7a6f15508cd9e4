"""Chart, semi-naive closure, top-down prediction, and parse extraction.

Input words become positional facts of the reserved category 'D'; every
other edge is a derived theorem cat(args, start, end).  Layers are
computed bottom-up: each new layer's derivations must use at least one
edge from the previous layer, and closure stops when a layer comes out
empty.  A per-layer hook lets the coordination machinery inject edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .grammar import Grammar, NonTerminal, Rule, Terminal
from .terms import (EMPTY_SUBST, Compound, Const, Term, abstract_over, apply,
                    canonical_text, fresh_var, rename_fresh_all, unify_all)

D_CATEGORY = "'D'"

LEFTWARD = "leftward"
RIGHTWARD = "rightward"

# recursion limit of predict's rule descent
PREDICT_DEPTH_CAP = 16


class LayerCapError(RuntimeError):
    """Raised when closure exceeds the configured layer limit."""


# Provenances: text() is the --trace rendering, json() the --json one.

@dataclass(frozen=True)
class InputWord:
    def text(self) -> str:
        return "input"

    def json(self) -> dict:
        return {"kind": "input"}


@dataclass(frozen=True)
class Lexical:
    rule_id: int

    def text(self) -> str:
        return f"lexical r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "lexical", "rule": self.rule_id}


@dataclass(frozen=True)
class Derived:
    rule_id: int
    children: tuple

    def text(self) -> str:
        return f"derived r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "derived", "rule": self.rule_id,
                "children": list(self.children)}


@dataclass(frozen=True)
class Predicted:
    rule_id: int
    children: tuple

    def text(self) -> str:
        return f"predicted r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "predicted", "rule": self.rule_id,
                "children": list(self.children)}


@dataclass(frozen=True)
class Gap:
    source: int  # edge the arguments were abstracted from

    def text(self) -> str:
        return f"gap from e{self.source}"

    def json(self) -> dict:
        return {"kind": "gap", "source": self.source}


@dataclass(frozen=True)
class Coordinated:
    constraint_id: int
    source: int
    target: int

    def text(self) -> str:
        return f"coordinated c{self.constraint_id}"

    def json(self) -> dict:
        return {"kind": "coordinated", "constraint": self.constraint_id,
                "source": self.source, "target": self.target}


@dataclass(frozen=True)
class Edge:
    id: int
    category: str
    args: tuple
    start: int
    end: int
    layer: int
    provenance: object

    @property
    def is_zero_width(self) -> bool:
        return self.start == self.end

    @property
    def is_gap(self) -> bool:
        return isinstance(self.provenance, Gap)

    def __repr__(self):
        inner = canonical_text(self.args)
        inner = inner + "," if inner else ""
        return f"{self.category}({inner}{self.start},{self.end})"


class Chart:
    """Append-only, variant-deduplicated edge store with positional
    indexes and per-layer deltas.  Confined to a single parse."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.n = len(self.tokens)
        self.edges: list = []
        self.layers: list = []
        self.trace: Optional[Callable[[str], None]] = None
        self._dedup: dict = {}
        self._by_start: dict = {}  # (category, start) -> edge ids
        self._by_end: dict = {}  # (category, end) -> edge ids
        self._from: dict = {}  # start -> edge ids
        self._to: dict = {}  # end -> edge ids

    @property
    def current_layer(self) -> int:
        return len(self.layers)

    def begin_layer(self):
        self.layers.append([])

    def drop_layer_if_empty(self) -> bool:
        if self.layers and not self.layers[-1]:
            self.layers.pop()
            return True
        return False

    def add(self, category: str, args: Sequence[Term], start: int, end: int,
            provenance) -> tuple:
        """Insert an edge unless a variant already exists.
        Returns (edge, added)."""
        if not (0 <= start <= end <= self.n):
            raise ValueError(f"edge span {start}..{end} outside input 0..{self.n}")
        args = tuple(args)
        key = (category, start, end, canonical_text(args))
        existing = self._dedup.get(key)
        if existing is not None:
            return self.edges[existing], False
        e = Edge(len(self.edges), category, args, start, end,
                 self.current_layer, provenance)
        self.edges.append(e)
        self._dedup[key] = e.id
        self._by_start.setdefault((category, start), []).append(e.id)
        self._by_end.setdefault((category, end), []).append(e.id)
        self._from.setdefault(start, []).append(e.id)
        self._to.setdefault(end, []).append(e.id)
        self.layers[-1].append(e.id)
        if self.trace:
            self.trace(f"T{e.layer}: {e!r}  [{provenance.text()}]")
        return e, True

    def at_start(self, category: str, start: int) -> list:
        return [self.edges[i] for i in self._by_start.get((category, start), ())]

    def at_end(self, category: str, end: int) -> list:
        return [self.edges[i] for i in self._by_end.get((category, end), ())]

    def ending_at(self, end: int) -> list:
        return [self.edges[i] for i in self._to.get(end, ())]

    def starting_at(self, start: int) -> list:
        return [self.edges[i] for i in self._from.get(start, ())]

    def layer_edges(self, k: int) -> list:
        return [self.edges[i] for i in self.layers[k - 1]]


def tokenize(text: str) -> list:
    """Lowercase, split on whitespace, strip terminal punctuation."""
    out = []
    for raw in text.split():
        w = raw.lower().rstrip(".,;:!?")
        if w:
            out.append(w)
    return out


def assert_input(tokens: Sequence[str],
                 trace: Optional[Callable[[str], None]] = None) -> Chart:
    """Encode the input as 'D'(word, i, i+1) facts in layer T1."""
    tokens = list(tokens)
    if not tokens:
        raise ValueError("empty input")
    chart = Chart(tokens)
    chart.trace = trace
    chart.begin_layer()
    for i, w in enumerate(tokens):
        chart.add(D_CATEGORY, (Const(w),), i, i + 1, InputWord())
    return chart


@dataclass(frozen=True)
class Derivation:
    """A rule instantiation match_rule found: the edge it would create."""
    rule_id: int
    category: str
    args: tuple
    start: int
    end: int
    children: tuple


def _item_candidates(item, chart: Chart, pos: int, id_limit: int) -> list:
    """Chart edges that can seat `item` starting at pos.  Zero-width gap
    edges never participate in ordinary rule matching."""
    if isinstance(item, Terminal):
        return [e for e in chart.at_start(D_CATEGORY, pos)
                if e.id < id_limit and e.args[0] == Const(item.token)]
    return [e for e in chart.at_start(item.category, pos)
            if e.id < id_limit and not e.is_zero_width]


def match_rule(rule: Rule, delta: Optional[set], chart: Chart,
               id_limit: Optional[int] = None) -> list:
    """All contiguous seatings of the rule body on chart edges that use
    at least one delta edge (delta=None lifts the restriction), with the
    rule's argument unifications threaded through."""
    if id_limit is None:
        id_limit = len(chart.edges)
    out = []

    def extend(idx: int, pos: int, chosen: list):
        if idx == len(rule.body):
            if delta is not None and not any(e.id in delta for e in chosen):
                return
            inst = _instantiate(rule, chosen)
            if inst is not None:
                out.append(inst)
            return
        for e in _item_candidates(rule.body[idx], chart, pos, id_limit):
            chosen.append(e)
            extend(idx + 1, e.end, chosen)
            chosen.pop()

    first = rule.body[0]
    for start in range(chart.n + 1):
        for e in _item_candidates(first, chart, start, id_limit):
            extend(1, e.end, [e])

    return out


def _renamed(rule: Rule) -> tuple:
    """The rule renamed apart, with one shared mapping: (head args, one
    argument vector per body item, None for terminals)."""
    vectors = [rule.head.args] + [
        it.args for it in rule.body if isinstance(it, NonTerminal)]
    renamed = rename_fresh_all([t for vec in vectors for t in vec])
    i = len(rule.head.args)
    head_args, body_args = renamed[:i], []
    for it in rule.body:
        if isinstance(it, NonTerminal):
            body_args.append(renamed[i:i + len(it.args)])
            i += len(it.args)
        else:
            body_args.append(None)
    return head_args, body_args


def _instantiate(rule: Rule, chosen: Sequence[Edge]) -> Optional[Derivation]:
    """Rename the rule apart and unify body items with the chosen edges."""
    head_args, body_args = _renamed(rule)
    s = EMPTY_SUBST
    for args, edge in zip(body_args, chosen):
        if args is None:
            continue
        s = unify_all(args, edge.args, s)
        if s is None:
            return None
    return Derivation(
        rule_id=rule.id,
        category=rule.head.category,
        args=tuple(apply(s, t) for t in head_args),
        start=chosen[0].start if chosen else 0,
        end=chosen[-1].end if chosen else 0,
        children=tuple(e.id for e in chosen),
    )


def close(chart: Chart, grammar: Grammar,
          hook: Optional[Callable[[Chart], None]] = None,
          layer_cap: int = 64) -> Chart:
    """Run layered closure to fixpoint.

    The first round joins over everything already in the chart (so
    closing an already-closed chart is sound and adds nothing); later
    rounds are restricted to the previous layer's delta.  After each
    layer the hook may inject further edges into that layer.
    """
    delta = {e.id for e in chart.edges}
    while True:
        if chart.current_layer >= layer_cap:
            raise LayerCapError(
                f"closure exceeded the layer cap ({layer_cap}); "
                f"the grammar is probably growing without bound")
        id_limit = len(chart.edges)
        chart.begin_layer()
        for rule in grammar.rules:
            for d in match_rule(rule, delta, chart, id_limit):
                prov = (Lexical(rule.id) if rule.is_lexical
                        else Derived(d.rule_id, d.children))
                chart.add(d.category, d.args, d.start, d.end, prov)
        if hook is not None:
            hook(chart)
        new = chart.layers[-1]
        if not new:
            chart.drop_layer_if_empty()
            return chart
        delta = set(new)


# ---------------------------------------------------------------------------
# Top-down prediction

@dataclass(frozen=True)
class _Trial:
    """A constituent predict has built but not committed to the chart."""
    category: str
    args: tuple
    start: int
    end: int
    origin: object  # the rule id, or the Gap provenance of a gap
    children: tuple = ()  # Edge or _Trial, in build order


def derivation_edges(chart: Chart, root: Edge) -> list:
    """(edge, depth) pairs for the whole derivation under root,
    root included at depth 0.  'D' leaves are skipped."""
    out = []
    stack = [(root, 0)]
    while stack:
        e, depth = stack.pop()
        if e.category == D_CATEGORY:
            continue
        out.append((e, depth))
        for k in _children(chart, e):
            stack.append((chart.edges[k], depth + 1))
    return out


def _children(chart: Chart, e: Edge) -> Sequence[int]:
    """Ids of the edges e was derived from, left to right."""
    p = e.provenance
    if isinstance(p, (Derived, Predicted)):
        return p.children
    if isinstance(p, Coordinated):
        return sorted((p.source, p.target), key=lambda i: chart.edges[i].start)
    return ()


def _find_correspondent(chart: Chart, source: Edge, category: str) -> Optional[Edge]:
    """Deepest, rightmost constituent of the given category inside the
    source derivation (gap edges excluded).  Ties broken by content so
    the choice does not depend on edge ids."""
    best = None
    best_key = None
    for e, depth in derivation_edges(chart, source):
        if e.category != category or e.is_zero_width:
            continue
        key = (depth, e.start, canonical_text(e.args))
        if best_key is None or key > best_key:
            best = e
            best_key = key
    return best


def predict(grammar: Grammar, chart: Chart, category: str, anchor: int,
            direction: str, source: Edge, gap_budget: int = 1) -> Optional[Edge]:
    """Find or reconstruct a constituent of `category` touching `anchor`
    (starting there when rightward, ending there when leftward).

    Recursive descent over the grammar rules, seating each body in build
    order: body order rightward, reversed body order leftward.  Each body
    nonterminal is satisfied by an existing chart edge, else by recursive
    prediction, else, while the gap budget lasts, by a zero-width gap
    whose arguments are abstracted from the structurally corresponding
    constituent inside the source derivation.  Terminals only ever match
    real input.  The first full seating wins; its edges (gaps included)
    are committed to the chart in post-order, children in build order,
    which is the order in which the search created them.  Predicted
    roots must cover at least one token.
    """
    # touching(cat, pos): chart edges on the anchored side of pos; far(e):
    # where the next item in build order starts; step: build order
    if direction == RIGHTWARD:
        touching, far, step = chart.at_start, attrgetter("end"), 1
    elif direction == LEFTWARD:
        touching, far, step = chart.at_end, attrgetter("start"), -1
    else:
        raise ValueError(f"unknown direction {direction!r}")

    def gap(cat: str, pos: int) -> Optional[_Trial]:
        corr = _find_correspondent(chart, source, cat)
        if corr is None:
            return None
        scope_pos = grammar.scope_args.get(cat)
        if scope_pos is not None and corr.args:
            gap_args, _ = abstract_over(corr.args, scope_pos)
        else:
            gap_args = tuple(fresh_var("_") for _ in range(grammar.arity(cat)))
        return _Trial(cat, gap_args, pos, pos, Gap(corr.id))

    def options(cat: str, pos: int, budget: int, depth: int):
        """Yield (child, budget left) for a body nonterminal: existing
        edges, shortest span first with ties broken by content (never by
        edge id), then constituents built from the rules, then a gap."""
        real = [e for e in touching(cat, pos) if not e.is_zero_width]
        real.sort(key=lambda e: (e.end - e.start, canonical_text(e.args)))
        for e in real:
            yield e, budget
        if depth < PREDICT_DEPTH_CAP:
            yield from build(cat, pos, budget, depth + 1)
        g = gap(cat, pos) if budget > 0 else None
        if g is not None:
            yield g, budget - 1

    def build(cat: str, pos: int, budget: int, depth: int):
        """Yield (_Trial, budget left) for constituents of cat built from
        the rules, touching pos, width >= 1."""
        for rule in grammar.rules_for(cat):
            head_args, body_args = _renamed(rule)
            items = list(zip(rule.body, body_args))[::step]

            def seat(k: int, pos_k: int, s, budget_k: int, kids: tuple):
                if k == len(items):
                    yield s, budget_k, kids
                    return
                item, args = items[k]
                if isinstance(item, Terminal):
                    for e in touching(D_CATEGORY, pos_k):
                        if e.args[0] == Const(item.token):
                            yield from seat(k + 1, far(e), s, budget_k, kids + (e,))
                    return
                for child, budget2 in options(item.category, pos_k, budget_k, depth):
                    s2 = unify_all(args, child.args, s)
                    if s2 is not None:
                        yield from seat(k + 1, far(child), s2, budget2,
                                        kids + (child,))

            for s, budget_left, kids in seat(0, pos, EMPTY_SUBST, budget, ()):
                start = min(c.start for c in kids)
                end = max(c.end for c in kids)
                if start == end:
                    continue  # an all-gap constituent reconstructs nothing
                yield _Trial(cat, tuple(apply(s, t) for t in head_args),
                             start, end, rule.id, kids), budget_left

    def commit(node) -> Edge:
        """Add a winning tree to the chart, post-order; returns its root."""
        if isinstance(node, Edge):
            return node
        prov = node.origin
        if not isinstance(prov, Gap):
            kids = [commit(c).id for c in node.children]
            prov = Predicted(prov, tuple(kids[::step]))
        return chart.add(node.category, node.args, node.start, node.end, prov)[0]

    for root, _budget in build(category, anchor, gap_budget, 0):
        return commit(root)
    return None


def format_derivation(chart: Chart, root: Edge) -> str:
    """Indented rendering of a derivation tree, one edge per line."""
    lines: list = []

    def walk(e: Edge, indent: int):
        lines.append("  " * indent + f"{e!r}  [{e.provenance.text()}]")
        for k in _children(chart, e):
            walk(chart.edges[k], indent + 1)

    walk(root, 0)
    return "\n".join(lines)


@dataclass
class ParseResult:
    root: Edge
    logical_form: Term
    layer_count: int
    constraint_log: tuple = ()


def logical_form_of(edge: Edge) -> Term:
    if not edge.args:
        return Const(edge.category)
    if len(edge.args) == 1:
        return edge.args[0]
    return Compound(edge.category, edge.args)


def full_parses(chart: Chart, grammar: Grammar) -> list:
    """Start-category edges spanning the whole input, in chart order."""
    return [e for e in chart.at_start(grammar.start, 0)
            if e.end == chart.n and not e.is_zero_width]


def extract(chart: Chart, grammar: Grammar, constraint_log=()) -> list:
    """One ParseResult per start-category edge spanning the whole input."""
    return [ParseResult(root=e,
                        logical_form=logical_form_of(e),
                        layer_count=len(chart.layers),
                        constraint_log=tuple(constraint_log))
            for e in full_parses(chart, grammar)]
