"""Chart, semi-naive closure, top-down prediction, and parse extraction.

Input words become positional facts of the reserved category 'D'; every
other edge is a derived theorem cat(args, start, end).  Layers are
computed bottom-up: each new layer's derivations must use at least one
edge from the previous layer, and closure stops when a layer comes out
empty.  A per-layer hook lets the coordination machinery inject edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .grammar import Grammar, Rule, Terminal
from .terms import (EMPTY_SUBST, Compound, Const, Term, abstract_over, apply,
                    canonical_texts, fresh_var, unify_all, variant_key, walk)
# not called here; perfbench's tracer wraps engine.rename_fresh_all and
# engine.canonical_text by name
from .terms import canonical_text, rename_fresh_all  # noqa: F401

D_CATEGORY = "'D'"

LEFTWARD = "leftward"
RIGHTWARD = "rightward"

# most rounds in which predict settles a corner cycle, and so the most
# levels of a chain through one cycle
CORNER_CYCLE_ROUNDS = 16


class LayerCapError(RuntimeError):
    """Raised when closure exceeds the configured layer limit."""


# Provenances: text() is the --trace rendering, json() the --json one.
# Records here are slotted and immutable by contract, not frozen: a
# frozen dataclass sets each field through object.__setattr__.

@dataclass(slots=True, unsafe_hash=True)
class InputWord:
    def text(self) -> str:
        return "input"

    def json(self) -> dict:
        return {"kind": "input"}


@dataclass(slots=True, unsafe_hash=True)
class Lexical:
    rule_id: int

    def text(self) -> str:
        return f"lexical r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "lexical", "rule": self.rule_id}


@dataclass(slots=True, unsafe_hash=True)
class Derived:
    rule_id: int
    children: tuple

    def text(self) -> str:
        return f"derived r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "derived", "rule": self.rule_id,
                "children": list(self.children)}


@dataclass(slots=True, unsafe_hash=True)
class Predicted:
    rule_id: int
    children: tuple

    def text(self) -> str:
        return f"predicted r{self.rule_id}"

    def json(self) -> dict:
        return {"kind": "predicted", "rule": self.rule_id,
                "children": list(self.children)}


@dataclass(slots=True, unsafe_hash=True)
class Gap:
    source: int  # edge the arguments were abstracted from

    def text(self) -> str:
        return f"gap from e{self.source}"

    def json(self) -> dict:
        return {"kind": "gap", "source": self.source}


@dataclass(slots=True, unsafe_hash=True)
class Coordinated:
    constraint_id: int
    source: int
    target: int

    def text(self) -> str:
        return f"coordinated c{self.constraint_id}"

    def json(self) -> dict:
        return {"kind": "coordinated", "constraint": self.constraint_id,
                "source": self.source, "target": self.target}


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    """A chart edge, immutable by contract."""
    id: int
    category: str
    args: tuple
    start: int
    end: int
    layer: int
    provenance: object
    _texts: Optional[tuple] = field(default=None, init=False, compare=False)
    _text: Optional[str] = field(default=None, init=False, compare=False)

    @property
    def arg_texts(self) -> tuple:
        """canonical_texts(args), rendered on first read and kept."""
        texts = self._texts
        if texts is None:
            texts = self._texts = tuple(canonical_texts(self.args))
        return texts

    @property
    def args_text(self) -> str:
        """canonical_text(args), arg_texts joined by commas on first read
        and kept.  Sorts and the trace read it; the chart's variant key
        is structural."""
        text = self._text
        if text is None:
            text = self._text = ",".join(self.arg_texts)
        return text

    @property
    def is_zero_width(self) -> bool:
        return self.start == self.end

    @property
    def is_gap(self) -> bool:
        return isinstance(self.provenance, Gap)

    def __repr__(self):
        inner = self.args_text + "," if self.args_text else ""
        return f"{self.category}({inner}{self.start},{self.end})"


def _seat_key(e: Edge):
    """The grammar.seat_key of the body items e can seat: an input edge's
    word (a Const), any other edge's category.  None for a zero-width
    edge, a gap, which seats no body item."""
    if e.is_zero_width:
        return None
    return e.args[0] if e.category == D_CATEGORY else e.category


class Chart:
    """Append-only, variant-deduplicated edge store with positional
    indexes and per-layer deltas.  Confined to a single parse.

    The chart decides what can seat a body item: add files each edge
    under its _seat_key, so at_start and at_end, given an item's
    grammar.seat_key, return exactly the edges that can seat it.  A gap
    is in edges and its layer but in no index: it is never found by
    position, only through the provenance that committed it.  Indexes
    list edges in id order; the accessors return the stored lists.
    """

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.n = len(self.tokens)
        self.edges: list = []
        self.layers: list = []
        self.trace: Optional[Callable[[str], None]] = None
        self._dedup: dict = {}
        self._by_start: dict = {}  # (seat key, start) -> edges
        self._by_end: dict = {}  # (seat key, end) -> edges
        self.correspondents: dict = {}  # source id -> {category: Edge}

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
        """Insert an edge unless a variant already exists: the same
        category and span, and arguments with the same variant_key.
        Renders no text.  Returns (edge, added)."""
        if not (0 <= start <= end <= self.n):
            raise ValueError(f"edge span {start}..{end} outside input 0..{self.n}")
        args = tuple(args)
        key = (category, start, end, variant_key(args))
        existing = self._dedup.get(key)
        if existing is not None:
            return self.edges[existing], False
        e = Edge(len(self.edges), category, args, start, end,
                 self.current_layer, provenance)
        self.edges.append(e)
        self._dedup[key] = e.id
        seat = _seat_key(e)
        if seat is not None:
            self._by_start.setdefault((seat, start), []).append(e)
            self._by_end.setdefault((seat, end), []).append(e)
        self.layers[-1].append(e.id)
        if self.trace:
            self.trace(f"T{e.layer}: {e!r}  [{provenance.text()}]")
        return e, True

    def at_start(self, seat_key, start: int) -> Sequence[Edge]:
        return self._by_start.get((seat_key, start), ())

    def at_end(self, seat_key, end: int) -> Sequence[Edge]:
        return self._by_end.get((seat_key, end), ())

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


@dataclass(slots=True, unsafe_hash=True)
class _Trial:
    """A constituent built but not yet added to the chart: a seating
    match_rule instantiated, or a node of predict's search.  close and
    predict's commit turn it into an edge and its provenance.  Immutable
    by contract."""
    category: str
    args: tuple
    start: int
    end: int
    origin: object  # the rule id, or the Gap provenance of a gap
    children: tuple = ()  # Edge or _Trial, in build order


def _by_seat_key(edges) -> dict:
    """The edges that can seat a body item, listed under their seat keys
    (_seat_key) in the order given; gaps are left out."""
    index: dict = {}
    for e in edges:
        key = _seat_key(e)
        if key is not None:
            index.setdefault(key, []).append(e)
    return index


def match_rule(rule: Rule, delta: set, chart: Chart,
               seeds: Optional[dict] = None) -> list:
    """A _Trial for every contiguous seating of the rule body on chart
    edges that uses at least one delta edge and under which the rule's
    argument unifications, threaded through, succeed.

    Each seating grows from its leftmost delta edge: every delta edge is
    seated at each body position it fits, the items to its left are
    filled leftward with edges outside delta (so no seating is found
    twice) and the items to its right rightward with any edge.  The chart
    decides which edges fit an item, looked up by its seat key
    (Rule.seat_keys); seeds lists the delta edges the same way, as
    _by_seat_key(delta's edges) does, and is built here when not given
    (close builds it once per round).  The seatings are instantiated in
    (start, child ids) order, the order of a depth-first scan over every
    start position, since each positional index lists its edges in id
    order.
    """
    if seeds is None:
        seeds = _by_seat_key(chart.edges[i] for i in delta)
    keys = rule.seat_keys
    seatings = []
    for j, key in enumerate(keys):
        for d in seeds.get(key, ()):
            partial = [[d]]
            for left in reversed(keys[:j]):
                partial = [[e] + p for p in partial
                           for e in chart.at_end(left, p[0].start)
                           if e.id not in delta]
            for right in keys[j + 1:]:
                partial = [p + [e] for p in partial
                           for e in chart.at_start(right, p[-1].end)]
            seatings.extend(partial)
    seatings.sort(key=lambda chosen: (chosen[0].start, [e.id for e in chosen]))
    out = []
    for chosen in seatings:
        inst = _instantiate(rule, chosen)
        if inst is not None:
            out.append(inst)
    return out


def _instantiate(rule: Rule, chosen: Sequence[Edge]) -> Optional[_Trial]:
    """Unify the body items with the chosen edges and build the head.

    The rule is not renamed apart: no chart edge ever holds one of a
    grammar rule's own variables, because every head built here or by
    predict has its rule variables bound.  A binding maps a rule
    variable to an edge term, or an edge variable to a rule term already
    reached in body order, so a rule variable not reached yet occurs in
    no bound term.  Its first occurrence (from Rule.join_template) is
    therefore bound directly, with no unify and no occurs check, and
    only the other positions are unified.  Rule variables still unbound
    after the body each get a fresh variable of the same name, so two
    heads built from one rule share none.  The bindings live in a dict
    local to the call.
    """
    items, variables = rule.join_template
    s: dict = {}
    for item, edge in zip(items, chosen):
        if item is None:
            continue
        firsts, rest_at, rest = item
        args = edge.args
        for k, vid in firsts:
            s[vid] = walk(s, args[k])
        if rest:
            s = unify_all(rest, [args[k] for k in rest_at], s)
            if s is None:
                return None
    for vid, name in variables:
        if vid not in s:
            s[vid] = fresh_var(name)
    return _Trial(rule.head.category,
                  tuple(apply(s, t) for t in rule.head.args),
                  chosen[0].start, chosen[-1].end, rule.id, tuple(chosen))


def close(chart: Chart, grammar: Grammar,
          hook: Optional[Callable[[Chart], None]] = None,
          layer_cap: int = 64) -> Chart:
    """Run layered closure to fixpoint.

    Every round joins the rules over the chart as it stands, seeding each
    seating from an edge of the newest layer (see match_rule), and only
    then opens a layer and adds the round's derivations, in rule order.
    The round groups the newest layer by seat key, the key under which
    the chart files each edge (_by_seat_key, gaps left out), and joins
    only the rules with a body item of one of its keys
    (Grammar.rules_seating), in grammar order; no other rule can seat a
    new edge.  On a fresh chart the newest layer is the input; on a
    closed chart it has been joined already, so closing again adds
    nothing.  After each layer the hook may inject further edges into
    that layer.
    """
    while True:
        if chart.current_layer >= layer_cap:
            raise LayerCapError(
                f"closure exceeded the layer cap ({layer_cap}); "
                f"the grammar is probably growing without bound")
        newest = chart.layers[-1]
        delta = set(newest)
        seeds = _by_seat_key(chart.edges[i] for i in newest)
        found = [(rule, t) for rule in grammar.rules_seating(seeds)
                 for t in match_rule(rule, delta, chart, seeds)]
        chart.begin_layer()
        for rule, t in found:
            prov = (Lexical(t.origin) if rule.is_lexical
                    else Derived(t.origin, tuple(e.id for e in t.children)))
            chart.add(t.category, t.args, t.start, t.end, prov)
        if hook is not None:
            hook(chart)
        if chart.drop_layer_if_empty():
            return chart


# ---------------------------------------------------------------------------
# Top-down prediction

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


def _correspondents(chart: Chart, source: Edge) -> dict:
    """{category: deepest, rightmost constituent of it inside the source
    derivation} (gap edges excluded), ties broken by content so the
    choice does not depend on edge ids.  One derivation walk fills the
    table for every category; the chart keeps it per source, since a
    committed derivation never changes."""
    table = chart.correspondents.get(source.id)
    if table is None:
        best: dict = {}  # category -> (key, edge); () is below every key
        for e, depth in derivation_edges(chart, source):
            key = (depth, e.start, e.args_text)
            if not e.is_zero_width and key > best.get(e.category, ((),))[0]:
                best[e.category] = key, e
        table = chart.correspondents[source.id] = {
            cat: e for cat, (_key, e) in best.items()}
    return table


def _same_answers(xs: list, ys: list) -> bool:
    """Whether two answer lists are variants under one renaming shared by
    the whole list.

    The walk pairs the lists node by node, one to one: the same budget
    left per answer, and per node the same category, span, origin and
    number of children; chart edges must be the same edge, so their
    variables map to themselves.  Arguments need no walk of their own: a
    trial's arguments are fixed by its rule and its children up to the
    fresh variables its build made, and a gap's by its correspondent up
    to fresh ones, so nodes paired this way have variant arguments.
    """
    if len(xs) != len(ys) or [b for _t, b in xs] != [b for _t, b in ys]:
        return False
    pairs = [(x, y) for (x, _b), (y, _c) in zip(xs, ys)]
    fwd: dict = {}  # id of a node of xs -> its partner in ys
    bwd: dict = {}  # and back
    while pairs:
        x, y = pairs.pop()
        if isinstance(x, Edge) or isinstance(y, Edge):
            if x is not y:
                return False
            continue
        if id(x) in fwd or id(y) in bwd:
            if fwd.get(id(x)) is not y:
                return False
            continue
        if ((x.category, x.start, x.end, x.origin, len(x.children))
                != (y.category, y.start, y.end, y.origin, len(y.children))):
            return False
        fwd[id(x)] = y
        bwd[id(y)] = x
        pairs.extend(zip(x.children, y.children))
    return True


def _distinct(answers) -> list:
    """The first (_Trial, budget left) of each variant, in the order given:
    answers alike in span, budget left and variant_key(args), the key the
    chart dedups by, seat alike, so a later one leads only to trees the
    first leads to sooner.  Renders no text."""
    kept: dict = {}
    for trial, left in answers:
        kept.setdefault((trial.start, trial.end, left,
                         variant_key(trial.args)), (trial, left))
    return list(kept.values())


def predict(grammar: Grammar, chart: Chart, category: str, anchor: int,
            direction: str, source: Edge, gap_budget: int = 1) -> Optional[Edge]:
    """Find or reconstruct a constituent of `category` touching `anchor`
    (starting there when rightward, ending there when leftward).

    Recursive descent over the grammar rules, seating each body in build
    order: body order rightward, reversed body order leftward.  Each body
    nonterminal is satisfied by an existing chart edge, else by a
    constituent predicted from the rules, else, while the gap budget
    lasts, by a zero-width gap whose arguments are abstracted from the
    structurally corresponding constituent inside the source derivation.
    Terminals only ever match real input.  The chart decides what can
    seat a body item: an item's options are the edges the chart files
    under its seat key at pos, and gaps, which the chart files under
    none, are never among them.  The first full seating wins;
    its edges (gaps included) are committed to the chart in post-order,
    children in build order, which is the order in which the search
    created them.  Predicted roots must cover at least one token.

    Rules are seated through their join templates in build order
    (Rule.join_template rightward, Rule.reversed_join_template
    leftward), as _instantiate seats them, not renamed apart: each
    child binds the first occurrences of rule variables directly in a
    copy of the seating's substitution and unifies only the other
    positions.  A completed seating gives every rule variable still
    unbound a fresh variable of the same name, then builds the head.

    Subgoals (cat, pos, budget) are tabled within the call, as in OLDT
    resolution.  The chart, source and direction do not change during
    the search, so a subgoal's answers, (_Trial, budget left) pairs,
    depend on the subgoal alone.  A subgoal is tabled whole before it is
    served, one answer per variant under the chart's structural key
    (_distinct), and its answers are replayed in the order found (an
    empty list records a failure).
    Every body item after the first in build order starts past a token
    or a gap, so a descent can meet its own subgoal again only through a
    corner cycle: categories that reach themselves through first items
    in build order (Grammar.left_corner_cycles rightward,
    Grammar.right_corner_cycles leftward).  Any other subgoal is built
    once.  A subgoal on a corner cycle is settled: every member of the
    cycle at the same pos and budget is rebuilt in rounds, each reading
    the members' answers of the round before (none in the first), until
    _same_answers finds that no member changed or after
    CORNER_CYCLE_ROUNDS rounds.  Round r builds chains of at most r
    levels through the cycle, so a chain longer than the bound is not
    found, and a unit cycle whose first answer is built through the
    cycle, one level deeper each round, stops at the bound.  Nodes of a
    winning tree that share a subgoal lie on one path, each built from
    the one below, so a trial occurs at most once in the tree and
    replayed trials never share variables within it; alternatives that
    reuse one trial each unify it under their own persistent
    substitution.  Gap correspondents come from the chart's table for
    the source (_correspondents), filled by one walk of its derivation.
    """
    # touching(cat, pos): chart edges on the anchored side of pos; far(e):
    # where the next item in build order starts; step: build order;
    # template(rule): the rule's join template in build order;
    # cycles: the corner cycles of build order
    if direction == RIGHTWARD:
        touching, far, step = chart.at_start, attrgetter("end"), 1
        template = attrgetter("join_template")
        cycles = grammar.left_corner_cycles
    elif direction == LEFTWARD:
        touching, far, step = chart.at_end, attrgetter("start"), -1
        template = attrgetter("reversed_join_template")
        cycles = grammar.right_corner_cycles
    else:
        raise ValueError(f"unknown direction {direction!r}")

    table: dict = {}  # (cat, pos, budget) -> [(_Trial, budget left)]

    def gap(cat: str, pos: int) -> Optional[_Trial]:
        corr = _correspondents(chart, source).get(cat)
        if corr is None:
            return None
        scope_pos = grammar.scope_args.get(cat)
        if scope_pos is not None and corr.args:
            gap_args, _ = abstract_over(corr.args, scope_pos)
        else:
            gap_args = tuple(fresh_var("_") for _ in range(grammar.arity(cat)))
        return _Trial(cat, gap_args, pos, pos, Gap(corr.id))

    def options(cat: str, pos: int, budget: int):
        """Yield (child, budget left) for a body nonterminal: existing
        edges, shortest span first with ties broken by content (never by
        edge id), then constituents built from the rules, then a gap."""
        for e in sorted(touching(cat, pos),
                        key=lambda e: (e.end - e.start, e.args_text)):
            yield e, budget
        yield from served((cat, pos, budget))
        g = gap(cat, pos) if budget > 0 else None
        if g is not None:
            yield g, budget - 1

    def served(key: tuple) -> list:
        """The distinct answers of key, tabled whole before they are
        served: settled with its corner cycle, or else built once."""
        if key not in table:
            if key[0] in cycles:
                settle(key)
            else:
                table[key] = _distinct(build(key))
        return table[key]

    def settle(key: tuple):
        """Table every member of key's corner cycle at key's pos and
        budget, rebuilt in rounds until no member's answers change."""
        cat, pos, budget = key
        keys = [(member, pos, budget) for member in cycles[cat]]
        table.update((k, []) for k in keys)
        for _ in range(CORNER_CYCLE_ROUNDS):
            # every build of a round reads the table of the round before
            rebuilt = [_distinct(build(k)) for k in keys]
            if all(map(_same_answers, rebuilt, map(table.get, keys))):
                return
            table.update(zip(keys, rebuilt))

    def seat(body: tuple, plan: tuple, k: int, pos_k: int, s: dict,
             budget_k: int, kids: tuple):
        """Yield (substitution, budget left, children, end) for every
        seating of body[k:], the body in build order with plan its join
        template items; end is the position the seating reaches."""
        if k == len(body):
            yield s, budget_k, kids, pos_k
            return
        item = body[k]
        if isinstance(item, Terminal):
            for e in touching(item.word, pos_k):
                yield from seat(body, plan, k + 1, far(e), s, budget_k,
                                kids + (e,))
            return
        firsts, rest_at, rest = plan[k]
        for child, budget2 in options(item.category, pos_k, budget_k):
            args = child.args
            s2 = s
            if firsts:
                s2 = s.copy()
                for j, vid in firsts:
                    s2[vid] = walk(s, args[j])
            if rest:
                s2 = unify_all(rest, [args[j] for j in rest_at], s2)
                if s2 is None:
                    continue
            yield from seat(body, plan, k + 1, far(child), s2, budget2,
                            kids + (child,))

    def build(key: tuple):
        """Yield (_Trial, budget left) for constituents of cat built from
        the rules, touching pos, width >= 1."""
        # Not renamed apart: each build starts from EMPTY_SUBST and its
        # trials leave with every rule variable applied or freshened, so a
        # rule active at several levels of one search tree never meets its
        # own variables in a child; gap arguments come from chart edges,
        # which hold no rule variable either.
        cat, pos, budget = key
        for rule in grammar.rules_for(cat):
            plan, variables = template(rule)
            for s, budget_left, kids, reached in seat(
                    rule.body[::step], plan, 0, pos, EMPTY_SUBST, budget, ()):
                if reached == pos:
                    continue  # an all-gap constituent reconstructs nothing
                s = s.copy()
                for vid, name in variables:
                    if vid not in s:
                        s[vid] = fresh_var(name)
                start, end = (pos, reached)[::step]
                yield _Trial(cat, tuple(apply(s, t) for t in rule.head.args),
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

    try:
        for root, _budget in build((category, anchor, gap_budget)):
            return commit(root)
        return None
    finally:
        # these refer to each other and commit to itself; unlinked, they
        # free the table and the chart on return instead of waiting for
        # the cycle collector
        seat = build = options = served = settle = commit = None


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


def logical_form_of(edge: Edge) -> Term:
    if not edge.args:
        return Const(edge.category)
    if len(edge.args) == 1:
        return edge.args[0]
    return Compound(edge.category, edge.args)


def full_parses(chart: Chart, grammar: Grammar) -> list:
    """Start-category edges spanning the whole input, in chart order."""
    return [e for e in chart.at_start(grammar.start, 0) if e.end == chart.n]


def extract(chart: Chart, grammar: Grammar) -> list:
    """One ParseResult per start-category edge spanning the whole input."""
    return [ParseResult(root=e, logical_form=logical_form_of(e))
            for e in full_parses(chart, grammar)]
