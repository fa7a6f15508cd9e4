"""Independent oracle implementations the tests check the engine against.

naive_parse re-derives everything from the whole chart every round (no
delta restriction) with brute-force seating enumeration; it shares only
the term primitives and the coordination hook with the engine, not the
semi-naive join it is checking.

untabled_predict is engine.predict as it was before its subgoals were
tabled and before its seatings went through the rules' compiled
kernels: every subgoal is searched afresh each time it comes up, down
to UNTABLED_DEPTH_CAP rule levels, and every build renames its rule
apart and unifies each body item in full as it seats it, so a seating
whose prefix fails is cut there.  It finds each gap's correspondent
with _find_correspondent, one derivation walk per gap category, where
the engine reads a per-chart table filled by one walk per source.

renaming_instantiate, which naive_parse uses, instantiates a seating
as closure and prediction did before rules had compiled kernels
(engine._compile_kernel, one per build order): the rule is renamed
apart for every seating, each body item is unified in full, and the
head is built by applying the substitution to the head arguments.

walking_apply and walking_occurs are terms.apply and the occurs check
as they were before compounds cached their variables: both descend into
every subterm.

ground-instance helpers decide unifiability of jointly-generated term
pairs by enumerating all instantiations over a two-constant universe.

scope_law_violations checks a parse's readings against the scope laws
the paper's reconstruction promises: nothing left free, nothing
quantified twice.
"""

import importlib.util
import itertools
import random
import sys
from operator import attrgetter
from pathlib import Path

from dlgram.coordination import CoordinationState
from dlgram.engine import (D_CATEGORY, LEFTWARD, RIGHTWARD, Derived, Edge,
                           Gap, Lexical, Predicted, _Trial, assert_input,
                           derivation_edges)
from dlgram.grammar import NonTerminal, Terminal
from dlgram.terms import (EMPTY_SUBST, Compound, Const, Var, abstract_over,
                          apply, canonical_text, fresh_var, rename_fresh_all,
                          unify_all, walk)

ORACLE_DIR = Path(__file__).parent / "oracles"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def read_expected(name: str) -> dict:
    """EXPECTED_* key/value lines from a registered derivation transcript."""
    out = {}
    for line in (ORACLE_DIR / name).read_text().splitlines():
        if line.startswith("EXPECTED_"):
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def pp_gap_pool(seed):
    """(sentence, gap budget) for each item of the benchmark's pp-gap
    pool, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        return [(item.text, item.gap_budget)
                for item in workloads.pool("pp-gap", seed)]
    finally:
        del sys.modules[spec.name]


def edge_key_set(chart):
    """Canonical content of a chart, independent of edge ids and layers."""
    return {(e.category, e.start, e.end, canonical_text(e.args))
            for e in chart.edges}


def scope_law_violations(run, grammar) -> dict:
    """The readings of a ParseRun that break a scope law, per law, as
    (reading index, variable) pairs, one per variable and reading in
    the order the walk meets them:

    - "free": a variable of a start-category logical form that no
      enclosing compound binds;
    - "twice": a variable bound by a compound inside another that binds
      it already.

    A compound binds a variable when its functor is one of grammar's
    @quant declarations and its first argument is that variable."""
    quantifiers = set(grammar.quantifiers)
    out: dict = {"free": [], "twice": []}
    for i, result in enumerate(run.results):
        found: dict = {"free": {}, "twice": {}}
        stack = [(result.logical_form, frozenset())]
        while stack:
            t, bound = stack.pop()
            if isinstance(t, Var):
                if t not in bound:
                    found["free"][t] = None
            elif isinstance(t, Compound):
                v = t.args[0]
                if t.functor in quantifiers and isinstance(v, Var):
                    if v in bound:
                        found["twice"][v] = None
                    bound = bound | {v}
                stack += [(a, bound) for a in reversed(t.args)]
        for law, variables in found.items():
            out[law] += [(i, v) for v in variables]
    return out


def var_ids(t) -> set:
    """Ids of the variables in a term."""
    if isinstance(t, Var):
        return {t.id}
    if isinstance(t, Compound):
        return set().union(*map(var_ids, t.args))
    return set()


def walking_apply(s: dict, t):
    """Replace every bound variable in t, recursively, to fixpoint,
    visiting every subterm; unchanged subterms come back as themselves."""
    t = walk(s, t)
    if isinstance(t, Compound):
        args = t.args
        for i, a in enumerate(args):
            b = walking_apply(s, a)
            if b is not a:
                rest = tuple([walking_apply(s, x) for x in args[i + 1:]])
                return Compound(t.functor, args[:i] + (b,) + rest)
    return t


def walking_occurs(vid: int, t, s: dict) -> bool:
    """Whether variable vid occurs in t under s, visiting every subterm."""
    t = walk(s, t)
    if isinstance(t, Var):
        return t.id == vid
    if isinstance(t, Compound):
        return any(walking_occurs(vid, a, s) for a in t.args)
    return False


def _brute_seatings(rule, chart, id_limit):
    """Every contiguous seating of the rule body, found by scanning the
    raw edge list (no positional indexes)."""
    usable = [e for e in chart.edges[:id_limit] if e.start < e.end
              or e.category == D_CATEGORY]

    def fits(item, e, pos):
        if e.start != pos:
            return False
        if isinstance(item, Terminal):
            return e.category == D_CATEGORY and e.args[0] == Const(item.token)
        return e.category == item.category and e.category != D_CATEGORY

    seatings = []

    def extend(idx, pos, chosen):
        if idx == len(rule.body):
            seatings.append(list(chosen))
            return
        for e in usable:
            if fits(rule.body[idx], e, pos):
                chosen.append(e)
                extend(idx + 1, e.end, chosen)
                chosen.pop()

    for start in range(chart.n + 1):
        extend(0, start, [])
    return seatings


def _renamed(rule):
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


def renaming_instantiate(rule, chosen):
    """Rename the rule apart and unify body items with the chosen edges:
    a _Trial, or None."""
    head_args, body_args = _renamed(rule)
    s = EMPTY_SUBST
    for args, edge in zip(body_args, chosen):
        if args is None:
            continue
        s = unify_all(args, edge.args, s)
        if s is None:
            return None
    return _Trial(rule.head.category, tuple(apply(s, t) for t in head_args),
                  chosen[0].start, chosen[-1].end, rule.id, tuple(chosen))


def _naive_rounds(chart, grammar, coord, round_cap=64):
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= round_cap, "naive evaluation did not converge"
        id_limit = len(chart.edges)
        chart.begin_layer()
        for rule in grammar.rules:
            for chosen in _brute_seatings(rule, chart, id_limit):
                t = renaming_instantiate(rule, chosen)
                if t is None:
                    continue
                prov = (Lexical(rule.id) if rule.is_lexical
                        else Derived(rule.id, tuple(e.id for e in chosen)))
                chart.add(t.category, t.args, t.start, t.end, prov)
        if coord is not None:
            coord.after_layer(chart)
        if not chart.layers[-1]:
            chart.drop_layer_if_empty()
            return


def naive_parse(grammar, tokens, meta_coordination=True):
    """Naive fixpoint with the same per-round hook protocol the real
    driver uses (including the single revival round)."""
    chart = assert_input(tokens)
    coord = CoordinationState(grammar) if meta_coordination else None
    _naive_rounds(chart, grammar, coord)

    def full_parse():
        return any(e.category == grammar.start and e.start == 0
                   and e.end == chart.n and e.start < e.end
                   for e in chart.edges)

    if coord is not None and coord.constraints and not full_parse():
        coord.revive()
        _naive_rounds(chart, grammar, coord)
    if coord is not None:
        coord.finalize()
    return chart


# ---------------------------------------------------------------------------
# Untabled prediction: the search engine.predict tables, done the slow way.

def _find_correspondent(chart, source, category):
    """Deepest, rightmost constituent of the given category inside the
    source derivation (gap edges excluded), found by a walk of its own.
    Ties broken by content so the choice does not depend on edge ids."""
    best = None
    best_key = None
    for e, depth in derivation_edges(chart, source):
        if e.category != category or e.is_zero_width:
            continue
        key = (depth, e.start, e.args_text)
        if best_key is None or key > best_key:
            best = e
            best_key = key
    return best


# untabled_predict descends at most this many rule levels below its root:
# what ends its left recursion rightward and right recursion leftward
UNTABLED_DEPTH_CAP = 16

def untabled_predict(grammar, chart, category, anchor, direction, source,
                     gap_budget=1):
    """engine.predict without its answer table or correspondent cache,
    with the same signature and the same search order.  It scans the
    rules for each head category instead of reading Grammar's index."""
    if direction == RIGHTWARD:
        touching, far, step = chart.at_start, attrgetter("end"), 1
    elif direction == LEFTWARD:
        touching, far, step = chart.at_end, attrgetter("start"), -1
    else:
        raise ValueError(f"unknown direction {direction!r}")

    def gap(cat, pos):
        corr = _find_correspondent(chart, source, cat)
        if corr is None:
            return None
        scope_pos = grammar.scope_args.get(cat)
        if scope_pos is not None and corr.args:
            gap_args, _ = abstract_over(corr.args, scope_pos)
        else:
            gap_args = tuple(fresh_var("_") for _ in range(grammar.arity(cat)))
        return _Trial(cat, gap_args, pos, pos, Gap(corr.id))

    def options(cat, pos, budget, depth):
        real = [e for e in touching(cat, pos) if not e.is_zero_width]
        real.sort(key=lambda e: (e.end - e.start, canonical_text(e.args)))
        for e in real:
            yield e, budget
        if depth < UNTABLED_DEPTH_CAP:
            yield from build(cat, pos, budget, depth + 1)
        g = gap(cat, pos) if budget > 0 else None
        if g is not None:
            yield g, budget - 1

    def build(cat, pos, budget, depth):
        for rule in [r for r in grammar.rules if r.head.category == cat]:
            head_args, body_args = _renamed(rule)
            items = list(zip(rule.body, body_args))[::step]

            def seat(k, pos_k, s, budget_k, kids):
                if k == len(items):
                    yield s, budget_k, kids
                    return
                item, args = items[k]
                if isinstance(item, Terminal):
                    for e in touching(Const(item.token), pos_k):
                        yield from seat(k + 1, far(e), s, budget_k,
                                        kids + (e,))
                    return
                for child, budget2 in options(item.category, pos_k, budget_k,
                                              depth):
                    s2 = unify_all(args, child.args, s)
                    if s2 is not None:
                        yield from seat(k + 1, far(child), s2, budget2,
                                        kids + (child,))

            for s, budget_left, kids in seat(0, pos, EMPTY_SUBST, budget, ()):
                start = min(c.start for c in kids)
                end = max(c.end for c in kids)
                if start == end:
                    continue
                yield _Trial(cat, tuple(apply(s, t) for t in head_args),
                             start, end, rule.id, kids), budget_left

    def commit(node):
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


# ---------------------------------------------------------------------------
# Ground-enumeration unification oracle.
#
# Pairs are generated over one shared tree skeleton, so a variable in one
# term always faces a leaf in the other; unifiable pairs then always have
# a common instance over the two-constant universe, which makes the
# enumeration decision procedure exact.  Occurs-check pairs (a variable
# against a term properly containing it) are thrown in as well: both
# sides agree those fail.

_BINARY = ("f", "h")
_UNARY = ("g",)
_CONSTS = (Const("a"), Const("b"))


def _shape(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return "leaf"
    if rng.random() < 0.5:
        return ("f", _shape(rng, depth - 1), _shape(rng, depth - 1))
    return ("g", _shape(rng, depth - 1))


def _fill(shape, rng: random.Random, leaves, swap_prob: float):
    if shape == "leaf":
        return rng.choice(leaves)
    if shape[0] == "f":
        functor = "f" if rng.random() >= swap_prob else rng.choice(_BINARY)
        return Compound(functor, (_fill(shape[1], rng, leaves, swap_prob),
                                  _fill(shape[2], rng, leaves, swap_prob)))
    return Compound("g", (_fill(shape[1], rng, leaves, swap_prob),))


def gen_pair(rng: random.Random):
    if rng.random() < 0.1:
        v = fresh_var("O")
        inner = v
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                inner = Compound("g", (inner,))
            else:
                other = rng.choice(_CONSTS)
                inner = Compound("f", (inner, other) if rng.random() < 0.5
                                 else (other, inner))
        return v, inner
    shape = _shape(rng, rng.randint(1, 3))
    vs = (fresh_var("X"), fresh_var("Y"))
    leaves = list(_CONSTS) + list(vs)
    t1 = _fill(shape, rng, leaves, swap_prob=0.0)
    t2 = _fill(shape, rng, leaves, swap_prob=0.15)
    return t1, t2


def _vars_of(t, acc):
    if isinstance(t, Var):
        acc[t.id] = t
    elif isinstance(t, Compound):
        for a in t.args:
            _vars_of(a, acc)
    return acc


def _ground(t, assignment):
    if isinstance(t, Var):
        return assignment[t.id]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_ground(a, assignment) for a in t.args))
    return t


def has_common_ground_instance(t1, t2) -> bool:
    """True iff some assignment of the pair's variables to the constants
    a/b makes the two terms identical."""
    var_ids = sorted(_vars_of(t2, _vars_of(t1, {})).keys())
    for values in itertools.product(_CONSTS, repeat=len(var_ids)):
        assignment = dict(zip(var_ids, values))
        if _ground(t1, assignment) == _ground(t2, assignment):
            return True
    return False
