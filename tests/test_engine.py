import dataclasses
import gc
import inspect
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlgram.cli
import dlgram.coordination
import dlgram.engine
import dlgram.terms
import oracle_impls
from dlgram import parse
from dlgram.engine import (CORNER_CYCLE_ROUNDS, D_CATEGORY, Chart, Derived,
                           Gap, InputWord, LEFTWARD, LayerCapError, Predicted,
                           RIGHTWARD, _by_seat_key, _instantiate,
                           _same_answers, _Trial, assert_input, close,
                           derivation_edges, format_derivation, match_rule,
                           predict, tokenize)
from dlgram.grammar import (Grammar, NonTerminal, Terminal, load_grammar,
                            parse_grammar, parse_term)
from dlgram.terms import Const, Var, canonical_text, is_variant
from oracle_impls import (_brute_seatings, _naive_rounds, edge_key_set,
                          naive_parse, pp_gap_pool, renaming_instantiate,
                          untabled_predict, var_ids)

FRENCH_SENT = "jean mange une pomme rouge et une verte"
WOODS_SENT = "john drove the car through and demolished a window"
NP_CHAIN_SENT = "john saw a man and a man and a man and a man"
# the left-recursive PP grammar of the benchmark and its slowest sentence
PP_GAP = Path(__file__).parent.parent / "perfbench" / "pp_gap.dlg"
PP_GAP_SENT = "jean voit une femme sur une table avec une femme et avec sur une"
# no parse after the first pass at gap budget 2: the revival round predicts
REVIVAL_SENT = "jean voit une table avec une femme et avec sur une"
# the sentences of the seven goldens: (grammar, sentence, gap budget,
# all_solutions)
GOLDEN_PARSES = [
    ("french", FRENCH_SENT, 1, False),
    ("english", WOODS_SENT, 1, False),
    ("english", "john drove a car through and mary demolished a window", 1,
     False),
    ("french", "jean mange une pomme rouge et une", 2, False),
    ("english", "each man and each woman ate an apple", 2, True),
    ("pp_gap", REVIVAL_SENT, 2, False),
    ("pp_gap", PP_GAP_SENT, 3, False),
]


def _golden_cases(request):
    """(grammar, sentence, gap budget, all_solutions) for each golden
    sentence."""
    pp_gap = load_grammar(PP_GAP)
    return [(pp_gap if which == "pp_gap" else request.getfixturevalue(which),
             sentence, budget, all_coord)
            for which, sentence, budget, all_coord in GOLDEN_PARSES]


def _pp_gap_pool_cases():
    """The benchmark's pp-gap pools of seeds 1-3, whose items run at gap
    budgets 2 and 3, in _golden_cases' form."""
    grammar = load_grammar(PP_GAP)
    return [(grammar, sentence, budget, False) for seed in (1, 2, 3)
            for sentence, budget in pp_gap_pool(seed)]


def _parses(cases):
    """(grammar, ParseRun) for each case."""
    for grammar, sentence, budget, all_coord in cases:
        yield grammar, parse(grammar, sentence, gap_budget=budget,
                             all_solutions=all_coord)


def spans(edges):
    return {(e.category, e.start, e.end) for e in edges}


# --- tokenize / assert_input -------------------------------------------------

def test_tokenize():
    assert tokenize("John drove, the CAR through!") == \
        ["john", "drove", "the", "car", "through"]


def test_assert_input_positions():
    chart = assert_input(tokenize(FRENCH_SENT))
    assert len(chart.edges) == 8
    assert spans(chart.edges) == {(D_CATEGORY, i, i + 1) for i in range(8)}
    assert chart.edges[0].args[0].name == "jean"
    assert chart.layers == [[0, 1, 2, 3, 4, 5, 6, 7]]


def test_assert_input_single_word():
    chart = assert_input(["john"])
    assert spans(chart.edges) == {(D_CATEGORY, 0, 1)}


def test_assert_input_empty_rejected():
    with pytest.raises(ValueError):
        assert_input([])


# --- close -------------------------------------------------------------------

def test_tiny_grammar_two_layers():
    g = parse_grammar("s --> [a].")
    chart = close(assert_input(["a"]), g)
    assert len(chart.layers) == 2
    assert ("s", 0, 1) in spans(chart.edges)


def test_french_layer2_is_exactly_the_lexicon(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    layer2 = spans(chart.layer_edges(2))
    assert layer2 == {
        ("name", 0, 1), ("v", 1, 2), ("det", 2, 3), ("n", 3, 4),
        ("adj", 4, 5), ("conj", 5, 6), ("det", 6, 7), ("adj", 7, 8),
    }


def test_french_layer3_noun_phrases(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    layer3 = spans(chart.layer_edges(3))
    assert ("np", 2, 5) in layer3
    assert ("np", 0, 1) in layer3


def test_layer_cap():
    g = parse_grammar("s --> [a].")
    with pytest.raises(LayerCapError):
        close(assert_input(["a"]), g, layer_cap=1)


@pytest.mark.parametrize("limits, message", [
    ({"layer_cap": 0}, "layer cap must be at least 1"),
    ({"gap_budget": -1}, "gap budget must be nonnegative")])
def test_parse_rejects_bad_limits(limits, message):
    # the CLI's two messages, not a layer cap hit or a silent budget of 0
    g = parse_grammar("s --> [a].")
    with pytest.raises(ValueError) as info:
        parse(g, "a", **limits)
    assert str(info.value) == message


def test_close_monotone_layers_partition(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    seen = set()
    for layer in chart.layers:
        assert not (set(layer) & seen)
        seen |= set(layer)
    assert seen == {e.id for e in chart.edges}
    for k, layer in enumerate(chart.layers, start=1):
        for i in layer:
            assert chart.edges[i].layer == k


def test_close_idempotent(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    before = len(chart.edges)
    close(chart, french)
    assert len(chart.edges) == before


def test_termination_bound_argument_free(french):
    for sentence in [FRENCH_SENT, "jean mange une pomme", "jean mange", "jean"]:
        run = parse(french, sentence)
        cats = set(french.category_arities) | {D_CATEGORY}
        n = len(run.tokens)
        assert len(run.chart.edges) <= len(cats) * n * n


def test_derived_children_contiguous(english):
    run = parse(english, WOODS_SENT)
    chart = run.chart
    for e in chart.edges:
        if isinstance(e.provenance, (Derived, Predicted)) and e.provenance.children:
            kids = [chart.edges[i] for i in e.provenance.children]
            assert kids[0].start == e.start
            assert kids[-1].end == e.end
            for a, b in zip(kids, kids[1:]):
                assert a.end == b.start


def test_gap_edges_only_inside_predictions(english, french):
    for g, sentence in [(french, FRENCH_SENT), (english, WOODS_SENT)]:
        chart = parse(g, sentence).chart
        gap_ids = {e.id for e in chart.edges if e.is_gap}
        assert gap_ids, "expected at least one gap in these runs"
        for e in chart.edges:
            assert e.is_zero_width == e.is_gap or not e.is_zero_width
            if isinstance(e.provenance, Derived):
                assert not (set(e.provenance.children) & gap_ids)
        for gid in gap_ids:
            parents = [e for e in chart.edges
                       if isinstance(e.provenance, Predicted)
                       and gid in e.provenance.children]
            assert parents


# --- match_rule ----------------------------------------------------------------

def _french_chart_after_lexicon(french):
    chart = assert_input(tokenize(FRENCH_SENT))
    close(chart, french)
    return chart


def test_match_rule_delta_restriction(french):
    chart = _french_chart_after_lexicon(french)
    np_rule = next(r for r in french.rules
                   if r.head.category == "np" and len(r.body) == 3)
    adj45 = next(e for e in chart.edges if (e.category, e.start, e.end) == ("adj", 4, 5))
    out = match_rule(np_rule, {adj45.id}, chart)
    assert [(t.category, t.start, t.end) for t in out] == [("np", 2, 5)]

    conj = next(e for e in chart.edges if e.category == "conj")
    assert match_rule(np_rule, {conj.id}, chart) == []


def test_match_rule_semantics_threading(english):
    chart = assert_input(tokenize(WOODS_SENT))
    close(chart, english)
    vp_rule = next(r for r in english.rules
                   if r.head.category == "vp" and len(r.body) == 2
                   and r.body[0].category == "verb1")
    out = [t for t in match_rule(vp_rule, set(range(len(chart.edges))), chart)
           if (t.start, t.end) == (6, 9)]
    assert len(out) == 1
    expected = parse_term("exists(W,window(W),demolished(X,W))")
    assert is_variant(out[0].args[1], expected)


@pytest.mark.parametrize("which, sentence", [
    ("english", WOODS_SENT), ("french", FRENCH_SENT),
    ("english", NP_CHAIN_SENT)])
def test_match_rule_equals_brute_seatings(which, sentence, request):
    # on a closed chart (gap and coordinated edges included), every
    # seating that uses a delta edge, each once, in (start, child ids)
    # order, with the same head arguments as the oracle's instantiation
    grammar = request.getfixturevalue(which)
    chart = parse(grammar, sentence).chart
    ids = range(len(chart.edges))
    rng = random.Random(6)
    deltas = [set(ids), set(chart.layers[-1])]
    deltas += [set(rng.sample(ids, rng.randint(1, len(ids) // 2)))
               for _ in range(8)]
    for rule in grammar.rules:
        brute = []  # (start, end, children, head args)
        for chosen in _brute_seatings(rule, chart, len(chart.edges)):
            t = renaming_instantiate(rule, chosen)
            if t is not None:
                brute.append((t.start, t.end, tuple(e.id for e in chosen),
                              canonical_text(t.args)))
        for delta in deltas:
            want = [b for b in brute if not delta.isdisjoint(b[2])]
            got = [(t.start, t.end, tuple(e.id for e in t.children),
                    canonical_text(t.args))
                   for t in match_rule(rule, delta, chart)]
            assert got == want, (rule.id, sorted(delta))


@pytest.mark.parametrize("which, sentence, bound", [
    ("english", WOODS_SENT, 24), ("english", "each man ate an apple and a pear",
                                  24),
    ("french", FRENCH_SENT, 13)])
def test_close_joins_only_rules_the_newest_layer_can_seat(which, sentence,
                                                          bound, request,
                                                          monkeypatch):
    # joining every rule in every round, closure made 210, 245 and 55
    # match_rule calls on these sentences; joining only the rules with a
    # body item whose seat key some newest edge has, 24, 24 and 13
    grammar = request.getfixturevalue(which)
    calls = []
    counted_rule = match_rule

    def counted(rule, delta, chart, seeds=None):
        calls.append(rule.id)
        return counted_rule(rule, delta, chart, seeds)

    monkeypatch.setattr(dlgram.engine, "match_rule", counted)
    run = parse(grammar, sentence)
    assert run.results
    assert len(calls) <= bound + 3


def _layered(chart):
    """A chart's edges with their layers and provenances, in id order."""
    return [(repr(e), e.layer, e.provenance) for e in chart.edges]


# tokens that spell category names, a terminal no input holds, and a
# category g that the gap below stands in for
_SEAT_KEY_GRAMMAR = parse_grammar(
    "s --> np, [np].\nnp --> [np].\nnp --> [x].\nvp --> [s], np.\n"
    "t --> s, [absent].\nu --> np, g.\ng --> [y].\nw --> g, [s].\n")


@pytest.mark.parametrize("tokens", [
    ["np"], ["np", "np"], ["x", "np", "s", "np"], ["s", "x", "np", "y"],
    ["np", "s", "np", "np"]])
def test_seat_keys_of_tokens_and_categories_stay_apart(tokens):
    # a token spelling a category seats only a terminal, and a category
    # only a nonterminal: layer by layer, closure finds what the naive
    # evaluator finds, and the chart files the word np and the category
    # np under keys that never meet
    grammar = _SEAT_KEY_GRAMMAR
    want = naive_parse(grammar, tokens, meta_coordination=False)
    got = parse(grammar, " ".join(tokens), meta_coordination=False).chart
    assert _layered(got) == _layered(want)
    for i, token in enumerate(tokens):
        words = [repr(e) for e in got.at_start(Const("np"), i)]
        assert words == ([f"'D'(np,{i},{i + 1})"] if token == "np" else [])
        nps = [e for e in got.edges if e.category == "np" and e.start == i]
        assert list(got.at_start("np", i)) == nps
        assert nps or token != "np"


@pytest.mark.parametrize("gap_layer", [1, 2])
def test_gap_in_the_newest_layer_seats_nothing(gap_layer):
    # a zero-width g sits in the newest layer, next to the input words or
    # alone after closure; u --> np, g and w --> g, [s] must not seat it
    grammar = _SEAT_KEY_GRAMMAR
    charts = []
    for run in (close, _naive_rounds):
        chart = assert_input(["np", "s"])
        if gap_layer == 2:
            close(chart, grammar)
            chart.begin_layer()
        gap = chart.add("g", (), 1, 1, Gap(0))[0]
        assert gap.layer == len(chart.layers)
        run(chart, grammar, None)
        charts.append(chart)
    chart = charts[0]
    assert _layered(chart) == _layered(charts[1])
    assert not any(e.category in ("u", "w") for e in chart.edges)
    gap = next(e for e in chart.edges if e.is_gap)
    assert gap.id in chart.layers[gap.layer - 1]
    assert _by_seat_key([gap]) == {}
    # no key and no position finds the gap; only its id reaches it
    keys = {"g", D_CATEGORY} | {e.category for e in chart.edges} \
        | {Const(t) for t in chart.tokens}
    for pos in range(chart.n + 1):
        found = []
        for key in keys:
            found += [*chart.at_start(key, pos), *chart.at_end(key, pos)]
        assert gap not in found
    assert all(match_rule(rule, {gap.id}, chart) == []
               for rule in grammar.rules)


def _same_instantiation(rule, chosen):
    """Assert that _instantiate and the renaming oracle agree on a
    seating; returns whether it succeeded."""
    got = _instantiate(rule, chosen)
    want = renaming_instantiate(rule, chosen)
    assert (got is None) == (want is None), (rule.id, chosen)
    if got is None:
        return False
    assert (got.category, canonical_text(got.args), got.start, got.end,
            got.origin, got.children) == (
        want.category, canonical_text(want.args), want.start, want.end,
        want.origin, want.children), (rule.id, chosen)
    return True


def test_instantiate_equals_renaming_on_golden_charts(request):
    # every seating of every rule on the closed golden charts, predicted,
    # gap and coordinated edges included
    outcomes = []
    for grammar, run in _parses(_golden_cases(request)):
        chart = run.chart
        for rule in grammar.rules:
            for chosen in _brute_seatings(rule, chart, len(chart.edges)):
                outcomes.append(_same_instantiation(rule, chosen))
    assert len(outcomes) > 100


def _seat_on_chart(rule_text: str, edge_args: list) -> tuple:
    """The rule of rule_text and one seating of its body on fresh edges,
    edge_args giving each body item's edge arguments as term text (one
    variable namespace for all of them, so edges may share variables)."""
    rule = parse_grammar(rule_text, strict=False).rules[0]
    chart = assert_input(["w"] * len(rule.body))
    chart.begin_layer()
    varmap: dict = {}
    chosen = []
    for i, (item, text) in enumerate(zip(rule.body, edge_args)):
        args = tuple(parse_term(a, varmap) for a in text) if text else ()
        chosen.append(chart.add(item.category, args, i, i + 1,
                                InputWord())[0])
    return rule, chosen


@pytest.mark.parametrize("rule_text, edge_args, succeeds", [
    # compound body arguments, bound both ways
    ("p(X,Y) --> q(f(X),g(Y,b)), r(Y).",
     [["A", "g(B,B)"], ["b"]], True),
    ("p(X,Y) --> q(f(X),g(Y,b)), r(Y).",
     [["f(h(C))", "g(B,a)"], ["c"]], False),
    # a variable repeated inside one item
    ("p(X) --> q(X,X).", [["f(A)", "f(b)"]], True),
    ("p(X) --> q(X,X).", [["a", "b"]], False),
    # a head-only variable
    ("p(X,Y) --> q(X).", [["f(A)"]], True),
    # a first occurrence after a compound that holds it
    ("p(X) --> q(f(X),X).", [["A", "b"]], True),
    # edges sharing variables
    ("p(X,Y) --> q(X), r(Y,X).", [["A"], ["g(A)", "A"]], True),
    # only the occurs check rejects these
    ("p(X) --> q(X,f(X)).", [["Y", "Y"]], False),
    ("p(X) --> q(X), r(f(X)).", [["A"], ["A"]], False),
])
def test_instantiate_template_paths(rule_text, edge_args, succeeds):
    rule, chosen = _seat_on_chart(rule_text, edge_args)
    assert _same_instantiation(rule, chosen) is succeeds


# arguments: a bare variable half the time, else a term over X, Y, Z
# (edge arguments over A, B, C) and the constants a and b
_RULE_TERMS = st.one_of(st.sampled_from(["X", "Y", "Z"]), st.recursive(
    st.sampled_from(["X", "Y", "Z", "a", "b"]),
    lambda kids: st.one_of(kids.map(lambda t: f"f({t})"),
                           st.tuples(kids, kids).map(
                               lambda ts: f"g({ts[0]},{ts[1]})")),
    max_leaves=4))
_EDGE_TERMS = _RULE_TERMS.map(
    lambda t: t.replace("X", "A").replace("Y", "B").replace("Z", "C"))


@st.composite
def _seatings(draw):
    """A one-rule grammar (head-only variables allowed) and one seating
    of its 1-3 body items on edges whose arguments are drawn from the
    same terms over edge variables."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    body, edges = [], []
    for i, arity in enumerate(arities):
        args = draw(st.lists(_RULE_TERMS, min_size=arity, max_size=arity))
        body.append(f"q{i}({','.join(args)})" if args else f"q{i}")
        edges.append(draw(st.lists(_EDGE_TERMS, min_size=arity,
                                   max_size=arity)))
    head = draw(st.lists(st.sampled_from(["X", "Y", "W", "f(W,X)", "a"]),
                         min_size=1, max_size=3))
    return f"p({','.join(head)}) --> {', '.join(body)}.", edges


@given(_seatings())
@settings(max_examples=400, deadline=None)
def test_instantiate_equals_renaming_on_random_rules(seating):
    _same_instantiation(*_seat_on_chart(*seating))


def test_chart_holds_no_rule_variable(request):
    # what lets _instantiate and predict bind a rule's own variables
    # without renaming.  On the pp-gap pool charts np(N) --> np(N), pp(_)
    # is active at many depths of one search, and leftward predictions
    # commit gaps.
    checked = gaps = 0
    for grammar, run in _parses(_golden_cases(request)
                                + _pp_gap_pool_cases()):
        rule_vars = set().union(*(
            var_ids(a) for r in grammar.rules for it in (r.head,) + r.body
            if isinstance(it, NonTerminal) for a in it.args))
        for e in run.chart.edges:
            edge_vars = set().union(*map(var_ids, e.args))
            assert not edge_vars & rule_vars, e
            checked += bool(edge_vars and rule_vars)
            gaps += e.is_gap
    assert checked > 250 and gaps > 100


def test_head_only_variables_are_fresh_per_edge():
    g = parse_grammar("s(X,Y) --> q(X).\nq(a) --> [u].\nq(b) --> [v].")
    chart = parse(g, "u v").chart
    first, second = [e for e in chart.edges if e.category == "s"]
    assert isinstance(first.args[1], Var) and isinstance(second.args[1], Var)
    assert first.args[1] != second.args[1]
    assert first.args[1].name == second.args[1].name == "Y"


# --- predict ---------------------------------------------------------------------

def test_predict_french_noun_phrase_with_gap(french):
    chart = _french_chart_after_lexicon(french)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("np", 2, 5))
    e = predict(french, chart, "np", 6, RIGHTWARD, source, gap_budget=1)
    assert e is not None
    assert (e.category, e.start, e.end) == ("np", 6, 8)
    assert ("n", 7, 7) in spans(chart.edges)
    gap = next(x for x in chart.edges if (x.category, x.start, x.end) == ("n", 7, 7))
    assert gap.is_gap


def test_predict_failure_is_absence(french):
    chart = _french_chart_after_lexicon(french)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("adj", 4, 5))
    before = edge_key_set(chart)
    assert predict(french, chart, "adj", 6, RIGHTWARD, source, gap_budget=1) is None
    assert edge_key_set(chart) == before  # failed predictions leave no edges


def test_predict_woods_target_vp(english):
    chart = assert_input(tokenize(WOODS_SENT))
    close(chart, english)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("vp", 6, 9))
    e = predict(english, chart, "vp", 5, LEFTWARD, source, gap_budget=1)
    assert e is not None
    assert (e.category, e.start, e.end) == ("vp", 1, 5)
    expected = parse_term(
        "exists(W,window(W),def(Y,car(Y),drove_through(X1,Y,W)))")
    assert is_variant(e.args[1], expected)
    # the gap carries the abstraction: its arguments reuse the source's
    # variables rather than quantifying afresh
    gap = next(x for x in chart.edges if x.is_gap)
    corr = chart.edges[gap.provenance.source]
    assert (corr.category, corr.start, corr.end) == ("np", 7, 9)
    shared = var_ids(gap.args[2]) & var_ids(source.args[1])
    assert shared, "gap must reuse source variables, not requantify"


def test_predict_needs_real_material(english):
    # a prediction may not succeed as a pure gap: the target must cover
    # at least one token
    chart = assert_input(tokenize("john drove the car through and a window"))
    close(chart, english)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("np", 6, 8))
    assert predict(english, chart, "np", 5, LEFTWARD, source, gap_budget=1) is None


def test_predict_gap_budget_zero(french):
    chart = _french_chart_after_lexicon(french)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("np", 2, 5))
    assert predict(french, chart, "np", 6, RIGHTWARD, source, gap_budget=0) is None


def test_raised_gap_budget_allows_two_gaps(french):
    # "et une" leaves both the noun and the adjective to reconstruct
    sentence = "jean mange une pomme rouge et une"
    assert parse(french, sentence).results == []
    run = parse(french, sentence, gap_budget=2)
    assert len(run.results) == 1
    gaps = [e for e in run.chart.edges if e.is_gap]
    assert {(e.category, e.start, e.end) for e in gaps} == {("n", 7, 7), ("adj", 7, 7)}


@pytest.mark.parametrize("budget", [2, 3])
def test_predict_tables_its_subgoals(budget, monkeypatch):
    # each build call asks the grammar for the rules of one category;
    # searched afresh every time, this sentence made 12,626 such calls at
    # budget 2 and 18,853 at budget 3; tabled within each predict call
    # one depth at a time, 492 and 309; with answers shared across the
    # depths where they were exact, 61 and 46; tabled without depth, each
    # subgoal built once and each corner cycle once per round, 42 and 28
    grammar = load_grammar(PP_GAP)
    calls = []
    rules_for = Grammar.rules_for

    def counted(self, category):
        calls.append(category)
        return rules_for(self, category)

    monkeypatch.setattr(Grammar, "rules_for", counted)
    run = parse(grammar, PP_GAP_SENT, gap_budget=budget)
    assert len(run.results) == 1
    assert len(calls) <= {2: 42, 3: 28}[budget] + 5


@pytest.fixture
def compared(monkeypatch):
    """The lengths of the two answer lists of every comparison settle
    makes between rounds, in call order."""
    lengths = []
    same_answers = dlgram.engine._same_answers

    def counted(xs, ys):
        lengths.append((len(xs), len(ys)))
        return same_answers(xs, ys)

    monkeypatch.setattr(dlgram.engine, "_same_answers", counted)
    return lengths


@pytest.mark.parametrize("conjuncts, readings, edges, answers", [
    (4, 25, 171, 3), (5, 57, 332, 6), (6, 124, 647, 10)])
def test_predict_tables_answers_not_derivations(english, conjuncts, readings,
                                                edges, answers, compared):
    # a table entry holds one answer per variant (span, budget left,
    # arguments up to renaming), so the lists settle compares stay as
    # short as the distinct answers: 3 / 6 / 10 here.  Tabling every
    # derivation, the longest held 112 / 1,154 / 11,800, about ten times
    # more per conjunct, for the same readings and chart
    chain = " and ".join(["each table"] * conjuncts)
    run = parse(english, f"a apple saw {chain}", all_solutions=True)
    assert (len(run.results), len(run.chart.edges)) == (readings, edges)
    assert 0 < max(map(max, compared)) <= answers + 2


def test_predict_table_keys_the_budget():
    # x(4) fails first with no budget left (after the gap g in rule 0),
    # then succeeds under rule 1 with the budget for a gap c
    grammar = parse_grammar("s --> g, x.\ns --> x.\nx --> b, c.\n"
                            "g --> [gg].\nb --> [bb].\nc --> [cc].\n"
                            "conj(and) --> [and].\n")
    found = []
    for fn in (predict, untabled_predict):
        chart = assert_input(tokenize("gg bb cc and bb"))
        close(chart, grammar)
        source = next(e for e in chart.edges
                      if (e.category, e.start, e.end) == ("s", 0, 3))
        e = fn(grammar, chart, "s", 4, RIGHTWARD, source, gap_budget=1)
        found.append(format_derivation(chart, e))
    assert found[0] == found[1]
    assert found[0].splitlines()[-1].strip() == "c(5,5)  [gap from e8]"


@pytest.mark.parametrize("rules", [
    # x(5,6) with the gaps c and d, then with the gap c alone: only the
    # second leaves the budget for the gap g that s needs after it
    "s --> x, g.\nx --> b, c, d.\nx --> b, c.\n",
    # x(one) then x(two), each around one gap: only the second seats s
    "s --> x(two), g.\nx(one) --> b, c.\nx(two) --> b, d.\n"
    "t --> b, c, d, g.\n"])
def test_predict_table_keeps_answers_that_seat_differently(rules):
    # two answers of x with the same span are not variants when their
    # budget left or their arguments differ, so the table keeps both
    grammar = parse_grammar(f"{rules}b --> [bb].\nc --> [cc].\n"
                            "d --> [dd].\ng --> [gg].\n")
    chart = assert_input(tokenize("bb cc dd gg and bb"))
    close(chart, grammar)
    source = next(e for e in chart.edges if (e.start, e.end) == (0, 4))
    found = _same_prediction(grammar, chart, "s", 5, RIGHTWARD, source, 2)
    assert found.split()[0] == "s(5,6)"
    assert found.count("gap from") == 2


def test_same_answers_tells_rule_ids_apart():
    # two answer lists alike in every node but the rule id of one child:
    # built by different rules, they are different answers
    chart = assert_input(["v", "w"])

    def answers(rule_id):
        child = _Trial("c", (), 0, 1, rule_id, (chart.edges[0],))
        return [(_Trial("s", (), 0, 2, 0, (child, chart.edges[1])), 1)]

    assert _same_answers(answers(1), answers(1))
    assert not _same_answers(answers(1), answers(2))


def _chain_prediction(rules: str, direction: str, words: list, length: int,
                      source: str = "c1"):
    """Predict c1 from the rules and c0 --> [v] on the input first,
    `length` middles, last (words), next to the middles, with the first
    edge of the source category that closure finds as source; predict
    and untabled_predict agree.  Returns the derivation text or None."""
    grammar = parse_grammar(f"c0 --> [v].\n{rules}")
    first, middle, last = words
    chart = assert_input([first] + [middle] * length + [last])
    close(chart, grammar)
    source = next(e for e in chart.edges if e.category == source)
    anchor = 1 if direction == RIGHTWARD else length + 1
    return _same_prediction(grammar, chart, "c1", anchor, direction, source,
                            1)


@pytest.mark.parametrize("direction, rules, words", [
    (RIGHTWARD, "c0 --> c0, [u].\nc1 --> c0, [w].", ["v", "u", "w"]),
    (LEFTWARD, "c0 --> [u], c0.\nc1 --> [w], c0.", ["w", "u", "v"])])
@pytest.mark.parametrize("length", [2, 16, 17])
def test_predict_chain_reaches_the_depth_cap(direction, rules, words,
                                             length):
    # c1 needs a c0 over all the u's, which exists only as a chain of
    # `length` recursive c0 nodes around a gap: the corner cycle of c0
    # settles in at most CORNER_CYCLE_ROUNDS = 16 rounds, one level each,
    # so the chain is found down to 16 levels and not below, as
    # untabled_predict finds it within its own depth cap of 16
    found = _chain_prediction(rules, direction, words, length)
    assert (found is not None) == (length <= 16)
    if found:
        assert found.count("gap from") == 1
        assert found.count("c0(") == length + 1


@pytest.mark.parametrize("direction, rules, words", [
    (RIGHTWARD, "c0 --> c2, [u].\nc2 --> c0, [u].\nc1 --> c0, [w].",
     ["v", "u", "w"]),
    (LEFTWARD, "c0 --> [u], c2.\nc2 --> [u], c0.\nc1 --> [w], c0.",
     ["w", "u", "v"])])
@pytest.mark.parametrize("length", [16, 18])
@pytest.mark.parametrize("source", ["c1", "c0"])
def test_predict_chain_of_two_categories_reaches_the_round_bound(
        direction, rules, words, length, source):
    # the chain alternates c0 and c2 (an even length, since closure builds
    # c1 over a c0 only); each round of the cycle reads the answers of the
    # round before, not those rebuilt earlier in the same round, so round
    # r still holds chains of at most r levels.  With the lexical c0 as
    # source only c0 can be a gap, so c2's answers stop changing after
    # the first round while c0's still change: settling goes on while
    # any member changes
    found = _chain_prediction(rules, direction, words, length, source)
    assert (found is not None) == (length <= 16)
    if found:
        assert found.count("gap from") == 1
        assert found.count("c0(") + found.count("c2(") == length + 1


@pytest.mark.parametrize("direction, rules, words", [
    (RIGHTWARD, "c0 --> [u], c0.\nc1 --> [w], c0.", ["v", "w"] + ["u"] * 17),
    (LEFTWARD, "c0 --> c0, [u].\nc1 --> c0, [w].", ["u"] * 17 + ["w", "v"])])
def test_predict_descends_as_deep_as_the_input(direction, rules, words,
                                               monkeypatch):
    # a rule that spends a token before it recurses is on no corner cycle:
    # its descent ends with the input, not at CORNER_CYCLE_ROUNDS levels,
    # so c1 covers all 17 u's, with a gap for the c0 past them, as the
    # untabled search finds once its own cap is deep enough
    monkeypatch.setattr(oracle_impls, "UNTABLED_DEPTH_CAP", 24)
    grammar = parse_grammar(f"c0 --> [v].\n{rules}")
    chart = assert_input(words)
    close(chart, grammar)
    source = next(e for e in chart.edges if e.category == "c0")
    anchor = 1 if direction == RIGHTWARD else 18
    found = _same_prediction(grammar, chart, "c1", anchor, direction, source,
                             1)
    assert found.split()[0] == ("c1(1,19)" if direction == RIGHTWARD
                                else "c1(0,18)")
    assert found.count("gap from") == 1


@pytest.mark.parametrize("rules", ["a --> a.", "a --> b.\nb --> a."])
@pytest.mark.parametrize("budget", [0, 1])
def test_predict_returns_on_unit_cycles(rules, budget):
    # s ending at 1 or starting at 2 settles the a's touching x; the
    # chart's a(0,1) is seated before the table is read, so the unit
    # rule rebuilds only variants of answers already kept, which the
    # table drops, and each settle converges in a round or two; predict
    # returns, and agrees with untabled_predict
    grammar = parse_grammar(f"{rules}\na --> [x].\ns --> a, [y], a.")
    chart = assert_input(["x", "y", "x"])
    close(chart, grammar)
    source = next(e for e in chart.edges if e.category == "s")
    found = [_same_prediction(grammar, chart, r.head.category, anchor,
                              direction, source, budget)
             for r in grammar.rules for anchor in range(4)
             for direction in (RIGHTWARD, LEFTWARD)]
    assert None in found and any(found)


def test_unit_cycle_through_its_first_answer_runs_every_round(compared):
    # no chart edge a touches 4, so the first answer of a is built through
    # the unit rule a --> a from the round before: one answer per round,
    # one level deeper each time, and settle stops only at the bound
    grammar = parse_grammar("s --> a, [y].\na --> a.\na --> b, c.\n"
                            "b --> [x].\nc --> [z].\n")
    chart = assert_input(tokenize("x z y and x"))
    close(chart, grammar)
    source = next(e for e in chart.edges if e.category == "s")
    found = _same_prediction(grammar, chart, "a", 4, RIGHTWARD, source, 1)
    assert found.split()[0] == "a(4,5)"
    assert [rebuilt for rebuilt, _before in compared] \
        == [1] * CORNER_CYCLE_ROUNDS


def test_settle_compares_trees_not_answer_keys():
    # predicting s rightward from 4 settles the cycle a --> b, b --> a at
    # 4: round 1 builds a(4,5) from d and c's gap, round 2 adds b(4,5)
    # over it, and round 3 rebuilds a(4,5) over that b under the same
    # answer key, so only the trees tell that round 2 was not the last.
    # Keys alone would stop after round 2 and commit the shallow a(4,5),
    # with no b(4,5) line
    grammar = parse_grammar("s --> a, [y].\na --> b.\nb --> a.\n"
                            "a --> d, c.\nd --> [x].\nc --> [z].\n"
                            "conj(and) --> [and].\n")
    lines = []
    parse(grammar, "x z y and x y", trace=lines.append)
    predicted = ["T4: c(5,5)  [gap from e8]", "T4: a(4,5)  [predicted r3]",
                 "T4: b(4,5)  [predicted r2]", "T4: s(4,6)  [predicted r0]"]
    at = lines.index(predicted[0])
    assert lines[at:at + 4] == predicted


def _chart_copy(chart: Chart) -> Chart:
    """A new chart with the same edges, ids and layers, sharing their
    terms, so that a prediction on it leaves the original as it was."""
    copy = Chart(chart.tokens)
    for e in chart.edges:
        while copy.current_layer < e.layer:
            copy.begin_layer()
        copy.add(e.category, e.args, e.start, e.end, e.provenance)
    while copy.current_layer < chart.current_layer:
        copy.begin_layer()
    return copy


def _same_prediction(grammar, chart, *call):
    """Run predict and the untabled, renaming oracle on copies of the
    chart and assert the same outcome: None from both, or the same
    derivation with the same variables shared across the whole chart.
    Returns the derivation text or None."""
    outcomes = []
    for fn in (predict, untabled_predict):
        copy = _chart_copy(chart)
        e = fn(grammar, copy, *call)
        outcomes.append(None if e is None else (
            format_derivation(copy, e),
            canonical_text([a for x in copy.edges for a in x.args])))
    assert outcomes[0] == outcomes[1], call
    return outcomes[0] and outcomes[0][0]


def test_predict_equals_renaming_oracle_on_recorded_calls(request,
                                                          monkeypatch):
    # every predict call that parsing the golden sentences and the pp-gap
    # pools makes, replayed on a copy of the chart it saw: seated through
    # join templates and tabled, predict finds what the untabled search
    # that renames every rule per build finds
    calls = []

    def recording(grammar, chart, *call):
        calls.append((grammar, _chart_copy(chart), call))
        return predict(grammar, chart, *call)

    monkeypatch.setattr(dlgram.coordination, "predict", recording)
    for grammar, sentence, budget, all_coord in (
            _golden_cases(request) + _pp_gap_pool_cases()):
        parse(grammar, sentence, gap_budget=budget, all_solutions=all_coord)
    monkeypatch.undo()
    found = [_same_prediction(grammar, chart, *call)
             for grammar, chart, call in calls]
    directions = {call[2] for _g, _c, call in calls}
    assert directions == {LEFTWARD, RIGHTWARD}
    assert len(found) > 200 and sum(f is not None for f in found) > 70
    assert sum("gap from" in f for f in found if f) > 60


def _prediction_chart(rule_text: str, edge_args: list) -> tuple:
    """The one-rule grammar of rule_text (head p), a chart to predict p
    on and a source edge: (grammar, chart, source, width).

    edge_args gives per body item its edge's arguments as term text (one
    variable namespace for all of them), or None for a nonterminal with
    no edge, which only a gap can fill; a terminal's entry is ignored.
    The first `width` positions hold the seating, the edges in body
    order with no room for the missing items; past a separator word the
    source spans one correspondent per body nonterminal, for the gaps.
    """
    grammar = parse_grammar(rule_text, strict=False)
    body = grammar.rules[0].body
    seated = [it for it, text in zip(body, edge_args)
              if isinstance(it, Terminal) or text is not None]
    nonterminals = [it for it in body if isinstance(it, NonTerminal)]
    tokens = [it.token if isinstance(it, Terminal) else "w" for it in seated]
    chart = assert_input(tokens + ["x"] + ["w"] * len(nonterminals))
    chart.begin_layer()
    varmap: dict = {}
    pos = 0
    for it, text in zip(body, edge_args):
        if isinstance(it, NonTerminal) and text is not None:
            chart.add(it.category, tuple(parse_term(a, varmap) for a in text),
                      pos, pos + 1, InputWord())
        pos += isinstance(it, Terminal) or text is not None
    width = len(seated)
    kids = [chart.add(it.category, (Const("c"),) * len(it.args),
                      width + 1 + i, width + 2 + i, InputWord())[0].id
            for i, it in enumerate(nonterminals)]
    source = chart.add("src", (), width + 1, width + 1 + len(kids),
                       Derived(0, tuple(kids)))[0]
    return grammar, chart, source, width


def _predict_both_ways(rule_text: str, edge_args: list, budget: int) -> list:
    """The derivation texts (or None) of p predicted rightward from 0 and
    leftward from the end of the seating, each checked against the
    oracle."""
    grammar, chart, source, width = _prediction_chart(rule_text, edge_args)
    return [_same_prediction(grammar, chart, "p", anchor, direction, source,
                             budget)
            for anchor, direction in ((0, RIGHTWARD), (width, LEFTWARD))]


# found rightward and leftward at gap budget 0, and at gap budget 1: a
# gap is zero-width, so it can stand in only for the last item in build
# order, whose edge then need not unify
@pytest.mark.parametrize("rule_text, edge_args, at_0, at_1", [
    # compound body arguments, bound both ways
    ("p(X,Y) --> q(f(X),g(Y,b)), r(Y).", [["A", "g(B,B)"], ["b"]],
     (True, True), (True, True)),
    ("p(X,Y) --> q(f(X),g(Y,b)), r(Y).", [["f(h(C))", "g(B,a)"], ["c"]],
     (False, False), (False, True)),
    # a variable repeated inside one item
    ("p(X) --> q(X,X).", [["f(A)", "f(b)"]], (True, True), (True, True)),
    ("p(X) --> q(X,X).", [["a", "b"]], (False, False), (False, False)),
    # a variable shared across items: its first occurrence is in a(X)
    # rightward, and leftward there is none, since f(X) comes first
    ("p(X) --> a(X), b(f(X)).", [["A"], ["B"]], (True, True), (True, True)),
    ("p(X) --> a(X), b(f(X)).", [["c"], ["f(c)"]],
     (True, True), (True, True)),
    ("p(X) --> a(X), b(f(X)).", [["c"], ["f(d)"]],
     (False, False), (True, True)),
    # head-only variables
    ("p(X,Y,Z) --> q(X).", [["f(A)"]], (True, True), (True, True)),
    # only the occurs check rejects these
    ("p(X) --> q(X), r(f(X)).", [["A"], ["A"]], (False, False), (True, True)),
    ("p(X) --> q(X,f(X)).", [["Y", "Y"]], (False, False), (False, False)),
    # terminals between nonterminals
    ("p(X) --> q(X), [t], r(g(X)).", [["a"], None, ["g(a)"]],
     (True, True), (True, True)),
])
def test_predict_template_paths(rule_text, edge_args, at_0, at_1):
    for budget, expected in ((0, at_0), (1, at_1)):
        found = _predict_both_ways(rule_text, edge_args, budget)
        assert tuple(f is not None for f in found) == expected, budget


def test_predict_template_fills_a_missing_item_with_a_gap():
    rule = "p(X,Y) --> q(X), r(Y,X)."
    assert _predict_both_ways(rule, [["a"], None], 0) == [None, None]
    for found in _predict_both_ways(rule, [["a"], None], 1):
        assert found.splitlines()[-1].strip() == "r(V0,V1,1,1)  [gap from e6]"


@st.composite
def _predictions(draw):
    """A one-rule grammar with head p, its body 1-3 items (terminals
    among them), and per body item the arguments of its edge, or None
    for a nonterminal that has none."""
    body, edges = [], []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            body.append(f"[t{i}]")
            edges.append(None)
            continue
        arity = draw(st.integers(0, 3))
        args = draw(st.lists(_RULE_TERMS, min_size=arity, max_size=arity))
        body.append(f"q{i}({','.join(args)})" if args else f"q{i}")
        edges.append(None if draw(st.integers(0, 3)) == 0 else draw(
            st.lists(_EDGE_TERMS, min_size=arity, max_size=arity)))
    head = draw(st.lists(st.sampled_from(["X", "Y", "W", "f(W,X)", "a"]),
                         min_size=1, max_size=3))
    return f"p({','.join(head)}) --> {', '.join(body)}.", edges


@given(_predictions(), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_predict_equals_renaming_oracle_on_random_rules(prediction, budget):
    _predict_both_ways(*prediction, budget)


@pytest.mark.parametrize("direction, anchor", [(RIGHTWARD, 0), (LEFTWARD, 2)])
def test_head_only_variables_are_fresh_per_predicted_edge(direction, anchor):
    # the left-recursive rule is active at several depths of one search
    # tree, and each edge it builds has a head-only variable of its own
    g = parse_grammar("a(Y) --> a(W), b.\na(k) --> c.\n"
                      "b --> [bb].\nc --> [cc].")
    chart = assert_input(tokenize("bb bb x cc"))
    close(chart, g)
    source = next(e for e in chart.edges if e.category == "a")
    root = predict(g, chart, "a", anchor, direction, source, gap_budget=1)
    assert (root.start, root.end) == (0, 2)
    heads = [e.args[0] for e, _depth in derivation_edges(chart, root)
             if isinstance(e.provenance, Predicted)]
    assert len(heads) == 2
    assert all(isinstance(v, Var) and v.name == "Y" for v in heads)
    assert len(set(heads)) == len(heads)


def test_predict_frees_its_table():
    # without the cycle collector nothing predict tabled may outlive the call
    grammar = load_grammar(PP_GAP)
    chart = assert_input(tokenize(PP_GAP_SENT))
    close(chart, grammar)
    source = next(e for e in chart.edges
                  if (e.category, e.start, e.end) == ("np", 8, 10))
    gc.collect()
    gc.disable()
    try:
        e = predict(grammar, chart, "np", 11, RIGHTWARD, source, gap_budget=3)
        assert (e.category, e.start, e.end) == ("np", 11, 14)
        assert not [o for o in gc.get_objects() if isinstance(o, _Trial)]
    finally:
        gc.enable()


@pytest.mark.parametrize("sentence, budget, predicts", [
    ("jean voit une femme", 1, False),
    # no parse after the first pass: the revival round calls predict
    (REVIVAL_SENT, 2, True)])
def test_parse_frees_its_chart(sentence, budget, predicts):
    # neither closure nor prediction leaves a reference cycle holding the
    # chart, so it goes with the last reference to the run
    grammar = load_grammar(PP_GAP)
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, Chart) for o in gc.get_objects())
        run = parse(grammar, sentence, gap_budget=budget)
        assert run.results
        assert predicts == any(isinstance(e.provenance, Predicted)
                               for e in run.chart.edges)
        del run
        assert sum(isinstance(o, Chart) for o in gc.get_objects()) == before
    finally:
        gc.enable()


def test_parse_leaves_no_cycles(english):
    # nothing a parse builds, the term layer's helpers included, needs
    # the cycle collector to go
    gc.collect()
    gc.disable()
    try:
        run = parse(english, WOODS_SENT)
        assert run.results
        del run
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_edge_texts_are_rendered_on_demand_once(english, monkeypatch):
    # with no trace sink, Chart.add and _distinct key variants by
    # structure and render no text; an edge renders its arguments the
    # first time the trace, a sort key or emit_json reads them, and
    # keeps them
    rendered = []  # the args of each canonical_texts call
    inside = []  # the Chart.add or _distinct calls running
    nodes = {"keyed": 0}  # terms rendered while one of them runs
    canon, texts = dlgram.terms._canon, dlgram.engine.canonical_texts
    add, distinct = Chart.add, dlgram.engine._distinct

    def counted_canon(t, names):
        nodes["keyed"] += bool(inside)
        return canon(t, names)

    def counted_texts(args):
        rendered.append(args)
        return texts(args)

    def keyed(fn):
        def call(*args):
            # _distinct's answers are built (and may sort) before it runs
            args = [list(a) if inspect.isgenerator(a) else a for a in args]
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    def forbidden(_t):
        raise AssertionError("the engine renders edges with canonical_texts")

    monkeypatch.setattr(dlgram.terms, "_canon", counted_canon)
    monkeypatch.setattr(dlgram.engine, "canonical_texts", counted_texts)
    monkeypatch.setattr(dlgram.engine, "canonical_text", forbidden)
    monkeypatch.setattr(Chart, "add", keyed(add))
    monkeypatch.setattr(dlgram.engine, "_distinct", keyed(distinct))
    assert not hasattr(dlgram.cli, "canonical_texts")
    assert not hasattr(dlgram.coordination, "canonical_text")
    pp_gap = load_grammar(PP_GAP)
    for grammar, sentence, budget in [(english, WOODS_SENT, 1),
                                      (pp_gap, REVIVAL_SENT, 2),
                                      (pp_gap, PP_GAP_SENT, 3)]:
        # untraced, only the sort keys read texts
        rendered.clear()
        nodes["keyed"] = 0
        run = parse(grammar, sentence, gap_budget=budget)
        assert run.results
        assert nodes["keyed"] == 0
        assert len(rendered) < len(run.chart.edges)
        # traced and dumped, every edge is rendered, each once
        rendered.clear()
        lines = []
        run = parse(grammar, sentence, gap_budget=budget, trace=lines.append)
        doc = dlgram.cli.emit_json(run.results, run.chart, run.constraints)
        assert run.results and lines
        assert sorted(map(id, rendered)) == sorted(
            id(e.args) for e in run.chart.edges)
        assert [d["args"] for d in doc["edges"]] == [
            texts(e.args) for e in run.chart.edges]
    # the untraced 13-conjunct chain reads the texts of 49 of its 511
    # edges; rendering every add's arguments took 684 renders
    rendered.clear()
    nodes["keyed"] = 0
    chain = " and ".join(["a man"] * 13)
    run = parse(english, f"john saw {chain}")
    assert run.results and nodes["keyed"] == 0
    assert len(rendered) <= 60


@pytest.mark.parametrize("which, sentences", [
    ("english", [WOODS_SENT,
                 "john drove a car through and mary demolished a window",
                 "each man and each woman ate an apple"]),
    ("french", [FRENCH_SENT, "jean mange une pomme rouge et une"]),
    ("pp_gap", [REVIVAL_SENT, PP_GAP_SENT])])
def test_chart_does_not_depend_on_rule_order(which, sentences, request):
    # without coordination the chart is the fixpoint of the rules, the
    # same set of edges whatever order the rules are tried in
    grammar = (load_grammar(PP_GAP) if which == "pp_gap"
               else request.getfixturevalue(which))
    rng = random.Random(7)
    for sentence in sentences:
        want = edge_key_set(parse(grammar, sentence,
                                  meta_coordination=False).chart)
        for _ in range(4):
            rules = list(grammar.rules)
            rng.shuffle(rules)
            shuffled = dataclasses.replace(grammar, rules=tuple(rules))
            got = edge_key_set(parse(shuffled, sentence,
                                     meta_coordination=False).chart)
            assert got == want, (sentence, [r.id for r in rules])


_WORDS = ("u", "v", "w")


@st.composite
def _small_grammars(draw):
    """A 2-4 category grammar whose arguments are variables and constants
    only, so closure stays finite, and whose every category has a lexical
    rule, so validate passes."""
    cats = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    arity = {c: draw(st.integers(0, 2)) for c in cats}

    def item(c):
        if c is None:
            return f"[{draw(st.sampled_from(_WORDS))}]"
        args = [draw(st.sampled_from(["a", "b", "X", "Y", "Z"]))
                for _ in range(arity[c])]
        return f"{c}({','.join(args)})" if args else c

    rules = [f"{item(c)} --> {item(None)}." for c in cats]
    for _ in range(draw(st.integers(2, 6))):
        body = draw(st.lists(st.sampled_from(cats + cats + [None]),
                             min_size=1, max_size=3))
        head = item(draw(st.sampled_from(cats)))
        rules.append(f"{head} --> {', '.join(item(c) for c in body)}.")
    return parse_grammar("\n".join(rules))


@given(_small_grammars(),
       st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5),
                min_size=1, max_size=3),
       st.data())
@settings(max_examples=300, deadline=None)
def test_random_grammars_match_naive_and_ignore_rule_order(grammar, sentences,
                                                           data):
    rules = data.draw(st.permutations(grammar.rules))
    shuffled = dataclasses.replace(grammar, rules=tuple(rules))
    for tokens in sentences:
        want = edge_key_set(naive_parse(grammar, tokens,
                                        meta_coordination=False))
        for g in (grammar, shuffled):
            got = parse(g, tokens, meta_coordination=False).chart
            assert edge_key_set(got) == want, tokens


@st.composite
def _recursive_grammars(draw):
    """A grammar in _small_grammars' style in which 1-3 categories have a
    corner rule: a two-item body whose first or last item is the head's
    own category or another of its group, so that prediction meets
    corner cycles of 1-3 categories, in both directions.  Groups are
    runs of categories in category order.  The other item of a corner
    rule, and every item of the other rules, is of a later group.  So
    every cycle lies in one group and runs through corner rules only, no
    category has two rules whose first or last item is on its cycle, and
    the untabled search takes time linear, not exponential, in its cap."""
    cats = [f"c{i}" for i in range(draw(st.integers(2, 3)))]
    arity = {c: draw(st.integers(0, 2)) for c in cats}
    # a new group starts at a 1, one time in three
    steps = draw(st.lists(st.sampled_from([0, 0, 1]),
                          min_size=len(cats) - 1, max_size=len(cats) - 1))
    group = dict(zip(cats, itertools.accumulate([0] + steps)))

    def item(c):
        if c is None:
            return f"[{draw(st.sampled_from(_WORDS))}]"
        args = [draw(st.sampled_from(["a", "b", "X", "Y"]))
                for _ in range(arity[c])]
        return f"{c}({','.join(args)})" if args else c

    def later(c):
        return st.sampled_from([d for d in cats if group[d] > group[c]]
                               + [None])

    rules = [f"{item(c)} --> {item(None)}." for c in cats]
    # the corner rules of a group all recurse on their first item, or all
    # on their last, so that the group's cycles run in one direction
    last = {g: draw(st.booleans()) for g in group.values()}
    for head in draw(st.lists(st.sampled_from(cats), min_size=1,
                              unique=True)):
        body = [draw(st.sampled_from([c for c in cats
                                      if group[c] == group[head]])),
                draw(later(head))]
        if last[group[head]]:
            body.reverse()
        rules.append(f"{item(head)} --> {', '.join(map(item, body))}.")
    for _ in range(draw(st.integers(0, 2))):
        head = draw(st.sampled_from(cats))
        body = draw(st.lists(later(head), min_size=2, max_size=3))
        rules.append(f"{item(head)} --> {', '.join(map(item, body))}.")
    return parse_grammar("\n".join(draw(st.permutations(rules))))


@given(_recursive_grammars(),
       st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4),
       st.integers(0, 2), st.data())
@settings(max_examples=300, deadline=None)
def test_predict_equals_untabled_on_recursive_grammars(grammar, tokens,
                                                       budget, data):
    # predict builds each subgoal once and settles each corner cycle in
    # rounds, until no member's answers change or for at most
    # CORNER_CYCLE_ROUNDS rounds; the untabled search rebuilds every
    # subgoal at every level down to its own depth cap, and must agree,
    # for every category, anchor and direction
    chart = assert_input(tokens)
    close(chart, grammar)
    source = data.draw(st.sampled_from(chart.edges))
    for category in sorted({r.head.category for r in grammar.rules}):
        for anchor in range(len(tokens) + 1):
            for direction in (RIGHTWARD, LEFTWARD):
                _same_prediction(grammar, chart, category, anchor,
                                 direction, source, budget)


def test_args_match_grammar_arity(english, french):
    for g, sentence in [(english, WOODS_SENT), (french, FRENCH_SENT)]:
        chart = parse(g, sentence).chart
        for e in chart.edges:
            if e.category == D_CATEGORY:
                assert len(e.args) == 1
            else:
                assert len(e.args) == g.arity(e.category)


def test_parse_deterministic_within_process(english):
    one = parse(english, "each man ate an apple and a pear")
    two = parse(english, "each man ate an apple and a pear")
    assert edge_key_set(one.chart) == edge_key_set(two.chart)
    assert [canonical_text(r.logical_form) for r in one.results] == \
        [canonical_text(r.logical_form) for r in two.results]
    assert one.log == two.log


# --- extract -----------------------------------------------------------------------

def test_extract_french(french):
    run = parse(french, FRENCH_SENT)
    assert len(run.results) == 1
    root = run.results[0].root
    assert (root.category, root.start, root.end) == ("sent", 0, 8)
    assert canonical_text(run.results[0].logical_form) == "sent"


def test_extract_unparseable(french):
    run = parse(french, "et")
    assert run.results == []


def test_extract_logical_form_is_single_argument(english):
    run = parse(english, "john laughed")
    assert [canonical_text(r.logical_form) for r in run.results] == ["laugh(john)"]


# --- derivation tree ------------------------------------------------------------------

def test_derivation_edges_cover_the_tree(english):
    run = parse(english, WOODS_SENT)
    root = run.results[0].root
    tree = derivation_edges(run.chart, root)
    cats = {e.category for e, _ in tree}
    assert {"sent", "np", "vp", "verb2", "pp"} <= cats
    depths = {e.id: d for e, d in tree}
    assert depths[root.id] == 0


def test_format_derivation(english):
    from dlgram.engine import format_derivation
    run = parse(english, WOODS_SENT)
    text = format_derivation(run.chart, run.results[0].root)
    lines = text.splitlines()
    assert lines[0].startswith("sent(")
    assert any(ln.strip().endswith("[coordinated c1]") for ln in lines)
    assert any("[gap from e" in ln for ln in lines)
    # children are indented one step below their parent
    assert lines[1].startswith("  ") and not lines[0].startswith(" ")


# --- semi-naive vs naive (smoke; the full sweep is in the acceptance suite) -----------

def test_naive_equivalence_french(french):
    run = parse(french, FRENCH_SENT)
    naive = naive_parse(french, run.tokens)
    assert edge_key_set(run.chart) == edge_key_set(naive)


def test_concurrent_parses_share_a_grammar(english):
    # one immutable grammar, many charts; the only shared mutable state
    # is the atomic fresh-variable counter
    import concurrent.futures

    sentences = [WOODS_SENT, "john laughed", "each man ate an apple and a pear",
                 "mary saw a man"] * 4

    def forms(s):
        return tuple(canonical_text(r.logical_form)
                     for r in parse(english, s).results)

    sequential = [forms(s) for s in sentences]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(forms, sentences))
    assert threaded == sequential


def test_apply_visits_only_what_a_binding_reaches(english, monkeypatch):
    # every apply call, recursive ones included, while the chain parses.
    # Descending into every subterm, apply made 21,127 calls here; with
    # compounds that know their variables it stops at any subterm that
    # holds no bound variable, which leaves about 9,400
    calls = [0]
    original = dlgram.terms.apply

    def counted(s, t):
        calls[0] += 1
        return original(s, t)

    for module in (dlgram.terms, dlgram.engine, dlgram.coordination):
        monkeypatch.setattr(module, "apply", counted)
    chain = " and ".join(["a man"] * 13)
    run = parse(english, f"john saw {chain}")
    assert run.results
    assert calls[0] <= 10_000


def test_each_source_derivation_is_walked_once(english, monkeypatch):
    # predict looks up a gap's correspondent in a per-chart table, built
    # for each source by one derivation walk over all categories; walked
    # once per (source, category), the chain made 2,919 walks
    walks = []
    walk = dlgram.engine.derivation_edges
    correspondent = oracle_impls._find_correspondent

    def counted(chart, root):
        walks.append(root.id)
        return walk(chart, root)

    monkeypatch.setattr(dlgram.engine, "derivation_edges", counted)
    chain = " and ".join(["each table"] * 8)
    run = parse(english, f"a apple saw {chain}", all_solutions=True)
    assert len(run.results) == 537
    assert len(walks) == len(set(walks)) == 834
    # the table agrees with a walk per category on every source it holds
    monkeypatch.setattr(dlgram.engine, "derivation_edges", walk)
    for source_id, table in run.chart.correspondents.items():
        source = run.chart.edges[source_id]
        for cat in {e.category for e in run.chart.edges}:
            assert table.get(cat) is correspondent(run.chart, source, cat)
