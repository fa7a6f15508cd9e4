import dataclasses
import gc
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlgram.coordination
from dlgram import parse
from dlgram.engine import (D_CATEGORY, Chart, Derived, InputWord, LEFTWARD,
                           LayerCapError, Predicted, RIGHTWARD, _instantiate,
                           _Trial, assert_input, close, derivation_edges,
                           format_derivation, match_rule, predict, tokenize)
from dlgram.grammar import (Grammar, NonTerminal, Terminal, load_grammar,
                            parse_grammar, parse_term)
from dlgram.terms import Const, Var, canonical_text, is_variant
from oracle_impls import (_brute_seatings, edge_key_set, naive_parse,
                          pp_gap_pool, renaming_instantiate, untabled_predict,
                          var_ids)

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
    # budget 2 and 18,853 at budget 3, tabled within each predict call
    # a few hundred
    grammar = load_grammar(PP_GAP)
    calls = []
    rules_for = Grammar.rules_for

    def counted(self, category):
        calls.append(category)
        return rules_for(self, category)

    monkeypatch.setattr(Grammar, "rules_for", counted)
    run = parse(grammar, PP_GAP_SENT, gap_budget=budget)
    assert len(run.results) == 1
    assert len(calls) <= 1000


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


def test_one_canonical_text_per_chart_add(english, monkeypatch):
    # the chart renders an edge's arguments once, for its variant key;
    # the trace, prediction and the agendas read that text off the edge
    import dlgram.coordination
    import dlgram.engine

    calls = {"canonical_text": 0, "add": 0}
    canonical, add = dlgram.engine.canonical_text, Chart.add

    def counted_canonical(args):
        calls["canonical_text"] += 1
        return canonical(args)

    def counted_add(self, *args):
        calls["add"] += 1
        return add(self, *args)

    monkeypatch.setattr(dlgram.engine, "canonical_text", counted_canonical)
    monkeypatch.setattr(Chart, "add", counted_add)
    pp_gap = load_grammar(PP_GAP)
    for grammar, sentence, budget in [(english, WOODS_SENT, 1),
                                      (pp_gap, REVIVAL_SENT, 2),
                                      (pp_gap, PP_GAP_SENT, 3)]:
        calls.update(canonical_text=0, add=0)
        lines = []
        run = parse(grammar, sentence, gap_budget=budget, trace=lines.append)
        assert run.results and lines
        assert calls["canonical_text"] == calls["add"] > 0, sentence
    assert not hasattr(dlgram.coordination, "canonical_text")


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
