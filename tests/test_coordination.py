import re

from dlgram import parse
from dlgram.coordination import (CoordinationState, attempt, combine, post,
                                 refresh_agenda)
from dlgram.engine import Coordinated, assert_input, close, tokenize
from dlgram.grammar import parse_term
from dlgram.terms import canonical_text, is_variant, is_variant_seq
from oracle_impls import edge_key_set

FRENCH_SENT = "jean mange une pomme rouge et une verte"
WOODS_SENT = "john drove the car through and demolished a window"


def edge_at(chart, cat, start, end):
    return next(e for e in chart.edges
                if (e.category, e.start, e.end) == (cat, start, end))


# --- post -----------------------------------------------------------------

def test_post_french(french):
    run = parse(french, FRENCH_SENT)
    assert len(run.constraints) == 1
    c = run.constraints[0]
    assert (c.n, c.m, c.connective) == (5, 6, "and")


def test_post_woods(english):
    run = parse(english, WOODS_SENT)
    assert [(c.n, c.m, c.connective) for c in run.constraints] == [(5, 6, "and")]


def test_post_nothing_without_conjunction(english):
    run = parse(english, "john laughed")
    assert run.constraints == []
    assert run.log == []


def test_post_is_idempotent_per_conj_edge(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    state = CoordinationState(french)
    chart.begin_layer()
    first = post(chart, state)
    second = post(chart, state)
    chart.drop_layer_if_empty()
    assert len(first) == 1 and second == []


# --- refresh_agenda ---------------------------------------------------------

def test_agenda_french_after_lexicon(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    state = CoordinationState(french)
    chart.begin_layer()
    (c,) = post(chart, state)
    refresh_agenda(c, chart, state)
    described = [(side, e.category) for side, e in c.agenda]
    # adjective left of the conjunction, then the determiner to its right;
    # word facts and the conjunction itself never become candidates
    assert described[0] == ("left", "adj")
    assert ("right", "det") in described
    assert all(cat not in ("'D'", "conj") for _, cat in described)
    chart.drop_layer_if_empty()


def test_agenda_ordering_law_woods(english):
    run = parse(english, WOODS_SENT)
    c = run.constraints[0]
    left = [e for side, e in c.agenda if side == "left"]
    right = [e for side, e in c.agenda if side == "right"]
    zs = [e.start for e in left]
    ps = [e.end for e in right]
    assert zs == sorted(zs, reverse=True)
    assert ps == sorted(ps)
    cats_right = [e.category for e in right]
    assert cats_right == ["verb1", "vp"]
    cats_left = [e.category for e in left]
    assert cats_left == ["prep"]


def test_attempt_skips_tried_candidates(french):
    chart = close(assert_input(tokenize(FRENCH_SENT)), french)
    state = CoordinationState(french)
    chart.begin_layer()
    (c,) = post(chart, state)
    refresh_agenda(c, chart, state)
    side, first = c.agenda[0]
    c.tried.add((side, first.id))
    refresh_agenda(c, chart, state)
    assert c.agenda[0] == (side, first)
    attempt(c, chart, state)
    tries = [ln for ln in state.log if ": try" in ln]
    assert tries
    assert not any(f"try {side} {first.category}({first.start},{first.end})"
                   in ln for ln in tries)
    chart.drop_layer_if_empty()


# --- attempt / combine --------------------------------------------------------

def test_attempt_french_resolves_via_np(french):
    run = parse(french, FRENCH_SENT)
    c = run.constraints[0]
    assert c.status == "resolved"
    assert len(c.resolutions) == 1
    src, tgt, comb = c.resolutions[0]
    assert (run.chart.edges[src].category, run.chart.edges[src].start) == ("np", 2)
    assert (run.chart.edges[tgt].start, run.chart.edges[tgt].end) == (6, 8)
    assert (run.chart.edges[comb].start, run.chart.edges[comb].end) == (2, 8)


def test_trial_order_french(french):
    run = parse(french, FRENCH_SENT)
    trials = [ln for ln in run.log if ": try" in ln]
    assert "adj(4,5)" in trials[0] and "fail" in trials[0]
    assert "np(2,5)" in trials[-1] and "predicted" in trials[-1]
    # left-complete trials walk inward (descending start)
    left_starts = [int(m.group(1)) for ln in trials
                   if (m := re.search(r"try left \w+\((\d+),", ln))]
    assert left_starts == sorted(left_starts, reverse=True)
    # right-complete trials walk outward (ascending end)
    right_ends = [int(m.group(2)) for ln in trials
                  if (m := re.search(r"try right \w+\((\d+),(\d+)\)", ln))]
    assert right_ends == sorted(right_ends)


def test_attempt_woods_combines_vp(english):
    run = parse(english, WOODS_SENT)
    c = run.constraints[0]
    assert c.status == "resolved"
    combined = run.chart.edges[c.resolutions[0][2]]
    assert (combined.category, combined.start, combined.end) == ("vp", 1, 9)
    expected = parse_term(
        "exists(W,window(W),and(def(Y,car(Y),drove_through(X,Y,W)),demolished(X,W)))")
    assert is_variant(combined.args[1], expected)
    fails = [ln for ln in run.log if "fail" in ln]
    assert any("prep(4,5)" in ln for ln in fails)
    assert any("verb1(6,7)" in ln for ln in fails)


def test_combine_argument_free(french):
    run = parse(french, FRENCH_SENT)
    chart = run.chart
    left = edge_at(chart, "np", 2, 5)
    right = edge_at(chart, "np", 6, 8)
    e = combine(left, right, "and", chart, 99, left.id, right.id)
    assert (e.category, e.start, e.end) == ("np", 2, 8)
    assert e.args == ()


def test_combine_identical_args_is_identity(english):
    run = parse(english, "john laughed")
    chart = run.chart
    vp = edge_at(chart, "vp", 1, 2)
    chart.begin_layer()
    e = combine(vp, vp, "and", chart, 99, vp.id, vp.id)
    chart.drop_layer_if_empty()
    assert is_variant_seq(e.args, vp.args)


def test_coordinated_span_contains_conjunction(english, french):
    for g, s in [(french, FRENCH_SENT), (english, WOODS_SENT)]:
        run = parse(g, s)
        for c in run.constraints:
            for _src, _tgt, comb in c.resolutions:
                e = run.chart.edges[comb]
                assert isinstance(e.provenance, Coordinated)
                assert e.start < c.n and e.end > c.m


def test_first_solution_single_coordinated_edge(english, french):
    for g, s in [(french, FRENCH_SENT), (english, WOODS_SENT)]:
        run = parse(g, s)
        for c in run.constraints:
            made = [e for e in run.chart.edges
                    if isinstance(e.provenance, Coordinated)
                    and e.provenance.constraint_id == c.id]
            assert len(made) <= 1
            assert len(c.resolutions) <= 1


def test_failed_candidates_leak_nothing(english):
    # all candidates fail here, so the chart must contain only what
    # ordinary closure derives
    sentence = "john drove the car through and a window"
    with_meta = parse(english, sentence)
    without = parse(english, sentence, meta_coordination=False)
    assert edge_key_set(with_meta.chart) == edge_key_set(without.chart)


def test_no_meta_flag_behaviour(english, french):
    run = parse(french, FRENCH_SENT, meta_coordination=False)
    assert run.results == [] and run.constraints == []
    run2 = parse(english, "each man ate an apple and a pear",
                 meta_coordination=False)
    forms = [canonical_text(r.logical_form) for r in run2.results]
    assert forms == [
        "each(V0,man(V0),and(exists(V1,apple(V1),ate(V0,V1)),exists(V1,pear(V1),ate(V0,V1))))"]
    assert not any(isinstance(e.provenance, Coordinated)
                   for e in run2.chart.edges)


def test_all_coord_records_more_resolutions(french):
    first = parse(french, FRENCH_SENT)
    every = parse(french, FRENCH_SENT, all_solutions=True)
    n_first = sum(len(c.resolutions) for c in first.constraints)
    n_every = sum(len(c.resolutions) for c in every.constraints)
    assert n_first == 1
    assert n_every >= n_first
    again = parse(french, FRENCH_SENT, all_solutions=True)
    assert [c.resolutions for c in every.constraints] == \
        [c.resolutions for c in again.constraints]


def test_exhausted_logged_when_nothing_works(english):
    run = parse(english, "john drove the car through and a window")
    assert run.results == []
    assert [c.status for c in run.constraints] == ["exhausted"]
    assert run.log[-1].endswith("exhausted")


def test_gap_budget_zero_blocks_elliptical_coordination(french):
    run = parse(french, FRENCH_SENT, gap_budget=0)
    assert run.results == []
    assert [c.status for c in run.constraints] == ["exhausted"]
