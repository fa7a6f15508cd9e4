"""Acceptance suite.

One test per criterion; each prints a PASS line when its assertions get
through (run with -s or -rA to see them).  All checks are symbolic:
zero tolerance everywhere.
"""

import random
import re
from pathlib import Path

from dlgram import parse
from dlgram.coordination import Coordinated
from dlgram.grammar import parse_term
from dlgram.reshape import reshape
from dlgram.terms import canonical_text, is_variant, unify
from oracle_impls import (gen_pair, has_common_ground_instance, naive_parse,
                          read_expected)

GOLDEN = Path(__file__).parent / "golden"

FRENCH_SENT = "jean mange une pomme rouge et une verte"
WOODS_SENT = "john drove the car through and demolished a window"

FRENCH_SENTENCES = [
    FRENCH_SENT,
    "jean mange une pomme rouge",
    "jean mange une pomme verte et une rouge",
    "jean mange une pomme rouge et verte",
    "jean mange une verte et une pomme rouge",
    "une pomme rouge et une verte",
    "jean mange une pomme",
    "jean mange",
    "mange jean",
    "jean",
    "et",
    "jean mange et mange",
]

ENGLISH_SENTENCES = [
    WOODS_SENT,
    "each man ate an apple and a pear",
    "each man ate an apple and a pear and a window",
    "john drove the car through and a window",
    "john laughed",
    "mary saw a man",
    "john laughed and mary laughed",
    "john and mary laughed",
    "each man and each woman ate an apple",
    "john ate an apple and mary ate a pear",
    "mary saw a man and john",
    "john sat at a table",
    "the car drove through a window",
    "john drove",
    "laughed john",
    "john xyzzy and mary",
]


def _report(n, description):
    print(f"ACCEPTANCE {n} PASS  {description}")


def test_criterion_1_french_derivation_replay(french):
    lines = []
    run = parse(french, FRENCH_SENT, trace=lines.append)

    # exact golden trace
    golden = (GOLDEN / "french_trace.txt").read_text().splitlines()
    assert lines == golden

    # and the milestones in derivation order, independent of the golden
    layer2 = {(e.category, e.start, e.end) for e in run.chart.layer_edges(2)}
    assert layer2 == {
        ("name", 0, 1), ("v", 1, 2), ("det", 2, 3), ("n", 3, 4),
        ("adj", 4, 5), ("conj", 5, 6), ("det", 6, 7), ("adj", 7, 8)}

    def first_index(pattern):
        for i, ln in enumerate(lines):
            if re.search(pattern, ln):
                return i
        raise AssertionError(f"{pattern} not in trace")

    order = [
        first_index(r"T\d+: np\(2,5\)"),
        first_index(r"T\d+: n\(7,7\)"),
        first_index(r"T\d+: np\(6,8\)"),
        first_index(r"T\d+: np\(2,8\)"),
        first_index(r"T\d+: vp\(1,8\)"),
        first_index(r"T\d+: sent\(0,8\)"),
    ]
    assert order == sorted(order)
    gap = next(e for e in run.chart.edges
               if (e.category, e.start, e.end) == ("n", 7, 7))
    assert gap.is_gap
    assert len(run.results) == 1
    _report(1, "French derivation replay matches the golden trace")


def test_criterion_2_constraint_trial_order(french):
    run = parse(french, FRENCH_SENT)
    trials = [ln for ln in run.log if ": try" in ln]
    adj_fail = next(i for i, ln in enumerate(trials)
                    if "adj(4,5)" in ln and ln.endswith("fail"))
    np_ok = next(i for i, ln in enumerate(trials)
                 if "np(2,5)" in ln and "predicted" in ln)
    assert adj_fail < np_ok
    assert trials[0].startswith("C1: try left adj(4,5)")
    _report(2, "adjective candidate fails before the noun phrase succeeds")


def test_criterion_3_woods_sentence(english):
    expected = read_expected("woods_sentence.txt")
    run = parse(english, WOODS_SENT)
    assert len(run.results) == int(expected["EXPECTED_PARSE_COUNT"])
    form = run.results[0].logical_form
    assert canonical_text(form) == expected["EXPECTED_LOGICAL_FORM"]
    assert is_variant(form, parse_term(expected["EXPECTED_LOGICAL_FORM"]))
    # requantification check: the window variable of the outer
    # quantifier is the one used by both conjuncts
    w = form.args[0]
    conj = form.args[2]
    assert conj.functor == "and"
    assert conj.args[0].args[2].args[2] == w   # drove_through(..,..,W)
    assert conj.args[1].args[1] == w           # demolished(.., W)
    _report(3, "Wood's sentence yields the registered logical form")


def test_criterion_4_grammar_level_np_coordination(english):
    expected = read_expected("np_coordination.txt")
    pinned = expected["EXPECTED_PINNED_FORM"]
    run = parse(english, "each man ate an apple and a pear")
    forms = {canonical_text(r.logical_form) for r in run.results}
    assert pinned in forms
    # the registered second reading is the only other one
    assert forms <= {pinned, expected["EXPECTED_META_FORM"]}
    # with the meta level off, the shipped rule alone produces the
    # pinned sharing pattern (one variable for both conjuncts)
    alone = parse(english, "each man ate an apple and a pear",
                  meta_coordination=False)
    assert [canonical_text(r.logical_form) for r in alone.results] == [pinned]
    _report(4, "noun-phrase coordination pins the registered sharing pattern")


def test_criterion_5_reshaping(english):
    t = parse_term("each(X,and(man(X),woman(X)),exists(Z,apple(Z),ate(X,Z)))")
    out = reshape(t, english, ("distrib",))
    want = parse_term("and(each(X,man(X),exists(Z,apple(Z),ate(X,Z))),"
                      "each(X,woman(X),exists(Z,apple(Z),ate(X,Z))))")
    assert is_variant(out, want)

    t2 = parse_term("but(if(drink(fred),C1),if(too(drink(sam)),C2))")
    out2 = reshape(t2, english, ("too",))
    want2 = parse_term("and(if(and(drink(fred),no(drink(sam))),C1),"
                       "if(and(drink(fred),drink(sam)),C2))")
    assert is_variant(out2, want2)
    _report(5, "distribution and the too-rewrite match the expected forms")


def _layered_keys(chart):
    """Edge keys with the layer each edge was derived in."""
    return {(e.category, e.start, e.end, canonical_text(e.args), e.layer)
            for e in chart.edges}


def test_criterion_6_oracle_equivalence(english, french):
    cases = [(french, s) for s in FRENCH_SENTENCES]
    cases += [(english, s) for s in ENGLISH_SENTENCES]
    assert len(cases) >= 20
    for grammar, sentence in cases:
        run = parse(grammar, sentence)
        naive = naive_parse(grammar, run.tokens)
        assert _layered_keys(run.chart) == _layered_keys(naive), \
            f"evaluator disagreement on {sentence!r}"
    _report(6, f"semi-naive closure equals the naive fixpoint on {len(cases)} sentences")


def test_criterion_7_property_suites(english, french):
    # unification vs ground enumeration, 10,000 pairs, full agreement
    rng = random.Random(1126)
    for i in range(10_000):
        t1, t2 = gen_pair(rng)
        got = unify(t1, t2) is not None
        want = has_common_ground_instance(t1, t2)
        assert got == want, f"pair {i}: {t1!r} ~ {t2!r}"

    # c_unify identity and totality laws
    from dlgram.terms import c_unify
    samples = [parse_term(s) for s in
               ["a", "f(X,Y)", "g(f(a,b))", "exists(X,p(X),q(X))", "X"]]
    for t in samples:
        r, s = c_unify(t, t, "and")
        assert r == t and len(s) == 0
    for t1 in samples:
        for t2 in samples:
            r, _ = c_unify(t1, t2, "or")
            assert r is not None

    # abstraction round-trip
    from dlgram.terms import abstract_over, apply
    vm = {}
    args = (parse_term("W", vm), parse_term("demolished(X,W)", vm),
            parse_term("a(W,window(W),demolished(X,W))", vm))
    new_args, v = abstract_over(args, 2)
    s = unify(v, args[1])
    assert tuple(apply(s, a) for a in new_args) == args

    # reshape idempotence
    t = parse_term("each(X,and(man(X),woman(X)),exists(Z,apple(Z),ate(X,Z)))")
    once = reshape(t, english, ("distrib", "too"))
    assert reshape(once, english, ("distrib", "too")) == once

    # dedup soundness: a second closure adds nothing
    from dlgram.engine import close
    run = parse(french, FRENCH_SENT)
    before = len(run.chart.edges)
    close(run.chart, french)
    assert len(run.chart.edges) == before
    _report(7, "property suites hold (10,000-pair oracle agreement included)")


def test_criterion_8_negative_controls(english, french):
    run = parse(english, "john drove the car through and a window")
    assert run.results == []
    assert [c.status for c in run.constraints] == ["exhausted"]
    assert run.log[-1] == "C1: exhausted"

    run2 = parse(french, "jean mange une pomme")
    assert run2.constraints == []
    assert run2.log == []
    assert not any(isinstance(e.provenance, Coordinated)
                   for e in run2.chart.edges)
    _report(8, "negative controls: exhausted constraint, zero constraints")
