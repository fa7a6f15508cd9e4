import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgram import parse
from dlgram.grammar import parse_term
from dlgram.reshape import (REWRITE_STEP_CAP, RewriteLimitError, RewriteRule,
                            _normalize, distribution_rules, reshape,
                            too_rule)
from dlgram.terms import Compound, Const, Var, fresh_var, is_variant


def T(text, vm=None):
    return parse_term(text, vm)


def test_distribute_quantifier_over_conjoined_restriction(english):
    t = T("each(X,and(man(X),woman(X)),exists(Z,apple(Z),ate(X,Z)))")
    out = reshape(t, english, ("distrib",))
    expected = T("and(each(X,man(X),exists(Z,apple(Z),ate(X,Z))),"
                 "each(X,woman(X),exists(Z,apple(Z),ate(X,Z))))")
    assert is_variant(out, expected)


def test_distribution_keeps_scope_shared(english):
    vm = {}
    t = T("each(X,and(man(X),woman(X)),S)", vm)
    out = reshape(t, english, ("distrib",))
    assert out.args[0].args[2] is out.args[1].args[2]


def test_too_rewrite(english):
    t = T("but(if(drink(fred),C1),if(too(drink(sam)),C2))")
    out = reshape(t, english, ("too",))
    expected = T("and(if(and(drink(fred),no(drink(sam))),C1),"
                 "if(and(drink(fred),drink(sam)),C2))")
    assert is_variant(out, expected)


def test_ground_term_unchanged(english):
    t = T("and(laugh(john),laugh(mary))")
    assert reshape(t, english, ("distrib", "too")) == t


def test_rules_disabled_by_default_selection(english):
    t = T("but(if(drink(fred),C1),if(too(drink(sam)),C2))")
    assert is_variant(reshape(t, english, ("distrib",)), t)


def test_nested_distribution_runs_innermost_first(english):
    t = T("each(X,man(X),exists(Z,and(apple(Z),pear(Z)),ate(X,Z)))")
    out = reshape(t, english, ("distrib",))
    expected = T("each(X,man(X),and(exists(Z,apple(Z),ate(X,Z)),"
                 "exists(Z,pear(Z),ate(X,Z))))")
    assert is_variant(out, expected)


def test_distribution_over_or_and_but(english):
    for conn in ("or", "but"):
        t = T(f"def(X,{conn}(p(X),q(X)),r(X))")
        out = reshape(t, english, ("distrib",))
        expected = T(f"{conn}(def(X,p(X),r(X)),def(X,q(X),r(X)))")
        assert is_variant(out, expected)


def test_reshape_idempotent(english):
    cases = [
        "each(X,and(man(X),woman(X)),exists(Z,apple(Z),ate(X,Z)))",
        "but(if(drink(fred),C1),if(too(drink(sam)),C2))",
        "exists(V,window(V),and(def(Y,car(Y),f(john,Y,V)),g(john,V)))",
        "each(A,or(p(A),and(q(A),r(A))),exists(B,s(B),t(A,B)))",
    ]
    for text in cases:
        t = T(text)
        once = reshape(t, english, ("distrib", "too"))
        twice = reshape(once, english, ("distrib", "too"))
        assert once == twice


def test_reshape_parse_output(english):
    run = parse(english, "each man ate an apple and a pear",
                meta_coordination=False)
    out = reshape(run.results[0].logical_form, english, ("distrib",))
    # the restriction here is already atomic, so nothing distributes
    assert is_variant(out, run.results[0].logical_form)


# an independent single-step rewriter: find one innermost redex, apply it
def _one_distrib_step(t, grammar):
    if isinstance(t, Compound):
        for i, a in enumerate(t.args):
            stepped = _one_distrib_step(a, grammar)
            if stepped is not None:
                args = list(t.args)
                args[i] = stepped
                return Compound(t.functor, tuple(args))
        if (t.functor in grammar.quantifiers and len(t.args) == 3
                and isinstance(t.args[1], Compound)
                and t.args[1].functor in grammar.connectives
                and len(t.args[1].args) == 2):
            x, c, s = t.args
            return Compound(c.functor, (
                Compound(t.functor, (x, c.args[0], s)),
                Compound(t.functor, (x, c.args[1], s))))
    return None


def _connectives_below_restrictions(t, grammar):
    def count_conn(x):
        if not isinstance(x, Compound):
            return 0
        own = 1 if (x.functor in grammar.connectives and len(x.args) == 2) else 0
        return own + sum(count_conn(a) for a in x.args)

    if not isinstance(t, Compound):
        return 0
    total = sum(_connectives_below_restrictions(a, grammar) for a in t.args)
    if t.functor in grammar.quantifiers and len(t.args) == 3:
        total += count_conn(t.args[1])
    return total


def _predicate_counts(t):
    """Multiset of atomic predicates: compounds with no compound args."""
    counts = {}

    def walk(x):
        if isinstance(x, Compound):
            if any(isinstance(a, Compound) for a in x.args):
                for a in x.args:
                    walk(a)
            else:
                key = (x.functor, len(x.args))
                counts[key] = counts.get(key, 0) + 1

    walk(t)
    return counts


def test_distribution_metric_strictly_decreases(english):
    t = T("each(A,and(or(p(A),q(A)),and(r(A),s(A))),exists(B,u(B),v(A,B)))")
    metric = _connectives_below_restrictions(t, english)
    cur = t
    steps = 0
    while True:
        nxt = _one_distrib_step(cur, english)
        if nxt is None:
            break
        steps += 1
        m2 = _connectives_below_restrictions(nxt, english)
        assert m2 < metric
        metric = m2
        cur = nxt
        assert steps < 100
    assert steps > 0
    assert _connectives_below_restrictions(cur, english) == 0
    assert is_variant(reshape(t, english, ("distrib",)), cur)


def test_distribution_duplicates_only_the_scope(english):
    t = T("each(X,and(man(X),woman(X)),exists(Z,apple(Z),ate(X,Z)))")
    out = reshape(t, english, ("distrib",))
    pre = _predicate_counts(t)
    post = _predicate_counts(out)
    scope = _predicate_counts(t.args[2])
    for key in set(pre) | set(post) | set(scope):
        assert post.get(key, 0) == pre.get(key, 0) + scope.get(key, 0)


def test_step_cap_raises_on_nonterminating_rules():
    x = fresh_var("X")
    looping = RewriteRule("loop", Compound("p", (x,)),
                          Compound("p", (Compound("p", (x,)),)))
    with pytest.raises(RewriteLimitError):
        _normalize(T("p(a)"), (looping,))


def test_step_cap_is_reached_before_the_recursion_limit():
    # a chain of n q's takes exactly n rewrites of q(X) -> r(X): one at
    # each level, innermost first.  The chain is as deep as the cap, so a
    # walk that recursed per level would hit Python's recursion limit
    # before the cap
    x = fresh_var("X")
    rule = RewriteRule("q-to-r", Compound("q", (x,)), Compound("r", (x,)))

    def chain(functor, n):
        t = Const("a")
        for _ in range(n):
            t = Compound(functor, (t,))
        return t

    out = _normalize(chain("q", REWRITE_STEP_CAP), (rule,))
    for _ in range(REWRITE_STEP_CAP):
        assert out.functor == "r"
        out = out.args[0]
    assert out == Const("a")
    with pytest.raises(RewriteLimitError):
        _normalize(chain("q", REWRITE_STEP_CAP + 1), (rule,))


# random quantified logical forms over the grammar's quantifier and
# connective vocabulary
_atoms = st.sampled_from([parse_term(s) for s in
                          ["p(a)", "q(b)", "r(a,b)", "s(c)"]])


def _formulas(children):
    quantified = st.builds(
        lambda q, r, s: Compound(q, (Var(-9, "X"), r, s)),
        st.sampled_from(["exists", "def", "each"]), children, children)
    connected = st.builds(
        lambda c, l, r: Compound(c, (l, r)),
        st.sampled_from(["and", "or", "but"]), children, children)
    return st.one_of(quantified, connected)


_logical_forms = st.recursive(_atoms, _formulas, max_leaves=12)


@given(t=_logical_forms)
@settings(max_examples=200)
def test_reshape_idempotent_on_random_forms(t, english):
    once = reshape(t, english, ("distrib", "too"))
    assert reshape(once, english, ("distrib", "too")) == once


@given(t=_logical_forms)
@settings(max_examples=200)
def test_reshape_fixpoint_has_no_redex(t, english):
    # at the fixpoint, no quantifier's restriction is itself a connective
    def has_redex(x):
        if not isinstance(x, Compound):
            return False
        if (x.functor in english.quantifiers and len(x.args) == 3
                and isinstance(x.args[1], Compound)
                and x.args[1].functor in english.connectives
                and len(x.args[1].args) == 2):
            return True
        return any(has_redex(a) for a in x.args)

    out = reshape(t, english, ("distrib",))
    assert not has_redex(out)


def test_every_template_variable_occurs_in_pattern(english):
    def pattern_vars(t, acc):
        if isinstance(t, Var):
            acc.add(t.id)
        elif isinstance(t, Compound):
            for a in t.args:
                pattern_vars(a, acc)
        return acc

    for rule in list(distribution_rules(english)) + [too_rule()]:
        assert pattern_vars(rule.template, set()) <= pattern_vars(rule.pattern, set())
