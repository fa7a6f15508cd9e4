import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgram import parse
from dlgram.grammar import GrammarSyntaxError, parse_term
from dlgram.engine import Derived, Edge, InputWord
from dlgram.terms import (EMPTY_SUBST, Compound, Const, Var, _occurs,
                          abstract_over, apply, c_unify, canonical_text,
                          fresh_var, is_variant, is_variant_seq, rename_fresh,
                          rename_fresh_all, unify, variant_key)
from oracle_impls import (gen_pair, has_common_ground_instance, var_ids,
                          walking_apply, walking_occurs)


def T(text, varmap=None):
    return parse_term(text, varmap)


# --- unify ---------------------------------------------------------------

def test_unify_variable_to_constant():
    x = fresh_var("X")
    s = unify(x, Const("john"))
    assert s is not None
    assert apply(s, x) == Const("john")


def test_unify_structural_decomposition():
    vm = {}
    s = unify(T("f(X,b)", vm), T("f(a,Y)", vm))
    assert s is not None
    assert apply(s, vm["X"]) == Const("a")
    assert apply(s, vm["Y"]) == Const("b")


def test_unify_occurs_check():
    x = fresh_var("X")
    assert unify(x, Compound("f", (x,))) is None


def test_unify_variable_aliasing():
    vm = {}
    s = unify(T("window(W)", vm), T("window(V)", vm))
    assert s is not None
    assert apply(s, vm["W"]) == apply(s, vm["V"])


def test_unify_clashes():
    assert unify(Const("a"), Const("b")) is None
    assert unify(T("f(a)"), T("g(a)")) is None
    assert unify(T("f(a)"), T("f(a,b)")) is None
    assert unify(T("f(a)"), Const("a")) is None


def test_unify_extends_given_substitution():
    vm = {}
    x, y = T("X", vm), T("Y", vm)
    s = unify(x, Const("a"))
    s2 = unify(y, x, s)
    assert apply(s2, y) == Const("a")
    # the original substitution is untouched
    assert y.id not in s


# --- apply ---------------------------------------------------------------

def test_apply_simple():
    vm = {}
    t = T("likes(X,golf)", vm)
    s = unify(vm["X"], Const("john"))
    assert apply(s, t) == T("likes(john,golf)")


def test_apply_empty_is_identity():
    t = T("f(X,g(Y,a))")
    assert apply(EMPTY_SUBST, t) == t


def test_apply_resolves_transitively():
    x, y = fresh_var("X"), fresh_var("Y")
    s = {x.id: Compound("f", (y,)), y.id: Const("a")}
    assert apply(s, x) == T("f(a)")


def test_apply_shares_unbound_subterms():
    vm = {}
    t = T("f(X,g(Y,a),h(b))", vm)
    z = fresh_var("Z")
    assert apply(EMPTY_SUBST, t) is t
    assert apply({z.id: Const("c")}, t) is t
    # a rebuilt compound keeps the arguments with nothing bound under them
    out = apply({vm["X"].id: Const("c")}, t)
    assert out == T("f(c,g(Y,a),h(b))", vm)
    assert out.args[1] is t.args[1] and out.args[2] is t.args[2]


def test_empty_subst_stays_empty_after_a_parse(english):
    # _instantiate adds bindings to a dict it owns, never to EMPTY_SUBST
    run = parse(english, "john drove the car through and demolished a window")
    assert run.results
    assert EMPTY_SUBST == {}


def test_apply_idempotent_after_resolution():
    x, y = fresh_var("X"), fresh_var("Y")
    s = {x.id: Compound("f", (y,)), y.id: Const("a")}
    t = Compound("g", (x, y))
    assert apply(s, apply(s, t)) == apply(s, t)


# --- rename_fresh ---------------------------------------------------------

def test_rename_fresh_consistent_within_call():
    t = T("np(X,S,S)")
    r = rename_fresh(t)
    assert is_variant(t, r)
    assert r.args[1] == r.args[2]          # sharing preserved
    assert r.args[0] != t.args[0]          # ids are new


def test_rename_fresh_ground_fixed():
    assert rename_fresh(Const("john")) == Const("john")


def test_rename_fresh_calls_disjoint():
    t = T("np(X,S,S)")
    r1, r2 = rename_fresh(t), rename_fresh(t)
    ids1 = {r1.args[0].id, r1.args[1].id}
    ids2 = {r2.args[0].id, r2.args[1].id}
    assert not ids1 & ids2


def test_rename_fresh_all_shares_one_mapping():
    vm = {}
    a, b = T("f(X)", vm), T("g(X)", vm)
    ra, rb = rename_fresh_all([a, b])
    assert ra.args[0] == rb.args[0]


# --- is_variant -----------------------------------------------------------

def test_is_variant_examples():
    vm = {}
    assert is_variant(T("f(X,X)"), T("f(Y,Y)"))
    assert not is_variant(T("f(X,Y)", vm), T("f(Z,Z)", vm))
    assert is_variant(T("f(a)"), T("f(a)"))
    assert not is_variant(T("f(a)"), T("f(b)"))
    # cases text cannot decide: a constant whose name reads as a compound,
    # and variables shared across the terms of a vector
    assert canonical_text(Const("f(a)")) == canonical_text(T("f(a)"))
    assert not is_variant(Const("f(a)"), T("f(a)"))
    vm = {}
    assert not is_variant_seq((T("f(X)", vm), T("g(X)", vm)),
                              (T("f(X)", vm), T("g(Y)", vm)))
    assert is_variant_seq((T("f(X)", vm), T("g(Y)", vm)),
                          (T("f(Y)", vm), T("g(X)", vm)))
    assert not is_variant_seq((T("f(X)"),), (T("f(X)"), T("g(Y)")))


# --- abstract_over ---------------------------------------------------------

def test_abstract_over_scope_in_semantics():
    # source arguments of a quantified noun phrase whose scope value
    # also occurs nested inside the semantics
    vm = {}
    args = (T("W", vm), T("demolished(X,W)", vm),
            T("a(W,window(W),demolished(X,W))", vm))
    new_args, v = abstract_over(args, 2)
    assert new_args[0] == vm["W"]
    assert new_args[1] == v
    assert new_args[2] == Compound("a", (vm["W"], T("window(W)", vm), v))


def test_abstract_over_bare_variable():
    x = fresh_var("X")
    new_args, v = abstract_over((x,), 1)
    assert new_args == (v,)


def test_abstract_over_constant_twice():
    args = (Const("a"), T("g(a)"))
    new_args, v = abstract_over(args, 1)
    assert new_args == (v, Compound("g", (v,)))


def test_abstract_over_bad_index():
    with pytest.raises(IndexError):
        abstract_over((Const("a"),), 2)


def test_abstract_over_roundtrip():
    vm = {}
    args = (T("W", vm), T("demolished(X,W)", vm),
            T("a(W,window(W),demolished(X,W))", vm))
    new_args, v = abstract_over(args, 2)
    s = unify(v, args[1])
    assert tuple(apply(s, a) for a in new_args) == args


# --- c_unify ---------------------------------------------------------------

def test_c_unify_identity():
    t = T("f(X,g(a))")
    r, s = c_unify(t, t, "and")
    assert r == t
    assert len(s) == 0


def test_c_unify_parallel_vp_semantics():
    # the combination step of the elliptical-coordination example:
    # target and source semantics share W; only the innermost clash
    # is conjoined
    vm = {}
    t1 = T("a(W,window(W),the(Y,car(Y),drove_through(X1,Y,W)))", vm)
    t2 = T("a(V,window(V),demolished(X,V))", vm)
    s0 = unify(vm["X1"], vm["X"])
    r, _s = c_unify(t1, t2, "and", s0)
    expected = T("a(W,window(W),and(the(Y,car(Y),drove_through(X,Y,W)),demolished(X,W)))")
    assert is_variant(r, expected)


def test_c_unify_top_level_clash_conjoins_whole_terms():
    vm = {}
    t1, t2 = T("f(a,X)", vm), T("g(b)", vm)
    r, s = c_unify(t1, t2, "and")
    assert r == Compound("and", (t1, t2))
    assert len(s) == 0


def test_c_unify_connective_choice():
    r, _ = c_unify(Const("a"), Const("b"), "or")
    assert r == T("or(a,b)")


def test_c_unify_threads_bindings_back_into_earlier_args():
    vm = {}
    r, s = c_unify(T("f(X,X)", vm), T("f(Y,a)", vm), "and")
    assert r == T("f(a,a)")


# --- canonical text and parsing --------------------------------------------

def test_canonical_text_first_occurrence_numbering():
    vm = {}
    t = T("p(B,A,B)", vm)
    assert canonical_text(t) == "p(V0,V1,V0)"


def test_canonical_text_sequence_shares_numbering():
    vm = {}
    ts = [T("X", vm), T("f(X,Y)", vm)]
    assert canonical_text(ts) == "V0,f(V0,V1)"


def test_parse_term_roundtrip():
    text = "exists(V0,window(V0),and(def(V1,car(V1),f(john,V1,V0)),g(john,V0)))"
    assert canonical_text(parse_term(text)) == text


def test_parse_term_rejects_garbage():
    for bad in ["", "f(", "f()", "f(a))", "f(a) x"]:
        with pytest.raises(GrammarSyntaxError):
            parse_term(bad)


# --- property tests ---------------------------------------------------------

_consts = st.sampled_from([Const("a"), Const("b"), Const("c")])
_vars = st.sampled_from([Var(-1, "X"), Var(-2, "Y")])
_leaves = st.one_of(_consts, _vars)


def _compound(children, functors=st.sampled_from(["f", "g", "h"])):
    return st.builds(
        lambda f, args: Compound(f, tuple(args)),
        functors, st.lists(children, min_size=1, max_size=3))


_terms = st.recursive(_leaves, _compound, max_leaves=8)


_names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
_named_terms = st.recursive(
    st.one_of(_names.map(Const),
              st.sampled_from([Var(-1, "X"), Var(-2, "Y"), Var(-3, "Z")])),
    lambda children: _compound(children, _names), max_leaves=10)


def _rebuilt(s, t):
    """apply without sharing: every compound is built anew."""
    while isinstance(t, Var) and t.id in s:
        t = s[t.id]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_rebuilt(s, a) for a in t.args))
    return t


@given(_terms, st.sets(st.sampled_from([-1, -2, -3])))
def test_apply_returns_t_when_nothing_under_it_is_bound(t, bound):
    s = {vid: Compound("k", (Const("c"),)) for vid in bound}
    out = apply(s, t)
    assert out == _rebuilt(s, t)
    if not var_ids(t) & bound:
        assert out is t


_chain_vars = [Var(-1, "X"), Var(-2, "Y"), Var(-3, "Z"), Var(-4, "W")]


@st.composite
def _shared_terms(draw):
    """A pool of terms in which each compound takes its arguments from the
    terms before it, so one object sits under many terms."""
    pool = [Const("a"), Const("b"), *_chain_vars]
    for _ in range(draw(st.integers(1, 10))):
        args = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        pool.append(Compound(draw(st.sampled_from("fgh")), tuple(args)))
    return pool


@st.composite
def _acyclic_substs(draw, pool):
    """Substitutions over _chain_vars that bind each variable, or not, to
    a pool term holding only later variables: no cycle, and chains such
    as X -> Y -> f(Z) arise."""
    s = {}
    for i, v in enumerate(_chain_vars):
        later = {w.id for w in _chain_vars[i + 1:]}
        targets = [t for t in pool if var_ids(t) <= later]
        if draw(st.booleans()):
            s[v.id] = draw(st.sampled_from(targets))
    return s


@settings(max_examples=300)
@given(st.data())
def test_apply_and_occurs_match_the_walking_oracles(data):
    # several substitutions over one pool of shared compounds: every call
    # after the first reads the variables each compound has cached
    pool = data.draw(_shared_terms())
    for _ in range(data.draw(st.integers(1, 4))):
        s = data.draw(_acyclic_substs(pool))
        for t in pool:
            out, want = apply(s, t), walking_apply(s, t)
            assert out == want
            assert (out is t) == (want is t)
            if s.keys().isdisjoint(var_ids(t)):
                assert out is t
            for v in _chain_vars:
                assert _occurs(v.id, t, s) == walking_occurs(v.id, t, s)


_key_names = ["a", "b", "ab", "f", "g", "fg", "n0"]
_key_vars = [Var(-1, "X"), Var(-2, "Y"), Var(-3, "Z"), Var(-4, "W")]
# a renaming binds every _key_var to one of these, so apply makes no chain
_key_targets = [Var(-5, "P"), Var(-6, "Q"), Var(-7, "R"), Var(-8, "S")]


@st.composite
def _key_vectors(draw):
    """Argument vectors over a pool of terms in which each compound takes
    its arguments from the terms before it, as _shared_terms builds it,
    over identifier names.  Each vector is drawn under a renaming of the
    variables that may merge some, so vectors alike up to renaming, and
    alike but for which variables repeat, both arise."""
    names = st.sampled_from(_key_names)
    pool = [Const(draw(names)), Const(draw(names)), *_key_vars]
    for _ in range(draw(st.integers(1, 8))):
        args = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        pool.append(Compound(draw(names), tuple(args)))
    vectors = []
    for _ in range(draw(st.integers(2, 6))):
        vector = draw(st.lists(st.sampled_from(pool), max_size=3))
        s = {v.id: draw(st.sampled_from(_key_targets)) for v in _key_vars}
        vectors.append(tuple(apply(s, t) for t in vector))
    return vectors


@settings(max_examples=400)
@given(_key_vectors())
def test_variant_key_partitions_vectors_as_canonical_text_does(vectors):
    for v1, v2 in itertools.product(vectors, repeat=2):
        assert ((variant_key(v1) == variant_key(v2))
                == (canonical_text(v1) == canonical_text(v2))), (v1, v2)


def test_compound_keeps_the_dataclass_contract():
    # Compound is a slotted class, Var, Const, Edge and the provenances
    # slotted dataclasses that are not frozen; each compares, hashes and
    # prints as the frozen dataclass it replaced
    x = fresh_var("X")
    t = Compound("f", (x, Const("a")))
    assert t == Compound(functor="f", args=(x, Const("a")))
    assert t != Compound("g", (x, Const("a")))
    assert t != ("f", (x, Const("a")))
    assert hash(t) == hash(("f", (x, Const("a"))))
    assert repr(t) == f"f({x!r},a)"
    with pytest.raises(ValueError):
        Compound("f", ())
    # a variable is its id: the name is for display only
    assert Var(7, "X") == Var(7, "Y") == Var(id=7)
    assert Var(7, "X") != Var(8, "X")
    assert Var(7) != (7,) and Var(7).name == "_"
    assert hash(Var(7, "X")) == hash(Var(7, "Y")) == hash((7,))
    assert repr(Var(7, "X")) == "X#7"
    assert Const("a") == Const(name="a") != Const("b")
    assert Const("a") != "a" and Const("a") != Var(7, "a")
    assert hash(Const("a")) == hash(("a",))
    assert repr(Const("a")) == "a"
    # an edge compares every field but its rendered texts, which reading
    # args_text fills
    fields = (3, "np", (x, Compound("g", (x,))), 1, 2, 4, InputWord())
    e = Edge(*fields)
    assert e == Edge(*fields) and hash(e) == hash(fields)
    assert e != Edge(4, *fields[1:]) and e != fields
    assert repr(e) == "np(V0,g(V0),1,2)"
    assert e.arg_texts == ("V0", "g(V0)") and e.args_text == "V0,g(V0)"
    assert e == Edge(*fields) and hash(e) == hash(fields)
    assert repr(Edge(0, "s", (), 0, 1, 1, InputWord())) == "s(0,1)"
    # and so do the provenance records
    assert Derived(2, (0, 1)) == Derived(2, (0, 1)) != Derived(2, (1, 0))
    assert hash(Derived(2, (0, 1))) == hash((2, (0, 1)))
    assert InputWord() == InputWord() and hash(InputWord()) == hash(())


@given(_named_terms)
def test_parse_term_reads_canonical_text(t):
    text = canonical_text(t)
    assert canonical_text(parse_term(text)) == text


@given(_terms, _terms)
@settings(max_examples=300)
def test_unify_soundness(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        assert apply(s, t1) == apply(s, t2)


@given(_terms)
def test_is_variant_reflexive(t):
    assert is_variant(t, t)


@given(_terms)
def test_is_variant_symmetric_with_renaming(t):
    r = rename_fresh(t)
    assert is_variant(t, r)
    assert is_variant(r, t)


@given(_terms)
def test_is_variant_transitive_through_renamings(t):
    r1 = rename_fresh(t)
    r2 = rename_fresh(r1)
    assert is_variant(t, r1) and is_variant(r1, r2)
    assert is_variant(t, r2)


@given(_terms, _terms)
def test_variant_matches_canonical_text(t1, t2):
    assert is_variant(t1, t2) == (canonical_text(t1) == canonical_text(t2))


@given(_terms)
def test_occurs_check_under_any_wrapper(t):
    x = fresh_var("X")
    wrapped = Compound("f", (t, x))
    assert unify(x, wrapped) is None


@given(_terms, _terms, st.sampled_from(["and", "or", "but"]))
@settings(max_examples=300)
def test_c_unify_total_and_sound(t1, t2, conn):
    r, s = c_unify(t1, t2, conn)
    assert r is not None
    u = unify(t1, t2)
    if u is not None:
        assert is_variant(r, apply(u, t1))


@given(_terms)
def test_c_unify_identity_law(t):
    r, s = c_unify(t, t, "and")
    assert r == t
    assert len(s) == 0


@given(st.lists(_terms, min_size=1, max_size=4), st.data())
def test_abstract_roundtrip_random(args, data):
    args = tuple(args)
    idx = data.draw(st.integers(min_value=1, max_value=len(args)))
    new_args, v = abstract_over(args, idx)
    s = unify(v, args[idx - 1])
    assert s is not None
    assert tuple(apply(s, a) for a in new_args) == args
    assert is_variant_seq(args, args)


def test_unify_agrees_with_ground_enumeration_sample():
    rng = random.Random(20240817)
    for _ in range(2000):
        t1, t2 = gen_pair(rng)
        assert (unify(t1, t2) is not None) == has_common_ground_instance(t1, t2), \
            f"disagreement on {t1!r} ~ {t2!r}"
