import pytest

from dlgram.grammar import (Diagnostic, GrammarError, GrammarSyntaxError,
                            NonTerminal, Terminal, _tokenize, grammar_text,
                            parse_grammar, validate)
from dlgram.terms import Compound, Var, is_variant_seq


def test_lexical_rule():
    g = parse_grammar("noun(X, window(X)) --> [window].")
    r = g.rules[0]
    assert r.head.category == "noun"
    assert len(r.head.args) == 2
    assert isinstance(r.head.args[0], Var)
    assert r.head.args[1] == Compound("window", (r.head.args[0],))
    assert r.body == (Terminal("window"),)
    assert r.is_lexical


def test_scope_directive_folding():
    g = parse_grammar("""
        @scope np 2.
        np(X,Scope,Sem) --> name(X).
        name(john) --> [john].
    """)
    assert g.scope_args["np"] == 2


def test_defaults():
    g = parse_grammar("s --> [a].")
    assert g.start == "s"
    assert g.conj_category == "conj"
    assert g.connectives == ("and", "or", "but")
    assert g.quantifiers == ()
    assert g.scope_args == {}


def test_directives_override_defaults():
    g = parse_grammar("""
        @start top.
        @conj cc.
        @quant forall.
        @connective et.
        top --> [z].
        cc(et) --> [et].
    """)
    assert g.start == "top"
    assert g.conj_category == "cc"
    assert g.quantifiers == ("forall",)
    assert g.connectives == ("et",)


def test_unit_cycle_is_warning_not_error():
    g = parse_grammar("vp(X) --> vp(X).\nvp(X) --> [ran].")
    diags = validate(g)
    assert any(d.severity == "warning" and "unit cycle" in d.message for d in diags)
    assert not any(d.severity == "error" for d in diags)
    # a cycle through other categories' one-item bodies warns once per
    # category on it, not for the unit rule off the cycle
    g = parse_grammar("a --> b.\nb --> a.\nb --> c.\na --> [x].\n"
                      "c --> [y].\nb --> a.")
    diags = validate(g)
    assert [str(d) for d in diags] == ["warning: unit cycle on a (line 1)",
                                       "warning: unit cycle on b (line 2)"]


def test_undefined_category():
    g = parse_grammar("np --> det, adj.\ndet --> [the].", strict=False)
    diags = validate(g)
    assert any(d.severity == "error" and "undefined category adj" in d.message
               for d in diags)
    with pytest.raises(GrammarError):
        parse_grammar("np --> det, adj.\ndet --> [the].")


def test_arity_conflict():
    src = "np(X,Y,Z) --> det(X).\nnp(A,B) --> det(A).\ndet(X) --> [the]."
    g = parse_grammar(src, strict=False)
    diags = validate(g)
    assert any(d.severity == "error" and "arity conflict np" in d.message
               for d in diags)


def test_conj_category_needs_one_argument():
    g = parse_grammar("s --> [a].\nconj(X,Y) --> [and].", strict=False)
    assert any("exactly one" in d.message for d in validate(g)
               if d.severity == "error")


def test_conj_argument_must_be_constant():
    for conj in ("conj(X)", "conj(f(X))"):
        g = parse_grammar(f"s --> [a].\n{conj} --> [and].", strict=False)
        assert [d.message for d in validate(g) if d.severity == "error"] == [
            f"conjunction {conj} must name a constant connective"]
        with pytest.raises(GrammarError, match="constant connective"):
            parse_grammar(f"s --> [a].\n{conj} --> [and].")
    assert validate(parse_grammar("s --> [a].\nconj(and) --> [and].")) == []


def test_scope_position_out_of_range():
    src = "@scope np 5.\nnp(X) --> [it]."
    g = parse_grammar(src, strict=False)
    assert any("out of range" in d.message for d in validate(g))


def test_scope_for_unknown_category():
    src = "@scope zz 1.\nnp(X) --> [it]."
    g = parse_grammar(src, strict=False)
    assert any("unknown category zz" in d.message for d in validate(g))


def test_duplicate_directive_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("@start a.\n@start b.\na --> [x].")


@pytest.mark.parametrize("directives, message", [
    ("@start a.\n@start b.", "duplicate @start directive at line 2, column 2"),
    ("@conj c. @conj c.", "duplicate @conj directive at line 1, column 11"),
    ("@scope a 1.\n@scope b 1.\n  @scope a 1.",
     "duplicate @scope directive for a at line 3, column 4"),
    ("@quant q.\n@quant r. @quant q.",
     "duplicate @quant directive for q at line 2, column 12"),
    ("\n@connective and. @connective or.\n@connective and.",
     "duplicate @connective directive for and at line 3, column 2"),
    ("@start a.\n @frob a.", "unknown directive @frob at line 2, column 3")])
def test_directive_errors_name_the_directive_and_where(directives, message):
    # each directive may be declared once, or once per category, functor
    # or connective it names; the error points at the directive's name
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar(f"{directives}\na --> [x].")
    assert str(exc.value) == message


def test_explicit_conj_directive_must_name_a_category():
    with pytest.raises(GrammarError, match="unknown category cc"):
        parse_grammar("@conj cc.\ns --> [a].")
    # the implicit default is allowed to be absent
    assert parse_grammar("s --> [a].").conj_category == "conj"
    # reported without strict too, as duplicate directives are; strict
    # puts validate's errors first
    src = "s --> np.\n@conj cc.\nnp --> zz.\n"
    with pytest.raises(GrammarError) as exc:
        parse_grammar(src, strict=False)
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: conjunction directive names unknown category cc (line 2)"]
    with pytest.raises(GrammarError) as exc:
        parse_grammar(src)
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: undefined category zz (line 3)",
        "error: conjunction directive names unknown category cc (line 2)"]


def test_syntax_error_carries_position():
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar("np --> \n det ???.")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("src, col", [
    ("@scope s \u00b2.\ns(X) --> [a].", 10),  # superscript two
    ("@scope s 1\u0663.\ns(X) --> [a].", 11),  # Arabic-Indic three
])
def test_number_is_ascii_digits(src, col):
    # str.isdigit accepts these, and int() fails on the first and reads
    # 1\u0663 as 13
    with pytest.raises(GrammarSyntaxError, match="unexpected character") as exc:
        parse_grammar(src)
    assert (exc.value.line, exc.value.col) == (1, col)


@pytest.mark.parametrize("src, tokens, message", [
    # the end of input is reported at the first column of the comment
    # the input ends in
    ("s --> np % x",
     [("IDENT", "s", 1, 1), ("ARROW", "-->", 1, 3), ("IDENT", "np", 1, 7),
      ("EOF", "", 1, 10)],
     "expected DOT, found '' at line 1, column 10"),
    # every whitespace character counts one column; only \n ends a line
    ("s -->\tnp\r\n t",
     [("IDENT", "s", 1, 1), ("ARROW", "-->", 1, 3), ("IDENT", "np", 1, 7),
      ("IDENT", "t", 2, 2), ("EOF", "", 2, 3)],
     "expected DOT, found 't' at line 2, column 2"),
    ("a\u0085b\u3000c",
     [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 1, 5),
      ("EOF", "", 1, 6)],
     "expected ARROW, found 'b' at line 1, column 3"),
    # names are Unicode letters, digits and _; an uppercase first letter
    # makes a variable
    ("\u00e9 --> [\u00df].",
     [("IDENT", "\u00e9", 1, 1), ("ARROW", "-->", 1, 3),
      ("LBRACK", "[", 1, 7), ("IDENT", "\u00df", 1, 8),
      ("RBRACK", "]", 1, 9), ("DOT", ".", 1, 10), ("EOF", "", 1, 11)],
     None),
    ("\u0130x --> [a].",
     [("VAR", "\u0130x", 1, 1), ("ARROW", "-->", 1, 4), ("LBRACK", "[", 1, 8),
      ("IDENT", "a", 1, 9), ("RBRACK", "]", 1, 10), ("DOT", ".", 1, 11),
      ("EOF", "", 1, 12)],
     "expected IDENT, found '\u0130x' at line 1, column 1"),
    # a number is ASCII digits, and a name cannot start with one
    ("12ab",
     [("NUMBER", "12", 1, 1), ("IDENT", "ab", 1, 3), ("EOF", "", 1, 5)],
     "expected IDENT, found '12' at line 1, column 1"),
    ("-", None, "unexpected character '-' at line 1, column 1"),
    ("s -> t", None, "unexpected character '-' at line 1, column 3"),
])
def test_reader_edge_cases(src, tokens, message):
    # tokens None: the reader itself rejects src, with message
    if tokens is None:
        with pytest.raises(GrammarSyntaxError) as exc:
            _tokenize(src)
        assert str(exc.value) == message
    else:
        assert [(t.kind, t.text, t.line, t.col)
                for t in _tokenize(src)] == tokens
    if message is None:
        assert parse_grammar(src).rules[0].head.category == tokens[0][1]
    else:
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar(src)
        assert str(exc.value) == message


def test_missing_terminator():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("np --> det")


def test_anonymous_variable_is_fresh_per_occurrence():
    g = parse_grammar("pp(X) --> prep(_), np(_, X).\nprep(at) --> [at].\nnp(A,B) --> [it].")
    prep_arg = g.rules[0].body[0].args[0]
    np_arg = g.rules[0].body[1].args[0]
    assert isinstance(prep_arg, Var) and isinstance(np_arg, Var)
    assert prep_arg != np_arg


def test_comments_ignored():
    g = parse_grammar("% a comment\ns --> [a]. % trailing\n")
    assert len(g.rules) == 1


def test_rules_for_keeps_grammar_order(english, french):
    # prediction tries a category's rules in this order
    for g in (english, french):
        for cat in set(g.category_arities) | {"nothing"}:
            assert list(g.rules_for(cat)) == [
                r for r in g.rules if r.head.category == cat]


def test_shipped_grammars_validate_clean(english, french):
    assert validate(english) == []
    assert validate(french) == []


def _rules_equal(g1, g2):
    if len(g1.rules) != len(g2.rules):
        return False
    for r1, r2 in zip(g1.rules, g2.rules):
        if r1.head.category != r2.head.category:
            return False
        shape1 = [(it.token if isinstance(it, Terminal) else it.category)
                  for it in r1.body]
        shape2 = [(it.token if isinstance(it, Terminal) else it.category)
                  for it in r2.body]
        if shape1 != shape2:
            return False
        vec1 = list(r1.head.args) + [t for it in r1.body
                                     if isinstance(it, NonTerminal) for t in it.args]
        vec2 = list(r2.head.args) + [t for it in r2.body
                                     if isinstance(it, NonTerminal) for t in it.args]
        if not is_variant_seq(vec1, vec2):
            return False
    return True


@pytest.mark.parametrize("name", ["english_sem", "french_syn"])
def test_pretty_print_roundtrip(name, english, french):
    g = english if name == "english_sem" else french
    g2 = parse_grammar(grammar_text(g))
    assert _rules_equal(g, g2)
    assert g2.start == g.start
    assert g2.conj_category == g.conj_category
    assert g2.scope_args == g.scope_args
    assert g2.quantifiers == g.quantifiers
    assert g2.connectives == g.connectives


def test_validate_is_pure(english):
    assert validate(english) == validate(english)


def test_roundtrip_with_custom_directives():
    src = """
        @start top.
        @conj cc.
        @scope top 1.
        @quant forall.
        @connective et.
        @connective ou.
        top(X) --> [z].
        cc(et) --> [et].
    """
    g = parse_grammar(src)
    g2 = parse_grammar(grammar_text(g))
    assert _rules_equal(g, g2)
    assert (g2.start, g2.conj_category) == ("top", "cc")
    assert g2.scope_args == {"top": 1}
    assert g2.quantifiers == ("forall",)
    assert g2.connectives == ("et", "ou")
