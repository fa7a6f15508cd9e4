"""Grammar files: parsing, validation, and the Grammar container.

File format (one statement per line group, terminated by "."):

    % comment until end of line
    @start sent.            @conj conj.
    @scope np 2.            @quant exists.        @connective and.
    sent(Sem) --> np(X,Scope,Sem), vp(X,Scope).
    noun(X,window(X)) --> [window].

Heads and body nonterminals carry first-order term arguments sharing one
variable namespace per rule; terminals are bracketed lowercase words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import NamedTuple, Optional, Union

from .terms import Compound, Const, Term, fresh_var, to_text

DEFAULT_CONNECTIVES = ("and", "or", "but")

# where engine keeps a rule's kernels in the rule's __dict__, by build
# order: body order, then reversed
KERNEL_ATTRS = ("kernel", "leftward_kernel")


@dataclass(frozen=True)
class Terminal:
    token: str

    @cached_property
    def word(self) -> Const:
        """The token as its input edge's argument, 'D'(word, i, i+1)."""
        return Const(self.token)


@dataclass(frozen=True)
class NonTerminal:
    category: str
    args: tuple = ()


RuleItem = Union[Terminal, NonTerminal]


def seat_key(item: RuleItem):
    """The key under which the chart files the edges that can seat a
    body item: a terminal's token as its input edge's argument (a Const),
    a nonterminal's category (a str).  A Const never equals a str, so a
    token that spells a category name never meets that category's key."""
    return item.word if isinstance(item, Terminal) else item.category


@dataclass(frozen=True)
class Rule:
    id: int
    head: NonTerminal
    body: tuple
    line: int = 0

    @cached_property
    def is_lexical(self) -> bool:
        return all(isinstance(it, Terminal) for it in self.body)

    @cached_property
    def seat_keys(self) -> tuple:
        """The seat_key of each body item, in body order."""
        return tuple(map(seat_key, self.body))

    def __getstate__(self) -> dict:
        """The rule's state for pickling, without the kernels that engine
        keeps beside the cached properties (KERNEL_ATTRS): compiled
        functions, which cannot be pickled and are compiled again on
        first use."""
        return {k: v for k, v in self.__dict__.items()
                if k not in KERNEL_ATTRS}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: Optional[int] = None

    def __str__(self):
        where = f" (line {self.line})" if self.line else ""
        return f"{self.severity}: {self.message}{where}"


class GrammarError(Exception):
    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class GrammarSyntaxError(GrammarError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass
class Grammar:
    """Validated rule set plus the declarations coordination needs.

    Immutable by convention after parse_grammar; freely shareable.
    """

    rules: tuple = ()
    start: str = ""
    conj_category: str = "conj"
    scope_args: dict = field(default_factory=dict)
    quantifiers: tuple = ()
    connectives: tuple = DEFAULT_CONNECTIVES
    # category -> its number of arguments at first use, in rule order
    category_arities: dict = field(init=False)
    # head category -> its rules, in grammar order
    _by_head: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arities: dict = {}
        by_head: dict = {}
        for r in self.rules:
            arities.setdefault(r.head.category, len(r.head.args))
            for it in r.body:
                if isinstance(it, NonTerminal):
                    arities.setdefault(it.category, len(it.args))
            by_head.setdefault(r.head.category, []).append(r)
        self.category_arities = arities
        self._by_head = {cat: tuple(rs) for cat, rs in by_head.items()}

    def rules_for(self, category: str) -> tuple:
        return self._by_head.get(category, ())

    @cached_property
    def _rules_by_seat_key(self) -> dict:
        """seat key -> positions in rules of the rules with a body item
        of that key, ascending."""
        index: dict = {}
        for i, r in enumerate(self.rules):
            for key in dict.fromkeys(r.seat_keys):
                index.setdefault(key, []).append(i)
        return index

    def rules_seating(self, keys) -> list:
        """The rules with a body item whose seat key is among keys, in
        grammar order: the only rules closure joins in a round whose
        newest edges have these keys."""
        by_key = self._rules_by_seat_key
        found: set = set()
        for key in keys:
            found.update(by_key.get(key, ()))
        return [self.rules[i] for i in sorted(found)]

    @cached_property
    def corner_cycles(self) -> tuple:
        """Where prediction can meet its own subgoal again, per build
        order (body order, then reversed): each category that reaches
        itself through first body items in that order, mapped to the
        members of its cycle."""
        return tuple(_cycles((r.head.category, r.body[end].category)
                             for r in self.rules
                             if isinstance(r.body[end], NonTerminal))
                     for end in (0, -1))

    def arity(self, category: str) -> int:
        return self.category_arities.get(category, 0)


def _cycles(links) -> dict:
    """Each category that reaches itself along the (from, to) category
    links, mapped to the members of its cycle, sorted."""
    graph: dict = {}
    for a, b in links:
        graph.setdefault(a, set()).add(b)
    reach: dict = {}
    for a in graph:
        seen: set = set()
        todo = [a]
        while todo:
            for b in graph.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        reach[a] = seen
    return {a: tuple(sorted(b for b in seen if a in reach.get(b, ())))
            for a, seen in reach.items() if a in seen}


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token kind, tried in this order at each position.
# \s is str.isspace() and \w is str.isalnum() or "_", code point by code
# point; a NAME must start with a letter or "_", so one that starts with
# any other \w character is unexpected, as is a BAD one.
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n) | (?P<SKIP>[^\S\n]+) | (?P<COMMENT>%[^\n]*)
  | (?P<ARROW>-->) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACK>\[)
  | (?P<RBRACK>\]) | (?P<COMMA>,) | (?P<DOT>\.) | (?P<AT>@)
  | (?P<NUMBER>[0-9]+)  # ASCII only: int() reads other digits too
  | (?P<NAME>\w+) | (?P<BAD>.)
""", re.VERBOSE)


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str):
    toks = []
    kind, line, line_start = None, 1, 0
    for m in _TOKEN.finditer(source):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NAME" and (text[0].isalpha() or text[0] == "_"):
            kind = "VAR" if text[0].isupper() or text[0] == "_" else "IDENT"
        if kind == "NAME" or kind == "BAD":
            raise GrammarSyntaxError(f"unexpected character {text[0]!r}", line, col)
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind != "SKIP" and kind != "COMMENT":
            toks.append(_Tok(kind, text, line, col))
    # the end of input, or the start of the comment the input ends in
    end = m.start() if kind == "COMMENT" else len(source)
    toks.append(_Tok("EOF", "", line, end - line_start + 1))
    return toks


# Most compounds one term may nest, the outermost included.  Terms are
# read, summarised, applied and rendered by recursion, one or two Python
# frames per level, so a deeper term would end in a RecursionError.
MAX_TERM_DEPTH = 256


class _Parser:
    def __init__(self, source: str):
        self.toks = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise GrammarSyntaxError(
                f"expected {kind}, found {t.text!r}", t.line, t.col)
        return self.next()

    def parse_term(self, varmap: dict, depth: int = 1) -> Term:
        """Read one term; depth counts the compounds it is nested in,
        itself included, up to MAX_TERM_DEPTH."""
        t = self.next()
        if t.kind == "VAR":
            if t.text == "_":
                return fresh_var("_")
            if t.text not in varmap:
                varmap[t.text] = fresh_var(t.text)
            return varmap[t.text]
        if t.kind != "IDENT":
            raise GrammarSyntaxError(f"expected a term, found {t.text!r}", t.line, t.col)
        if self.peek().kind == "LPAREN":
            if depth > MAX_TERM_DEPTH:
                raise GrammarSyntaxError(
                    f"term nested more than {MAX_TERM_DEPTH} deep",
                    t.line, t.col)
            self.next()
            args = [self.parse_term(varmap, depth + 1)]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term(varmap, depth + 1))
            self.expect("RPAREN")
            return Compound(t.text, tuple(args))
        return Const(t.text)

    def parse_nonterminal(self, varmap: dict) -> NonTerminal:
        """A category with optional arguments, read as a non-variable term."""
        if self.peek().kind != "IDENT":
            self.expect("IDENT")  # raises "expected IDENT, found ..."
        t = self.parse_term(varmap)
        if isinstance(t, Compound):
            return NonTerminal(t.functor, t.args)
        return NonTerminal(t.name)


def parse_term(text: str, varmap: Optional[dict] = None) -> Term:
    """Read one term in grammar-file syntax.

    Occurrences of the same variable name share one Var within a call
    (or across calls when a varmap is supplied); a bare "_" is fresh at
    every occurrence.  Raises GrammarSyntaxError.
    """
    p = _Parser(text)
    t = p.parse_term({} if varmap is None else varmap)
    p.expect("EOF")
    return t


# directive -> the token kinds of its arguments
_DIRECTIVES = {"start": ("IDENT",), "conj": ("IDENT",),
               "scope": ("IDENT", "NUMBER"), "quant": ("IDENT",),
               "connective": ("IDENT",)}
# the directives declared once per name their first argument gives; the
# others are declared once per grammar
_PER_NAME = ("scope", "quant", "connective")


def parse_grammar(source: str, strict: bool = True) -> Grammar:
    """Parse grammar source into a Grammar.

    Directives are folded into the fields, with defaults for the ones
    omitted.  A @conj directive naming a category with no rules raises
    GrammarError.  With strict=True (the default), error-severity
    diagnostics from validation raise it too, listed first.
    """
    p = _Parser(source)
    rules = []
    # directive -> {the name it declares, or None: (last argument, line)}
    declared: dict = {name: {} for name in _DIRECTIVES}

    while p.peek().kind != "EOF":
        t = p.peek()
        if t.kind == "AT":
            p.next()
            name_tok = p.expect("IDENT")
            name = name_tok.text
            if name not in _DIRECTIVES:
                raise GrammarSyntaxError(
                    f"unknown directive @{name}", name_tok.line, name_tok.col)
            args = [p.expect(kind).text for kind in _DIRECTIVES[name]]
            key = args[0] if name in _PER_NAME else None
            if key in declared[name]:
                what = "" if key is None else f" for {key}"
                raise GrammarSyntaxError(f"duplicate @{name} directive{what}",
                                         name_tok.line, name_tok.col)
            declared[name][key] = args[-1], name_tok.line
            p.expect("DOT")
            continue

        varmap: dict = {}
        head = p.parse_nonterminal(varmap)
        p.expect("ARROW")
        body = []
        while True:
            it = p.peek()
            if it.kind == "LBRACK":
                p.next()
                word = p.expect("IDENT")
                p.expect("RBRACK")
                body.append(Terminal(word.text))
            else:
                body.append(p.parse_nonterminal(varmap))
            if p.peek().kind == "COMMA":
                p.next()
                continue
            break
        p.expect("DOT")
        rules.append(Rule(len(rules), head, tuple(body), line=t.line))

    if not rules:
        raise GrammarError("a grammar needs at least one rule")

    start, conj = (declared[name].get(None) for name in ("start", "conj"))
    g = Grammar(
        rules=tuple(rules),
        start=start[0] if start else rules[0].head.category,
        conj_category=conj[0] if conj else "conj",
        scope_args={cat: int(n) for cat, (n, _) in declared["scope"].items()},
        quantifiers=tuple(declared["quant"]),
        connectives=tuple(declared["connective"]) or DEFAULT_CONNECTIVES,
    )

    errors = [d for d in validate(g) if d.severity == "error"] if strict else []
    if conj is not None and not g.rules_for(g.conj_category):
        errors.append(Diagnostic(
            "error",
            f"conjunction directive names unknown category {g.conj_category}",
            conj[1]))
    if errors:
        raise GrammarError(
            "; ".join(str(d) for d in errors), diagnostics=errors)
    return g


def validate(g: Grammar) -> list:
    """Diagnostics for every Grammar invariant violation.  Pure."""
    diags = []
    heads = {r.head.category for r in g.rules}

    # arities at first use, in rule order (Grammar builds the table)
    arities = g.category_arities
    for r in g.rules:
        uses = [(r.head.category, len(r.head.args))]
        uses += [(it.category, len(it.args))
                 for it in r.body if isinstance(it, NonTerminal)]
        for cat, ar in uses:
            if arities[cat] != ar:
                diags.append(Diagnostic(
                    "error", f"arity conflict {cat}: used at {arities[cat]} and {ar}",
                    r.line))

    for r in g.rules:
        for it in r.body:
            if isinstance(it, NonTerminal):
                if it.category not in heads and it.category != g.conj_category:
                    diags.append(Diagnostic(
                        "error", f"undefined category {it.category}", r.line))

    if g.start and g.start not in heads:
        diags.append(Diagnostic("error", f"start category {g.start} has no rules"))

    for cat, pos in g.scope_args.items():
        if cat not in arities:
            diags.append(Diagnostic("error", f"scope directive for unknown category {cat}"))
        elif not 1 <= pos <= arities[cat]:
            diags.append(Diagnostic(
                "error",
                f"scope position {pos} out of range for {cat}/{arities[cat]}"))

    if g.conj_category in arities and arities[g.conj_category] != 1:
        diags.append(Diagnostic(
            "error",
            f"conjunction category {g.conj_category} must carry exactly one "
            f"argument, the connective constant"))
    for r in g.rules:
        if (r.head.category == g.conj_category and len(r.head.args) == 1
                and not isinstance(r.head.args[0], Const)):
            diags.append(Diagnostic(
                "error",
                f"conjunction {_item_text(r.head)} must name a constant "
                f"connective", r.line))

    units = [r for r in g.rules
             if len(r.body) == 1 and isinstance(r.body[0], NonTerminal)]
    unit_cycles = _cycles((r.head.category, r.body[0].category) for r in units)
    for r in units:
        if r.body[0].category in unit_cycles.get(r.head.category, ()):
            diags.append(Diagnostic(
                "warning", f"unit cycle on {r.head.category}", r.line))

    # dedupe identical diagnostics from repeated uses
    seen = set()
    out = []
    for d in diags:
        key = (d.severity, d.message)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def _item_text(it: RuleItem) -> str:
    if isinstance(it, Terminal):
        return f"[{it.token}]"
    if it.args:
        return f"{it.category}({','.join(to_text(a) for a in it.args)})"
    return it.category


def grammar_text(g: Grammar) -> str:
    """Render a Grammar back to file syntax (round-trips through
    parse_grammar up to rule ids and variable renaming)."""
    lines = [f"@start {g.start}.", f"@conj {g.conj_category}."]
    for cat, pos in g.scope_args.items():
        lines.append(f"@scope {cat} {pos}.")
    for q in g.quantifiers:
        lines.append(f"@quant {q}.")
    if g.connectives != DEFAULT_CONNECTIVES:
        for c in g.connectives:
            lines.append(f"@connective {c}.")
    lines.append("")
    for r in g.rules:
        body = ", ".join(_item_text(it) for it in r.body)
        lines.append(f"{_item_text(r.head)} --> {body}.")
    return "\n".join(lines) + "\n"


def load_grammar(path, strict: bool = True) -> Grammar:
    with open(path, encoding="utf-8") as f:
        return parse_grammar(f.read(), strict=strict)


def builtin_grammar(name: str) -> Grammar:
    """Load one of the grammars shipped with the package
    ("english_sem" or "french_syn")."""
    text = (resources.files("dlgram") / "grammars" / f"{name}.dlg").read_text("utf-8")
    return parse_grammar(text)
