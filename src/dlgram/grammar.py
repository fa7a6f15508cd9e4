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

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Optional, Union

from .terms import Compound, Const, Term, Var, fresh_var, to_text

DEFAULT_CONNECTIVES = ("and", "or", "but")


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
    def join_template(self) -> tuple:
        """How closure and rightward prediction seat the rule, worked out
        once: (items, variables).

        items has one entry per body item: None for a terminal, else
        (firsts, rest_at, rest).  firsts are the (position, variable id)
        pairs whose argument is the first occurrence of a rule variable
        in body order; rest_at are the other positions and rest their
        rule terms.  variables is every (id, name) of the rule, the
        head-only ones included.
        """
        return _join_template(self.body, self.head)

    @cached_property
    def reversed_join_template(self) -> tuple:
        """join_template over the reversed body, the order in which
        leftward prediction seats it: items run from the last body item
        to the first, and a first occurrence is first in that order."""
        return _join_template(self.body[::-1], self.head)

    @cached_property
    def seat_keys(self) -> tuple:
        """The seat_key of each body item, in body order."""
        return tuple(map(seat_key, self.body))


def _join_template(body: tuple, head: NonTerminal) -> tuple:
    """Rule.join_template of a body taken in the given order."""
    seen: dict = {}  # variable id -> name, in order of occurrence
    items = []
    for it in body:
        if isinstance(it, Terminal):
            items.append(None)
            continue
        firsts, rest_at, rest = [], [], []
        for k, a in enumerate(it.args):
            if isinstance(a, Var) and a.id not in seen:
                firsts.append((k, a.id))
            else:
                rest_at.append(k)
                rest.append(a)
            _note_vars(a, seen)
        items.append((tuple(firsts), tuple(rest_at), tuple(rest)))
    for a in head.args:
        _note_vars(a, seen)
    return tuple(items), tuple(seen.items())


def _note_vars(t: Term, seen: dict) -> None:
    """Record the variables of t in seen, left to right."""
    if isinstance(t, Var):
        seen.setdefault(t.id, t.name)
    elif isinstance(t, Compound):
        for a in t.args:
            _note_vars(a, seen)


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
    category_arities: dict = field(default_factory=dict)
    # head category -> its rules, in grammar order
    _by_head: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_head: dict = {}
        for r in self.rules:
            by_head.setdefault(r.head.category, []).append(r)
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
    def left_corner_cycles(self) -> dict:
        """Each category that reaches itself through first body items,
        mapped to the members of its cycle: where rightward prediction
        can meet its own subgoal again."""
        return _cycles((r.head.category, r.body[0].category)
                       for r in self.rules
                       if isinstance(r.body[0], NonTerminal))

    @cached_property
    def right_corner_cycles(self) -> dict:
        """Each category that reaches itself through last body items,
        mapped to the members of its cycle: where leftward prediction can
        meet its own subgoal again."""
        return _cycles((r.head.category, r.body[-1].category)
                       for r in self.rules
                       if isinstance(r.body[-1], NonTerminal))

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

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    ",": "COMMA", ".": "DOT", "@": "AT",
}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str):
    toks = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("-->", i):
            toks.append(_Tok("ARROW", "-->", line, col))
            i += 3
            col += 3
            continue
        if c in _PUNCT:
            toks.append(_Tok(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "VAR" if (text[0].isupper() or text[0] == "_") else "IDENT"
            toks.append(_Tok(kind, text, line, col))
            col += i - start
            continue
        if "0" <= c <= "9":  # ASCII only: int() reads other digits too
            start = i
            while i < n and "0" <= source[i] <= "9":
                i += 1
            toks.append(_Tok("NUMBER", source[start:i], line, col))
            col += i - start
            continue
        raise GrammarSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


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

    def parse_term(self, varmap: dict) -> Term:
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
            self.next()
            args = [self.parse_term(varmap)]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term(varmap))
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


def parse_grammar(source: str, strict: bool = True) -> Grammar:
    """Parse grammar source into a Grammar.

    Directives are folded into the fields, with defaults for the ones
    omitted.  A @conj directive naming a category with no rules raises
    GrammarError.  With strict=True (the default), error-severity
    diagnostics from validation raise it too, listed first.
    """
    p = _Parser(source)
    rules = []
    directives: dict = {}
    scope_args: dict = {}
    quantifiers: list = []
    connectives: list = []
    conj_line = None  # line of the @conj directive

    while p.peek().kind != "EOF":
        t = p.peek()
        if t.kind == "AT":
            p.next()
            name_tok = p.expect("IDENT")
            name = name_tok.text
            if name in ("start", "conj"):
                val = p.expect("IDENT").text
                if name in directives:
                    raise GrammarSyntaxError(
                        f"duplicate @{name} directive", name_tok.line, name_tok.col)
                directives[name] = val
                if name == "conj":
                    conj_line = name_tok.line
            elif name == "scope":
                cat = p.expect("IDENT").text
                pos_tok = p.expect("NUMBER")
                if cat in scope_args:
                    raise GrammarSyntaxError(
                        f"duplicate @scope directive for {cat}", name_tok.line, name_tok.col)
                scope_args[cat] = int(pos_tok.text)
            elif name == "quant":
                functor = p.expect("IDENT").text
                if functor in quantifiers:
                    raise GrammarSyntaxError(
                        f"duplicate @quant directive for {functor}", name_tok.line, name_tok.col)
                quantifiers.append(functor)
            elif name == "connective":
                atom = p.expect("IDENT").text
                if atom in connectives:
                    raise GrammarSyntaxError(
                        f"duplicate @connective directive for {atom}", name_tok.line, name_tok.col)
                connectives.append(atom)
            else:
                raise GrammarSyntaxError(
                    f"unknown directive @{name}", name_tok.line, name_tok.col)
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
        if not body:
            raise GrammarSyntaxError("empty rule body", t.line, t.col)
        rules.append(Rule(len(rules), head, tuple(body), line=t.line))

    if not rules:
        raise GrammarError("a grammar needs at least one rule")

    arities: dict = {}
    for r in rules:
        arities.setdefault(r.head.category, len(r.head.args))
        for it in r.body:
            if isinstance(it, NonTerminal):
                arities.setdefault(it.category, len(it.args))

    g = Grammar(
        rules=tuple(rules),
        start=directives.get("start", rules[0].head.category),
        conj_category=directives.get("conj", "conj"),
        scope_args=scope_args,
        quantifiers=tuple(quantifiers),
        connectives=tuple(connectives) if connectives else DEFAULT_CONNECTIVES,
        category_arities=arities,
    )

    errors = [d for d in validate(g) if d.severity == "error"] if strict else []
    if conj_line is not None and not g.rules_for(g.conj_category):
        errors.append(Diagnostic(
            "error",
            f"conjunction directive names unknown category {g.conj_category}",
            conj_line))
    if errors:
        raise GrammarError(
            "; ".join(str(d) for d in errors), diagnostics=errors)
    return g


def validate(g: Grammar) -> list:
    """Diagnostics for every Grammar invariant violation.  Pure."""
    diags = []
    heads = {r.head.category for r in g.rules}

    # arities at first use, in rule order (parse_grammar builds the table)
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
