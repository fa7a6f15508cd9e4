"""Post-parse rewriting of logical forms.

Two built-in rewrites:

  distrib   Q(X, C(R1,R2), S)  ->  C(Q(X,R1,S), Q(X,R2,S))
            for every declared quantifier Q and connective C, duplicating
            the scope S verbatim so shared variables stay shared.

  too       but(if(P1,C1), if(too(P2),C2))
            ->  and(if(and(P1,no(P2)),C1), if(and(P1,P2),C2))

Rules apply innermost-first to fixpoint.  Reshaping is a separate,
optional phase on final logical forms; it never runs mid-parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .grammar import Grammar
from .terms import Compound, Const, Term, Var, fresh_var

# rewrite steps one reshape may take before it gives up on a fixpoint
REWRITE_STEP_CAP = 1000


class RewriteLimitError(RuntimeError):
    """Raised when rewriting does not reach a fixpoint within the cap."""


@dataclass(frozen=True)
class RewriteRule:
    name: str
    pattern: Term
    template: Term


def _match(pattern: Term, subject: Term, bindings: dict) -> Optional[dict]:
    """One-way matching: pattern variables bind to subject subterms;
    subject variables only match themselves."""
    if isinstance(pattern, Var):
        bound = bindings.get(pattern.id)
        if bound is None:
            bindings[pattern.id] = subject
            return bindings
        return bindings if bound == subject else None
    if isinstance(pattern, Const):
        return bindings if pattern == subject else None
    if (isinstance(subject, Compound) and pattern.functor == subject.functor
            and len(pattern.args) == len(subject.args)):
        for p, s in zip(pattern.args, subject.args):
            if _match(p, s, bindings) is None:
                return None
        return bindings
    return None


def _fill(template: Term, bindings: dict) -> Term:
    if isinstance(template, Var):
        return bindings[template.id]
    if isinstance(template, Compound):
        return Compound(template.functor,
                        tuple(_fill(a, bindings) for a in template.args))
    return template


def distribution_rules(grammar: Grammar) -> tuple:
    """One rule per (quantifier, connective) pair."""
    rules = []
    for q in grammar.quantifiers:
        for c in grammar.connectives:
            x, r1, r2, s = (fresh_var(n) for n in ("X", "R1", "R2", "S"))
            rules.append(RewriteRule(
                name=f"distrib:{q}/{c}",
                pattern=Compound(q, (x, Compound(c, (r1, r2)), s)),
                template=Compound(c, (Compound(q, (x, r1, s)),
                                      Compound(q, (x, r2, s)))),
            ))
    return tuple(rules)


def too_rule() -> RewriteRule:
    p1, c1, p2, c2 = (fresh_var(n) for n in ("P1", "C1", "P2", "C2"))
    return RewriteRule(
        name="too",
        pattern=Compound("but", (
            Compound("if", (p1, c1)),
            Compound("if", (Compound("too", (p2,)), c2)))),
        template=Compound("and", (
            Compound("if", (Compound("and", (p1, Compound("no", (p2,)))), c1)),
            Compound("if", (Compound("and", (p1, p2)), c2)))),
    )


def _normalize(t: Term, rules: Sequence[RewriteRule]) -> Term:
    """Rewrite innermost-first to fixpoint: the arguments left to right,
    then the root, and a rewritten term afresh.  The work list is explicit,
    so a rule that nests its left side stops at REWRITE_STEP_CAP rewrites,
    not at Python's recursion limit."""
    todo: list = [t]  # terms; (functor, arity) below a compound's args
    done: list = []  # normal forms
    steps = 0
    while todo:
        t = todo.pop()
        if isinstance(t, Compound):
            todo.append((t.functor, len(t.args)))
            todo.extend(reversed(t.args))
            continue
        if isinstance(t, tuple):  # the arguments are normal: rebuild
            functor, arity = t
            t = Compound(functor, tuple(done[-arity:]))
            del done[-arity:]
        for rule in rules:
            b = _match(rule.pattern, t, {})
            if b is not None:
                steps += 1
                if steps > REWRITE_STEP_CAP:
                    raise RewriteLimitError(
                        f"rewriting exceeded {REWRITE_STEP_CAP} steps; the "
                        f"rule set probably does not terminate")
                todo.append(_fill(rule.template, b))
                break
        else:
            done.append(t)
    return done[0]


def reshape(t: Term, grammar: Grammar,
            enabled: Iterable[str] = ("distrib",)) -> Term:
    """Apply the enabled rewrite rules innermost-first to fixpoint."""
    enabled = set(enabled)
    rules: list = []
    if "distrib" in enabled:
        rules.extend(distribution_rules(grammar))
    if "too" in enabled:
        rules.append(too_rule())
    if not rules:
        return t
    return _normalize(t, rules)
