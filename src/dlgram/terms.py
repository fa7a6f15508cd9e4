"""First-order terms and the symbolic operations everything else is built on.

Terms are immutable trees of variables, constants, and compounds, so
subterms can be shared; all three are immutable by contract.  On first
use a Compound summarises itself in one walk that reads its arguments'
summaries, so a subterm shared by many terms is summarised once: the
ids of the variables under it, and its part of the structural variant
key (variant_key).  apply returns a compound itself, without
descending, when no key of the substitution is among those ids, and
the occurs check answers by membership when nothing under the term is
bound.

A substitution is a plain dict from variable id to term.  unify never
mutates the one it is given but returns a new dict, so abandoning a
failed search branch is just dropping the value, never undoing
mutations; a caller that owns a dict (engine._instantiate, whose
bindings never leave the call, or a copy engine.predict has just made)
may add bindings to it directly.
Bindings may mention other bound variables; apply resolves them to
fixpoint, and the occurs check in unify rules out cycles.

Two term vectors have equal variant keys exactly when they are variants
of each other, which for terms written in the grammar's syntax is when
their canonical_text is equal; the key is built from the cached
summaries, the text is rendered only for output and ordering.  The key
is the only variance test: is_variant and is_variant_seq compare keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

_fresh_ids = itertools.count(1)


@dataclass(slots=True, unsafe_hash=True)
class Var:
    """A logic variable, immutable by contract.

    Identity is the numeric id alone; the display name is kept for
    readability of debug output and is ignored by comparisons.
    """

    id: int
    name: str = field(default="_", compare=False)

    def __repr__(self):
        return f"{self.name}#{self.id}"


@dataclass(slots=True, unsafe_hash=True)
class Const:
    """A constant, immutable by contract."""

    name: str

    def __repr__(self):
        return self.name


class Compound:
    """functor(args...), immutable by contract.  _vars and _shape cache
    its summary (_summarize), filled on first use, _shape first: a
    compound whose _vars is set has its _shape."""

    __slots__ = ("functor", "args", "_vars", "_shape")

    def __init__(self, functor: str, args: tuple):
        if not args:
            raise ValueError("compound terms need at least one argument; "
                             "use Const for zero-arity symbols")
        self.functor = functor
        self.args = args
        self._vars = None

    def __eq__(self, other):
        if other.__class__ is not Compound:
            return NotImplemented
        return self.functor == other.functor and self.args == other.args

    def __hash__(self):
        return hash((self.functor, self.args))

    def __repr__(self):
        return f"{self.functor}({','.join(map(repr, self.args))})"


def _summarize(terms, shape: list) -> tuple:
    """Append the parts of a term vector to shape and return (ids,
    pattern), read off the cached summaries of its compounds; a compound
    not summarised yet is summarised here, in the same walk.

    ids are the variables under the vector, each once, in order of first
    occurrence.  The parts mirror the terms: None (a hole) for a
    variable, a constant's name, a compound's _shape.  pattern numbers,
    in turn, the ids of each term by their place in ids; it is () when no
    variable occurs under two of the terms, where that numbering is
    0, 1, 2, ...  A compound's _shape is (functor, pattern, *parts) of
    its arguments, so repeats inside a term are in its part, and the
    vector's pattern only says which variables the terms share.  When
    the later terms add no variable, ids is the tuple of the first term
    that has any, shared.
    """
    ids = ()
    seq = None  # the terms' ids, concatenated, once two terms have any
    for a in terms:
        ta = type(a)
        if ta is Var:
            sub = (a.id,)
            shape.append(None)
        elif ta is Compound:
            sub = a._vars
            if sub is None:
                part = [a.functor, None]
                sub, part[1] = _summarize(a.args, part)
                a._shape = tuple(part)
                a._vars = sub
            shape.append(a._shape)
        else:
            shape.append(a.name)
            continue
        if not ids:
            ids = sub
        elif sub:
            if seq is None:
                seq = [*ids, *sub]
            else:
                seq += sub
    if seq is None:
        return ids, ()
    first, ids = ids, tuple(dict.fromkeys(seq))
    n = len(ids)
    pattern = () if n == len(seq) else tuple(map(ids.index, seq))
    return (first if n == len(first) else ids), pattern


def _var_ids(t: Compound) -> tuple:
    """Ids of the variables under t, each once, summarised on first use
    together with t's part of the variant key (_summarize)."""
    ids = t._vars
    if ids is None:
        ids, _pattern = _summarize((t,), [])
    return ids


def variant_key(terms: Sequence[Term]) -> tuple:
    """(shape, pattern): equal for two term vectors exactly when they are
    variants, one renaming shared by the whole vector.  shape mirrors the
    terms with a hole for each variable (repeats inside one term in its
    compounds' parts); pattern numbers the variables the terms share, ()
    when they share none.  Once the compounds are summarised, the work
    grows with the number of terms and of their variables, not with the
    size of the terms."""
    shape: list = []
    _ids, pattern = _summarize(terms, shape)
    return tuple(shape), pattern


Term = Union[Var, Const, Compound]


def fresh_var(name: str = "_") -> Var:
    """New variable with a process-unique id (atomic under the GIL)."""
    return Var(next(_fresh_ids), name)


def walk(s: dict, t: Term) -> Term:
    """Chase variable bindings at the top level only."""
    while isinstance(t, Var):
        nxt = s.get(t.id)
        if nxt is None:
            return t
        t = nxt
    return t


EMPTY_SUBST: dict = {}


def apply(s: dict, t: Term) -> Term:
    """Replace every bound variable in t, recursively, to fixpoint.

    A compound with no bound variable under it (no key of s among its
    _var_ids) is returned itself, without descending, and a rebuilt one
    keeps its unchanged arguments.
    """
    while type(t) is Var:
        nxt = s.get(t.id)
        if nxt is None:
            return t
        t = nxt
    if type(t) is Compound and not s.keys().isdisjoint(_var_ids(t)):
        return Compound(t.functor, tuple([apply(s, a) for a in t.args]))
    return t


def _occurs(vid: int, t: Term, s: dict) -> bool:
    t = walk(s, t)
    if type(t) is Var:
        return t.id == vid
    if type(t) is Compound:
        ids = _var_ids(t)
        if s.keys().isdisjoint(ids):
            return vid in ids
        return any(_occurs(vid, a, s) for a in t.args)
    return False


def unify(t1: Term, t2: Term, s: dict = EMPTY_SUBST) -> Optional[dict]:
    """Most general unifier of t1 and t2 under s, or None.

    Failure is a value; the input substitution is never mutated.  The
    occurs check is always on.
    """
    t1 = walk(s, t1)
    t2 = walk(s, t2)
    if isinstance(t1, Var):
        if isinstance(t2, Var) and t1.id == t2.id:
            return s
        if _occurs(t1.id, t2, s):
            return None
        return {**s, t1.id: t2}
    if isinstance(t2, Var):
        return unify(t2, t1, s)
    if isinstance(t1, Const) or isinstance(t2, Const):
        return s if t1 == t2 else None
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    for a, b in zip(t1.args, t2.args):
        s = unify(a, b, s)
        if s is None:
            return None
    return s


def unify_all(ts1: Sequence[Term], ts2: Sequence[Term],
              s: dict = EMPTY_SUBST) -> Optional[dict]:
    """Unify two equal-length term vectors pairwise."""
    if len(ts1) != len(ts2):
        return None
    for a, b in zip(ts1, ts2):
        s = unify(a, b, s)
        if s is None:
            return None
    return s


def _rename(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        if t.id not in mapping:
            mapping[t.id] = fresh_var(t.name)
        return mapping[t.id]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_rename(a, mapping) for a in t.args))
    return t


def rename_fresh(t: Term) -> Term:
    """Variant of t with globally fresh variables."""
    return _rename(t, {})


def rename_fresh_all(terms: Iterable[Term]) -> tuple:
    """Rename several terms with one shared mapping, preserving sharing."""
    mapping: dict = {}
    return tuple(_rename(t, mapping) for t in terms)


def is_variant(t1: Term, t2: Term) -> bool:
    """True iff some variable-renaming bijection makes t1 and t2 identical."""
    return variant_key((t1,)) == variant_key((t2,))


def is_variant_seq(ts1: Sequence[Term], ts2: Sequence[Term]) -> bool:
    """Variant test over whole vectors, with one shared renaming."""
    return variant_key(ts1) == variant_key(ts2)


def abstract_over(args: Sequence[Term], scope_index: int) -> tuple:
    """Abstract the scope value out of an argument vector.

    scope_index is 1-based (grammar argument positions).  Every occurrence
    of args[scope_index-1] anywhere in the vector, as a whole subterm, is
    replaced by one shared fresh variable; all other variables are left
    alone so they stay shared with the source.  Returns (new_args, var).
    """
    if not 1 <= scope_index <= len(args):
        raise IndexError(f"scope index {scope_index} out of range for arity {len(args)}")
    scope_value = args[scope_index - 1]
    v = fresh_var("Scope")
    return tuple(_replace(a, scope_value, v) for a in args), v


def _replace(t: Term, old: Term, new: Term) -> Term:
    """t with every whole-subterm occurrence of old replaced by new."""
    if t == old:
        return new
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_replace(a, old, new) for a in t.args))
    return t


def c_unify(t1: Term, t2: Term, conn: str,
            s: dict = EMPTY_SUBST) -> tuple:
    """Combine two parallel terms: unify what unifies, conjoin what clashes.

    If s(t1) and s(t2) unify the result is the unified term under the
    extended substitution.  Otherwise equal compounds recurse pairwise,
    threading the substitution left to right, and anything else becomes
    conn(s(t1), s(t2)).  Total: never fails.  Returns (term, substitution).
    """
    u = unify(t1, t2, s)
    if u is not None:
        return apply(u, t1), u
    a = walk(s, t1)
    b = walk(s, t2)
    if (isinstance(a, Compound) and isinstance(b, Compound)
            and a.functor == b.functor and len(a.args) == len(b.args)):
        parts = []
        for x, y in zip(a.args, b.args):
            part, s = c_unify(x, y, conn, s)
            parts.append(part)
        return apply(s, Compound(a.functor, tuple(parts))), s
    return Compound(conn, (apply(s, t1), apply(s, t2))), s


# ---------------------------------------------------------------------------
# Canonical text syntax.
#
# Variables start uppercase or with "_"; constants and functors start
# lowercase; compounds are f(t1,...,tn).  No operators, no quoting.

def _canon(t: Term, names: dict) -> str:
    tt = type(t)
    if tt is Var:
        if t.id not in names:
            names[t.id] = f"V{len(names)}"
        return names[t.id]
    if tt is Const:
        return t.name
    return f"{t.functor}({','.join([_canon(a, names) for a in t.args])})"


def canonical_text(t) -> str:
    """Render a term, or a sequence of terms joined by commas, with
    variables renamed V0, V1, ... by first occurrence left to right."""
    names: dict = {}
    if isinstance(t, (Var, Const, Compound)):
        return _canon(t, names)
    return ",".join(_canon(x, names) for x in t)


def canonical_texts(terms: Sequence[Term]) -> list:
    """Per-term canonical strings sharing one variable numbering."""
    names: dict = {}
    return [_canon(t, names) for t in terms]


def to_text(t: Term) -> str:
    """Render a term using the variables' display names (for grammar
    round-trips, where names are unique within a rule)."""
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.functor}({','.join(to_text(a) for a in t.args)})"
