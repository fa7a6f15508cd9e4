"""dlgram: a bottom-up Datalog-grammar parser.

Grammars are context-free rules carrying first-order term arguments,
evaluated by semi-naive layered closure over an assertional encoding of
the input.  Coordinate structures ("and"/"or"/"but") need no grammar
rules: a conjunction edge posts a suspended constraint that finds
parallel constituents on both sides, reconstructs elided material by
top-down prediction with scope abstraction, and conjoins the two sides
by c-unification.  An optional reshaping phase rewrites the resulting
logical forms.
"""

from .api import ParseRun, parse
from .coordination import CoordConstraint, CoordinationState
from .engine import (Chart, Edge, LayerCapError, ParseResult, assert_input,
                     close, derivation_edges, extract, format_derivation,
                     match_rule, predict, tokenize)
from .grammar import (Diagnostic, Grammar, GrammarError, GrammarSyntaxError,
                      NonTerminal, Rule, Terminal, builtin_grammar,
                      grammar_text, load_grammar, parse_grammar, parse_term,
                      validate)
from .reshape import RewriteLimitError, RewriteRule, reshape
from .terms import (Compound, Const, Term, Var, abstract_over, apply, c_unify,
                    canonical_text, fresh_var, is_variant, rename_fresh, unify)

__version__ = "0.1.0"

__all__ = [
    "Chart", "Compound", "Const", "CoordConstraint",
    "CoordinationState", "Diagnostic", "Edge", "Grammar", "GrammarError",
    "GrammarSyntaxError", "LayerCapError", "NonTerminal", "ParseResult",
    "ParseRun", "RewriteLimitError", "RewriteRule", "Rule", "Term",
    "Terminal", "Var", "abstract_over", "apply", "assert_input",
    "builtin_grammar", "c_unify", "canonical_text", "close",
    "derivation_edges", "extract", "format_derivation", "fresh_var",
    "grammar_text", "is_variant", "load_grammar", "match_rule", "parse",
    "parse_grammar", "parse_term", "predict", "rename_fresh", "reshape",
    "tokenize", "unify", "validate",
]
