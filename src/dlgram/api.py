"""One-call parsing: input assertion, closure with the coordination hook,
the no-parse revival round, and extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .coordination import CoordinationState
from .engine import Chart, assert_input, close, extract, full_parses, tokenize
from .grammar import Grammar


@dataclass
class ParseRun:
    tokens: list
    chart: Chart
    results: list
    constraints: list = field(default_factory=list)
    log: list = field(default_factory=list)


def parse(grammar: Grammar, sentence: Union[str, Sequence[str]], *,
          meta_coordination: bool = True, all_solutions: bool = False,
          gap_budget: int = 1, layer_cap: int = 64,
          trace: Optional[Callable[[str], None]] = None) -> ParseRun:
    """Parse one sentence (a string to tokenize, or a token list).

    Coordination runs as a closure hook unless meta_coordination is off.
    If closure finishes without a start-category parse, constraints get
    one revival round before being marked exhausted.  Raises ValueError
    for a layer cap below 1 or a negative gap budget.
    """
    if layer_cap < 1:
        raise ValueError("layer cap must be at least 1")
    if gap_budget < 0:
        raise ValueError("gap budget must be nonnegative")
    tokens = tokenize(sentence) if isinstance(sentence, str) else list(sentence)
    chart = assert_input(tokens, trace=trace)
    coord = CoordinationState(
        grammar, first_solution=not all_solutions,
        gap_budget=gap_budget, trace=trace)
    # without the hook no constraint is posted: revival and finalize are no-ops
    hook = coord.after_layer if meta_coordination else None
    close(chart, grammar, hook, layer_cap)
    if coord.constraints and not full_parses(chart, grammar):
        coord.revive()
        close(chart, grammar, hook, layer_cap)
    coord.finalize()
    return ParseRun(
        tokens=tokens,
        chart=chart,
        results=extract(chart, grammar),
        constraints=coord.constraints,
        log=coord.log,
    )
