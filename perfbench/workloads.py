"""Seeded workload generators and the timed operation.

Every workload is a fixed pool of sentences drawn from a seed.  The pool
is stratified (each seed gets the same mix of sizes and kinds; only the
words change) and ordered round-robin over its strata, so that any
prefix of a cycle through the pool has about the same mix as the whole.

One operation of short-mix does for one sentence what

    dlgram parse -g GRAMMAR -s SENTENCE --json --reshape --reshape-too --trace

does: tokenize, parse with a trace sink, reshape every result with
("distrib", "too"), render the chart with cli.emit_json and serialize it
with json.dumps.  One operation of np-chain or pp-gap is the parse alone,
without a trace sink; its result is rendered the same way after the
timed interval, so that every workload's output is checked in the form
the CLI prints and the traced run reports reshape and cli on every
workload.  Each call goes through the names dlgram.cli itself uses, so
the wrappers in tracer.py see the same call path the command line takes.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

GRAMMAR_FILES = {
    "english_sem": SRC / "dlgram" / "grammars" / "english_sem.dlg",
    "french_syn": SRC / "dlgram" / "grammars" / "french_syn.dlg",
    "pp_gap": BENCH_DIR / "pp_gap.dlg",
}

RESHAPE = ("distrib", "too")

WOODS_SENT = "john drove the car through and demolished a window"
NP_COORD_SENT = "each man ate an apple and a pear"
FRENCH_SENT = "jean mange une pomme rouge et une verte"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold the package."""


def require_checkout(need_tests: bool = False) -> None:
    """Put the checkout's src/ (and tests/, for the reference) first on
    sys.path, and refuse to run against anything but that source tree."""
    needed = [SRC / "dlgram" / "__init__.py"]
    if need_tests:
        needed.append(TESTS / "oracle_impls.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError(
            f"not a dlgram checkout: missing {', '.join(missing)} under {ROOT}")
    for p in ([TESTS] if need_tests else []) + [SRC]:
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


@dataclass(frozen=True)
class Item:
    """One sentence of a workload pool."""
    grammar: str       # key of GRAMMAR_FILES
    text: str
    gap_budget: int = 1
    trace: bool = False
    oracle: str = ""   # "woods", "np-coord" or "french": registered result


@dataclass(frozen=True)
class Workload:
    grammars: tuple
    trace_cycles: int    # pool cycles per pass of a traced run
    timed_render: bool   # reshape and emit_json inside the timed operation
    generate: object     # callable(rng) -> list of Item


# ---------------------------------------------------------------------------
# np-chain: closure over long noun-phrase coordination chains.

NAMES = ("john", "mary")
DETS = ("a", "an", "the", "each")
NOUNS = ("man", "woman", "apple", "pear", "window", "table", "train", "car")
VERBS1 = ("ate", "saw", "heard", "demolished")
CHAIN_LENGTHS = range(3, 14)


def _np(rng) -> str:
    return f"{rng.choice(DETS)} {rng.choice(NOUNS)}"


def np_chain(rng) -> list:
    """The chain repeats one seeded det-noun pair: distinct conjuncts
    multiply the readings (377 parses at 13 conjuncts), which would make
    the pool's cost depend on the words drawn rather than on its length."""
    items = []
    for quantified in (False, True):
        for k in CHAIN_LENGTHS:
            subject = _np(rng) if quantified else rng.choice(NAMES)
            chain = " and ".join([_np(rng)] * k)
            items.append(Item("english_sem",
                              f"{subject} {rng.choice(VERBS1)} {chain}"))
    return items


# ---------------------------------------------------------------------------
# pp-gap: prediction of elided PP material under a left-recursive grammar.

PP_PREPS = ("sur", "avec")
PP_NOUNS = ("femme", "table")
# Three tails, each under budgets 2 and 3: the median falls in the middle
# of the "P une N" items and p90 in the middle of the ROADMAP tail at
# budget 3, not on the edge between two cost clusters.
PP_TAILS = (
    lambda p, n: f"{p()} une",
    lambda p, n: f"{p()} une {n()}",
    lambda p, n: "avec sur une",  # the ROADMAP tail; the slowest, kept uniform
)


def pp_gap(rng) -> list:
    def p():
        return rng.choice(PP_PREPS)

    def n():
        return rng.choice(PP_NOUNS)

    items = []
    for pps in (1, 2, 3):
        for budget in (2, 3):
            for tail in PP_TAILS:
                head = f"jean voit une {n()}" + "".join(
                    f" {p()} une {n()}" for _ in range(pps))
                items.append(Item("pp_gap", f"{head} et {tail(p, n)}",
                                  gap_budget=budget))
    return items


# ---------------------------------------------------------------------------
# short-mix: 1-10 word sentences from both shipped grammars, traced.

ADJS = ("rouge", "verte")

SHORT_TEMPLATES = (
    # no coordination
    ("english_sem", "{name}"),
    ("english_sem", "{name} laughed"),
    ("english_sem", "{name} {v1} {np}"),
    ("english_sem", "{np} {v1} {name}"),
    ("english_sem", "{name} sat at {np}"),
    ("english_sem", "{name} drove {np} through {np}"),
    ("french_syn", "jean mange une pomme {adj}"),
    # one coordination (the Woods sentence itself is among SHORT_ORACLES;
    # more of its kind would put p90 on the edge of their cost cluster)
    ("english_sem", "{np} {v1} {np} and {np}"),
    ("english_sem", "{name} and {name} laughed"),
    ("english_sem", "{name} {v1} {np} and {name}"),
    ("french_syn", "jean mange une pomme {adj} et une {adj}"),
    # sentence coordination: no parse, so the revival round runs
    ("english_sem", "{name} {v1} {np} and {name} {v1} {np}"),
    ("english_sem", "{name} laughed and {name} laughed"),
)
SHORT_ORACLES = (
    Item("english_sem", WOODS_SENT, trace=True, oracle="woods"),
    Item("english_sem", NP_COORD_SENT, trace=True, oracle="np-coord"),
    Item("french_syn", FRENCH_SENT, trace=True, oracle="french"),
)


def short_mix(rng) -> list:
    """Names, nouns and adjectives are drawn without replacement within a
    sentence, and one determiner serves the whole sentence: identical
    conjuncts, or conjuncts with different quantifiers, change the number
    of readings and so the work a seed asks for."""
    def fill(template: str) -> str:
        draws = {kind: iter(rng.sample(words, len(words))) for kind, words in
                 (("name", NAMES), ("v1", VERBS1), ("noun", NOUNS),
                  ("adj", ADJS))}
        det = rng.choice(DETS)
        out = []
        for word in template.split():
            if word == "{np}":
                out += [det, next(draws["noun"])]
            elif word.startswith("{"):
                out.append(next(draws[word[1:-1]]))
            else:
                out.append(word)
        return " ".join(out)

    return [Item(grammar, fill(template), trace=True)
            for grammar, template in SHORT_TEMPLATES] + list(SHORT_ORACLES)


WORKLOADS = {
    "np-chain": Workload(("english_sem",), 2, False, np_chain),
    "pp-gap": Workload(("pp_gap",), 1, False, pp_gap),
    "short-mix": Workload(("english_sem", "french_syn"), 20, True, short_mix),
}


def pool(workload: str, seed: int) -> list:
    """The workload's sentences for this seed; same seed, same pool."""
    return WORKLOADS[workload].generate(random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# The operation.

def parse_op(cli, grammars: dict, item: Item):
    """Tokenize and parse one sentence as the CLI does.
    Returns (ParseRun, trace lines)."""
    lines: list = []
    outcome = cli.parse(grammars[item.grammar], cli.tokenize(item.text),
                        gap_budget=item.gap_budget,
                        trace=lines.append if item.trace else None)
    return outcome, lines


def render(cli, grammar, outcome) -> str:
    """The CLI's --json --reshape --reshape-too output for one parse."""
    forms = [cli.reshape(r.logical_form, grammar, RESHAPE)
             for r in outcome.results]
    doc = cli.emit_json(outcome.results, outcome.chart, outcome.constraints)
    for entry, form in zip(doc["parses"], forms):
        entry["logical_form"] = cli.canonical_text(form)
    return json.dumps(doc)
