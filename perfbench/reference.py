"""Reference outputs for a workload pool, built by the naive evaluator.

    python3 perfbench/reference.py --workload np-chain --seed 1

Prints one JSON document: for every pool sentence, the chart's edge key
set, the canonical logical forms before and after reshaping, and, for
the sentences with a registered oracle in tests/, what that oracle pins.

The naive evaluator (tests/oracle_impls.py) re-derives every round from
the whole chart by brute-force seating, so it certifies the semi-naive
closure.  It runs the engine's own coordination hook, so it does not
certify which coordination readings are the intended ones; the oracle
sentences cover that for the three registered examples.

run.py starts this as a child process so that the naive evaluator's
memory does not count toward the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import (CheckoutError, GRAMMAR_FILES, RESHAPE, WORKLOADS,
                       pool, require_checkout)


def naive_chart(grammar, tokens, gap_budget):
    """oracle_impls.naive_parse with the workload's gap budget: naive
    rounds, one revival round when there is no full parse, finalize."""
    from dlgram.coordination import CoordinationState
    from dlgram.engine import assert_input
    from oracle_impls import _naive_rounds

    chart = assert_input(tokens)
    coord = CoordinationState(grammar, gap_budget=gap_budget)
    _naive_rounds(chart, grammar, coord)
    full = any(e.category == grammar.start and e.start == 0
               and e.end == chart.n and not e.is_zero_width
               for e in chart.edges)
    if coord.constraints and not full:
        coord.revive()
        _naive_rounds(chart, grammar, coord)
    coord.finalize()
    return chart


def oracle_expectations() -> dict:
    from oracle_impls import ORACLE_DIR, read_expected

    woods = read_expected("woods_sentence.txt")
    np_coord = read_expected("np_coordination.txt")
    golden = ORACLE_DIR.parent / "golden" / "french_trace.txt"
    return {
        "woods": {"count": int(woods["EXPECTED_PARSE_COUNT"]),
                  "forms": [woods["EXPECTED_LOGICAL_FORM"]]},
        "np-coord": {"include": np_coord["EXPECTED_PINNED_FORM"],
                     "within": [np_coord["EXPECTED_PINNED_FORM"],
                                np_coord["EXPECTED_META_FORM"]]},
        "french": {"trace": golden.read_text().splitlines()},
    }


def expectation_errors(expect: dict, forms: list, trace_lines) -> list:
    """Ways in which a result breaks its registered oracle."""
    errors = []
    if "count" in expect and len(forms) != expect["count"]:
        errors.append(f"{len(forms)} parses, oracle has {expect['count']}")
    if "forms" in expect and sorted(forms) != sorted(expect["forms"]):
        errors.append(f"forms {forms} differ from the oracle's")
    if "include" in expect and expect["include"] not in forms:
        errors.append(f"pinned form {expect['include']} missing")
    if "within" in expect and not set(forms) <= set(expect["within"]):
        errors.append(f"forms {forms} outside the registered readings")
    if "trace" in expect and trace_lines is not None \
            and trace_lines != expect["trace"]:
        errors.append("trace differs from the golden trace")
    return errors


def build(workload: str, seed: int) -> dict:
    from dlgram.engine import extract, tokenize
    from dlgram.grammar import load_grammar
    from dlgram.reshape import reshape
    from dlgram.terms import canonical_text
    from oracle_impls import edge_key_set

    grammars = {name: load_grammar(GRAMMAR_FILES[name])
                for name in WORKLOADS[workload].grammars}
    expectations = oracle_expectations()
    entries = []
    for item in pool(workload, seed):
        grammar = grammars[item.grammar]
        tokens = tokenize(item.text)
        chart = naive_chart(grammar, tokens, item.gap_budget)
        results = extract(chart, grammar)
        forms = sorted(canonical_text(r.logical_form) for r in results)
        reshaped = sorted(canonical_text(reshape(r.logical_form, grammar, RESHAPE))
                          for r in results)
        expect = expectations.get(item.oracle, {})
        errors = expectation_errors(expect, forms, None)
        if errors:
            raise SystemExit(f"reference for {item.text!r} breaks its "
                             f"oracle: {'; '.join(errors)}")
        entries.append({
            "text": item.text,
            "tokens": tokens,
            "keys": sorted(list(k) for k in edge_key_set(chart)),
            "forms": forms,
            "reshaped": reshaped,
            "expect": expect,
        })
    return {"workload": workload, "seed": seed, "entries": entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        require_checkout(need_tests=True)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump(build(args.workload, args.seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
