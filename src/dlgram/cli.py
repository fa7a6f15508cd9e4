"""Command-line front end.

    dlgram parse -g grammar.dlg -s "john laughed" [--trace] [--json] ...
    dlgram check -g grammar.dlg

Exit status: 0 when every sentence parsed, 1 when any failed (or the
layer cap was hit), 2 for grammar or usage problems.
"""

from __future__ import annotations

import argparse
import json
import sys

from .api import parse
from .engine import LayerCapError, tokenize
from .grammar import GrammarError, load_grammar, validate
from .reshape import reshape
from .terms import canonical_text


def emit_json(results, chart, constraints=()) -> dict:
    """Machine-readable chart dump.  Key order is part of the format."""
    doc = {
        "tokens": list(chart.tokens),
        "edges": [
            {
                "id": e.id,
                "cat": e.category,
                "args": list(e.arg_texts),
                "start": e.start,
                "end": e.end,
                "layer": e.layer,
                "provenance": e.provenance.json(),
            }
            for e in chart.edges
        ],
        "parses": [
            {
                "root_edge_id": r.root.id,
                "logical_form": canonical_text(r.logical_form),
            }
            for r in results
        ],
        "constraints": [
            {
                "N": c.n,
                "M": c.m,
                "connective": c.connective,
                "status": c.status,
                "resolutions": [
                    {"source": s, "target": t, "combined": comb}
                    for (s, t, comb) in c.resolutions
                ],
            }
            for c in constraints
        ],
    }
    return doc


def _load(path: str, strict: bool):
    """The grammar at path, or None once the reason it cannot be loaded
    is printed."""
    try:
        return load_grammar(path, strict=strict)
    except (OSError, UnicodeDecodeError):
        print(f"error: cannot read {path}", file=sys.stderr)
    except GrammarError as exc:
        # validation errors as check prints them; syntax errors have none
        lines = [str(d) for d in exc.diagnostics] or [f"error: {exc}"]
        print("\n".join(lines), file=sys.stderr)
    return None


def run(args: argparse.Namespace) -> int:
    """Parse every sentence the parse command names and print results."""
    grammar = _load(args.grammar, strict=True)
    if grammar is None:
        return 2

    if args.sentence:
        sentences = [args.sentence]
    else:
        try:
            with open(args.sentence_file, encoding="utf-8") as f:
                sentences = [ln.strip() for ln in f if ln.strip()]
        except (OSError, UnicodeDecodeError):
            print(f"error: cannot read {args.sentence_file}", file=sys.stderr)
            return 2

    reshapes = [name for name, on in (("distrib", args.reshape),
                                      ("too", args.reshape_too)) if on]
    status = 0
    for sentence in sentences:
        tokens = tokenize(sentence)
        if not tokens:
            print(f"no tokens: {sentence}", file=sys.stderr)
            status = 1
            continue
        trace_sink = (lambda line: print(line)) if args.trace else None
        try:
            outcome = parse(
                grammar, tokens,
                meta_coordination=not args.no_meta_coord,
                all_solutions=args.all_coord,
                gap_budget=args.gap_budget,
                layer_cap=args.layer_cap,
                trace=trace_sink,
            )
        except LayerCapError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue

        forms = [r.logical_form for r in outcome.results]
        if reshapes:
            forms = [reshape(f, grammar, reshapes) for f in forms]

        if args.json:
            doc = emit_json(outcome.results, outcome.chart, outcome.constraints)
            if reshapes:
                for entry, f in zip(doc["parses"], forms):
                    entry["logical_form"] = canonical_text(f)
            print(json.dumps(doc))
        elif forms:
            for f in forms:
                print(canonical_text(f))
        else:
            print(f"no parse: {' '.join(tokens)}")
        if not forms:
            status = 1
    return status


def _check(grammar_path: str) -> int:
    grammar = _load(grammar_path, strict=False)
    if grammar is None:
        return 2
    diagnostics = validate(grammar)
    for d in diagnostics:
        print(d)
    if any(d.severity == "error" for d in diagnostics):
        return 2
    print("ok")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dlgram")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse sentences with a grammar")
    p.add_argument("-g", "--grammar", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-s", "--sentence", default="")
    group.add_argument("-f", "--file", default="", dest="sentence_file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--reshape", action="store_true")
    p.add_argument("--reshape-too", action="store_true")
    p.add_argument("--all-coord", action="store_true")
    p.add_argument("--no-meta-coord", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--layer-cap", type=int, default=64, metavar="N")
    p.add_argument("--gap-budget", type=int, default=1, metavar="N")

    c = sub.add_parser("check", help="validate a grammar file")
    c.add_argument("-g", "--grammar", required=True)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "check":
        return _check(args.grammar)
    if args.layer_cap < 1:
        print("error: layer cap must be at least 1", file=sys.stderr)
        return 2
    if args.gap_budget < 0:
        print("error: gap budget must be nonnegative", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
