"""dlgram benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload np-chain --seed 1 --seconds 30 --trace 0

Steps, all inside the checkout this file sits in:

1. Build the reference outputs for the seed's sentence pool in a child
   process (reference.py, the naive evaluator from tests/).
2. Set up SETUP_REPEATS times: import dlgram from src/ afresh, load the
   workload's grammar files and validate them.  Another SETUP_REPEATS
   set-ups follow the measurement, so that the median, setup_s, samples
   the host at two moments.
3. --trace 0: a closed loop, one client, no threads, cycles through the
   pool for --seconds (and at least MIN_OPS operations), timing every
   operation and checking its output against the reference.
   --trace 1: trace_cycles pool cycles, each operation run untraced and
   under two tracers; the per-layer numbers are per operation, and the
   counts of the two tracers must be equal.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

from reference import expectation_errors
from tracer import Tracer
from workloads import (BENCH_DIR, GRAMMAR_FILES, ROOT, SRC, WORKLOADS,
                       CheckoutError, parse_op, pool, render,
                       require_checkout)

SETUP_REPEATS = 10     # per batch; one batch before, one after measuring
MIN_OPS = 120          # so that at least 10 samples lie above p90
MAX_MEASURE_S = 100    # hard stop for the timed loop, even mid-cycle
WARMUP_OPS = 3
REFERENCE_TIMEOUT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# Reference and set-up

def build_reference(workload: str, seed: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "reference.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"reference build failed:\n{proc.stderr.strip()}")
    entries = json.loads(proc.stdout)["entries"]
    for entry in entries:
        entry["keys"] = {tuple(k) for k in entry["keys"]}
    return entries


def _forget_dlgram():
    for name in [m for m in sys.modules
                 if m == "dlgram" or m.startswith("dlgram.")]:
        del sys.modules[name]


def set_up(workload: str):
    """Import dlgram and load and validate the workload's grammars,
    SETUP_REPEATS times from a clean module table.  Returns the dlgram.cli
    module and grammars of the last round and, per round, the set-up and
    grammar-load times in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        _forget_dlgram()
        t0 = time.perf_counter()
        dlgram = importlib.import_module("dlgram")
        cli = importlib.import_module("dlgram.cli")
        t1 = time.perf_counter()
        grammars = {}
        for name in WORKLOADS[workload].grammars:
            grammar = dlgram.load_grammar(GRAMMAR_FILES[name])
            errors = [d for d in dlgram.validate(grammar)
                      if d.severity == "error"]
            if errors:
                raise BenchmarkError(f"{GRAMMAR_FILES[name]}: {errors[0]}")
            grammars[name] = grammar
        t2 = time.perf_counter()
        times.append((t2 - t0, t2 - t1))
    if not dlgram.__file__.startswith(str(SRC)):
        raise BenchmarkError(f"imported dlgram from {dlgram.__file__}, not {SRC}")
    return cli, grammars, times


# ---------------------------------------------------------------------------
# One operation, checked

def mismatch(cli, ref: dict, outcome, text: str, lines: list):
    """Why an operation's output differs from the reference, or None."""
    doc = json.loads(text)
    if doc["tokens"] != ref["tokens"]:
        return "tokens differ"
    keys = {(e["cat"], e["start"], e["end"], ",".join(e["args"]))
            for e in doc["edges"]}
    if keys != ref["keys"]:
        return (f"chart differs from the naive evaluator's: "
                f"{len(keys - ref['keys'])} extra, "
                f"{len(ref['keys'] - keys)} missing edges")
    forms = sorted(cli.canonical_text(r.logical_form) for r in outcome.results)
    if forms != ref["forms"]:
        return f"logical forms {forms} != reference {ref['forms']}"
    reshaped = sorted(p["logical_form"] for p in doc["parses"])
    if reshaped != ref["reshaped"]:
        return f"reshaped forms {reshaped} != reference {ref['reshaped']}"
    errors = expectation_errors(ref["expect"], forms, lines)
    return "; ".join(errors) if errors else None


class Checked:
    """Runs operations and counts those that raise or mismatch."""

    def __init__(self, cli, grammars, timed_render: bool):
        self.cli = cli
        self.grammars = grammars
        self.timed_render = timed_render
        self.attempted = 0
        self.failed = 0

    def _op(self, item):
        outcome, lines = parse_op(self.cli, self.grammars, item)
        text = None
        if self.timed_render:
            text = render(self.cli, self.grammars[item.grammar], outcome)
        return outcome, text, lines

    def run(self, item, ref, tracer=None):
        """Run one operation; returns (seconds, cpu seconds, output) with
        output (ParseRun, json text, trace lines), or None when it failed.
        Rendering outside the operation happens after the clocks stop."""
        self.attempted += 1
        out = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self._op(item)
            else:
                with tracer.span("op"):
                    out = self._op(item)
        except Exception:  # an operation failure is a measured outcome
            self._report(item, traceback.format_exc())
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if out is not None:
            outcome, text, lines = out
            if text is None:
                text = render(self.cli, self.grammars[item.grammar], outcome)
            out = outcome, text, lines
            why = mismatch(self.cli, ref, *out)
            if why is not None:
                self._report(item, why)
                out = None
        if out is None:
            self.failed += 1
        return seconds, cpu, out

    def _report(self, item, why: str):
        if self.failed < 5:
            print(f"FAILED {item.text!r}: {why}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics

def timed_run(checked: Checked, items: list, refs: list, seconds: float) -> dict:
    """Whole cycles through the pool until --seconds (and MIN_OPS) are
    reached.  Throughput and CPU time are medians of per-cycle values, so
    a burst of load from elsewhere on the host moves one cycle, not the
    result; the latency percentiles are over every operation."""
    for item, ref in list(zip(items, refs))[:WARMUP_OPS]:
        checked.run(item, ref)
    checked.attempted = checked.failed = 0
    gc.collect()
    wall, per_s, cpu_ms = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(wall) >= MIN_OPS):
            break
        attempted, failed = checked.attempted, checked.failed
        cycle_wall = cycle_cpu = 0.0
        for item, ref in zip(items, refs):
            op_s, op_cpu, _ = checked.run(item, ref)
            wall.append(op_s)
            cycle_wall += op_s
            cycle_cpu += op_cpu
            if time.perf_counter() - start >= MAX_MEASURE_S:
                break
        ops = checked.attempted - attempted
        per_s.append((ops - (checked.failed - failed)) / cycle_wall)
        cpu_ms.append(cycle_cpu / ops * 1e3)
    p90 = statistics.quantiles(wall, n=10)[8]
    above = sum(1 for w in wall if w > p90)
    if above < 10:
        print(f"warning: only {above} samples above p90", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sentences_per_s": (statistics.median(per_s), "1/s"),
        "parse_ms_p50": (statistics.median(wall) * 1e3, "ms"),
        "parse_ms_p90": (p90 * 1e3, "ms"),
        "cpu_ms_per_sentence": (statistics.median(cpu_ms), "ms"),
        "setup_s": (None, "s"),  # filled in by main
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

def traced_op(checked: Checked, item, ref, tracer: Tracer) -> float:
    """Run one operation with the tracer installed; returns its seconds."""
    with tracer.installed():
        seconds, _cpu, out = checked.run(item, ref, tracer)
    if out is not None:
        outcome, text, _lines = out
        tracer.counts["engine.chart.edges"] += len(outcome.chart.edges)
        tracer.counts["engine.chart.layers"] += len(outcome.chart.layers)
        tracer.counts["coordination.constraints"] += len(outcome.constraints)
        tracer.counts["cli.emit_json.bytes"] += len(text)
    return seconds


def _counts(tracer: Tracer) -> dict:
    """Everything a traced pass counts; it must repeat exactly."""
    out = dict(tracer.counts)
    for name, (calls, _self, hits, _total) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.hits"] = hits
    return out


def layer_metrics(tracers: list, n_ops: int, overhead: float,
                  failed_ratio: float) -> dict:
    """Per-operation layer metrics; times are averaged over the traced
    passes, counts taken from the first (they are equal)."""
    first = tracers[0]

    def calls(span):
        return first.stats[span][0] / n_ops

    def ratio(span):
        calls_, hits = first.stats[span][0], first.stats[span][2]
        return hits / calls_ if calls_ else 0.0

    def ms(span, field=1):
        return sum(t.stats[span][field] for t in tracers) \
            / len(tracers) / n_ops * 1e3

    def count(name):
        return first.counts[name] / n_ops

    m = {"engine.close.self_ms": (ms("engine.close"), "ms")}
    for span, ratio_name in (("engine.match_rule", "empty_ratio"),
                             ("engine.chart_add", "dedup_ratio"),
                             ("engine.predict", "success_ratio")):
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_ms"] = (ms(span), "ms")
        m[f"{span}.{ratio_name}"] = (ratio(span), "ratio")
        if span == "engine.chart_add":
            m["engine.chart.edges"] = (count("engine.chart.edges"), "count")
            m["engine.chart.layers"] = (count("engine.chart.layers"), "count")
    for name in ("engine.predict.build_calls", "engine.predict.gap_lookups"):
        m[name] = (count(name), "count")
    m["engine.assert_input.ms"] = (ms("engine.assert_input", 3), "ms")
    m["engine.extract.ms"] = (ms("engine.extract", 3), "ms")
    for region in ("closure", "predict"):
        for op in ("unify_all", "apply", "rename_fresh_all", "canonical_text"):
            span = f"terms.{region}.{op}"
            m[f"{span}.calls"] = (calls(span), "count")
            m[f"{span}.self_ms"] = (ms(span), "ms")
            if op == "unify_all":
                m[f"{span}.fail_ratio"] = (ratio(span), "ratio")
    span = "terms.coordination.c_unify"
    m[f"{span}.calls"] = (calls(span), "count")
    m[f"{span}.self_ms"] = (ms(span), "ms")
    m["coordination.post.self_ms"] = (ms("coordination.post"), "ms")
    for op in ("refresh_agenda", "attempt", "combine"):
        span = f"coordination.{op}"
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_ms"] = (ms(span), "ms")
        if op == "attempt":
            m[f"{span}.success_ratio"] = (ratio(span), "ratio")
    m["coordination.constraints"] = (count("coordination.constraints"), "count")
    m["grammar.load_ms"] = (None, "ms")  # filled in by main
    m["reshape.calls"] = (calls("reshape"), "count")
    m["reshape.self_ms"] = (ms("reshape"), "ms")
    m["cli.emit_json.self_ms"] = (ms("cli.emit_json"), "ms")
    m["cli.emit_json.bytes"] = (count("cli.emit_json.bytes"), "bytes")
    m["trace.op_ms"] = (ms("op", 3), "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["failed_ratio"] = (failed_ratio, "ratio")
    return m


def traced_run(checked: Checked, items: list, refs: list, cycles: int) -> dict:
    """Each operation runs three times in a row, untraced and under each of
    two tracers, in an order that rotates from one operation to the next,
    so that the overhead ratio compares runs made under the same load from
    elsewhere on the host."""
    ops = list(zip(items, refs)) * cycles
    for item, ref in ops[:WARMUP_OPS]:
        checked.run(item, ref)
    checked.attempted = checked.failed = 0
    gc.collect()
    tracers = [Tracer(), Tracer()]
    runs = [None] + tracers
    untraced = traced = 0.0
    for i, (item, ref) in enumerate(ops):
        for k in range(len(runs)):
            tracer = runs[(i + k) % len(runs)]
            if tracer is None:
                untraced += checked.run(item, ref)[0]
            else:
                traced += traced_op(checked, item, ref, tracer)
    first, second = (_counts(t) for t in tracers)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        raise BenchmarkError(
            "determinism check failed: counts differ between two traced "
            f"runs of the same operations: {', '.join(diff[:10])}")
    overhead = traced / len(tracers) / untraced - 1
    return layer_metrics(tracers, len(ops), overhead,
                         checked.failed / checked.attempted)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_checkout()
        refs = build_reference(args.workload, args.seed)
        cli, grammars, setups = set_up(args.workload)
        items = pool(args.workload, args.seed)
        if [r["text"] for r in refs] != [it.text for it in items]:
            raise BenchmarkError("reference pool differs from the workload pool")
        checked = Checked(cli, grammars,
                          WORKLOADS[args.workload].timed_render)
        if args.trace:
            metrics = traced_run(checked, items, refs,
                                 WORKLOADS[args.workload].trace_cycles)
        else:
            metrics = timed_run(checked, items, refs, args.seconds)
        setups += set_up(args.workload)[2]
        if args.trace:
            load_ms = statistics.median(load for _, load in setups) * 1e3
            metrics["grammar.load_ms"] = (load_ms, "ms")
        else:
            setup_s = statistics.median(setup for setup, _ in setups)
            metrics["setup_s"] = (setup_s, "s")
    except (CheckoutError, BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
