"""Tests of the benchmark itself: run with  python3 -m pytest -q perfbench

They check that tracing leaves dlgram as it found it and does not change
what an operation returns, that the traced counts repeat, that the
output check rejects a wrong chart, and that BENCHMARK.json names the
metrics run.py prints.
"""

import json

import pytest

from workloads import (GRAMMAR_FILES, ROOT, WORKLOADS, parse_op, pool, render,
                       require_checkout)

require_checkout(need_tests=True)

import dlgram.cli as cli  # noqa: E402
from dlgram.grammar import load_grammar  # noqa: E402

from reference import build  # noqa: E402
from run import Checked, _counts, layer_metrics, mismatch, traced_op  # noqa: E402
from tracer import Tracer, patched_attributes  # noqa: E402

GRAMMARS = {name: load_grammar(path) for name, path in GRAMMAR_FILES.items()}


def _small_items():
    """A few cheap sentences of every workload."""
    np_chain = pool("np-chain", 7)[:3]
    pp_gap = pool("pp-gap", 7)[:1]  # one PP, tail "P une": the cheapest
    return np_chain + pp_gap + pool("short-mix", 7)[::4]


def _op(item):
    outcome, lines = parse_op(cli, GRAMMARS, item)
    return render(cli, GRAMMARS[item.grammar], outcome), lines


def test_installed_restores_every_attribute():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr in patched_attributes()]
    assert len(before) > 15
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in before)
        _op(pool("short-mix", 1)[0])
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert tracer.stats["engine.match_rule"][0] > 0


def test_installed_restores_after_an_exception():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr in patched_attributes()]
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_traced_output_equals_untraced_output():
    items = _small_items()
    untraced = [_op(it) for it in items]
    tracer = Tracer()
    with tracer.installed():
        traced = []
        for it in items:
            with tracer.span("op"):
                traced.append(_op(it))
    assert traced == untraced
    assert tracer.stats["op"][0] == len(items)
    assert tracer.stats["terms.closure.unify_all"][0] > 0
    assert tracer.counts["engine.predict.build_calls"] > 0


def test_traced_counts_repeat_and_output_matches_reference():
    items = pool("pp-gap", 3)[:1] + pool("short-mix", 3)
    refs = {e["text"]: e for e in build("short-mix", 3)["entries"]}
    refs.update({e["text"]: e for e in build("pp-gap", 3)["entries"][:1]})
    for ref in refs.values():
        ref["keys"] = {tuple(k) for k in ref["keys"]}
    ops = [(it, refs[it.text]) for it in items]
    checked = Checked(cli, GRAMMARS, timed_render=True)
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        for item, ref in ops:
            traced_op(checked, item, ref, tracer)
    assert checked.failed == 0 and checked.attempted == 2 * len(ops)
    assert _counts(tracers[0]) == _counts(tracers[1])


def test_mismatch_rejects_a_wrong_chart_forms_or_oracle():
    item = next(it for it in pool("short-mix", 5) if it.oracle == "woods")
    ref = next(e for e in build("short-mix", 5)["entries"]
               if e["text"] == item.text)
    ref["keys"] = {tuple(k) for k in ref["keys"]}
    outcome, lines = parse_op(cli, GRAMMARS, item)
    out = outcome, render(cli, GRAMMARS[item.grammar], outcome), lines
    assert mismatch(cli, ref, *out) is None
    fewer = dict(ref, keys=set(sorted(ref["keys"])[1:]))
    assert "1 extra" in mismatch(cli, fewer, *out)
    assert "logical forms" in mismatch(cli, dict(ref, forms=["x"]), *out)
    assert "reshaped" in mismatch(cli, dict(ref, reshaped=["x"]), *out)
    wrong_oracle = dict(ref, expect={"count": 2})
    assert "oracle has 2" in mismatch(cli, wrong_oracle, *out)


def test_pools_are_seeded_and_stratified():
    for name in WORKLOADS:
        assert pool(name, 11) == pool(name, 11)
        assert pool(name, 11) != pool(name, 12)
        assert len(pool(name, 11)) == len(pool(name, 12))
    for item in pool("short-mix", 11):
        assert 1 <= len(item.text.split()) <= 10
    lengths = [it.text.count(" and ") + 1 for it in pool("np-chain", 11)]
    assert sorted(set(lengths)) == list(range(3, 14))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    per_layer = layer_metrics([tracer], 1, 0.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_value, unit) in per_layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "sentences_per_s", "parse_ms_p50", "parse_ms_p90",
        "cpu_ms_per_sentence", "setup_s", "peak_rss_mb"}
