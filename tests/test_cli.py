import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import dlgram.coordination
from dlgram import load_grammar, parse
from dlgram.cli import emit_json, main
from dlgram.grammar import MAX_TERM_DEPTH
from oracle_impls import pp_gap_pool, untabled_predict

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

WOODS_FORM = ("exists(V0,window(V0),and(def(V1,car(V1),"
              "drove_through(john,V1,V0)),demolished(john,V0)))")


@pytest.fixture(scope="session")
def english_path():
    return str(resources.files("dlgram") / "grammars" / "english_sem.dlg")


@pytest.fixture(scope="session")
def french_path():
    return str(resources.files("dlgram") / "grammars" / "french_syn.dlg")


def test_parse_woods(english_path, capsys):
    rc = main(["parse", "-g", english_path,
               "-s", "john drove the car through and demolished a window"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out == [WOODS_FORM]


def test_parse_french_trace(french_path, capsys):
    rc = main(["parse", "-g", french_path,
               "-s", "jean mange une pomme rouge et une verte", "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "np(6,8)" in out
    assert "np(2,8)" in out
    assert "n(7,7)" in out


def test_parse_reports_no_parse_after_a_deep_prediction(capsys):
    # the revival round predicts c1 after "and" through one c0 subgoal
    # per u: 200 levels deep, and the search still ends in a plain answer
    words = "v and w " + " ".join(["u"] * 200)
    rc = main(["parse", "-g", str(Path(__file__).parent / "deep_chain.dlg"),
               "-s", words])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, f"no parse: {words}\n", "")


def test_check_ok(english_path, capsys):
    rc = main(["check", "-g", english_path])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_bad_grammar(tmp_path, capsys):
    p = tmp_path / "bad.dlg"
    for source, lines in [
            ("np --> det, adj.\ndet --> [the].\n",
             ["error: undefined category adj (line 1)"]),
            ("s --> np.\nnp --> [a].\nconj(X) --> [and].\n",
             ["error: conjunction conj(X) must name a constant connective "
              "(line 3)"]),
            ("s --> np.\nnp --> [a].\nconj(f(X)) --> [and].\n",
             ["error: conjunction conj(f(X)) must name a constant connective "
              "(line 3)"]),
            ("s --> np.\nnp --> [a].\nconj(X) --> [and].\nnp --> zz.\n",
             ["error: undefined category zz (line 4)",
              "error: conjunction conj(X) must name a constant connective "
              "(line 3)"])]:
        p.write_text(source)
        rc = main(["check", "-g", str(p)])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.splitlines() == lines
        # parse prints the same lines, each once, on stderr
        assert main(["parse", "-g", str(p), "-s", "a and a"]) == 2
        assert capsys.readouterr().err == "".join(ln + "\n" for ln in lines)
    # what the reader rejects: check and parse print the same single line,
    # with a single prefix, on stderr, and no traceback
    for source, err in [
            ("s --> np\n", "error: expected DOT, found '' at line 2, column 1"),
            ("% nothing\n", "error: a grammar needs at least one rule"),
            ("@scope s \u00b2.\ns(X) --> [a].\n",
             "error: unexpected character '\u00b2' at line 1, column 10"),
            ("@conj c.\ns --> [a].\n",
             "error: conjunction directive names unknown category c "
             "(line 1)")]:
        p.write_text(source, encoding="utf-8")
        assert main(["parse", "-g", str(p), "-s", "a"]) == 2
        assert capsys.readouterr().err == err + "\n"
        assert main(["check", "-g", str(p)]) == 2
        assert capsys.readouterr() == ("", err + "\n")


def test_term_depth_is_bounded(tmp_path, capsys):
    # a head whose variable sits at the bottom of s(f(f(...X...))): the
    # reader takes MAX_TERM_DEPTH nested compounds and rejects one more
    # with a single line, before the recursive term walks could end in a
    # RecursionError traceback
    p = tmp_path / "deep.dlg"

    def write(depth):
        nested = "f(" * (depth - 1) + "X" + ")" * (depth - 1)
        p.write_text(f"s({nested}) --> t(X).\nt(a) --> [a].\n")
        return "f(" * (depth - 1) + "a" + ")" * (depth - 1)

    form = write(MAX_TERM_DEPTH)
    assert main(["parse", "-g", str(p), "-s", "a", "--json", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out.splitlines()[-1])
    assert [r["logical_form"] for r in doc["parses"]] == [form]
    write(MAX_TERM_DEPTH + 1)
    err = (f"error: term nested more than {MAX_TERM_DEPTH} deep "
           f"at line 1, column {2 * MAX_TERM_DEPTH + 1}\n")
    assert main(["parse", "-g", str(p), "-s", "a", "--json", "--trace"]) == 2
    assert capsys.readouterr() == ("", err)
    assert main(["check", "-g", str(p)]) == 2
    assert capsys.readouterr() == ("", err)


def test_missing_grammar_file(english_path, tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("r\u00e9sum\u00e9 --> [caf\u00e9].\n".encode("latin-1"))
    # missing, a directory, not UTF-8
    for path in ("/nonexistent.dlg", str(tmp_path), str(latin1)):
        assert main(["parse", "-g", path, "-s", "x"]) == 2
        assert main(["check", "-g", path]) == 2
        assert main(["parse", "-g", english_path, "-f", path]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}\n" * 3


def test_failed_parse_exit_code(english_path, capsys):
    rc = main(["parse", "-g", english_path, "-s", "john drove"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("no parse")


def test_layer_cap_exit_code(english_path, capsys):
    rc = main(["parse", "-g", english_path, "-s", "john laughed",
               "--layer-cap", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "layer cap" in err


def test_json_french(french_path, capsys):
    rc = main(["parse", "-g", french_path,
               "-s", "jean mange une pomme rouge et une verte", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert list(doc.keys()) == ["tokens", "edges", "parses", "constraints"]
    assert doc["tokens"][0] == "jean"
    conj = [e for e in doc["edges"] if e["cat"] == "conj"]
    assert [(e["start"], e["end"]) for e in conj] == [(5, 6)]
    assert list(conj[0].keys()) == ["id", "cat", "args", "start", "end",
                                    "layer", "provenance"]
    assert len(doc["parses"]) == 1
    assert doc["constraints"][0]["status"] == "resolved"


def test_json_failed_parse(english_path, capsys):
    rc = main(["parse", "-g", english_path, "-s", "john drove", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["parses"] == []


def test_json_woods_constraints(english_path, capsys):
    rc = main(["parse", "-g", english_path, "--json",
               "-s", "john drove the car through and demolished a window"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    c = doc["constraints"][0]
    assert list(c.keys()) == ["N", "M", "connective", "status", "resolutions"]
    assert (c["N"], c["M"], c["status"]) == (5, 6, "resolved")
    assert len(c["resolutions"]) == 1
    assert doc["parses"][0]["logical_form"] == WOODS_FORM


def test_json_and_human_agree(english_path, capsys):
    sentence = "each man ate an apple and a pear"
    main(["parse", "-g", english_path, "-s", sentence])
    human = set(capsys.readouterr().out.strip().splitlines())
    main(["parse", "-g", english_path, "-s", sentence, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert {p["logical_form"] for p in doc["parses"]} == human


def test_reshape_flags(english_path, capsys):
    sentence = "each man ate an apple and a pear"
    rc = main(["parse", "-g", english_path, "-s", sentence,
               "--no-meta-coord", "--reshape"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    # distribution does not apply here (restriction is atomic), so the
    # form passes through unchanged
    assert out.startswith("each(V0,man(V0),and(")


def test_reshape_distributes_conjoined_restriction(english_path, capsys):
    # the meta-level reading of this sentence conjoins the restrictions,
    # which is exactly what distribution then splits apart
    sentence = "each man and each woman ate an apple"
    main(["parse", "-g", english_path, "-s", sentence])
    plain = capsys.readouterr().out.strip().splitlines()
    assert any(",and(man(" in f for f in plain)

    rc = main(["parse", "-g", english_path, "-s", sentence, "--reshape"])
    reshaped = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert not any(",and(man(" in f for f in reshaped)
    assert any(f.startswith("and(each(V0,man(V0),") for f in reshaped)

    main(["parse", "-g", english_path, "-s", sentence, "--reshape", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert {p["logical_form"] for p in doc["parses"]} == set(reshaped)


def test_sentence_file_order(french_path, tmp_path, capsys):
    f = tmp_path / "sents.txt"
    f.write_text("jean mange une pomme rouge\n\njean mange\n")
    rc = main(["parse", "-g", french_path, "-f", str(f)])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 1  # second sentence fails
    assert out == ["sent", "no parse: jean mange"]


def test_no_meta_coord_flag(french_path, capsys):
    rc = main(["parse", "-g", french_path, "--no-meta-coord",
               "-s", "jean mange une pomme rouge et une verte"])
    assert rc == 1


def test_all_coord_flag_runs(english_path, capsys):
    rc = main(["parse", "-g", english_path, "--all-coord",
               "-s", "john drove the car through and demolished a window"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert WOODS_FORM in out


def test_gap_budget_flag(french_path, capsys):
    rc = main(["parse", "-g", french_path, "--gap-budget", "0",
               "-s", "jean mange une pomme rouge et une verte"])
    assert rc == 1


def test_bad_flag_values(english_path, capsys):
    assert main(["parse", "-g", english_path, "-s", "x", "--layer-cap", "0"]) == 2
    assert capsys.readouterr().err == "error: layer cap must be at least 1\n"
    assert main(["parse", "-g", english_path, "-s", "x", "--gap-budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: gap budget must be nonnegative\n"


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dlgram.cli", *argv],
        capture_output=True, timeout=120)


def test_byte_identical_across_processes(english_path):
    argv = ["parse", "-g", english_path, "--trace", "--json",
            "-s", "john drove the car through and demolished a window"]
    a = _run_cli(*argv)
    b = _run_cli(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty


# tests/golden/<name>_cli.txt: stdout of parse --trace --json
GOLDEN_RUNS = [
    # every provenance kind in both renderings
    ("woods", "english_sem",
     ["-s", "john drove the car through and demolished a window"]),
    # a leftward prediction that commits a nested four-edge tree
    ("rnr", "english_sem",
     ["-s", "john drove a car through and mary demolished a window"]),
    # two gaps in one predicted np
    ("french_gap2", "french_syn",
     ["-s", "jean mange une pomme rouge et une", "--gap-budget", "2"]),
    # a leftward prediction whose committed siblings are both new edges,
    # so their commit order shows
    ("np_coord_gap2", "english_sem",
     ["-s", "each man and each woman ate an apple", "--gap-budget", "2",
      "--all-coord"]),
    # no parse after the first pass: the revival round predicts pp(8,11)
    # with gaps, combines pp(4,11) and closure goes on to sent(0,11)
    ("revival", "perfbench/pp_gap.dlg",
     ["-s", "jean voit une table avec une femme et avec sur une",
      "--gap-budget", "2"]),
    # budget 3 on the left-recursive PP grammar: seven predicted edges and
    # three gaps in one committed tree
    ("pp_gap3", "perfbench/pp_gap.dlg",
     ["-s", "jean voit une femme sur une table avec une femme et avec sur une",
      "--gap-budget", "3"]),
]


def _grammar_path(grammar):
    """A shipped grammar by name, or a .dlg file by its path in the
    repository."""
    if grammar.endswith(".dlg"):
        return ROOT / grammar
    return resources.files("dlgram") / "grammars" / f"{grammar}.dlg"


@pytest.mark.parametrize("name,grammar,argv", GOLDEN_RUNS,
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_trace_json_golden(name, grammar, argv):
    # the trace lines and the chart dump, byte for byte
    out = _run_cli("parse", "-g", str(_grammar_path(grammar)),
                   "--trace", "--json", *argv)
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / f"{name}_cli.txt").read_bytes()


def _parse_output(grammar, sentence, gap_budget, all_coord):
    """(trace lines, constraint log, --json document) of one parse."""
    lines = []
    run = parse(grammar, sentence, all_solutions=all_coord,
                gap_budget=gap_budget, trace=lines.append)
    doc = json.dumps(emit_json(run.results, run.chart, run.constraints))
    return lines, run.log, doc


def _untabled_cases():
    """(grammar, sentence, gap budget, --all-coord) for the comparison."""
    pp_gap = str(ROOT / "perfbench" / "pp_gap.dlg")
    cases = [(pp_gap, text, budget, False)
             for text, budget in pp_gap_pool(1)]
    for _name, grammar, argv in GOLDEN_RUNS:
        sentence = argv[argv.index("-s") + 1]
        for budget in range(4):
            cases.append((str(_grammar_path(grammar)), sentence, budget,
                          "--all-coord" in argv))
    # leftward prediction over english_sem's right-recursive np, where
    # predict reuses a level's answers once they stop changing
    english = str(_grammar_path("english_sem"))
    for conjuncts in (3, 4):
        chain = " and ".join(["each table"] * conjuncts)
        for budget in (1, 2):
            cases.append((english, f"a apple saw {chain}", budget, True))
    return cases


def test_tabled_predict_matches_untabled(monkeypatch):
    # the answer table changes how often predict searches a subgoal, not
    # what it finds: trace, constraint log and chart dump stay the same
    grammars = {}
    for path, sentence, budget, all_coord in _untabled_cases():
        grammar = grammars.setdefault(path, load_grammar(path))
        tabled = _parse_output(grammar, sentence, budget, all_coord)
        with monkeypatch.context() as m:
            m.setattr(dlgram.coordination, "predict", untabled_predict)
            untabled = _parse_output(grammar, sentence, budget, all_coord)
        assert tabled == untabled, (sentence, budget, all_coord)


def _console_script_target(name):
    """The "module:function" a [project.scripts] entry names, read from
    pyproject.toml with a line scan (tomllib needs Python 3.11)."""
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, _, value = line.partition("=")
            if key.strip() == name:
                return value.strip().strip('"')
    raise LookupError(f"no console script {name!r} in {pyproject}")


def test_runs_as_a_module():
    # python -m dlgram, from a checkout as from an installed package
    out = subprocess.run(
        [sys.executable, "-m", "dlgram", "check", "-g",
         str(ROOT / "src" / "dlgram" / "grammars" / "english_sem.dlg")],
        capture_output=True, timeout=120)
    assert out.returncode == 0
    assert out.stdout == b"ok\n"


def test_console_entry_point_matches_module(english_path):
    # run the declared entry point the way the installed wrapper does,
    # so the test needs no `pip install` to put `dlgram` on PATH
    module, _, func = _console_script_target("dlgram").partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    argv = ["parse", "-g", english_path, "-s", "john laughed"]
    via_module = _run_cli(*argv)
    via_script = subprocess.run([sys.executable, "-c", wrapper, *argv],
                                capture_output=True, timeout=120)
    assert via_module.returncode == via_script.returncode == 0
    assert via_module.stdout == via_script.stdout == b"laugh(john)\n"


def test_package_exports_resolve():
    # every public name the package declares is importable from it
    import dlgram
    missing = [name for name in dlgram.__all__ if not hasattr(dlgram, name)]
    assert missing == []
