"""Byte sweep: run the CLI over a fixed set of inputs and fingerprint
everything it prints, so that two checkouts can be compared run by run.

    python tests/byte_sweep.py > sweep.txt

runs `python -m dlgram parse --trace --json --reshape-too` from the
checkout this file is in, one process per run, in this order:

- each item of the three benchmark pools (np-chain, pp-gap, short-mix)
  at seeds 1-3, under gap budgets 1, 2 and the item's own, and again
  with --all-coord when the item has at most four conjunctions;
- the --all-coord chain "a apple saw each table and ..." at 2-7
  conjuncts, under gap budgets 1 and 2.

Each run prints one line: its argv (paths relative to the checkout),
its exit code, and the sha256 of its stdout and of its stderr.  The
pools are read from perfbench/workloads.py, which is not changed.  Two
checkouts keep the same bytes out when their outputs are identical.
Pytest does not collect this file; tests/byte_sweep.txt holds its
output, which test_byte_sweep.py recomputes in-process.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("np-chain", "pp-gap", "short-mix")
SEEDS = (1, 2, 3)
CONNECTIVES = ("and", "et")


def _workloads():
    """perfbench/workloads.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def sweep() -> list:
    """(grammar path, sentence, gap budget, all-coord) for every run."""
    workloads = _workloads()
    runs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for item in workloads.pool(name, seed):
                path = workloads.GRAMMAR_FILES[item.grammar].relative_to(ROOT)
                conjunctions = sum(item.text.split().count(c)
                                   for c in CONNECTIVES)
                coords = (False, True) if conjunctions <= 4 else (False,)
                for budget in dict.fromkeys((1, 2, item.gap_budget)):
                    runs += [(path, item.text, budget, all_coord)
                             for all_coord in coords]
    english = workloads.GRAMMAR_FILES["english_sem"].relative_to(ROOT)
    for conjuncts in range(2, 8):
        chain = " and ".join(["each table"] * conjuncts)
        runs += [(english, f"a apple saw {chain}", budget, True)
                 for budget in (1, 2)]
    return runs


def argvs() -> list:
    """The dlgram command line of every run, in sweep order."""
    out = []
    for path, sentence, budget, all_coord in sweep():
        argv = ["parse", "-g", str(path), "-s", sentence, "--trace", "--json",
                "--reshape-too", "--gap-budget", str(budget)]
        if all_coord:
            argv.append("--all-coord")
        out.append(argv)
    return out


def fingerprint(argv: list, code: int, stdout: bytes, stderr: bytes) -> str:
    """The sweep's line for one run."""
    return " ".join([str(argv), str(code), hashlib.sha256(stdout).hexdigest(),
                     hashlib.sha256(stderr).hexdigest()])


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in argvs():
        done = subprocess.run([sys.executable, "-m", "dlgram", *argv],
                              cwd=ROOT, env=env, capture_output=True)
        print(fingerprint(argv, done.returncode, done.stdout, done.stderr),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
