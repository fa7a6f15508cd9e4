"""The CLI's bytes out, run by run, against the checked-in sweep.

tests/byte_sweep.txt is the output of `python tests/byte_sweep.py`, one
line per run: argv, exit code, sha256 of stdout and of stderr.  This
test recomputes every line in-process, through cli.main with the
checkout as working directory, and names the runs whose line differs.
A change that alters output on purpose rewrites the file with the
script and says which runs changed and why.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import byte_sweep
from dlgram import cli

SWEEP_FILE = Path(__file__).parent / "byte_sweep.txt"


def _run(argv: list) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of one in-process run."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                for _ in range(2))
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def test_cli_output_matches_the_checked_in_byte_sweep(monkeypatch):
    monkeypatch.chdir(byte_sweep.ROOT)
    expected = SWEEP_FILE.read_text().splitlines()
    got = [byte_sweep.fingerprint(argv, *_run(argv))
           for argv in byte_sweep.argvs()]
    assert len(got) == len(expected)
    changed = [f"  now:  {g}\n  file: {e}"
               for g, e in zip(got, expected) if g != e]
    assert not changed, (f"{len(changed)} of {len(got)} runs differ from "
                         f"{SWEEP_FILE.name}:\n" + "\n".join(changed))
