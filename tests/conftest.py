import os
from pathlib import Path

import pytest

from dlgram import builtin_grammar

# the CLI tests start child processes: they import dlgram from this
# checkout too, as pyproject's pythonpath makes the suite itself do
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def english():
    return builtin_grammar("english_sem")


@pytest.fixture(scope="session")
def french():
    return builtin_grammar("french_syn")
