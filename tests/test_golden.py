"""The golden corpus: every command line of tests/golden/corpus.txt keeps its exit code, stdout and stderr."""

import importlib.util
import shlex
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_line_of_the_corpus_keeps_its_bytes(monkeypatch):
    monkeypatch.delenv("REVIVAL_MAX_M", raising=False)
    regenerate = _regenerate()
    expected = [line.split("  ", 1) for line in regenerate.CORPUS.read_text().splitlines()]
    moved = [argv for sha, argv in expected if regenerate.digest(shlex.split(argv)) != sha]
    assert moved == []


def test_the_corpus_lists_the_command_lines_of_the_script_in_order():
    regenerate = _regenerate()
    listed = [line.split("  ", 1)[1] for line in regenerate.CORPUS.read_text().splitlines()]
    assert listed == [shlex.join(argv) for argv in regenerate.argvs()]
