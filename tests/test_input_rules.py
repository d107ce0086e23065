"""Each input rule has one home: errors.py alone decides the model and reads the 2^M guard."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracrevival"
MODEL_REFUSALS = ("need N >= 2", "alpha and beta must be finite")


def _strings(node):
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _breaches(source: str):
    """Environment reads, model refusals and `N < 2` tests anywhere in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield f"line {node.lineno}: reads the environment"
        if isinstance(node, ast.Raise) and any(r in s for s in _strings(node) for r in MODEL_REFUSALS):
            yield f"line {node.lineno}: raises a model refusal"
        if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Lt)
                and getattr(node.left, "id", getattr(node.left, "attr", None)) == "N"
                and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 2):
            yield f"line {node.lineno}: tests N < 2"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_errors_decides_the_model_and_reads_the_guard(path):
    breaches = list(_breaches(path.read_text()))
    if path.name == "errors.py":
        assert len(breaches) == 4  # REVIVAL_MAX_M, N < 2 and both refusals of require_model
    else:
        assert breaches == []
