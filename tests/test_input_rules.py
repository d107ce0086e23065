"""Each input rule has one home: errors.py alone decides the model, the state length and reads the 2^M guard."""

import ast
from pathlib import Path

import numpy as np
import pytest

from fracrevival import chain, oracle, quotient, walk
from fracrevival.errors import InvalidInputError

SRC = Path(__file__).resolve().parents[1] / "src" / "fracrevival"
MODEL_REFUSALS = ("need N >= 2", "alpha and beta must be finite")
LENGTH_REFUSAL = "must have length"


def _strings(node):
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _breaches(source: str):
    """Environment reads, model and length refusals and `N < 2` tests anywhere in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield f"line {node.lineno}: reads the environment"
        if isinstance(node, ast.Raise) and any(r in s for s in _strings(node) for r in MODEL_REFUSALS):
            yield f"line {node.lineno}: raises a model refusal"
        if isinstance(node, ast.Raise) and any(LENGTH_REFUSAL in s for s in _strings(node)):
            yield f"line {node.lineno}: raises a length refusal"
        if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Lt)
                and getattr(node.left, "id", getattr(node.left, "attr", None)) == "N"
                and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 2):
            yield f"line {node.lineno}: tests N < 2"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_errors_decides_the_model_and_reads_the_guard(path):
    breaches = list(_breaches(path.read_text()))
    if path.name == "errors.py":
        assert len(breaches) == 5  # REVIVAL_MAX_M, N < 2, both refusals of require_model, require_length
    else:
        assert breaches == []


WALK = walk.WalkSpec(M=3, alpha=1.0, beta=1.0)
# The keys are the test ids, so the three oracle functions keep the ids of their first homes.
WRONG_LENGTH = {
    "walk.evolve_graph": (8, lambda psi: walk.evolve_graph(WALK, psi, 1.0)),
    "walk.dense_oracle_evolve": (8, lambda psi: oracle.dense_oracle_evolve(WALK, psi, 1.0)),
    "scheme.apply_adjacency": (8, lambda psi: oracle.apply_adjacency(oracle.SchemeOperator(3, 1), psi)),
    "quotient.project": (8, lambda psi: quotient.project(quotient.ColumnBasis(4), psi)),
    "quotient.lift": (4, lambda coords: oracle.lift(quotient.ColumnBasis(4), coords)),
    "chain.chain_evolve": (4, lambda psi: chain.chain_evolve(chain.ChainSpec(4, 1.0, 1.0), psi, 1.0)),
}


@pytest.mark.parametrize("name", sorted(WRONG_LENGTH))
@pytest.mark.parametrize("shape", [(3,), (9,), (2, 4)])
def test_every_state_of_the_wrong_length_gets_the_one_refusal(name, shape):
    length, call = WRONG_LENGTH[name]
    with pytest.raises(InvalidInputError) as info:
        call(np.zeros(shape, dtype=complex))
    assert str(info.value) == f"state must have length {length}, got shape {shape}"
