"""Reference code has one home: oracle.py defines it, and no production module imports it."""

import ast
from pathlib import Path

import pytest

import fracrevival
from fracrevival import oracle

SRC = Path(__file__).resolve().parents[1] / "src" / "fracrevival"
ORACLE_NAMES = {
    "krawtchouk", "krawtchouk_hypergeometric", "SpectrumTable", "spectrum_table", "SPECTRUM_MAX_M",
    "graph_eigenvalue", "hamming_distance", "SchemeOperator", "apply_adjacency", "intersection_number",
    "intersection_table", "BoseMesnerReport", "verify_bose_mesner_row", "dense_oracle_evolve",
    "remove_global_phase", "hopping_matrix", "lift",
}
PUBLIC = [
    "BALANCED_FR", "ChainOperator", "ChainSpec", "ColumnBasis", "ColumnState", "InvalidInputError", "NONE",
    "PST_ONLY", "ResourceLimitError", "RevivalCertificate", "SchemeOperator", "WalkSpec",
    "antipodal_amplitudes", "antipodal_scan", "appendix_phase_check", "apply_adjacency", "basis_state",
    "build_hamiltonian", "certify_numeric", "chain_evolve", "check_conditions", "corner_state", "couplings",
    "dense_oracle_evolve", "equivalence_check", "evolve_graph", "fwht", "graph_eigenvalue", "graph_eigenvalues",
    "hamming_distance", "intersection_number", "krawtchouk", "krawtchouk_hypergeometric", "lift", "project",
    "quotient_matrix_elements", "remove_global_phase", "scan_balanced_fr", "site_state", "spectrum_table",
    "verify_bose_mesner_row", "verify_shifted_diagonal",
]


def _imports_oracle(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracle" or any(a.name == "oracle" for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "oracle" for a in node.names):
            return True
    return False


def _defined(tree) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_package_init_imports_the_oracle(path):
    tree = ast.parse(path.read_text())
    assert _imports_oracle(tree) == (path.name == "__init__.py")
    if path.name == "oracle.py":
        assert _defined(tree) >= ORACLE_NAMES
    else:
        assert _defined(tree) & ORACLE_NAMES == set()


def test_the_package_exports_the_same_names():
    assert sorted(fracrevival.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(fracrevival, name)
        if name in ORACLE_NAMES:
            assert value is getattr(oracle, name)
