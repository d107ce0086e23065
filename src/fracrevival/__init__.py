"""Balanced fractional revival on the hypercube with face diagonals.

Simulation and verification tools for continuous-time quantum walks on
{0,1}^M under (alpha/2) A_2 + (beta/2) A_1, the equivalent one-excitation
dynamics of the Krawtchouk chain with next-to-nearest-neighbour couplings,
and the arithmetic conditions under which they exhibit balanced fractional
revival or perfect state transfer between antipodes.
"""

from .chain import ChainOperator, ChainSpec, build_hamiltonian, chain_evolve, couplings, site_state
from .errors import InvalidInputError, ResourceLimitError
from .kraw import graph_eigenvalues
from .oracle import (
    SchemeOperator, apply_adjacency, dense_oracle_evolve, graph_eigenvalue, hamming_distance, intersection_number,
    krawtchouk, krawtchouk_hypergeometric, lift, remove_global_phase, spectrum_table, verify_bose_mesner_row,
)
from .quotient import ColumnBasis, ColumnState, equivalence_check, project, quotient_matrix_elements, verify_shifted_diagonal
from .revival import (
    BALANCED_FR,
    NONE,
    PST_ONLY,
    RevivalCertificate,
    appendix_phase_check,
    certify_numeric,
    check_conditions,
    scan_balanced_fr,
)
from .walk import (
    WalkSpec,
    antipodal_amplitudes,
    antipodal_scan,
    basis_state,
    corner_state,
    evolve_graph,
    fwht,
)

__version__ = "0.1.0"

__all__ = [
    "BALANCED_FR",
    "ChainOperator",
    "ChainSpec",
    "ColumnBasis",
    "ColumnState",
    "InvalidInputError",
    "NONE",
    "PST_ONLY",
    "ResourceLimitError",
    "RevivalCertificate",
    "SchemeOperator",
    "WalkSpec",
    "antipodal_amplitudes",
    "antipodal_scan",
    "appendix_phase_check",
    "apply_adjacency",
    "basis_state",
    "build_hamiltonian",
    "certify_numeric",
    "chain_evolve",
    "check_conditions",
    "corner_state",
    "couplings",
    "dense_oracle_evolve",
    "equivalence_check",
    "evolve_graph",
    "fwht",
    "graph_eigenvalue",
    "graph_eigenvalues",
    "hamming_distance",
    "intersection_number",
    "krawtchouk",
    "krawtchouk_hypergeometric",
    "lift",
    "project",
    "quotient_matrix_elements",
    "remove_global_phase",
    "scan_balanced_fr",
    "site_state",
    "spectrum_table",
    "verify_bose_mesner_row",
    "verify_shifted_diagonal",
]
