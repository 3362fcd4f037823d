"""Classically exact simulation and verification of quantum backtracking search.

The library builds the quantum-walk machinery for backtracking trees with any
number of marked vertices, computes exact phase- and amplitude-estimation
measurement statistics, runs the resistance-estimation and marked-vertex
search procedures with full query accounting, and verifies every structural
identity against independent classical oracles.
"""

from .trees import (
    MarkedSet,
    MarkingOracle,
    NoSolutionTree,
    SolutionTree,
    Tree,
    TreeStructureError,
    build_complete_tree,
    build_dpll_tree,
    build_path,
    build_random_tree,
    build_star,
    shallowest_marked,
    solution_tree,
    tree_from_json,
    tree_to_json,
)
from .resistance import (
    ResistanceProfile,
    kappa_assignment,
    kappa_eta,
    resistance_bruteforce,
    resistance_profile,
    verify_kappa,
)
from .walk import (
    SpectralDecomposition,
    WalkOperator,
    beta_angle,
    build_walk_operator,
    phi_m_state,
    phi_perp_state,
    phi_state,
    psi_v,
    spectral_decomposition,
    szegedy_spectrum,
    xi_vector,
)
from .estimation import (
    GATE_DIM_CAP,
    MAX_ANCILLAS,
    ResourceLimitError,
    ae_outcome_distribution,
    ae_outcome_grid,
    gate_level_pe,
    pe_ancillas,
    pe_distribution,
    pe_joint,
    pe_kernel,
    pearson_chi2,
    total_variation,
)

__version__ = "0.1.0"
