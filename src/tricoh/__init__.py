"""Coherence decompositions and adiabatic sweeps for tripartite qubit systems.

The package computes distance-based coherence measures built on the quantum
Jensen-Shannon divergence, the trade-off relations that tie them together,
and adiabatic ground-state sweeps (exact and Trotterized) for two three-qubit
spin models with two-body and three-body couplings.
"""

from .adiabatic import (
    Schedule,
    SweepResult,
    evolve,
    find_crossing,
    gap_adaptive_schedule,
    ground_sweep,
    linear_schedule,
    load_schedule,
    min_steps_search,
    refocus_params,
    trotter_error_scaling,
    trotter_pair,
)
from .coherence import (
    CoherenceReport,
    Tetrahedron,
    coherence_report,
    coherence_reports,
    dist,
    embed_tetrahedron,
    qjsd,
    relative_entropy,
    von_neumann_entropy,
)
from .models import ModelParams, NmrParams, hamiltonian, spin_op
from .perturbation import (
    PerturbationSplit,
    SecularResult,
    secular_solve,
    zz_fidelity_formula,
    zz_first_order_ground,
    zzz_fidelity_formula,
    zzz_first_order_ground,
    zzz_split,
)
from .qmat import (
    eig_hermitian,
    load_density,
    partial_trace,
    root_fidelity,
    save_density,
    state_fidelity,
    unitary_fidelity,
    validate_density,
)
from .states import make_pps, make_state, marginals, pi_product, split_1_23

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "ModelParams",
    "NmrParams",
    "PerturbationSplit",
    "Schedule",
    "SecularResult",
    "SweepResult",
    "Tetrahedron",
    "coherence_report",
    "coherence_reports",
    "dist",
    "eig_hermitian",
    "embed_tetrahedron",
    "evolve",
    "find_crossing",
    "gap_adaptive_schedule",
    "ground_sweep",
    "hamiltonian",
    "linear_schedule",
    "load_density",
    "load_schedule",
    "make_pps",
    "make_state",
    "marginals",
    "min_steps_search",
    "partial_trace",
    "pi_product",
    "qjsd",
    "refocus_params",
    "relative_entropy",
    "root_fidelity",
    "save_density",
    "secular_solve",
    "spin_op",
    "split_1_23",
    "state_fidelity",
    "trotter_error_scaling",
    "trotter_pair",
    "unitary_fidelity",
    "validate_density",
    "von_neumann_entropy",
    "zz_fidelity_formula",
    "zz_first_order_ground",
    "zzz_fidelity_formula",
    "zzz_first_order_ground",
    "zzz_split",
]
