"""Laplacian controllability toolkit for lobster networks.

Identifies minimal eigenvector supports (minimum perfect critical sets),
selects leader sets for lobster trees via a staged detector pipeline, and
certifies every positive verdict with an exact rational rank oracle.
"""
from .control import (
    ControllabilityVerdict,
    controllable_certified,
    HittingSetResult,
    MinLeaderResult,
    count_to_probability,
    kalman_controllable_exact,
    min_leader_bruteforce,
    minimum_hitting_set,
    pbh_controllable,
)
from .csa import LeaderReport, run_csa, step6_fallback_vertices
from .experiments import (
    SweepConfig,
    SweepResult,
    run_success_probability,
    write_csv,
)
from .graph import (
    AttachmentProfile,
    Graph,
    GraphError,
    LobsterSpec,
    attachment_profile,
    build_lobster,
    find_spine,
    laplacian,
    parse_graph,
    random_lobster,
    serialize_graph,
)
from .mpcs import (
    CriticalRecord,
    MpcsCatalog,
    QUAD_EIGENVALUE,
    SPINE_EIGENVALUES,
    detect_quads,
    detect_spine_patterns,
    detect_twins,
    enumerate_mpcs_bruteforce,
    is_critical,
    is_mpcs,
    is_perfect_critical,
    verify_mpcs,
)
from .spectral import (
    Eigenspace,
    SpectralDecomposition,
    Witness,
    eigen_decompose,
    exists_support_exactly,
    vanishing_subspace,
)

__version__ = "0.1.0"
