"""Finite-dimensional simulator and analyzer for quantum continual measurement."""

__version__ = "0.1.0"

from .analysis import (
    BlochHistogram,
    ErgodicReport,
    LieRankReport,
    VarianceDecomposition,
    build_ergodic_report,
    empirical_invariant_measure,
    lie_rank_check,
    linear_entropy,
    quantum_variance,
    time_average_state,
    variance_decomposition,
)
from .atom import (
    TwoLevelAtomSpec,
    generate_atom_model,
    standard_direct,
    standard_heterodyne,
    standard_homodyne,
)
from .engine import (
    EnsembleStats,
    LinearTrajectory,
    OutputRecord,
    PosteriorTrajectory,
    TimeGrid,
    run_ensemble,
    simulate_linear,
    simulate_posterior,
    simulate_stratonovich_pure,
)
from .linalg import (
    PureStateVector,
    QuantumState,
    haar_random_state_vector,
    hermitize,
    hs_norm,
    project_to_simplex,
    project_to_state,
    trace_norm,
    traceless_hermitian_basis,
)
from .master import (
    FlowResult,
    VectorizedLiouvillian,
    deterministic_flow,
    equilibrium,
    evolve_master,
    vectorized_liouvillian,
)
from .model import (
    JumpChannel,
    MeasurementModel,
    apply_jump,
    apply_k,
    apply_l0,
    apply_l1,
    apply_l2,
    apply_l3,
    apply_liouvillian,
    build_model,
    check_ellipticity,
    check_pure_preserving,
    check_purification_obstruction_dim2,
)
