"""Bounded-energy occupancy ensembles.

Exact finite-N occupancy distributions under a per-particle energy cap,
their limiting maximum-entropy statistics for three degeneracy-growth
regimes, and the interior/boundary fluctuation laws, with exact enumeration
and sampling utilities for desk-scale verification.
"""

__version__ = "0.1.0"

from .core import (
    DegeneracyAssignment,
    DegeneracySchedule,
    EnsembleSpec,
    EnumerationBudgetError,
    Occupancy,
    Regime,
    SolverError,
    SpecValidationError,
    degeneracies_for,
    default_schedule,
    make_spec,
    threshold_energy,
    validate_spec,
)
from .ensemble import (
    ExactDistribution,
    LayerDecomposition,
    build_distribution,
    enumerate_states,
    exact_covariance,
    exact_mean,
    layer_decomposition,
    mgf,
)
from .entropy import (
    EntropyModel,
    approximation_error,
    entropy_exact,
    entropy_model_for,
    level_log_weights,
    limit_entropy,
    limit_entropy_grad,
    limit_entropy_hessian_diag,
    scaling_factor,
    stirling_log_gamma,
)
from .fluctuations import (
    FluctuationPrediction,
    FluctuationSummary,
    empirical_fluctuations,
    predict_boundary,
    predict_interior,
    rotation_basis,
)
from .maxent import (
    MaxEntSolution,
    MaximumKind,
    classify_maximum,
    kkt_stationarity_residual,
    oracle_grid_maximize,
    solve,
    solve_regime1_multipliers,
    solve_regime2_multipliers,
    solve_regime3_multipliers,
)
from .sampler import ChainConfig, exact_sample, metropolis_chain

__all__ = [name for name in dir() if not name.startswith("_")]
