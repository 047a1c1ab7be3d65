"""Bounded-energy occupancy ensembles.

Exact finite-N occupancy distributions under a per-particle energy cap,
their limiting maximum-entropy statistics for three degeneracy-growth
regimes, and the interior/boundary fluctuation laws, with exact enumeration
and sampling utilities for desk-scale verification.

Names are loaded on first use (PEP 562), so importing the package loads no
submodule; NumPy is imported only by the code that holds arrays over
states (ensemble, fluctuations, the sampler's array functions), so the
limit side and the Metropolis chain's step loop run without it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "DegeneracyAssignment", "EnsembleSpec", "EnumerationBudgetError",
        "Regime", "SolverError", "SpecValidationError", "degeneracies_for",
        "make_spec", "threshold_energy", "validate_spec",
    ),
    "ensemble": (
        "Distribution", "LayerDecomposition", "build_distribution",
        "enumerate_states", "exact_covariance", "exact_mean",
        "layer_decomposition", "mgf",
    ),
    "entropy": (
        "approximation_error", "level_log_weights", "limit_entropy",
        "limit_entropy_hessian_diag", "scaling_factor",
    ),
    "fluctuations": (
        "FluctuationPrediction", "empirical_fluctuations", "predict_boundary",
        "predict_interior", "rotation_basis",
    ),
    "maxent": (
        "MaxEntSolution", "MaximumKind", "classify_maximum", "solve",
    ),
    "sampler": ("ChainConfig", "exact_sample", "iid_draws", "metropolis_chain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
