"""Numerical laboratory for algebraic Ricci solitons on solvable Lie groups.

Layers, bottom to top: `liealg` (structure constants and derivations),
`leftinv` (curvature of left-invariant metrics), `soliton` (certificates
and the closed-form unnormalized solution), `stability` (linearization
spectra), `flow` (ODE integration and decay fits), `coordfield`
(chart-based FD operator, weights, discrete norms), `catalog` (built-in
examples), `cli` (command-line front end).

The package loads lazily (PEP 562): ``import solitonlab`` imports no
layer, and each name in ``__all__``, a layer or one of its exports,
imports its module on first access.  So a caller loads only the layers it
uses.  scipy loads with `leftinv` (LAPACK) and the layers that import it
(`stability`, `flow`); in `soliton` and `coordfield` only the functions
that exponentiate or search a graph import it, so `liealg`, `catalog`,
the chart models and the weight sums need numpy alone.
"""

import importlib

__version__ = "0.1.0"

#: each layer and the names the package exports from it
_EXPORTS = {
    "errors": ("DomainError", "GridTooCoarse", "GridTooLarge", "InvalidInput",
               "InvalidMetric", "InvalidPerturbation", "InvalidWeight",
               "NotInCatalog", "SingularityReached", "StiffnessError",
               "UnsupportedDerivation"),
    "liealg": ("LieAlgebra", "ValidationReport", "ad", "bracket", "change_basis",
               "derivation_space", "is_derivation", "series_flags", "validate"),
    "leftinv": ("CurvaturePackage", "check_metric", "curvature",
                "curvature_action", "lichnerowicz", "lie_derivative_term",
                "orthonormal_frame", "ricci"),
    "soliton": ("SolitonCertificate", "VerificationReport",
                "exact_unnormalized_solution", "solve_soliton", "verify_soliton"),
    "stability": ("StabilityReport", "classify", "decay_abscissa", "ode_jacobian",
                  "stability_operator"),
    "flow": ("ConvergenceExperiment", "FitResult", "FlowTrajectory",
             "convergence_experiment", "fit_decay_rate", "flow_field", "integrate",
             "perturb", "predicted_rate", "relax_fit", "rhs_normalized",
             "rhs_unnormalized"),
    "coordfield": ("AnnulusCover", "ChartMetric", "GridSpec", "WeightSpec",
                   "apply_L_fd", "build_annulus_cover", "chart_metric",
                   "distance_field", "probe_tensor_suite", "radial_bump",
                   "rayleigh_quotient", "summability_check",
                   "weighted_holder_norm"),
    "catalog": ("CatalogEntry", "get"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value     # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
