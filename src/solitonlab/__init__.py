"""Numerical laboratory for algebraic Ricci solitons on solvable Lie groups.

Layers, bottom to top: `liealg` (structure constants and derivations),
`leftinv` (curvature of left-invariant metrics), `soliton` (certificates
and the closed-form unnormalized solution), `stability` (linearization
spectra), `flow` (ODE integration and decay fits), `coordfield`
(chart-based FD operator, weights, discrete norms), `catalog` (built-in
examples), `cli` (command-line front end).
"""

from .errors import (DomainError, GridTooCoarse, GridTooLarge, InvalidInput,
                     InvalidMetric, InvalidPerturbation, InvalidWeight,
                     NotInCatalog, SingularityReached, StiffnessError,
                     UnsupportedDerivation)
from .liealg import (LieAlgebra, ValidationReport, ad, bracket, change_basis,
                     derivation_space, is_derivation, series_flags, validate)
from .leftinv import (CurvaturePackage, check_metric, curvature,
                      curvature_action, lichnerowicz, lie_derivative_term,
                      orthonormal_frame, ricci)
from .soliton import (SolitonCertificate, VerificationReport,
                      exact_unnormalized_solution, solve_soliton, verify_soliton)
from .stability import (StabilityReport, classify, decay_abscissa, ode_jacobian,
                        stability_operator)
from .flow import (ConvergenceExperiment, FitResult, FlowTrajectory,
                   convergence_experiment, fit_decay_rate, flow_field, integrate,
                   perturb, predicted_rate, relax_fit, rhs_normalized,
                   rhs_unnormalized)
from .coordfield import (AnnulusCover, ChartMetric, GridSpec, WeightSpec,
                         apply_L_fd, build_annulus_cover, chart_metric,
                         distance_field, probe_tensor_suite, radial_bump,
                         rayleigh_quotient, summability_check,
                         weighted_holder_norm)
from .catalog import CatalogEntry, get

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
