"""Variational approximation of metric gradient flows by exponentially
weighted energy-dissipation minimization, with the associated value function
and a battery of identity checks."""

__version__ = "0.1.0"

from .energies import (
    Coercivity, EnergySpec, SlopeEstimate, analytic_slope, analytic_slopes, convex_quartic,
    discrete_dirichlet, double_well, energy_eval, energy_grad, local_slope,
    quadratic, quantile_entropy_potential, q_value, yosida,
)
from .errors import (
    DegenerateCurveError, DomainError, InvalidInputError, NonConvergenceError,
    NotAvailableError, WedflowError,
)
from .reference import (
    ConvergenceTable, MMSolution, StudyOptions, check_max_slope,
    convergence_study, exact_flow, exact_flows, lambda_diagnostics, minimizing_movements,
)
from .spaces import (
    Point, SpaceSpec, distance, gaussian_quantiles, geodesic_point,
    normal_quantile, point,
)
from .trajectories import (
    TimeGrid, Trajectory, Weights, arclength_reparam, g_reparam, metric_speed,
    poincare_witness, spectral_check, weighted_ibp_check,
)
from .value import (
    FinslerOptions, IdentityReport, ProbeOptions, ValueCache, ValueOptions,
    ValueSample, check_dpp, check_eps_monotonicity, check_fundamental_identity,
    check_hj, check_yosida_bound, conditioned_slope_estimate, finsler_distance,
    value_along, value_function, wed_slope_compare,
)
from .wed import (
    WedProblem, WedSolution, check_inner_variation, default_horizon,
    minimize_wed, solve_euler_lagrange, wed_value,
)
