"""Variational approximation of metric gradient flows by exponentially
weighted energy-dissipation minimization, with the associated value function
and a battery of identity checks."""

__version__ = "0.1.0"

from .energies import (
    Coercivity, EnergySpec, analytic_slope, analytic_slopes, convex_quartic, discrete_dirichlet,
    double_well, energy_eval, quadratic, quantile_entropy_potential, q_value,
)
from .errors import (
    DegenerateCurveError, DomainError, InvalidInputError, NonConvergenceError,
    NotAvailableError, WedflowError,
)
from .reference import (
    ConvergenceTable, MMSolution, convergence_study, exact_flow, exact_flows,
    lambda_diagnostics, max_slope_residuals, minimizing_movements,
)
from .spaces import Point, SpaceSpec, distance, gaussian_quantiles, normal_quantile, point
from .trajectories import (
    TimeGrid, Trajectory, Weights, g_reparam, metric_speed, poincare_witness, spectral_check,
)
from .value import (
    IdentityReport, ValueCache, ValueOptions, ValueSample,
    check_dpp, check_eps_monotonicity, check_fundamental_identity, check_hj,
    check_inner_variation, check_yosida_bound, conditioned_slope_estimate, finsler_distance,
    value_along, value_function, wed_slope_compare,
)
from .wed import (
    WedProblem, WedSolution, default_horizon,
    minimize_wed, solve_euler_lagrange, wed_value,
)
