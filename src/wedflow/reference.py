"""Reference flows and small-parameter studies.

The benchmark dynamics are produced two ways: closed forms where the flow is
known (linear drift, Gaussian families in quantile coordinates, and the
coordinatewise double well and convex quartic), and the implicit proximal
iteration otherwise.  The study driver compares trajectory solves against
these references as the weight parameter shrinks and evaluates the descent
inequality that characterizes curves of maximal slope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energies import (
    CONVEX_QUARTIC, DOUBLE_WELL, EnergySpec, QUADRATIC, QUANTILE_ENTROPY, analytic_slopes,
    eval_many, prox,
)
from .errors import InvalidInputError, NotAvailableError
from .spaces import QUANTILE1D, Point, SpaceSpec, normal_quantile, row_distances
from .trajectories import TimeGrid, Trajectory, metric_speed
from .value import IdentityReport
from .wed import EULER_LAGRANGE, WedProblem, default_horizon, minimize_wed


@dataclass(frozen=True)
class MMSolution:
    """Proximal (implicit Euler) iterates, on a grid of the step tau."""

    trajectory: Trajectory
    movements: np.ndarray

    def at_times(self, ts) -> np.ndarray:
        """Piecewise-linear-in-time interpolant, one coordinate row per t: the
        iterates at the nodes, held past the last one."""
        ts = np.asarray(ts, dtype=float)
        nodes, pts = self.trajectory.grid.nodes, self.trajectory.points
        return np.stack([np.interp(ts, nodes, col) for col in pts.T], axis=-1)


def minimizing_movements(x_bar: Point, tau: float, steps: int, energy: EnergySpec) -> MMSolution:
    """``steps`` proximal steps of size tau from x_bar, in x_bar's space."""
    space = x_bar.space
    if tau <= 0.0 or steps < 1:
        raise InvalidInputError("need tau > 0 and steps >= 1")
    if energy.lam is not None and energy.lam < 0.0 and tau >= 1.0 / (2.0 * abs(energy.lam)):
        raise InvalidInputError("tau must stay below 1/(2|lambda|) for this energy")
    pts = np.empty((steps + 1, space.dim))
    pts[0] = x_bar.coords
    for k in range(steps):
        pts[k + 1] = prox(energy, space, pts[k:k + 1], tau)[1][0]
    movements = row_distances(space, pts[:-1], pts[1:])
    grid = TimeGrid(np.linspace(0.0, steps * tau, steps + 1))
    traj = Trajectory(grid, pts, space)
    return MMSolution(trajectory=traj, movements=movements)


# -- closed-form flows ------------------------------------------------------------


def exact_flow(energy: EnergySpec, x_bar: Point, t: float) -> Point:
    """State of the gradient flow from x_bar at time t (``exact_flows``)."""
    return Point(exact_flows(energy, x_bar, [t])[0], x_bar.space)


def exact_flows(energy: EnergySpec, x_bar: Point, ts) -> np.ndarray:
    """States of the gradient flow from x_bar at the times ts, one coordinate
    row per time, where ``has_exact_flow`` holds (``NotAvailableError``
    elsewhere).

    quadratic                  u(t) = x* + e^{-t A/w} (x_bar - x*), A x* = b
    quantile_entropy_potential Gaussian-family solution in quantile
                               coordinates (confined drift-diffusion); the
                               initial datum is matched by its mean and its
                               projection on the standard normal profile
    double_well                u_i(t) = x_i / sqrt(x_i^2 + (1 - x_i^2) e^{-2t/w})
    convex_quartic             u_i(t) = x_i / sqrt(1 + 2 x_i^2 t / w)

    w is the space's metric weight: every flow but the quantile one solves
    w u' = -grad phi, the gradient flow of the space's weighted l^2 metric.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise InvalidInputError("flow time must be nonnegative")
    if not has_exact_flow(energy, x_bar.space):
        raise NotAvailableError(f"no registered flow for {energy.kind!r} on {x_bar.space.kind!r}")
    if energy.kind == QUADRATIC:
        vals, vecs, r = _quadratic_modes(energy, x_bar.space)
        x_star = (vecs @ ((vecs.T @ (energy.params["b"] / r)) / vals)) / r
        z = vecs.T @ (r * (x_bar.coords - x_star))
        # a matrix-vector product per time: one matrix product of all rows may
        # round differently
        W = np.exp(-np.outer(ts, vals)) * z
        return x_star + (vecs @ W[:, :, None])[:, :, 0] / r
    if energy.kind == QUANTILE_ENTROPY:
        v2, v1 = energy.params["v2"], energy.params["v1"]
        z = normal_quantile(x_bar.space.quantile_nodes)
        m0 = float(np.mean(x_bar.coords))
        s0 = float(np.dot(x_bar.coords - m0, z) / np.dot(z, z))
        m_inf = -v1 / v2
        decay, decay2 = _libm_exp(np.stack([-v2 * ts, -2.0 * v2 * ts]))
        mt = m_inf + (m0 - m_inf) * decay
        var = 1.0 / v2 + (s0 * s0 - 1.0 / v2) * decay2
        return mt[:, None] + np.sqrt(var)[:, None] * z
    x, w = x_bar.coords, x_bar.space.metric_weight
    x2 = x * x
    if energy.kind == CONVEX_QUARTIC:
        return x / np.sqrt(1.0 + 2.0 * x2 * ts[:, None] / w)
    # the double well; the hilltop x_i = 0 stays at 0, with no 0/0 once
    # e^{-2t/w} underflows
    den = x2 + (1.0 - x2) * _libm_exp(-2.0 * ts[:, None] / w)
    return x / np.sqrt(np.where(x == 0.0, 1.0, den))


def _libm_exp(a: np.ndarray) -> np.ndarray:
    """e^a entry by entry with math.exp: numpy's vectorized exp need not round
    like libm's."""
    return np.array(list(map(math.exp, a.ravel().tolist()))).reshape(a.shape)


def _quadratic_modes(energy: EnergySpec, space: SpaceSpec):
    """Eigenpairs of A / w, w the metric weight, and the root weight r =
    sqrt(w): v = r (u - x*) then solves v' = -(A / w) v."""
    r = math.sqrt(space.metric_weight)
    vals, vecs = np.linalg.eigh(energy.params["A"] / (r * r))
    return vals, vecs, r


def has_exact_flow(energy: EnergySpec, space: SpaceSpec) -> bool:
    """Whether ``exact_flows`` has a closed form for ``energy`` on ``space``."""
    if energy.kind == QUANTILE_ENTROPY:
        return space.kind == QUANTILE1D and energy.params["v2"] > 0.0
    if energy.kind == QUADRATIC:
        return bool(np.all(np.abs(_quadratic_modes(energy, space)[0]) >= 1e-14))
    return energy.kind in (DOUBLE_WELL, CONVEX_QUARTIC)


# -- descent-inequality check ------------------------------------------------------


def max_slope_residuals(traj: Trajectory, energy: EnergySpec) -> np.ndarray:
    """Signed residual of the descent inequality

        1/2 int |u'|^2 + 1/2 int |dphi|^2(u) + phi(u(t)) <= phi(u(0))

    at every node, left side minus right, with the slope taken analytically:
    a curve of maximal slope keeps it <= 0, and exact flows saturate it.
    """
    v = metric_speed(traj)
    dt = traj.grid.dt
    phis = eval_many(energy, traj.points)
    slopes = analytic_slopes(energy, traj.space, traj.points[:-1])
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (v * v + slopes * slopes) * dt)])
    return acc + phis - phis[0]


# -- convergence of minimizers to the flow ------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    sup_err: float
    lsc_residual: float
    runtime_s: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    def __post_init__(self):
        for r in self.rows:
            if not all(map(math.isfinite, (r.epsilon, r.sup_err, r.lsc_residual, r.runtime_s))):
                raise InvalidInputError("table entries must be finite")

    @property
    def sup_errors(self):
        return np.array([r.sup_err for r in self.rows])


def convergence_study(energy: EnergySpec, x_bar: Point, eps_list, t_obs: float,
                      N: int = 4000) -> ConvergenceTable:
    """Sup distance to the reference flow on [0, t_obs], one row per epsilon.

    Each epsilon is an Euler-Lagrange solve on the uniform grid of ``N``
    cells over ``default_horizon(eps, t_obs)``.  The reference is the
    closed-form flow where ``has_exact_flow`` finds one (quadratics, the
    double well, the convex quartic, the confined quantile flow), otherwise
    the proximal iteration at the step tau = min(eps)^2 / 4, much finer than
    every epsilon in the sweep.  ``eps_list`` must decrease strictly.
    """
    if any(e1 >= e0 for e0, e1 in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("epsilons must decrease strictly")
    space = x_bar.space
    rows = []
    mm_ref = None
    if not has_exact_flow(energy, space):
        tau = 0.25 * min(eps_list) ** 2
        mm_ref = minimizing_movements(x_bar, tau, int(math.ceil(t_obs / tau)), energy)
    for eps in eps_list:
        start = time.perf_counter()
        sol = minimize_wed(WedProblem(epsilon=eps, T=default_horizon(eps, t_obs), N=N,
                                      space=space, energy=energy, x_bar=x_bar,
                                      solver=EULER_LAGRANGE))
        nodes = sol.trajectory.grid.nodes
        sel = nodes <= t_obs + 1e-12
        ts, pts = nodes[sel], sol.trajectory.points[sel]
        ref = exact_flows(energy, x_bar, ts) if mm_ref is None else mm_ref.at_times(ts)
        sub = Trajectory(TimeGrid(ts), pts, space)
        rows.append(ConvergenceRow(
            epsilon=float(eps),
            sup_err=float(np.max(row_distances(space, pts, ref))),
            lsc_residual=float(np.max(np.maximum(max_slope_residuals(sub, energy), 0.0))),
            runtime_s=time.perf_counter() - start,
        ))
    return ConvergenceTable(tuple(rows))


# -- convexity-regime diagnostics ----------------------------------------------------


def lambda_diagnostics(sol) -> IdentityReport:
    """Monotonicity/convexity structure of the energy along a minimizer, for
    the modulus lam of the solve's energy.

    lam >= 0 : phi(u(t)) nonincreasing and convex, |u'| nonincreasing.
    lam <  0 : phi(u(t)) nonincreasing and, with lam' = lam - 0.25 and the
               parameter small enough that 1 + 8 lam eps > 0.5,
               e^{2 lam' t} |u'|^2 nonincreasing.

    Violations are normalized by tolerances worth ten grid units of each
    quantity's total variation (first order for monotonicity, second order
    for convexity).
    """
    lam = sol.problem.energy.lam
    if lam is None:
        raise InvalidInputError("the lambda diagnostics need a convexity modulus")
    eps = sol.problem.epsilon
    nodes = sol.trajectory.grid.nodes
    dt = sol.trajectory.grid.dt
    T = float(nodes[-1])
    hmax = float(np.max(dt))
    phis = sol.phi
    v = sol.speed

    def mono_viol(q):
        scale = max(float(np.max(q) - np.min(q)), 1e-15)
        tol = 10.0 * scale * hmax / T
        return float(np.max(np.maximum(np.diff(q), 0.0))) / tol

    checks = {}
    checks["phi_nonincreasing"] = mono_viol(phis)
    if lam >= 0.0:
        checks["speed_nonincreasing"] = mono_viol(v)
        scale = max(float(np.max(phis) - np.min(phis)), 1e-15)
        tol = 10.0 * scale * (hmax / T) ** 2
        second = phis[2:] - 2.0 * phis[1:-1] + phis[:-2]
        checks["phi_convex"] = float(np.max(np.maximum(-second, 0.0))) / tol
    else:
        if 1.0 + 8.0 * lam * eps <= 0.5:
            raise InvalidInputError(
                "epsilon too large for the weighted-speed test: need 1 + 8 lam eps > 0.5"
            )
        weighted = np.exp(2.0 * (lam - 0.25) * nodes[:-1]) * v * v
        checks["weighted_speed_nonincreasing"] = mono_viol(weighted)
    resid = np.asarray(list(checks.values()))
    return IdentityReport(
        name="lambda",
        residuals=resid,
        tolerance=1.0,
        details=checks,
    )
