"""Reference flows and small-parameter studies.

The benchmark dynamics are produced two ways: closed forms where the flow is
known (linear drift, Gaussian families in quantile coordinates), and the
implicit proximal iteration otherwise.  The study driver compares trajectory
solves against these references as the weight parameter shrinks and evaluates
the descent inequality that characterizes curves of maximal slope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energies import (
    EnergySpec, QUADRATIC, QUANTILE_ENTROPY, analytic_slopes, eval_many, yosida, yosida_coord,
)
from .errors import InvalidInputError, NotAvailableError
from .spaces import QUANTILE1D, Point, SpaceSpec, normal_quantile, row_distances
from .trajectories import TimeGrid, Trajectory, metric_speed
from .value import IdentityReport
from .wed import EULER_LAGRANGE, WedProblem, default_horizon, minimize_wed


@dataclass(frozen=True)
class MMSolution:
    """Proximal (implicit Euler) iterates with step tau."""

    trajectory: Trajectory
    argmins: np.ndarray
    movements: np.ndarray
    tau: float

    def at_times(self, ts) -> np.ndarray:
        """Piecewise-constant-in-time interpolant, one coordinate row per t."""
        idx = np.clip((np.asarray(ts, dtype=float) / self.tau).astype(int), 0,
                      self.trajectory.points.shape[0] - 1)
        return self.trajectory.points[idx]


def minimizing_movements(x_bar: Point, tau: float, steps: int,
                         energy: EnergySpec, space: SpaceSpec) -> MMSolution:
    if tau <= 0.0 or steps < 1:
        raise InvalidInputError("need tau > 0 and steps >= 1")
    if energy.lam is not None and energy.lam < 0.0 and tau >= 1.0 / (2.0 * abs(energy.lam)):
        raise InvalidInputError("tau must stay below 1/(2|lambda|) for this energy")
    pts = np.empty((steps + 1, space.dim))
    pts[0] = x_bar.coords
    if space.dim == 1 and space.kind != QUANTILE1D:
        # one-point proximal steps on Python floats
        y = float(x_bar.coords[0])
        for k in range(steps):
            y = yosida_coord(energy, space, y, tau)[1]
            pts[k + 1, 0] = y
    else:
        cur = x_bar
        for k in range(steps):
            cur = yosida(energy, space, cur, tau)[1]
            pts[k + 1] = cur.coords
    movements = row_distances(space, pts[:-1], pts[1:])
    grid = TimeGrid(np.linspace(0.0, steps * tau, steps + 1), "uniform")
    traj = Trajectory(grid, pts, space)
    return MMSolution(trajectory=traj, argmins=pts[1:].copy(), movements=movements, tau=tau)


# -- closed-form flows ------------------------------------------------------------


def exact_flow(energy: EnergySpec, x_bar: Point, t: float) -> Point:
    """State of the gradient flow from x_bar at time t (``exact_flows``)."""
    return Point(exact_flows(energy, x_bar, [t])[0], x_bar.space)


def exact_flows(energy: EnergySpec, x_bar: Point, ts) -> np.ndarray:
    """States of the gradient flow from x_bar at the times ts, one coordinate
    row per time, for registered kinds.

    quadratic                  u(t) = x* + e^{-At}(x_bar - x*), A x* = b
    quantile_entropy_potential Gaussian-family solution in quantile
                               coordinates (confined drift-diffusion); the
                               initial datum is matched by its mean and its
                               projection on the standard normal profile
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise InvalidInputError("flow time must be nonnegative")
    if energy.kind == QUADRATIC:
        A, b = energy.params["A"], energy.params["b"]
        vals, vecs = np.linalg.eigh(A)
        if np.any(np.abs(vals) < 1e-14):
            raise NotAvailableError("singular quadratic has no registered flow")
        x_star = vecs @ ((vecs.T @ b) / vals)
        z = vecs.T @ (x_bar.coords - x_star)
        # a matrix-vector product per time: one matrix product of all rows may
        # round differently
        W = np.exp(-np.outer(ts, vals)) * z
        return x_star + (vecs @ W[:, :, None])[:, :, 0]
    if energy.kind == QUANTILE_ENTROPY:
        if x_bar.space.kind != QUANTILE1D:
            raise InvalidInputError("quantile flow needs quantile coordinates")
        v2, v1 = energy.params["v2"], energy.params["v1"]
        if v2 <= 0.0:
            raise NotAvailableError("gaussian flow needs a confining v2 > 0")
        z = normal_quantile(x_bar.space.quantile_nodes)
        m0 = float(np.mean(x_bar.coords))
        s0 = float(np.dot(x_bar.coords - m0, z) / np.dot(z, z))
        m_inf = -v1 / v2
        # math.exp per time: numpy's vectorized exp need not round like libm's
        decay = np.array([math.exp(-v2 * t) for t in ts.tolist()])
        decay2 = np.array([math.exp(-2.0 * v2 * t) for t in ts.tolist()])
        mt = m_inf + (m0 - m_inf) * decay
        var = 1.0 / v2 + (s0 * s0 - 1.0 / v2) * decay2
        return mt[:, None] + np.sqrt(var)[:, None] * z
    raise NotAvailableError(f"no registered flow for kind {energy.kind!r}")


def has_exact_flow(energy: EnergySpec) -> bool:
    return energy.kind == QUADRATIC or (
        energy.kind == QUANTILE_ENTROPY and energy.params["v2"] > 0.0
    )


# -- descent-inequality check ------------------------------------------------------


def check_max_slope(traj: Trajectory, energy: EnergySpec, phi0: float,
                    tol: float, equality: bool = False) -> IdentityReport:
    """Residual of the descent (in)equality

        1/2 int |u'|^2 + 1/2 int |dphi|^2(u) + phi(u(t)) <= phi(u(0))

    at every node, with the slope taken analytically.  ``equality`` turns the
    check two-sided (exact flows saturate the inequality).
    """
    v = metric_speed(traj)
    dt = traj.grid.dt
    phis = eval_many(energy, traj.points)
    slopes = analytic_slopes(energy, traj.space, traj.points[:-1])
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (v * v + slopes * slopes) * dt)])
    resid = acc + phis - phi0
    resid = np.abs(resid) if equality else np.maximum(resid, 0.0)
    return IdentityReport(
        name="max_slope",
        residuals=resid,
        max_residual=float(np.max(resid)),
        tolerance=tol,
        details={"equality": equality},
    )


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
        eps = [r.epsilon for r in self.rows]
        if any(e1 >= e0 for e0, e1 in zip(eps, eps[1:])):
            raise InvalidInputError("epsilons must decrease strictly")
        for r in self.rows:
            if not all(map(math.isfinite, (r.epsilon, r.sup_err, r.lsc_residual, r.runtime_s))):
                raise InvalidInputError("table entries must be finite")

    @property
    def sup_errors(self):
        return np.array([r.sup_err for r in self.rows])


@dataclass(frozen=True)
class StudyOptions:
    N: int = 4000
    solver: str = EULER_LAGRANGE
    grad_tol: float = 1e-8
    max_iter: int = 100
    mm_tau_factor: float = 0.25  # reference step tau = factor * eps^2
    grid_mode: str = "uniform"


def convergence_study(energy: EnergySpec, x_bar: Point, eps_list, t_obs: float,
                      opts: StudyOptions | None = None) -> ConvergenceTable:
    """Sup distance to the reference flow on [0, t_obs], one row per epsilon.

    The reference is the closed-form flow when registered, otherwise the
    proximal iteration at a step much finer than every epsilon in the sweep.
    """
    opts = opts or StudyOptions()
    space = x_bar.space
    rows = []
    mm_ref = None
    if not has_exact_flow(energy):
        tau = opts.mm_tau_factor * min(eps_list) ** 2
        mm_ref = minimizing_movements(x_bar, tau, int(math.ceil(t_obs / tau)), energy, space)
    for eps in eps_list:
        start = time.perf_counter()
        problem = WedProblem(
            epsilon=eps,
            T=default_horizon(eps, t_obs),
            N=opts.N,
            space=space,
            energy=energy,
            x_bar=x_bar,
            grid_mode=opts.grid_mode,
            solver=opts.solver,
            grad_tol=opts.grad_tol,
            max_iter=opts.max_iter,
        )
        sol = minimize_wed(problem)
        nodes = sol.trajectory.grid.nodes
        sel = nodes <= t_obs + 1e-12
        ts, pts = nodes[sel], sol.trajectory.points[sel]
        ref = exact_flows(energy, x_bar, ts) if mm_ref is None else mm_ref.at_times(ts)
        sub = Trajectory(TimeGrid(ts, "uniform"), pts, space)
        lsc = check_max_slope(sub, energy, float(sol.phi[0]), tol=math.inf)
        rows.append(ConvergenceRow(
            epsilon=float(eps),
            sup_err=float(np.max(row_distances(space, pts, ref))),
            lsc_residual=lsc.max_residual,
            runtime_s=time.perf_counter() - start,
        ))
    return ConvergenceTable(tuple(rows))


# -- convexity-regime diagnostics ----------------------------------------------------


def lambda_diagnostics(sol, lam: float, lam_prime: float | None = None) -> IdentityReport:
    """Monotonicity/convexity structure of the energy along a minimizer.

    lam >= 0 : phi(u(t)) nonincreasing and convex, |u'| nonincreasing.
    lam <  0 : phi(u(t)) nonincreasing and, given lam' < lam with the
               parameter small enough that 1 + 8 lam eps > 0.5,
               e^{2 lam' t} |u'|^2 nonincreasing.

    Violations are normalized by tolerances worth ten grid units of each
    quantity's total variation (first order for monotonicity, second order
    for convexity).
    """
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
        if lam_prime is None or lam_prime >= lam:
            raise InvalidInputError("negative-modulus diagnostics need lam' < lam")
        if 1.0 + 8.0 * lam * eps <= 0.5:
            raise InvalidInputError(
                "epsilon too large for the weighted-speed test: need 1 + 8 lam eps > 0.5"
            )
        weighted = np.exp(2.0 * lam_prime * nodes[:-1]) * v * v
        checks["weighted_speed_nonincreasing"] = mono_viol(weighted)
    resid = np.asarray(list(checks.values()))
    return IdentityReport(
        name="lambda",
        residuals=resid,
        max_residual=float(np.max(resid)),
        tolerance=1.0,
        details=checks,
    )
