"""Weighted energy-dissipation minimization over discrete trajectories.

Two backends produce the same minimizer by different routes:

* ``minimize_wed`` descends the discrete weighted objective directly
  (damped Newton on the exact block-tridiagonal Hessian, row-scaled by the
  per-node mass so the elimination stays well conditioned across the
  exponentially decaying weights);
* ``solve_euler_lagrange`` discretizes the second-order optimality system
  -eps u'' + u' + grad phi(u) = 0 with an initial value at 0 and a zero-slope
  condition at the far end of the computational window.

Both initialize at the constant trajectory, which always has finite cost
equal to phi of the initial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import EnergySpec, eval_many, grad_many, hess_many
from .errors import DomainError, InvalidInputError, NonConvergenceError
from .newton import damped_newton, levenberg
from .spaces import PNORM, Point, SpaceSpec
from .trajectories import (
    EXP_GRADED, GRID_MODES, UNIFORM, TimeGrid, Trajectory, Weights, metric_speed,
)

DIRECT = "direct"
EULER_LAGRANGE = "euler_lagrange"
SOLVERS = (DIRECT, EULER_LAGRANGE)

# With the horizon at least this multiple of eps the tail weight is below
# 1.4e-11 and the truncated problem is indistinguishable from the
# infinite-horizon one at solver tolerance.
HORIZON_FACTOR = 25.0


def default_horizon(eps: float, t_obs: float) -> float:
    return max(t_obs, HORIZON_FACTOR * eps)


@dataclass(frozen=True)
class WedProblem:
    epsilon: float
    T: float
    N: int
    space: SpaceSpec
    energy: EnergySpec
    x_bar: Point
    grid_mode: str = UNIFORM
    solver: str = DIRECT
    grad_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.epsilon <= 0.0 or self.T <= 0.0 or self.N < 1:
            raise InvalidInputError("need epsilon > 0, T > 0, N >= 1")
        if self.solver not in SOLVERS:
            raise InvalidInputError(f"unknown solver {self.solver!r}")
        if self.grid_mode not in GRID_MODES:
            raise InvalidInputError(f"unknown grid mode {self.grid_mode!r}")
        if self.space.kind == PNORM and self.space.p != 2.0:
            raise InvalidInputError("trajectory solvers need an inner-product metric (p = 2)",
                                    "space")
        co = self.energy.coercivity
        if co is None:
            raise InvalidInputError("energy provides no coercivity constants", "energy")
        if 1.0 / (16.0 * self.epsilon) < co.B:
            raise InvalidInputError(
                f"well-posedness requires 1/(16 eps) >= B: eps={self.epsilon}, B={co.B}",
                "epsilon",
            )
        if self.x_bar.space != self.space:
            raise InvalidInputError("x_bar does not live in the problem space", "x_bar")
        if not math.isfinite(float(eval_many(self.energy, self.x_bar.coords[None, :])[0])):
            raise InvalidInputError("x_bar must have finite energy", "x_bar")

    def grid(self) -> TimeGrid:
        if self.grid_mode == EXP_GRADED:
            return TimeGrid.exp_graded(self.epsilon, self.T, self.N)
        return TimeGrid.uniform(self.T, self.N)


@dataclass(frozen=True)
class WedSolution:
    problem: WedProblem
    trajectory: Trajectory
    objective: float
    speed: np.ndarray
    phi: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float

    @property
    def weights(self) -> Weights:
        return Weights.for_grid(self.trajectory.grid, self.problem.epsilon)


def wed_value(problem: WedProblem, traj: Trajectory) -> float:
    """Discrete weighted cost of a trajectory starting at the problem datum."""
    grid = problem.grid()
    if traj.grid.nodes.shape != grid.nodes.shape or np.max(
        np.abs(traj.grid.nodes - grid.nodes)
    ) > 1e-12 * max(1.0, grid.T):
        raise InvalidInputError("trajectory grid does not match the problem grid")
    if not np.array_equal(traj.points[0], problem.x_bar.coords):
        raise InvalidInputError("trajectory must start at x_bar")
    w = Weights.for_grid(traj.grid, problem.epsilon)
    v = metric_speed(traj)
    phis = eval_many(problem.energy, traj.points)
    if not np.all(np.isfinite(phis)):
        return math.inf
    cost = float(np.sum(w.masses * (0.5 * problem.epsilon * v * v + phis[:-1])))
    return cost + w.tail * float(phis[-1])


# -- banded linear algebra -------------------------------------------------------


def solve_tridiag(sub, diag, sup, rhs):
    """Thomas elimination for a scalar tridiagonal system (no pivoting).

    The sweep runs on Python floats read and written through memoryviews:
    the same IEEE double arithmetic as on numpy scalars, at less cost.
    """
    n = diag.shape[0]
    a, b, c, r = (memoryview(np.ascontiguousarray(v, dtype=float)) for v in (sub, diag, sup, rhs))
    out, cp = np.empty(n), memoryview(np.empty(n))
    x = memoryview(out)  # the forward sweep, then the solution
    ck = xk = 0.0
    for k in range(n):
        ak = a[k - 1] if k else 0.0
        den = b[k] - ak * ck
        if den == 0.0:
            raise ZeroDivisionError("zero pivot")
        ck = c[k] / den if k < n - 1 else 0.0
        xk = (r[k] - ak * xk) / den
        cp[k], x[k] = ck, xk
    for k in range(n - 2, -1, -1):
        xk = x[k] - cp[k] * xk
        x[k] = xk
    return out


def solve_block_tridiag(sub, diag, sup, rhs):
    """Block Thomas elimination; diagonal blocks are dense (n, d, d), the off-
    diagonal blocks are diagonal and given by their diagonals (n - 1, d), rhs
    is (n, d)."""
    n, d = rhs.shape
    if d == 1:
        return solve_tridiag(sub[:, 0], diag[:, 0, 0], sup[:, 0], rhs[:, 0])[:, None]
    cp = np.empty((max(n - 1, 0), d, d))
    dp = np.empty((n, d))
    lu = np.linalg.inv(diag[0])
    if n > 1:
        cp[0] = lu * sup[0]
    dp[0] = lu @ rhs[0]
    for k in range(1, n):
        den = diag[k] - sub[k - 1][:, None] * cp[k - 1]
        lu = np.linalg.inv(den)
        if k < n - 1:
            cp[k] = lu * sup[k]
        dp[k] = lu @ (rhs[k] - sub[k - 1] * dp[k - 1])
    x = np.empty((n, d))
    x[-1] = dp[-1]
    for k in range(n - 2, -1, -1):
        x[k] = dp[k] - cp[k] @ x[k + 1]
    return x




# -- direct minimization ---------------------------------------------------------


def minimize_wed(problem: WedProblem) -> WedSolution:
    if problem.solver == EULER_LAGRANGE:
        return solve_euler_lagrange(problem)
    grid = problem.grid()
    w = Weights.for_grid(grid, problem.epsilon)
    eps, m, tail, dt = problem.epsilon, w.masses, w.tail, grid.dt
    omega = problem.space.metric_weights
    N = grid.n_cells
    c = eps * m / dt**2  # kinetic coupling per cell
    pw = np.concatenate([m[:-1] + m[1:], [m[-1] + tail]]) if N > 1 else np.array([m[-1] + tail])
    nodew = np.concatenate([m[1:], [tail]])  # energy weight per free node

    full = lambda V: np.concatenate([problem.x_bar.coords[None, :], V])  # U[0] = x_bar is pinned

    def evaluate(V):
        U = full(V)
        dU = np.diff(U, axis=0)
        phis = eval_many(problem.energy, U)
        if not np.all(np.isfinite(phis)):
            return math.inf, None  # grad_many raises off the quantile cone
        kin = 0.5 * eps * np.sum(m * np.sum(omega * dU * dU, axis=1) / dt**2)
        ke = (c[:, None] * dU) * omega
        g = np.zeros_like(U)
        g[:-1] -= ke
        g[1:] += ke
        g[:-1] += m[:, None] * grad_many(problem.energy, U[:-1])
        g[-1] += tail * grad_many(problem.energy, U[-1:])[0]
        return kin + float(np.sum(m * phis[:-1]) + tail * phis[-1]), g[1:]

    def dual_norm(g):
        return float(np.sqrt(np.sum(g * g / omega / pw[:, None])))

    def row_max(g):
        # per-node stationarity residual in the mass-normalized (EL) scale;
        # keeps the near-zero-mass tail honest even though it cannot move
        # the objective above roundoff
        return float(np.max(np.abs(g) / omega / pw[:, None]))

    def direction(V, g):
        step = _newton_direction(problem, full(V), g, c, nodew, pw, omega)
        return step, float(np.sum(g * step))

    V0 = np.tile(problem.x_bar.coords, (N, 1))
    start = evaluate(V0)
    gn0, rmax0 = dual_norm(start[1]), row_max(start[1])
    row_tol = 1e-6 * (1.0 + rmax0)
    V, f, g, it, _ = damped_newton(
        V0, start, evaluate, row_max,
        lambda g: dual_norm(g) <= problem.grad_tol and row_max(g) <= row_tol,
        direction, problem.max_iter,
    )
    U = full(V)
    gn, rmax = dual_norm(g), row_max(g)
    converged = gn <= max(problem.grad_tol, 1e-7 * (1.0 + gn0)) and rmax <= max(
        row_tol, 1e-4 * (1.0 + rmax0)
    )
    if not converged:
        raise NonConvergenceError(
            f"direct minimization stalled at gradient norm {gn:.3e} "
            f"(row residual {rmax:.3e})",
            best=U,
            trace=[("iterations", it), ("gradient_norm", gn), ("row_residual", rmax)],
        )
    traj = Trajectory(grid, U, problem.space)
    return WedSolution(
        problem=problem,
        trajectory=traj,
        objective=f,
        speed=metric_speed(traj),
        phi=eval_many(problem.energy, U),
        converged=True,
        iterations=it,
        gradient_norm=gn,
    )


def _newton_direction(problem, U, g, c, nodew, pw, omega):
    """Row-scaled Newton step with a deterministic Levenberg ladder."""
    W = np.diag(omega)
    diag = hess_many(problem.energy, U[1:])
    diag *= nodew[:, None, None]
    i = np.arange(U.shape[1])
    # kinetic coupling to the cells on both sides; the last node has one
    diag[:, i, i] += np.append(c[:-1] + c[1:], c[-1])[:, None] * omega
    sub = -c[1:, None] * omega
    sup = sub.copy()
    # scale row k by its preconditioner weight to tame the mass decay
    diag /= pw[:, None, None]
    sub /= pw[1:, None]
    sup /= pw[:-1, None]
    rhs = -g / pw[:, None]
    return levenberg(lambda rho: solve_block_tridiag(sub, diag + rho * W, sup, rhs),
                     g, -(g / omega) / pw[:, None])


# -- Euler-Lagrange backend -------------------------------------------------------


def solve_euler_lagrange(problem: WedProblem) -> WedSolution:
    """Damped Newton on the finite-difference optimality system.

    The computational window extends to max(T + 8 eps, 25 eps) with the
    problem's node spacing so that the artificial zero-slope end condition
    sits several boundary-layer widths past the reported horizon; the
    solution is then restricted (for uniform grids) or linearly interpolated
    (otherwise) onto the problem grid.
    """
    grid = problem.grid()
    eps = problem.epsilon
    dt = problem.T / problem.N
    # clear the reporting window by several boundary-layer widths (the layer
    # of the artificial end condition decays no slower than e^{-(T_ext-t)/eps})
    t_ext = max(default_horizon(eps, problem.T), problem.T + 8.0 * eps)
    n_c = max(problem.N, int(math.ceil(t_ext / dt - 1e-12)))
    omega = problem.space.metric_weights
    d = problem.space.dim
    full = lambda V: np.concatenate([problem.x_bar.coords[None, :], V])  # U[0] = x_bar is pinned
    i = np.arange(d)
    lo = np.full((n_c - 1, d), -eps / dt**2 - 1.0 / (2.0 * dt))
    up = np.full((n_c - 1, d), -eps / dt**2 + 1.0 / (2.0 * dt))
    if n_c >= 2:
        lo[-1] = -2.0 * eps / dt**2

    sup_norm = lambda F: float(np.max(np.abs(F)))

    def evaluate(V):
        # the residual F and its size max|F|; off the quantile cone grad_many
        # raises DomainError and the merit is inf
        U = full(V)
        try:
            G = grad_many(problem.energy, U[1:]) / omega
        except DomainError:
            return math.inf, None
        F = np.empty((n_c, d))
        upp = U[2:] - 2.0 * U[1:-1] + U[:-2]
        F[:-1] = -eps * upp / dt**2 + (U[2:] - U[:-2]) / (2.0 * dt) + G[:-1]
        # ghost-node zero-slope closure at the far end (second order)
        F[-1] = -2.0 * eps * (U[-2] - U[-1]) / dt**2 + G[-1]
        return sup_norm(F), F

    def direction(V, F):
        U = full(V)
        di = hess_many(problem.energy, U[1:])
        di /= omega[:, None]
        di[:, i, i] += 2.0 * eps / dt**2
        try:
            step = solve_block_tridiag(lo, di, up, -F)
        except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
            raise NonConvergenceError(f"singular Jacobian: {exc}", best=U)
        return step, -sup_norm(F)

    V0 = np.tile(problem.x_bar.coords, (n_c, 1))
    V, fn, _, it, trace = damped_newton(
        V0, evaluate(V0), evaluate, sup_norm,
        lambda F: sup_norm(F) <= problem.grad_tol, direction, problem.max_iter,
    )
    U = full(V)
    if fn > problem.grad_tol:
        raise NonConvergenceError(
            f"Euler-Lagrange Newton stopped at residual {fn:.3e} after {it} iterations",
            best=U, trace=trace,
        )
    pts = _restrict(U, dt, grid)
    traj = Trajectory(grid, pts, problem.space)
    return WedSolution(
        problem=problem,
        trajectory=traj,
        objective=wed_value(problem, traj),
        speed=metric_speed(traj),
        phi=eval_many(problem.energy, pts),
        converged=True,
        iterations=it,
        gradient_norm=fn,
    )


def _restrict(U, dt, grid):
    t_c = dt * np.arange(U.shape[0])
    nodes = grid.nodes
    if grid.mode == UNIFORM:
        return U[: nodes.shape[0]].copy()
    idx = np.clip(np.searchsorted(t_c, nodes, side="right") - 1, 0, U.shape[0] - 2)
    frac = (nodes - t_c[idx]) / dt
    return U[idx] + frac[:, None] * (U[idx + 1] - U[idx])


# -- inner-variation diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class InnerVariationReport:
    """Discrete residuals of the time-rescaling optimality identity."""

    residuals: np.ndarray
    speed_scale: float
    boundary_residual: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def check_inner_variation(sol: WedSolution) -> InnerVariationReport:
    """Residuals of d/dt(phi - eps/2 |u'|^2) = -|u'|^2 along the solution.

    Also verifies the boundary identity tying the objective to the value of
    phi - eps/2 |u'|^2 at time zero, with the finite-horizon correction
    carried by the tail weight.
    """
    if not sol.converged:
        raise InvalidInputError("inner-variation check needs a converged solution")
    eps = sol.problem.epsilon
    dt = sol.trajectory.grid.dt
    v = sol.speed
    phis = sol.phi
    N = v.shape[0]
    calv = np.empty(N + 1)
    calv[:-1] = phis[:-1] - 0.5 * eps * v * v
    calv[-1] = phis[-1] - 0.5 * eps * v[-1] * v[-1]
    resid = np.abs(np.diff(calv) / dt + v * v)
    tail = float(np.exp(-sol.trajectory.grid.T / eps))
    boundary = abs(sol.objective - (calv[0] + tail * (phis[-1] - calv[-1])))
    vmax = float(np.max(v * v)) if N else 0.0
    return InnerVariationReport(
        residuals=resid,
        speed_scale=vmax,
        boundary_residual=boundary,
    )
