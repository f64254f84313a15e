"""The value function of the trajectory problem and its identity checks.

V(x) is the minimal weighted cost over trajectories started at x.  Along any
minimizer it satisfies, in the continuum,

    tail identity    V(x) = cost on [0, T'] + e^{-T'/eps} V(u(T'))
    rate identity    -dV(u(t))/dt = |u'|^2(t)/2 + (phi - V)(u(t))/eps
    pointwise form   V(u(t)) = phi(u(t)) - eps/2 |u'|^2(t)

and as eps decreases V(x) increases to phi(x).  The checks below evaluate the
discrete counterparts of these statements and report residuals against
grid-scaled tolerances.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .energies import EnergySpec, analytic_slope, energy_eval, q_value, yosida
from .errors import InvalidInputError
from .newton import damped_newton, golden_section
from .spaces import QUANTILE1D, Point, SpaceSpec, distance
from .trajectories import EXP_GRADED, TimeGrid, Trajectory, Weights, row_values
from .wed import (
    DIRECT, WedProblem, WedSolution, default_horizon, minimize_wed, solve_block_tridiag,
)


@dataclass(frozen=True)
class ValueSample:
    x: Point
    epsilon: float
    V: float
    G: float
    phi: float
    solve_ref: WedSolution

    def __post_init__(self):
        if self.G < 0.0 or not math.isfinite(self.V):
            raise InvalidInputError("malformed value sample")


@dataclass(frozen=True)
class IdentityReport:
    name: str
    residuals: np.ndarray
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


@dataclass(frozen=True)
class ValueOptions:
    """How value samples are produced: grid, horizon, solver, caching.

    With ``cache=None`` every request is solved afresh and nothing is kept.
    """

    T: float | None = None  # None: 25 eps
    N: int = 4000
    grid_mode: str = EXP_GRADED
    solver: str = DIRECT
    grad_tol: float = 1e-8
    max_iter: int = 100
    cache: "ValueCache | None" = None


class ValueCache:
    """LRU cache of value solves; not thread-safe.

    Keys hold every input of the solve; coordinates are rounded to 1e-12 so
    probe sweeps reuse center solves.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()

    @staticmethod
    def key(energy: EnergySpec, x: Point, eps: float, T: float, opts: ValueOptions):
        space = x.space
        return (energy.key(), space.kind, space.dim, space.p, float(eps), float(T),
                opts.N, opts.grid_mode, opts.solver, opts.grad_tol, opts.max_iter,
                np.round(x.coords, 12).tobytes())

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)


def value_function(energy: EnergySpec, x: Point, epsilon: float,
                   opts: ValueOptions | None = None) -> ValueSample:
    """Solve for V(x) and the induced gradient surrogate G(x).

    G = sqrt(2 (phi - V)^+ / eps) is the quantity that plays the role of the
    slope of phi in the small-eps limit.
    """
    opts = opts or ValueOptions()
    space = x.space
    T = opts.T if opts.T is not None else default_horizon(epsilon, 0.0)
    key = None if opts.cache is None else ValueCache.key(energy, x, epsilon, T, opts)
    sol = None if key is None else opts.cache.get(key)
    if sol is None:
        problem = WedProblem(
            epsilon=epsilon,
            T=T,
            N=opts.N,
            space=space,
            energy=energy,
            x_bar=x,
            grid_mode=opts.grid_mode,
            solver=opts.solver,
            grad_tol=opts.grad_tol,
            max_iter=opts.max_iter,
        )
        sol = minimize_wed(problem)
        if key is not None:
            opts.cache.put(key, sol)
    phi = energy_eval(energy, x)
    V = sol.objective
    slack = 1e-8 * (1.0 + abs(phi))
    if V > phi + slack or V < -q_value(energy, space, x) - slack:
        raise InvalidInputError(
            f"value sample violates phi(x) >= V >= -Q(x): phi={phi}, V={V}"
        )
    G = math.sqrt(2.0 * max(0.0, phi - V) / epsilon)
    return ValueSample(x=x, epsilon=epsilon, V=min(V, phi), G=G, phi=phi, solve_ref=sol)


def value_along(sol: WedSolution) -> np.ndarray:
    """V at every node of a converged solve, read off the tail of the cost.

    Computed from suffix sums so no precision is lost against the growing
    factor e^{t/eps}; the first entry is the objective exactly.
    """
    w = sol.weights
    eps = sol.problem.epsilon
    cell = w.masses * (0.5 * eps * sol.speed**2 + sol.phi[:-1])
    suffix = np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])
    suffix += w.tail * sol.phi[-1]
    V = np.exp(sol.trajectory.grid.nodes / eps) * suffix
    V[0] = sol.objective  # same sum up to association order
    return V


def check_dpp(sol: WedSolution, horizons, opts: ValueOptions | None = None) -> IdentityReport:
    """Tail identity at finite restart times.

    The identity holds nearly exactly by construction of ``value_along``; the
    substantive test re-solves from the trajectory point at each restart time
    and compares the fresh value with the tail value.
    """
    V = value_along(sol)
    nodes = sol.trajectory.grid.nodes
    eps = sol.problem.epsilon
    w = sol.weights
    cell = w.masses * (0.5 * eps * sol.speed**2 + sol.phi[:-1])
    prefix = np.concatenate([[0.0], np.cumsum(cell)])
    resid = []
    details = {"horizons": [], "construction": [], "fresh": []}
    for tp in horizons:
        i = int(np.argmin(np.abs(nodes - tp)))
        cons = abs(V[0] - (prefix[i] + math.exp(-nodes[i] / eps) * V[i]))
        xi = sol.trajectory.point_at(i)
        fresh = value_function(sol.problem.energy, xi, eps, opts)
        rel = abs(fresh.V - V[i]) / max(abs(V[i]), 1e-9)
        resid.append(rel)
        details["horizons"].append(float(nodes[i]))
        details["construction"].append(cons)
        details["fresh"].append(rel)
    return IdentityReport(
        name="dpp",
        residuals=np.asarray(resid),
        max_residual=float(np.max(resid)) if resid else 0.0,
        tolerance=5e-3,
        details=details,
    )


def check_fundamental_identity(sol: WedSolution) -> IdentityReport:
    """Rate identity, its pointwise form, and the cumulative energy identity.

    The identities are statements about the unbounded-horizon minimizer, so
    the last five eps of the solve window, where the localized problem's end
    condition leaves an O(eps |u'(T)|^2) boundary layer, are excluded.  All
    three residual families are normalized by the magnitude of the rate
    identity's right-hand side; the tolerance is 5% of that scale, halving
    under grid refinement.
    """
    eps = sol.problem.epsilon
    V = value_along(sol)
    nodes = sol.trajectory.grid.nodes
    cut = nodes[-1] - 5.0 * eps
    keep = nodes[:-1] <= cut if cut > 0.0 else np.ones(len(nodes) - 1, dtype=bool)
    dt = sol.trajectory.grid.dt
    v = sol.speed
    rhs = 0.5 * v * v + (sol.phi[:-1] - V[:-1]) / eps
    scale = max(float(np.max(np.abs(rhs[keep]))), 1e-12)
    rate = np.abs(-np.diff(V) / dt - rhs)[keep] / scale
    vabs = np.abs(V[:-1] - (sol.phi[:-1] - 0.5 * eps * v * v))[keep] / scale
    dissip = np.concatenate([[0.0], np.cumsum(v * v * dt)])
    energy_id = np.abs(V + dissip - V[0])[:-1][keep] / scale
    resid = np.concatenate([rate, vabs, energy_id])
    return IdentityReport(
        name="fundamental",
        residuals=resid,
        max_residual=float(np.max(resid)),
        tolerance=0.05,
        details={
            "rate_max": float(np.max(rate)),
            "pointwise_max": float(np.max(vabs)),
            "energy_identity_max": float(np.max(energy_id)),
            "scale": scale,
        },
    )


def check_eps_monotonicity(energy: EnergySpec, x: Point, eps_list,
                           opts: ValueOptions | None = None) -> IdentityReport:
    """V is nonincreasing in eps and increases to phi(x) as eps decreases."""
    eps_sorted = sorted(eps_list, reverse=True)
    samples = [value_function(energy, x, e, opts) for e in eps_sorted]
    phi = samples[0].phi
    resid = []
    for a, b in zip(samples, samples[1:]):  # a.eps > b.eps -> a.V <= b.V
        resid.append(max(0.0, a.V - b.V))
    for s in samples:
        resid.append(max(0.0, s.V - phi))
    gaps = [s.phi - s.V for s in samples]
    return IdentityReport(
        name="monotone",
        residuals=np.asarray(resid),
        max_residual=float(np.max(resid)) if resid else 0.0,
        tolerance=1e-6,
        details={"eps": eps_sorted, "V": [s.V for s in samples], "phi_gap": gaps},
    )


def check_yosida_bound(energy: EnergySpec, x: Point, epsilon: float,
                       n_quad: int = 2000, opts: ValueOptions | None = None) -> IdentityReport:
    """V(x) dominates the weighted integral of the inf-convolutions.

    The time integral runs to a horizon T with 1/(4T) >= B (any T when B = 0)
    and carries the tail correction -2 Q(x) e^{-T/eps}.  A positive reported
    margin is a pass; the bound is never asserted with slack.
    """
    co = energy.coercivity
    T = default_horizon(epsilon, 0.0)
    if co is not None and co.B > 0.0:
        T = min(T, 1.0 / (4.0 * co.B))
    grid = TimeGrid.exp_graded(epsilon, T, n_quad)
    w = Weights.for_grid(grid, epsilon)
    phis = np.empty(n_quad)
    phis[0] = energy_eval(energy, x)  # t -> 0 limit of the inf-convolution
    for i in range(1, n_quad):
        phis[i] = yosida(energy, x.space, x, float(grid.nodes[i]))[0]
    quad = float(np.sum(w.masses * phis))
    correction = 2.0 * q_value(energy, x.space, x) * math.exp(-T / epsilon)
    sample = value_function(energy, x, epsilon, opts)
    margin = sample.V - (quad - correction)
    return IdentityReport(
        name="yosida",
        residuals=np.asarray([max(0.0, -margin)]),
        max_residual=max(0.0, -margin),
        tolerance=0.0,
        details={"V": sample.V, "integral": quad, "correction": correction, "margin": margin},
    )


def wed_slope_compare(energy: EnergySpec, x: Point, eps_list,
                      opts: ValueOptions | None = None,
                      upper_tol: float = 1e-2, final_tol: float = 5e-2) -> IdentityReport:
    """G(x) stays below the local slope and approaches it as eps shrinks."""
    eps_sorted = sorted(eps_list, reverse=True)
    slope = analytic_slope(energy, x.space, x)
    gs = [value_function(energy, x, e, opts).G for e in eps_sorted]
    over = [max(0.0, g - slope - upper_tol) for g in gs]
    final_gap = abs(gs[-1] - slope)
    resid = np.asarray(over + [max(0.0, final_gap - final_tol)])
    return IdentityReport(
        name="slope_compare",
        residuals=resid,
        max_residual=float(np.max(resid)),
        tolerance=0.0,
        details={"eps": eps_sorted, "G": gs, "slope": slope, "final_gap": final_gap},
    )


# -- conditioned slope of V and the pointwise Hamilton-Jacobi identity ------------


@dataclass(frozen=True)
class ProbeOptions:
    h0: float = 0.1
    k_max: int = 5
    seed: int = 20240
    n_random: int = 8
    flow_nodes: int = 3
    tolerance: float = 5e-2
    flow_tolerance: float = 0.1
    # probe solves may run at reduced resolution: slope differences cancel
    # the discretization bias shared by center and probe values
    solve_N: int | None = None


def _probe_dirs(space: SpaceSpec, seed: int, n_random: int, at: np.ndarray | None = None):
    d = space.dim
    dirs = []
    rng = np.random.default_rng(seed)
    if space.kind == QUANTILE1D and d > 1 and at is not None:
        # translation and dilation span the directions the confined flows
        # move in; coordinate probes would mostly leave the monotone cone
        shift = np.ones(d)
        centered = at - float(np.mean(at))
        for v in (shift, centered):
            nv = math.sqrt(float(np.sum(space.metric_weights * v * v)))
            if nv > 0.0:
                dirs.extend([v / nv, -v / nv])
    else:
        scale = 1.0 / np.sqrt(space.metric_weights)
        for i in range(d):
            e = np.zeros(d)
            e[i] = scale[i]  # unit metric length
            dirs.extend([e, -e])
    if d > 1:
        for _ in range(n_random):
            v = rng.standard_normal(d)
            v /= math.sqrt(float(np.sum(space.metric_weights * v * v)))
            dirs.append(v)
    return dirs


def conditioned_slope_estimate(energy: EnergySpec, x: Point, epsilon: float,
                               probe: ProbeOptions, opts: ValueOptions | None = None) -> tuple:
    """Finite-difference estimate of the descending slope of V at x.

    Takes the max of (V(x) - V(x - h e))^+ / h over probe directions e and a
    dyadic ladder of h, then removes the O(h) term by one Richardson step.
    Probes leaving the monotone cone of quantile coordinates are discarded.
    """
    space = x.space
    opts = opts or ValueOptions()
    solve_n = probe.solve_N if probe.solve_N is not None else (
        1500 if space.dim > 4 else opts.N
    )
    if solve_n != opts.N:
        opts = dataclasses.replace(opts, N=solve_n)
    center = value_function(energy, x, epsilon, opts)
    dirs = _probe_dirs(space, probe.seed, probe.n_random, at=x.coords)
    # the descent of V is steepest along the minimizer itself, so the early
    # movement of the center solve supplies the sharp approach direction
    # (probe points are still fresh solves at perturbed states)
    traj = center.solve_ref.trajectory
    k = min(max(1, traj.grid.n_cells // 100), traj.grid.n_cells)
    move = traj.points[k] - x.coords
    nv = math.sqrt(float(np.sum(space.metric_weights * move * move)))
    if nv > 0.0:
        approach = -move / nv
        # in 1-D it is always one of the coordinate probes; a duplicate
        # direction would only repeat the same solves
        if not any(np.array_equal(approach, e) for e in dirs):
            dirs.append(approach)
    ladder = []
    for k in range(probe.k_max + 1):
        h = probe.h0 * 2.0**-k
        best = 0.0
        for e in dirs:
            coords = x.coords - h * e
            if space.kind == QUANTILE1D and not np.all(np.diff(coords) > 0.0):
                continue
            vprobe = value_function(energy, Point(coords, space), epsilon, opts)
            best = max(best, (center.V - vprobe.V) / h)
        ladder.append((h, best))
    est = max(0.0, 2.0 * ladder[-1][1] - ladder[-2][1])
    return est, center, ladder


def check_hj(energy: EnergySpec, x: Point, epsilon: float,
             probe: ProbeOptions | None = None,
             opts: ValueOptions | None = None) -> IdentityReport:
    """Pointwise Hamilton-Jacobi identity: the probe slope of V matches G.

    Additionally reruns the slope estimate at a few nodes of the minimizer
    from x and checks the V-descent rate -dV/dt = |u'|^2/2 + slope^2/2 there.
    """
    if energy.lam is None:
        raise InvalidInputError("the Hamilton-Jacobi check needs a convexity modulus")
    probe = probe or ProbeOptions()
    est, center, ladder = conditioned_slope_estimate(energy, x, epsilon, probe, opts)
    denom = max(center.G, 1e-9)
    slope_resid = abs(est - center.G) / denom
    sol = center.solve_ref
    V = value_along(sol)
    nodes = sol.trajectory.grid.nodes
    n = sol.trajectory.grid.n_cells
    flow_resid = []
    flow_detail = []
    for i in sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2)})[: probe.flow_nodes]:
        xi = sol.trajectory.point_at(i)
        est_i, _, _ = conditioned_slope_estimate(energy, xi, epsilon, probe, opts)
        dvdt = (V[i + 1] - V[i - 1]) / (nodes[i + 1] - nodes[i - 1])
        rhs = 0.5 * sol.speed[i] ** 2 + 0.5 * est_i**2
        scale = max(abs(rhs), 1e-9)
        flow_resid.append(abs(-dvdt - rhs) / scale)
        flow_detail.append({"t": float(nodes[i]), "slope_est": est_i, "rate": float(-dvdt)})
    resid = np.asarray(
        [slope_resid / probe.tolerance]
        + [r / probe.flow_tolerance for r in flow_resid]
    )
    return IdentityReport(
        name="hj",
        residuals=resid,
        max_residual=float(np.max(resid)),
        tolerance=1.0,
        details={
            "estimate": est,
            "G": center.G,
            "slope_residual": slope_resid,
            "ladder": ladder,
            "flow": flow_detail,
        },
    )


# -- a-priori bounds asserted on solutions ----------------------------------------


def apriori_speed_bound(sol: WedSolution) -> tuple:
    """(lhs, rhs) of the dissipation bound int |u'|^2 <= 2 (V + Q) e^{2BT}."""
    pr = sol.problem
    lhs = float(np.sum(sol.speed**2 * sol.trajectory.grid.dt))
    q = q_value(pr.energy, pr.space, pr.x_bar)
    rhs = 2.0 * (sol.objective + q) * math.exp(
        2.0 * (pr.energy.coercivity.B if pr.energy.coercivity else 0.0) * pr.T
    )
    return lhs, rhs


def chain_rule_bound(sol: WedSolution, tol: float = 0.05) -> IdentityReport:
    """|V(u_s) - V(u_t)| <= int (G^2 + |u'|^2)/2 along the solution itself."""
    eps = sol.problem.epsilon
    V = value_along(sol)
    dt = sol.trajectory.grid.dt
    g2 = 2.0 * np.maximum(sol.phi[:-1] - V[:-1], 0.0) / eps
    budget = np.concatenate([[0.0], np.cumsum(0.5 * (g2 + sol.speed**2) * dt)])
    scale = max(float(np.max(np.abs(V - V[0]))), 1e-12)
    resid = (np.abs(V - V[0]) - budget) / scale
    return IdentityReport(
        name="chain_rule",
        residuals=np.maximum(resid, 0.0),
        max_residual=float(np.max(np.maximum(resid, 0.0))),
        tolerance=tol,
        details={},
    )


# -- energy-induced Finsler distance ----------------------------------------------


@dataclass(frozen=True)
class FinslerOptions:
    n_cells: int = 64
    s_tol: float = 1e-8
    # the weight gradient is finite-differenced, so the inner stationarity
    # tolerance must sit above the ~1e-10 differencing noise floor; the
    # kinetic-preconditioned iteration contracts like (S/K)^2 per sweep so a
    # dozen sweeps is already far below the quadrature error
    inner_tol: float = 1e-9
    inner_max_iter: int = 12


def finsler_distance(space: SpaceSpec, f, u0: Point, u1: Point,
                     opts: FinslerOptions | None = None, return_curve: bool = False):
    """Length distance weighting curve speed by f >= 1.

    ``f`` maps an (n, d) array of coordinate rows to n values: one call weighs
    all segment midpoints, or difference stencil points, of a step; f >= 1 is
    checked on the rows u0, u1 and their midpoint.

    Evaluated through the action form: minimize the integral of
    |curve'|^2/2 + f(curve)^2/2 over curves AND over the parameter interval
    length S; at the optimal S the action equals the weighted length.  The
    curve problem is solved by descent preconditioned with the exact kinetic
    operator; S by golden-section.  Weights are squared with float_power,
    the libm pow of Python's float ``**``.
    """
    opts = opts or FinslerOptions()
    if u0.space != space or u1.space != space:
        raise InvalidInputError("endpoints must live in the given space")
    d0 = distance(space, u0, u1)
    if d0 == 0.0:
        return (0.0, None) if return_curve else 0.0
    fvals = row_values(f, np.stack([u0.coords, u1.coords, 0.5 * (u0.coords + u1.coords)]))
    if np.any(fvals < 1.0 - 1e-12):
        raise InvalidInputError("finsler weight must satisfy f >= 1")
    fmax = float(np.max(fvals))
    f2 = lambda P: np.float_power(row_values(f, P), 2)
    lo, hi = 0.1 * d0, 10.0 * math.sqrt(fmax) * max(d0, 1e-6)
    K = opts.n_cells
    w = space.metric_weights
    theta = np.linspace(0.0, 1.0, K + 1)[:, None] * (u1.coords - u0.coords) + u0.coords

    def f2_grad_at(P):
        # central differences of f^2, row-wise
        out = np.zeros_like(P)
        for j in range(P.shape[1]):
            step = 1e-6 * (1.0 + np.abs(P[:, j]))
            Pp = P.copy(); Pp[:, j] += step
            Pm = P.copy(); Pm[:, j] -= step
            out[:, j] = (f2(Pp) - f2(Pm)) / (2.0 * step)
        return out

    def action(P, S):
        # kinetic part exact for the polyline, f^2 at segment midpoints
        h = S / K
        dP = np.diff(P, axis=0)
        kin = 0.5 * float(np.sum(w * dP * dP)) / h
        return kin + 0.5 * h * float(np.sum(f2(0.5 * (P[:-1] + P[1:]))))

    full = lambda V: np.concatenate([theta[:1], V, theta[-1:]])  # endpoints pinned
    sup_norm = lambda g: float(np.max(np.abs(g)))

    def inner(S):
        h = S / K
        n = K - 1
        eye = np.diag(w)
        sub = np.tile((-1.0 / h) * eye, (max(n - 1, 0), 1, 1))
        dia = np.tile((2.0 / h) * eye, (n, 1, 1))

        def gradient(V):
            P = full(V)
            lap = (2.0 * P[1:-1] - P[:-2] - P[2:]) * w / h
            gm = f2_grad_at(0.5 * (P[:-1] + P[1:]))
            return lap + 0.25 * h * (gm[:-1] + gm[1:])

        def direction(V, g):
            step = solve_block_tridiag(sub, dia, sub, -g)
            return step, float(np.sum(g * step))

        V, value, _, _, _ = damped_newton(
            theta[1:-1], lambda V: action(full(V), S), gradient, sup_norm,
            lambda g: sup_norm(g) <= opts.inner_tol * (1.0 + fmax), direction,
            opts.inner_max_iter,
        )
        return full(V), value

    # the cap only guards a tolerance below the spacing of floats near S
    S_opt = golden_section(lambda S: inner(S)[1], lo, hi, opts.s_tol * max(1.0, d0), 200)
    P_opt, value = inner(S_opt)
    if value < d0 - 1e-9 * (1.0 + d0):
        raise InvalidInputError("finsler action fell below the base distance")
    if return_curve:
        curve = Trajectory(TimeGrid(np.linspace(0.0, S_opt, K + 1), "uniform"), P_opt, space)
        return value, curve
    return value
