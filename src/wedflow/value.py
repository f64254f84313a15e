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

from .energies import EnergySpec, analytic_slope, energy_eval, prox, q_value
from .errors import InvalidInputError
from .newton import damped_newton
from .spaces import Point, admissible, distance, probe_directions, row_distances
from .trajectories import TimeGrid, Trajectory, Weights, row_values
from .wed import WedProblem, WedSolution, default_horizon, minimize_wed


@dataclass(frozen=True)
class ValueSample:
    """V, G and phi at one point and eps, which ``solve_ref.problem`` holds."""

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
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


@dataclass(frozen=True)
class ValueOptions:
    """Resolution and caching of value samples.

    Every value solve is a ``direct`` solve on the ``exp_graded`` grid over the
    horizon ``default_horizon(eps, 0)`` = 25 eps (``_ValueProblem``).  With
    ``cache=None`` every request is solved afresh and nothing is kept.
    """

    N: int = 4000
    cache: "ValueCache | None" = None


class _ValueProblem(WedProblem):
    """A value solve's problem: its grid has cells of equal weighted mass."""

    def grid(self) -> TimeGrid:
        return TimeGrid.exp_graded(self.epsilon, self.T, self.N)


class ValueCache:
    """LRU cache of value solves; not thread-safe.

    Keys hold every input of the solve that a caller can vary, coordinates
    by their bytes: only points equal bit for bit share a solve.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()

    @staticmethod
    def key(energy: EnergySpec, x: Point, eps: float, opts: ValueOptions):
        space = x.space
        return (energy.key(), space.kind, space.dim, float(eps),
                opts.N, x.coords.tobytes())

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
    slope of phi in the small-eps limit.  phi(x) is read off the solve, the
    value its objective used at x, so a cached sample evaluates no energy.
    """
    opts = opts or ValueOptions()
    key = None if opts.cache is None else ValueCache.key(energy, x, epsilon, opts)
    sol = None if key is None else opts.cache.get(key)
    if sol is None:
        sol = minimize_wed(_ValueProblem(epsilon=epsilon, T=default_horizon(epsilon, 0.0),
                                         N=opts.N, space=x.space, energy=energy, x_bar=x))
        if key is not None:
            opts.cache.put(key, sol)
    phi = float(sol.phi[0])
    V = sol.objective
    slack = 1e-8 * (1.0 + abs(phi))
    if V > phi + slack or V < -q_value(energy, x) - slack:
        raise InvalidInputError(
            f"value sample violates phi(x) >= V >= -Q(x): phi={phi}, V={V}"
        )
    G = math.sqrt(2.0 * max(0.0, phi - V) / epsilon)
    return ValueSample(V=min(V, phi), G=G, phi=phi, solve_ref=sol)


def value_along(sol: WedSolution) -> np.ndarray:
    """V at every node of a converged solve, read off the tail of the cost.

    Computed from suffix sums so no precision is lost against the growing
    factor e^{t/eps}; the first entry is the objective exactly.
    """
    w = sol.weights
    cell = w.cell_costs(sol.speed, sol.phi)
    suffix = np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])
    suffix += w.tail * sol.phi[-1]
    V = np.exp(sol.trajectory.grid.nodes / w.epsilon) * suffix
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
    prefix = np.concatenate([[0.0], np.cumsum(sol.weights.cell_costs(sol.speed, sol.phi))])
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
        tolerance=0.05,
        details={
            "rate_max": float(np.max(rate)),
            "pointwise_max": float(np.max(vabs)),
            "energy_identity_max": float(np.max(energy_id)),
            "scale": scale,
        },
    )


def check_inner_variation(sol: WedSolution) -> IdentityReport:
    """Residuals of d/dt(phi - eps/2 |u'|^2) = -|u'|^2 along the solution.

    One residual per cell, normalized by max |u'|^2 (``speed_scale``), then
    the boundary identity tying the objective to the value of phi - eps/2
    |u'|^2 at time zero, with the finite-horizon correction carried by the
    tail weight, relative to the objective.  Tolerance 5%.
    """
    eps = sol.problem.epsilon
    v = sol.speed
    phis = sol.phi
    vv = np.append(v, v[-1])  # the last node takes the last cell's speed
    calv = phis - 0.5 * eps * vv * vv
    resid = np.abs(np.diff(calv) / sol.trajectory.grid.dt + v * v)
    boundary = abs(sol.objective - (calv[0] + sol.weights.tail * (phis[-1] - calv[-1])))
    vmax = float(np.max(v * v))
    return IdentityReport(
        name="inner",
        residuals=np.append(resid / max(vmax, 1e-12), boundary / max(abs(sol.objective), 1e-9)),
        tolerance=5e-2,
        details={"boundary_residual": boundary, "speed_scale": vmax},
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
        tolerance=1e-6,
        details={"eps": eps_sorted, "V": [s.V for s in samples], "phi_gap": gaps},
    )


# nodes of the Yosida bound's time quadrature
YOSIDA_NODES = 2000


def check_yosida_bound(energy: EnergySpec, x: Point, epsilon: float,
                       opts: ValueOptions | None = None) -> IdentityReport:
    """V(x) dominates the weighted integral of the inf-convolutions.

    The time integral runs to a horizon T with 1/(4T) >= B (any T when B = 0)
    and carries the tail correction -2 Q(x) e^{-T/eps}.  The inf-convolution
    phi_t(x) is nonincreasing in t, so on the ``exp_graded`` grid the
    right-endpoint sum sum_i m_i phi_{t_{i+1}}(x) is a lower bound of the
    integral and the left-endpoint sum an upper one; V is compared with the
    right sum (``integral``), and the left sum is reported as ``left_sum``.
    A positive reported margin is a pass; the bound is never asserted with
    slack.
    """
    co = energy.coercivity
    T = default_horizon(epsilon, 0.0)
    if co is not None and co.B > 0.0:
        T = min(T, 1.0 / (4.0 * co.B))
    grid = TimeGrid.exp_graded(epsilon, T, YOSIDA_NODES)
    w = Weights.for_grid(grid, epsilon)
    phis = np.empty(YOSIDA_NODES + 1)
    phis[0] = energy_eval(energy, x)  # t -> 0 limit of the inf-convolution
    rows = np.repeat(x.coords[None], YOSIDA_NODES, axis=0)
    phis[1:] = prox(energy, x.space, rows, grid.nodes[1:])[0]
    quad = float(np.sum(w.masses * phis[1:]))
    correction = 2.0 * q_value(energy, x) * math.exp(-T / epsilon)
    sample = value_function(energy, x, epsilon, opts)
    margin = sample.V - (quad - correction)
    return IdentityReport(
        name="yosida",
        residuals=np.asarray([max(0.0, -margin)]),
        tolerance=0.0,
        details={"V": sample.V, "integral": quad, "left_sum": float(np.sum(w.masses * phis[:-1])),
                 "correction": correction, "margin": margin},
    )


def wed_slope_compare(energy: EnergySpec, x: Point, eps_list,
                      opts: ValueOptions | None = None) -> IdentityReport:
    """G(x) stays below the local slope (up to 1e-2) and approaches it as eps
    shrinks (within 5e-2 at the smallest eps)."""
    eps_sorted = sorted(eps_list, reverse=True)
    slope = analytic_slope(energy, x)
    gs = [value_function(energy, x, e, opts).G for e in eps_sorted]
    over = [max(0.0, g - slope - 1e-2) for g in gs]
    final_gap = abs(gs[-1] - slope)
    resid = np.asarray(over + [max(0.0, final_gap - 5e-2)])
    return IdentityReport(
        name="slope_compare",
        residuals=resid,
        tolerance=0.0,
        details={"eps": eps_sorted, "G": gs, "slope": slope, "final_gap": final_gap},
    )


# -- conditioned slope of V and the pointwise Hamilton-Jacobi identity ------------


def conditioned_slope_estimate(energy: EnergySpec, x: Point, epsilon: float,
                               opts: ValueOptions | None = None) -> tuple:
    """Finite-difference estimate of the descending slope of V at x.

    Takes the max of (V(x) - V(x - h e))^+ / h over probe directions e and
    the ladder h = 0.1 / 2^k, k = 0..5, then removes the O(h) term by one
    Richardson step on the two finest rungs.  The one direction e is the
    minimizer's early move from x; where the minimizer does not move (at a
    critical point), e runs over ``probe_directions(space, at=x.coords)``.
    Probes leaving the monotone cone of quantile coordinates are discarded.
    Above four dimensions every solve runs at ``min(opts.N, 1500)``: slope
    differences cancel the discretization bias shared by center and probes.
    """
    return _slope_estimate(energy, x, epsilon, opts, range(6))


def _slope_estimate(energy, x, epsilon, opts, rungs) -> tuple:
    # conditioned_slope_estimate on the rungs h = 0.1 / 2^k, k in rungs
    space = x.space
    opts = opts or ValueOptions()
    if space.dim > 4 and opts.N > 1500:
        opts = dataclasses.replace(opts, N=1500)
    center = value_function(energy, x, epsilon, opts)
    # by the envelope theorem the minimizer's first move is -omega^-1 grad V
    # to first order: V descends steepest along it, so it is the one probe
    # direction wherever it is not zero
    traj = center.solve_ref.trajectory
    k = min(max(1, traj.grid.n_cells // 100), traj.grid.n_cells)
    move = traj.points[k:k + 1] - x.coords
    nv = row_distances(space, move, 0.0)
    dirs = -move / nv[:, None] if nv[0] > 0.0 else probe_directions(space, at=x.coords)
    ladder = []
    for k in rungs:
        h = 0.1 * 2.0**-k
        best = 0.0
        for e in dirs:
            coords = x.coords - h * e
            if not admissible(space, coords):
                continue
            vprobe = value_function(energy, Point(coords, space), epsilon, opts)
            best = max(best, (center.V - vprobe.V) / h)
        ladder.append((h, best))
    est = max(0.0, 2.0 * ladder[-1][1] - ladder[-2][1])
    return est, center, ladder


def check_hj(energy: EnergySpec, x: Point, epsilon: float,
             opts: ValueOptions | None = None) -> IdentityReport:
    """Pointwise Hamilton-Jacobi identity: the probe slope of V matches G
    within 5% of G.

    The slope is ``conditioned_slope_estimate``'s, probed along the
    minimizer's own first move.  Additionally reruns the slope estimate at the
    nodes n/8, n/4 and n/2 of the minimizer from x, solving only the two rungs
    its Richardson step reads, and checks the V-descent rate
    -dV/dt = |u'|^2/2 + slope^2/2 there, within 10% of the right-hand side.
    """
    if energy.lam is None:
        raise InvalidInputError("the Hamilton-Jacobi check needs a convexity modulus")
    est, center, ladder = conditioned_slope_estimate(energy, x, epsilon, opts)
    denom = max(center.G, 1e-9)
    slope_resid = abs(est - center.G) / denom
    sol = center.solve_ref
    V = value_along(sol)
    nodes = sol.trajectory.grid.nodes
    n = sol.trajectory.grid.n_cells
    flow_resid = []
    flow_detail = []
    for i in sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2)}):
        xi = sol.trajectory.point_at(i)
        est_i, _, _ = _slope_estimate(energy, xi, epsilon, opts, range(4, 6))
        dvdt = (V[i + 1] - V[i - 1]) / (nodes[i + 1] - nodes[i - 1])
        rhs = 0.5 * sol.speed[i] ** 2 + 0.5 * est_i**2
        scale = max(abs(rhs), 1e-9)
        flow_resid.append(abs(-dvdt - rhs) / scale)
        flow_detail.append({"t": float(nodes[i]), "slope_est": est_i, "rate": float(-dvdt)})
    resid = np.asarray([slope_resid / 5e-2] + [r / 0.1 for r in flow_resid])
    return IdentityReport(
        name="hj",
        residuals=resid,
        tolerance=1.0,
        details={
            "estimate": est,
            "G": center.G,
            "slope_residual": slope_resid,
            "ladder": ladder,
            "flow": flow_detail,
        },
    )


# -- energy-induced Finsler distance ----------------------------------------------


def finsler_distance(f, u0: Point, u1: Point) -> tuple:
    """Length distance weighting curve speed by f >= 1 in the endpoints'
    space, and the optimal polyline as a ``Trajectory``: ``(value, curve)``,
    ``(0.0, None)`` when u0 and u1 are the same point.

    ``f`` maps an (n, d) array of coordinate rows to n values: one call weighs
    all segment midpoints, or difference stencil points, of a step; f >= 1 is
    checked on the rows u0, u1 and their midpoint.

    Evaluated through the action form: minimize the integral of
    |curve'|^2/2 + f(curve)^2/2 over curves AND over the parameter interval
    length S; at the optimal S the action equals the weighted length.  On a
    polyline of K = 64 cells, with a = sum w |dP|^2/2 and b = sum f^2/2 at the
    midpoints, the action K a/S + S b/K is least at S = K sqrt(a/b), where it
    is 2 sqrt(a b): that reduced action is minimized over the interior nodes
    by descent preconditioned with the exact kinetic operator at that S.
    Weights are squared with float_power, the libm pow of Python's float ``**``.
    """
    d0 = distance(u0, u1)
    if d0 == 0.0:
        return 0.0, None
    fvals = row_values(f, np.stack([u0.coords, u1.coords, 0.5 * (u0.coords + u1.coords)]))
    if np.any(fvals < 1.0 - 1e-12):
        raise InvalidInputError("finsler weight must satisfy f >= 1")
    fmax = float(np.max(fvals))
    f2 = lambda P: np.float_power(row_values(f, P), 2)
    K = 64
    space = u0.space
    w = space.metric_weight
    theta = np.linspace(0.0, 1.0, K + 1)[:, None] * (u1.coords - u0.coords) + u0.coords
    i = np.arange(1, K)
    lap_inv = np.minimum.outer(i, i) * (K - np.maximum.outer(i, i)) / K  # of tridiag(-1, 2, -1)

    def f2_grad_at(P):
        # central differences of f^2, row-wise
        out = np.zeros_like(P)
        for j in range(P.shape[1]):
            step = 1e-6 * (1.0 + np.abs(P[:, j]))
            Pp = P.copy(); Pp[:, j] += step
            Pm = P.copy(); Pm[:, j] -= step
            out[:, j] = (f2(Pp) - f2(Pm)) / (2.0 * step)
        return out

    def evaluate(V):
        # g = (gradient, step h = S/K, the polyline P with the endpoints
        # pinned); the action's gradient at the optimal S is the reduced one's
        P = np.concatenate([theta[:1], V, theta[-1:]])
        dP, mids = np.diff(P, axis=0), 0.5 * (P[:-1] + P[1:])
        b = 0.5 * float(np.sum(f2(mids)))
        if b == 0.0:
            raise InvalidInputError("finsler weight vanishes at every segment midpoint")
        a = 0.5 * float(np.sum(w * dP * dP))  # > 0
        h = math.sqrt(a / b)
        gm = f2_grad_at(mids)
        lap = (2.0 * P[1:-1] - P[:-2] - P[2:]) * w / h
        return 2.0 * math.sqrt(a * b), (lap + 0.25 * h * (gm[:-1] + gm[1:]), h, P)

    def direction(V, g):
        grad, h, _ = g
        step = -h * (lap_inv @ grad) / w
        return step, float(np.sum(grad * step))

    V0 = theta[1:-1]
    sup_norm = lambda g: float(np.max(np.abs(g[0])))
    # the weight gradient is finite-differenced, so the stationarity tolerance
    # must sit above the ~1e-10 differencing noise floor
    _, value, (_, h, P), _, _ = damped_newton(
        V0, evaluate(V0), evaluate, sup_norm,
        lambda g: sup_norm(g) <= 1e-9 * (1.0 + fmax), direction, 50,
    )
    if value < d0 - 1e-9 * (1.0 + d0):
        raise InvalidInputError("finsler action fell below the base distance")
    return value, Trajectory(TimeGrid(np.linspace(0.0, K * h, K + 1)), P, space)
