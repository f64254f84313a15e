import functools
import math

import numpy as np
import pytest

import wedflow.reference
from wedflow import (
    EnergySpec, InvalidInputError, NotAvailableError, Point, SpaceSpec,
    TimeGrid, Trajectory, WedProblem, convergence_study,
    convex_quartic, discrete_dirichlet, distance, double_well, exact_flow, exact_flows,
    gaussian_quantiles, lambda_diagnostics, max_slope_residuals, minimize_wed,
    minimizing_movements, normal_quantile, point, quadratic, quantile_entropy_potential,
)
from wedflow.energies import eval_many, prox
from wedflow.reference import has_exact_flow

E1 = SpaceSpec.euclidean(1)


# -- proximal iteration ------------------------------------------------------------


def test_mm_quadratic_matches_resolvent_power():
    a, tau = 1.0, 0.01
    mm = minimizing_movements(point([1.0], E1), tau, 100, quadratic([[a]]))
    iterates = mm.trajectory.points[:, 0]
    for k in (1, 10, 50, 100):
        assert iterates[k] == pytest.approx((1.0 + a * tau) ** -k, abs=1e-10)
    # implicit Euler at step 1/n approximates e^{-1} after n steps
    assert iterates[100] == pytest.approx(math.exp(-1.0), abs=5e-3)


def test_mm_constant_energy_is_stationary():
    mm = minimizing_movements(point([0.3], E1), 0.05, 20, quadratic([[0.0]]))
    assert np.all(mm.trajectory.points == 0.3)
    assert np.all(mm.movements == 0.0)


def test_mm_double_well_follows_the_flow():
    tau = 0.005
    steps = 600
    mm = minimizing_movements(point([0.3], E1), tau, steps, double_well())
    phis = eval_many(double_well(), mm.trajectory.points)
    assert np.all(np.diff(phis) <= 1e-12)
    # RK4 oracle for u' = u - u^3
    def rk4(u0, T, n):
        h = T / n
        u = u0
        f = lambda u: u - u**3
        for _ in range(n):
            k1 = f(u); k2 = f(u + h / 2 * k1); k3 = f(u + h / 2 * k2); k4 = f(u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return u
    for k in (100, 300, 600):
        t = k * tau
        assert mm.trajectory.points[k, 0] == pytest.approx(rk4(0.3, t, 4000), abs=2e-2)
    assert abs(mm.trajectory.points[-1, 0] - 1.0) < 2e-2  # O(tau) lag behind the flow


def test_mm_energy_dissipation_equality_first_order():
    # discrete descent balance along proximal iterates of a convex energy:
    # 1/2 sum tau (d_k/tau)^2 + 1/2 sum tau |dphi|^2(u_k) + phi(u_K) - phi(u_0)
    # vanishes like O(tau)
    from wedflow import analytic_slope

    spec = quadratic([[1.0]])
    resid = {}
    for tau in (0.02, 0.01):
        steps = int(round(1.0 / tau))
        mm = minimizing_movements(point([1.0], E1), tau, steps, spec)
        phis = eval_many(spec, mm.trajectory.points)
        slopes = np.array([
            analytic_slope(spec, mm.trajectory.point_at(k + 1)) for k in range(steps)
        ])
        resid[tau] = abs(0.5 * np.sum(mm.movements**2 / tau)
                         + 0.5 * np.sum(tau * slopes**2) + phis[-1] - phis[0])
    assert resid[0.01] < resid[0.02]
    assert 1.5 <= resid[0.02] / resid[0.01] <= 2.5  # first-order decay


@pytest.mark.parametrize("space, energy, x0, tau", [
    (E1, double_well(), [0.3], 0.01),
    (E1, double_well(), [0.3], 0.46),  # the bracketed 1-D prox
    (E1, double_well(), [-1.2], 0.46),  # bracketed, from the far side of a well
    (E1, convex_quartic(), [-1.2], 0.01),
    (SpaceSpec.euclidean(3), double_well(), [0.3, -1.4, 0.05], 0.01),
    (SpaceSpec.quantile1d(8), quantile_entropy_potential(v2=1.0, v1=0.3), None, 0.01),
], ids=["euclidean1", "euclidean1-bracket", "euclidean1-bracket-outside", "euclidean1-quartic",
        "euclidean3", "quantile8"])
def test_mm_steps_are_yosida_and_movements_are_distances(space, energy, x0, tau):
    x = gaussian_quantiles(space, 0.5, 2.0) if x0 is None else point(x0, space)
    mm = minimizing_movements(x, tau, 40, energy)
    P = mm.trajectory.points
    for k in range(40):
        step = prox(energy, space, P[k:k + 1], tau)[1][0]
        assert P[k + 1].tobytes() == step.tobytes()
    dists = [distance(Point(P[k], space), Point(P[k + 1], space)) for k in range(40)]
    assert mm.movements.tobytes() == np.array(dists).tobytes()


def test_mm_rejects_too_large_step():
    with pytest.raises(InvalidInputError):
        minimizing_movements(point([0.3], E1), 0.6, 5, double_well())  # 1/(2|lam|) = 0.5


def test_mm_piecewise_linear_interpolation():
    mm = minimizing_movements(point([1.0], E1), 0.1, 5, quadratic([[1.0]]))
    P = mm.trajectory.points[:, 0]
    vals = mm.at_times([0.0, 0.05, 0.1, 0.35, 0.5, 0.7])
    assert vals.shape == (6, 1)
    assert vals[0, 0] == 1.0 and vals[2, 0] == P[1] and vals[4, 0] == P[5]  # nodes exact
    assert vals[1, 0] == pytest.approx(0.5 * (P[0] + P[1]), abs=1e-15)
    assert vals[3, 0] == pytest.approx(0.5 * (P[3] + P[4]), abs=1e-15)
    assert vals[5, 0] == P[5]  # held past the last node


# -- closed-form flows ----------------------------------------------------------------


def test_exact_flow_scalar_quadratic():
    u = exact_flow(quadratic([[1.0]]), point([1.0], E1), 1.0)
    assert u.coords[0] == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_exact_flow_affine_quadratic_settles_at_minimizer():
    spec = quadratic([[2.0]], [1.0])  # minimizer at 0.5
    u = exact_flow(spec, point([3.0], E1), 50.0)
    assert u.coords[0] == pytest.approx(0.5, abs=1e-12)


def test_exact_flow_matrix_quadratic_against_series():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    s2 = SpaceSpec.euclidean(2)
    x0 = np.array([1.0, -1.0])
    t = 0.7
    # dense matrix exponential via scaling-and-squaring series
    M = -A * t / 2**8
    E = np.eye(2)
    term = np.eye(2)
    for k in range(1, 12):
        term = term @ M / k
        E = E + term
    for _ in range(8):
        E = E @ E
    assert np.allclose(exact_flow(quadratic(A), Point(x0, s2), t).coords, E @ x0, atol=1e-10)


def test_exact_flow_ou_equilibrium_variance():
    qs = SpaceSpec.quantile1d(64)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    start = gaussian_quantiles(qs, 0.0, 2.0)
    far = exact_flow(spec, start, 60.0)
    z = normal_quantile(qs.quantile_nodes)
    sigma = float(np.dot(far.coords, z) / np.dot(z, z))
    assert sigma == pytest.approx(1.0, abs=1e-12)


def test_exact_flow_ou_against_rk4_moment_oracle():
    qs = SpaceSpec.quantile1d(64)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    start = gaussian_quantiles(qs, 1.0, 2.0)
    t = 0.5
    got = exact_flow(spec, start, t)
    # RK4 on the mean/variance system m' = -m, (s2)' = 2 - 2 s2
    m, s2 = 1.0, 4.0
    n = 4000
    h = t / n
    f = lambda y: np.array([-y[0], 2.0 - 2.0 * y[1]])
    y = np.array([m, s2])
    for _ in range(n):
        k1 = f(y); k2 = f(y + h / 2 * k1); k3 = f(y + h / 2 * k2); k4 = f(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    z = normal_quantile(qs.quantile_nodes)
    oracle = Point(y[0] + math.sqrt(y[1]) * z, qs)
    assert distance(got, oracle) <= 1e-6


def per_time_flow(energy, x_bar, t):
    """The closed-form flow at one time, on a vector and Python floats."""
    if energy.kind in ("double_well", "convex_quartic"):
        out = []
        w = x_bar.space.metric_weight
        for x in x_bar.coords.tolist():
            if energy.kind == "convex_quartic":
                out.append(x / math.sqrt(1.0 + 2.0 * (x * x) * t / w))
            elif x == 0.0:
                out.append(0.0)
            else:
                e = math.exp(-2.0 * t / w)
                out.append(x / math.sqrt(x * x + (1.0 - x * x) * e))
        return np.array(out)
    if energy.kind == "quadratic":
        vals, vecs = np.linalg.eigh(energy.params["A"])
        x_star = vecs @ ((vecs.T @ energy.params["b"]) / vals)
        z = vecs.T @ (x_bar.coords - x_star)
        return x_star + vecs @ (np.exp(-vals * t) * z)
    v2, v1 = energy.params["v2"], energy.params["v1"]
    z = normal_quantile(x_bar.space.quantile_nodes)
    m0 = float(np.mean(x_bar.coords))
    s0 = float(np.dot(x_bar.coords - m0, z) / np.dot(z, z))
    m_inf = -v1 / v2
    mt = m_inf + (m0 - m_inf) * math.exp(-v2 * t)
    var = 1.0 / v2 + (s0 * s0 - 1.0 / v2) * math.exp(-2.0 * v2 * t)
    return mt + math.sqrt(var) * z


@pytest.mark.parametrize("energy, x_bar", [
    (quadratic([[1.0]]), point([1.0], E1)),
    (quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]], [0.3, -1.0, 0.5]),
     point([1.0, -2.0, 0.5], SpaceSpec.euclidean(3))),
    (quantile_entropy_potential(v2=1.5, v1=0.4),
     gaussian_quantiles(SpaceSpec.quantile1d(8), 1.0, 2.0)),
    # the hilltop 0, both wells' sides and a start beyond the well bottom
    (double_well(), point([-0.3, 0.0, 0.3, 1.5], SpaceSpec.euclidean(4))),
    (double_well(), point([-0.3, 0.0, 0.3, 1.5], SpaceSpec.quantile1d(4))),
    (convex_quartic(), point([-0.3, 0.0, 0.3, 1.5], SpaceSpec.euclidean(4))),
], ids=["quadratic1", "quadratic3", "quantile8", "double_well4", "double_well-quantile4",
        "quartic4"])
def test_exact_flows_rows_are_bitwise_the_flow_at_each_time(energy, x_bar):
    ts = np.linspace(0.0, 2.0, 801)
    rows = exact_flows(energy, x_bar, ts)
    want = np.stack([per_time_flow(energy, x_bar, float(t)) for t in ts])
    assert rows.tobytes() == want.tobytes()
    assert np.array_equal(exact_flow(energy, x_bar, float(ts[300])).coords, rows[300])


def test_exact_flow_unregistered_kind():
    assert not has_exact_flow(discrete_dirichlet(), E1)
    with pytest.raises(NotAvailableError):
        exact_flow(discrete_dirichlet(), point([0.3], E1), 1.0)
    # the Gaussian flow needs quantile coordinates
    E3 = SpaceSpec.euclidean(3)
    assert not has_exact_flow(quantile_entropy_potential(), E3)
    with pytest.raises(NotAvailableError):
        exact_flow(quantile_entropy_potential(), point([-2.0, 0.0, 0.5], E3), 1.0)


def test_quadratic_flow_solves_the_weighted_gradient_equation():
    # on quantile1d(4) the metric weights are 1/4: 4 u' = -4 (Au - b) / w_i
    # becomes w_i u_i' = -(Au - b)_i
    q4 = SpaceSpec.quantile1d(4)
    A = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.5, 0.2, 0.0],
                  [0.0, 0.2, 1.0, 0.1], [0.0, 0.0, 0.1, 3.0]])
    b = np.array([0.3, -0.2, 0.1, 0.4])
    x = point([-1.0, -0.5, 0.5, 1.0], q4)
    spec, ts, h = quadratic(A, b), np.linspace(0.1, 1.0, 10), 1e-5
    U = exact_flows(spec, x, ts)
    dU = (exact_flows(spec, x, ts + h) - exact_flows(spec, x, ts - h)) / (2 * h)
    assert np.max(np.abs(q4.metric_weight * dU + (U @ A - b))) <= 1e-8
    # A = I: each coordinate relaxes to b_i at rate 1/w_i = 4
    flow = exact_flows(quadratic(np.eye(4), b), x, ts)
    assert np.allclose(flow, b + np.exp(-4.0 * ts)[:, None] * (x.coords - b), rtol=0, atol=1e-14)


def test_convergence_study_quadratic_on_quantiles_converges():
    # with the flow's rate 1/w_i = 4 the sup error halves with eps (it grew
    # from 0.336 to 0.353 against the unweighted e^{-t})
    table = convergence_study(quadratic(np.eye(4)), point([-1.0, -0.5, 0.5, 1.0],
                              SpaceSpec.quantile1d(4)), [0.05, 0.025], 1.0, N=2000)
    errs = table.sup_errors
    assert errs[1] <= 0.6 * errs[0] and errs[0] <= 0.1, errs


@pytest.mark.parametrize("A, space", [
    ([[1.0, 0.0], [0.0, 0.0]], SpaceSpec.euclidean(2)),
], ids=["singular"])
def test_quadratic_flow_registered_exactly_where_it_exists(A, space):
    assert not has_exact_flow(quadratic(A), space)
    with pytest.raises(NotAvailableError):
        exact_flows(quadratic(A), point([0.3, -0.2], space), [0.0, 1.0])


def test_convergence_study_falls_back_to_the_chain_on_a_singular_quadratic(monkeypatch):
    taus = []

    def spy(x_bar, tau, steps, energy):
        taus.append(tau)
        return minimizing_movements(x_bar, tau, steps, energy)

    monkeypatch.setattr(wedflow.reference, "minimizing_movements", spy)
    E2 = SpaceSpec.euclidean(2)
    table = convergence_study(quadratic([[1.0, 0.0], [0.0, 0.0]]), point([1.0, 0.5], E2),
                              [0.1], 0.5, N=400)
    assert taus == [0.25 * 0.1**2]
    assert table.rows[0].sup_err <= 0.1


def test_coordinatewise_flows_are_registered_where_the_metric_allows():
    for space in (E1, SpaceSpec.euclidean(3), SpaceSpec.quantile1d(4)):
        assert has_exact_flow(double_well(), space)
        assert has_exact_flow(convex_quartic(), space)
    # the hilltop and the well bottoms stay put, also once e^{-2t} underflows
    flow = exact_flows(double_well(), point([-1.0, 0.0, 1.0], SpaceSpec.euclidean(3)),
                       [0.0, 1.0, 1e3])
    assert np.array_equal(flow, np.tile([-1.0, 0.0, 1.0], (3, 1)))


# the chain the convergence study used as its reference before: tau =
# 0.0125^2 / 4 on [0, 1], first order in tau.  Flows and proximal steps of
# these energies go coordinate by coordinate, so one chain per energy carries
# all its initial values.
FINE_CHAINS = {"double_well": (double_well(), (0.22, 0.3, 0.6, 1.5)),
               "quartic": (convex_quartic(), (0.3, 1.5))}


@functools.lru_cache(maxsize=None)
def fine_chain(name):
    energy, x0 = FINE_CHAINS[name]
    space = SpaceSpec.euclidean(len(x0))
    x = point(x0, space)
    tau = 0.0125**2 / 4.0
    return x, minimizing_movements(x, tau, int(math.ceil(1.0 / tau)), energy)


def fine_chain_errors(name, ts=None):
    """Per initial value, the chain's largest distance from the exact flow: at
    its own nodes, or read by ``at_times`` at the times ts."""
    x, mm = fine_chain(name)
    if ts is None:
        ts, rows = mm.trajectory.grid.nodes, mm.trajectory.points
    else:
        rows = mm.at_times(ts)
    flow = exact_flows(FINE_CHAINS[name][0], x, ts)
    return dict(zip(x.coords.tolist(), np.max(np.abs(flow - rows), axis=0).tolist()))


@pytest.mark.parametrize("chain, x0, tol", [
    # measured 4.4e-6, 2.6e-6, 2.7e-6, 1.3e-5, 1.0e-7 and 2.4e-5
    ("double_well", 0.22, 5e-6),
    ("double_well", 0.3, 5e-6),
    ("double_well", 0.6, 5e-6),
    ("double_well", 1.5, 2e-5),
    ("quartic", 0.3, 2e-7),
    ("quartic", 1.5, 3e-5),
], ids=["double_well-0.22", "double_well-0.3", "double_well-0.6", "double_well-1.5",
        "quartic-0.3", "quartic-1.5"])
def test_exact_flow_matches_a_fine_proximal_chain(chain, x0, tol):
    assert fine_chain_errors(chain)[x0] <= tol


def test_chain_read_between_its_nodes_keeps_its_nodal_error():
    # the convergence study reads the chain at the nodes of an N = 4000
    # solve on [0, 1]: a piecewise-constant read lagged by up to tau |u'|
    # (measured 1.0e-5 to 7.3e-5), the linear read keeps the nodal error
    read = fine_chain_errors("double_well", np.linspace(0.0, 1.0, 4001))
    for x0, nodal in fine_chain_errors("double_well").items():
        assert read[x0] <= nodal + 1e-7


# -- descent inequality -----------------------------------------------------------------


def test_max_slope_stationary_point():
    grid = TimeGrid.uniform(1.0, 50)
    traj = Trajectory(grid, np.ones((51, 1)), E1)
    assert np.max(np.abs(max_slope_residuals(traj, double_well()))) == 0.0


def test_max_slope_equality_on_exact_flow():
    spec = quadratic([[1.0]])
    grid = TimeGrid.uniform(1.0, 2000)
    pts = np.array([exact_flow(spec, point([1.0], E1), float(t)).coords for t in grid.nodes])
    traj = Trajectory(grid, pts, E1)
    resid = np.abs(max_slope_residuals(traj, spec))
    assert np.max(resid) <= 2e-3, np.max(resid)


@pytest.mark.parametrize("energy, x0", [
    (double_well(), [0.3]), (double_well(), [1.5]), (convex_quartic(), [1.5]),
    (double_well(), [-0.3, 0.0, 0.3, 1.5]),
], ids=["double_well-0.3", "double_well-1.5", "quartic-1.5", "double_well4"])
def test_max_slope_equality_on_coordinatewise_flows(energy, x0):
    space = SpaceSpec.euclidean(len(x0))
    x = point(x0, space)
    grid = TimeGrid.uniform(1.0, 2000)
    traj = Trajectory(grid, exact_flows(energy, x, grid.nodes), space)
    resid = np.abs(max_slope_residuals(traj, energy))
    assert np.max(resid) <= 2e-3, np.max(resid)


def test_max_slope_positive_part_on_small_eps_minimizer():
    eps = 0.0125
    sol = minimize_wed(WedProblem(epsilon=eps, T=1.0, N=4000, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1),
                                  solver="euler_lagrange"))
    resid = max_slope_residuals(sol.trajectory, double_well())
    assert np.max(resid) <= 5e-2, np.max(resid)


# -- parameter sweep ----------------------------------------------------------------------


def test_convergence_study_quadratic_rates():
    table = convergence_study(quadratic([[1.0]]), point([1.0], E1),
                              [0.1, 0.05, 0.025, 0.0125], 1.0)
    errs = table.sup_errors
    for i in range(len(errs) - 1):
        assert 1.6 <= errs[i] / errs[i + 1] <= 2.4, errs
    # shared initial datum: zero error at t = 0 by construction
    for row in table.rows:
        assert row.lsc_residual <= 5e-2
    # first-order: |r(eps) + a| = a^2 eps + O(eps^2) controls the sup error
    for row, c in zip(table.rows, errs / np.array([0.1, 0.05, 0.025, 0.0125])):
        assert 0.2 <= c <= 0.6  # fitted constant stays O(1)


def no_chain(*args):
    raise AssertionError("the study built a proximal chain")


def test_convergence_study_double_well_with_exact_reference(monkeypatch):
    monkeypatch.setattr(wedflow.reference, "minimizing_movements", no_chain)
    table = convergence_study(double_well(), point([0.3], E1),
                              [0.1, 0.05, 0.025], 1.0,
                              N=2000)
    errs = table.sup_errors
    for i in range(len(errs) - 1):
        assert errs[i + 1] <= 1.1 * errs[i]
    assert table.rows[-1].lsc_residual <= 5e-2


def test_convergence_study_double_well_finest_pair_is_first_order(monkeypatch):
    # with an exact reference the error ratio of eps 0.025 / 0.0125 is the
    # first-order 2 (measured 1.90-2.17 on this range); the coarse pair 0.1 /
    # 0.05 leaves [1.6, 2.4] near x_bar 0.4, where the sup error moves to
    # another time
    monkeypatch.setattr(wedflow.reference, "minimizing_movements", no_chain)
    ratios = {}
    for x0 in np.linspace(0.2, 0.6, 21).tolist():
        errs = convergence_study(double_well(), point([x0], E1), [0.025, 0.0125], 1.0).sup_errors
        ratios[round(x0, 2)] = errs[0] / errs[1]
    assert all(1.6 <= r <= 2.4 for r in ratios.values()), ratios


def test_convergence_study_falls_back_to_the_proximal_chain(monkeypatch):
    # neither energy has a registered flow: the 1-D Dirichlet energy
    # u^2 + u^4/4, and the quantile energy on R^3, whose Gaussian flow lives in
    # quantile coordinates only; the study takes its reference from the chain
    # at tau = 0.05^2 / 4
    taus = []

    def spy(x_bar, tau, steps, energy):
        taus.append(tau)
        return minimizing_movements(x_bar, tau, steps, energy)

    monkeypatch.setattr(wedflow.reference, "minimizing_movements", spy)
    for spec, x_bar, t_obs, N in [
        (EnergySpec("discrete_dirichlet", {"reaction": [0.0, 0.0, 0.0, 0.0, 0.25]}, lam=2.0),
         point([0.8], E1), 1.0, 2000),
        (quantile_entropy_potential(), point([-2.0, 0.0, 0.5], SpaceSpec.euclidean(3)), 0.5, 1000),
    ]:
        assert not has_exact_flow(spec, x_bar.space)
        taus.clear()
        errs = convergence_study(spec, x_bar, [0.1, 0.05], t_obs, N=N).sup_errors
        assert taus == [0.25 * 0.05**2]
        assert errs[1] <= 0.6 * errs[0], errs


def test_convergence_study_ou_quantile():
    qs = SpaceSpec.quantile1d(64)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    x0 = gaussian_quantiles(qs, 1.0, 2.0)
    table = convergence_study(spec, x0, [0.02], 0.5, N=1000)
    assert table.rows[0].sup_err <= 2e-2
    # pointwise W2 error at the probe times of the acceptance gate
    sol = minimize_wed(WedProblem(epsilon=0.02, T=0.5, N=1000, space=qs, energy=spec,
                                  x_bar=x0, solver="euler_lagrange"))
    nodes = sol.trajectory.grid.nodes
    for tq in (0.1, 0.5):
        i = int(np.argmin(np.abs(nodes - tq)))
        ref = exact_flow(spec, x0, float(nodes[i]))
        assert distance(sol.trajectory.point_at(i), ref) <= 2e-2


# -- convexity diagnostics ------------------------------------------------------------------


def test_lambda_diagnostics_convex_quartic():
    sol = minimize_wed(WedProblem(epsilon=0.05, T=2.0, N=4000, space=E1,
                                  energy=convex_quartic(), x_bar=point([1.5], E1)))
    rep = lambda_diagnostics(sol)
    assert rep.passed, rep.details
    assert rep.details["phi_nonincreasing"] <= 1.0
    assert rep.details["phi_convex"] <= 1.0
    assert rep.details["speed_nonincreasing"] <= 1.0


def test_lambda_diagnostics_constant_minimizer():
    sol = minimize_wed(WedProblem(epsilon=0.05, T=1.0, N=500, space=E1,
                                  energy=double_well(), x_bar=point([1.0], E1)))
    rep = lambda_diagnostics(sol)
    assert rep.passed


def test_lambda_diagnostics_double_well_weighted_speed():
    eps = 0.02
    assert 1.0 + 8.0 * (-1.0) * eps > 0.5
    sol = minimize_wed(WedProblem(epsilon=eps, T=1.0, N=4000, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1)))
    rep = lambda_diagnostics(sol)
    assert rep.passed, rep.details


def test_lambda_diagnostics_threshold_guard():
    sol = minimize_wed(WedProblem(epsilon=0.2, T=2.0, N=500, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1)))
    with pytest.raises(InvalidInputError):
        lambda_diagnostics(sol)  # 1 + 8 lam eps = -0.6


def test_lambda_diagnostics_need_a_convexity_modulus():
    sol = minimize_wed(WedProblem(epsilon=0.05, T=1.0, N=100, space=E1,
                                  energy=discrete_dirichlet(), x_bar=point([0.3], E1)))
    assert sol.problem.energy.lam is None
    with pytest.raises(InvalidInputError, match="convexity modulus"):
        lambda_diagnostics(sol)


def test_convergence_table_validation():
    from wedflow.reference import ConvergenceRow, ConvergenceTable

    with pytest.raises(InvalidInputError, match="finite"):
        ConvergenceTable((ConvergenceRow(0.1, 1.0, 0.0, 0.1),
                          ConvergenceRow(0.05, math.inf, 0.0, 0.1)))


@pytest.mark.parametrize("energy, x_bar", [
    (double_well(), point([0.3], E1)),
    (quantile_entropy_potential(v2=1.0, v1=0.0), point([-2.0, 0.0, 0.5], SpaceSpec.euclidean(3))),
], ids=["double_well", "quantile_on_R3"])
def test_convergence_study_checks_the_eps_order_before_any_solve(monkeypatch, energy, x_bar):
    # the quantile energy on R^3 has no closed-form flow: its study would run
    # the proximal chain first
    calls = []
    for name in ("minimize_wed", "minimizing_movements"):
        monkeypatch.setattr(wedflow.reference, name,
                            lambda *args, name=name, **kw: calls.append(name))
    with pytest.raises(InvalidInputError, match="decrease strictly"):
        convergence_study(energy, x_bar, [0.025, 0.05], 1.0, N=400)
    assert calls == []
