import math

import numpy as np
import pytest

from wedflow import (
    InvalidInputError, NotAvailableError, Point, SpaceSpec, StudyOptions,
    TimeGrid, Trajectory, WedProblem, check_max_slope, convergence_study,
    convex_quartic, distance, double_well, exact_flow, exact_flows, gaussian_quantiles,
    lambda_diagnostics, minimize_wed, minimizing_movements, normal_quantile,
    point, quadratic, quantile_entropy_potential, yosida,
)
from wedflow.energies import eval_many

E1 = SpaceSpec.euclidean(1)


# -- proximal iteration ------------------------------------------------------------


def test_mm_quadratic_matches_resolvent_power():
    a, tau = 1.0, 0.01
    mm = minimizing_movements(point([1.0], E1), tau, 100, quadratic([[a]]), E1)
    iterates = mm.trajectory.points[:, 0]
    for k in (1, 10, 50, 100):
        assert iterates[k] == pytest.approx((1.0 + a * tau) ** -k, abs=1e-10)
    # implicit Euler at step 1/n approximates e^{-1} after n steps
    assert iterates[100] == pytest.approx(math.exp(-1.0), abs=5e-3)


def test_mm_constant_energy_is_stationary():
    mm = minimizing_movements(point([0.3], E1), 0.05, 20, quadratic([[0.0]]), E1)
    assert np.all(mm.trajectory.points == 0.3)
    assert np.all(mm.movements == 0.0)


def test_mm_double_well_follows_the_flow():
    tau = 0.005
    steps = 600
    mm = minimizing_movements(point([0.3], E1), tau, steps, double_well(), E1)
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
        mm = minimizing_movements(point([1.0], E1), tau, steps, spec, E1)
        phis = eval_many(spec, mm.trajectory.points)
        slopes = np.array([
            analytic_slope(spec, E1, mm.trajectory.point_at(k + 1)) for k in range(steps)
        ])
        resid[tau] = abs(0.5 * np.sum(mm.movements**2 / tau)
                         + 0.5 * np.sum(tau * slopes**2) + phis[-1] - phis[0])
    assert resid[0.01] < resid[0.02]
    assert 1.5 <= resid[0.02] / resid[0.01] <= 2.5  # first-order decay


@pytest.mark.parametrize("space, energy, x0, tau", [
    (E1, double_well(), [0.3], 0.01),
    (E1, double_well(), [0.3], 0.46),  # the bracketed 1-D prox
    (SpaceSpec.pnorm(1, 3.0), double_well(), [-1.2], 0.46),
    (SpaceSpec.pnorm(1, 2.0), convex_quartic(), [-1.2], 0.01),
    (SpaceSpec.euclidean(3), double_well(), [0.3, -1.4, 0.05], 0.01),
    (SpaceSpec.quantile1d(8), quantile_entropy_potential(v2=1.0, v1=0.3), None, 0.01),
], ids=["euclidean1", "euclidean1-bracket", "pnorm1-p3", "pnorm1-p2", "euclidean3",
        "quantile8"])
def test_mm_steps_are_yosida_and_movements_are_distances(space, energy, x0, tau):
    x = gaussian_quantiles(space, 0.5, 2.0) if x0 is None else point(x0, space)
    mm = minimizing_movements(x, tau, 40, energy, space)
    P = mm.trajectory.points
    for k in range(40):
        step = yosida(energy, space, Point(P[k], space), tau)[1].coords
        assert P[k + 1].tobytes() == step.tobytes()
    dists = [distance(space, Point(P[k], space), Point(P[k + 1], space)) for k in range(40)]
    assert mm.movements.tobytes() == np.array(dists).tobytes()


def test_mm_rejects_too_large_step():
    with pytest.raises(InvalidInputError):
        minimizing_movements(point([0.3], E1), 0.6, 5, double_well(), E1)  # 1/(2|lam|) = 0.5


def test_mm_piecewise_constant_interpolation():
    mm = minimizing_movements(point([1.0], E1), 0.1, 5, quadratic([[1.0]]), E1)
    vals = mm.at_times([0.0, 0.05, 0.1, 0.35, 0.5])
    assert vals[0, 0] == 1.0
    assert vals[1, 0] == 1.0  # floor interpolation
    assert vals[2, 0] == mm.trajectory.points[1, 0]
    assert vals[4, 0] == mm.trajectory.points[5, 0]


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
    assert distance(qs, got, oracle) <= 1e-6


def per_time_flow(energy, x_bar, t):
    """The closed-form flow at one time, on a vector and Python floats."""
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
], ids=["quadratic1", "quadratic3", "quantile8"])
def test_exact_flows_rows_are_bitwise_the_flow_at_each_time(energy, x_bar):
    ts = np.linspace(0.0, 2.0, 801)
    rows = exact_flows(energy, x_bar, ts)
    want = np.stack([per_time_flow(energy, x_bar, float(t)) for t in ts])
    assert rows.tobytes() == want.tobytes()
    assert np.array_equal(exact_flow(energy, x_bar, float(ts[300])).coords, rows[300])


def test_exact_flow_unregistered_kind():
    with pytest.raises(NotAvailableError):
        exact_flow(double_well(), point([0.3], E1), 1.0)


# -- descent inequality -----------------------------------------------------------------


def test_max_slope_stationary_point():
    grid = TimeGrid.uniform(1.0, 50)
    traj = Trajectory(grid, np.ones((51, 1)), E1)
    rep = check_max_slope(traj, double_well(), 0.0, tol=1e-14, equality=True)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_max_slope_equality_on_exact_flow():
    spec = quadratic([[1.0]])
    grid = TimeGrid.uniform(1.0, 2000)
    pts = np.array([exact_flow(spec, point([1.0], E1), float(t)).coords for t in grid.nodes])
    traj = Trajectory(grid, pts, E1)
    rep = check_max_slope(traj, spec, 0.5, tol=2e-3, equality=True)
    assert rep.passed, rep.max_residual


def test_max_slope_positive_part_on_small_eps_minimizer():
    eps = 0.0125
    sol = minimize_wed(WedProblem(epsilon=eps, T=1.0, N=4000, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1),
                                  solver="euler_lagrange"))
    rep = check_max_slope(sol.trajectory, double_well(), float(sol.phi[0]), tol=5e-2)
    assert rep.passed, rep.max_residual


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


def test_convergence_study_double_well_with_mm_reference():
    table = convergence_study(double_well(), point([0.3], E1),
                              [0.1, 0.05, 0.025], 1.0,
                              StudyOptions(N=2000))
    errs = table.sup_errors
    for i in range(len(errs) - 1):
        assert errs[i + 1] <= 1.1 * errs[i]
    assert table.rows[-1].lsc_residual <= 5e-2


def test_convergence_study_ou_quantile():
    qs = SpaceSpec.quantile1d(64)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    x0 = gaussian_quantiles(qs, 1.0, 2.0)
    table = convergence_study(spec, x0, [0.02], 0.5, StudyOptions(N=1000))
    assert table.rows[0].sup_err <= 2e-2
    # pointwise W2 error at the probe times of the acceptance gate
    sol = minimize_wed(WedProblem(epsilon=0.02, T=0.5, N=1000, space=qs, energy=spec,
                                  x_bar=x0, solver="euler_lagrange"))
    nodes = sol.trajectory.grid.nodes
    for tq in (0.1, 0.5):
        i = int(np.argmin(np.abs(nodes - tq)))
        ref = exact_flow(spec, x0, float(nodes[i]))
        assert distance(qs, sol.trajectory.point_at(i), ref) <= 2e-2


# -- convexity diagnostics ------------------------------------------------------------------


def test_lambda_diagnostics_convex_quartic():
    sol = minimize_wed(WedProblem(epsilon=0.05, T=2.0, N=4000, space=E1,
                                  energy=convex_quartic(), x_bar=point([1.5], E1)))
    rep = lambda_diagnostics(sol, lam=0.0)
    assert rep.passed, rep.details
    assert rep.details["phi_nonincreasing"] <= 1.0
    assert rep.details["phi_convex"] <= 1.0
    assert rep.details["speed_nonincreasing"] <= 1.0


def test_lambda_diagnostics_constant_minimizer():
    sol = minimize_wed(WedProblem(epsilon=0.05, T=1.0, N=500, space=E1,
                                  energy=double_well(), x_bar=point([1.0], E1)))
    rep = lambda_diagnostics(sol, lam=-1.0, lam_prime=-1.25)
    assert rep.passed


def test_lambda_diagnostics_double_well_weighted_speed():
    eps = 0.02
    assert 1.0 + 8.0 * (-1.0) * eps > 0.5
    sol = minimize_wed(WedProblem(epsilon=eps, T=1.0, N=4000, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1)))
    rep = lambda_diagnostics(sol, lam=-1.0, lam_prime=-1.25)
    assert rep.passed, rep.details


def test_lambda_diagnostics_threshold_guard():
    sol = minimize_wed(WedProblem(epsilon=0.2, T=2.0, N=500, space=E1,
                                  energy=double_well(), x_bar=point([0.3], E1)))
    with pytest.raises(InvalidInputError):
        lambda_diagnostics(sol, lam=-1.0, lam_prime=-1.25)  # 1 + 8 lam eps = -0.6


def test_convergence_table_validation():
    from wedflow.reference import ConvergenceRow, ConvergenceTable

    with pytest.raises(InvalidInputError):
        ConvergenceTable((ConvergenceRow(0.1, 1.0, 0.0, 0.1),
                          ConvergenceRow(0.2, 1.0, 0.0, 0.1)))
