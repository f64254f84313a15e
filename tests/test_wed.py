import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedflow import (
    InvalidInputError, NonConvergenceError, Point, SpaceSpec, TimeGrid,
    Trajectory, WedProblem, Weights, check_inner_variation, double_well,
    minimize_wed, point, q_value, quadratic, solve_euler_lagrange, wed_value,
)
from wedflow.wed import solve_block_tridiag, solve_tridiag

E1 = SpaceSpec.euclidean(1)


def kappa(eps, a=1.0):
    """Closed-form value coefficient: the positive root of 2 eps k^2 + k = a/2."""
    return (math.sqrt(1.0 + 4.0 * eps * a) - 1.0) / (4.0 * eps)


def r_minus(eps, a=1.0):
    """Integrable root of -eps r^2 + r + a = 0 (decaying optimality mode)."""
    return (1.0 - math.sqrt(1.0 + 4.0 * eps * a)) / (2.0 * eps)


def quad_problem(eps=0.1, T=2.0, N=4000, solver="direct", grid_mode="uniform", **kw):
    return WedProblem(
        epsilon=eps, T=T, N=N, space=E1, energy=quadratic([[1.0]]),
        x_bar=point([1.0], E1), solver=solver, grid_mode=grid_mode, **kw,
    )


def test_kappa_satisfies_value_algebra():
    for eps in (0.2, 0.1, 0.05):
        k = kappa(eps)
        assert 2 * eps * k * k + k - 0.5 == pytest.approx(0.0, abs=1e-15)


def test_wed_value_constant_trajectory_is_phi():
    pr = quad_problem(N=100)
    grid = pr.grid()
    traj = Trajectory(grid, np.ones((101, 1)), E1)
    assert wed_value(pr, traj) == pytest.approx(0.5, abs=1e-14)  # masses + tail sum to 1


def test_wed_value_exponential_ansatz_matches_kappa():
    eps = 0.1
    pr = quad_problem(eps=eps)
    grid = pr.grid()
    r = r_minus(eps)
    traj = Trajectory(grid, np.exp(r * grid.nodes)[:, None], E1)
    assert wed_value(pr, traj) == pytest.approx(kappa(eps), abs=1e-3)


def test_wed_value_infinite_for_nonmonotone_quantile():
    qs = SpaceSpec.quantile1d(3)
    from wedflow import quantile_entropy_potential

    pr = WedProblem(epsilon=0.1, T=1.0, N=10, space=qs,
                    energy=quantile_entropy_potential(),
                    x_bar=Point(np.array([-1.0, 0.0, 1.0]), qs))
    pts = np.tile([-1.0, 0.0, 1.0], (11, 1))
    pts[5] = [0.0, -1.0, 1.0]  # leaves the monotone cone
    assert math.isinf(wed_value(pr, Trajectory(pr.grid(), pts, qs)))


def test_wed_value_grid_mismatch_raises():
    pr = quad_problem(N=100)
    other = TimeGrid.uniform(2.0, 50)
    with pytest.raises(InvalidInputError):
        wed_value(pr, Trajectory(other, np.ones((51, 1)), E1))


def test_coercive_lower_bound_on_random_trajectories():
    # weighted dissipation/energy split bounded by objective plus Q(x_bar),
    # for an energy that is genuinely unbounded below (B > 0)
    energy = quadratic([[-0.5]])
    co = energy.coercivity
    assert co.B > 0.0
    eps = 1.0 / (16.0 * co.B)  # smallness exactly at the edge
    pr = WedProblem(epsilon=eps, T=1.0, N=200, space=E1, energy=energy,
                    x_bar=point([0.7], E1))
    grid = pr.grid()
    w = Weights.for_grid(grid, eps)
    rng = np.random.default_rng(21)
    for _ in range(50):
        pts = np.concatenate([[0.7], 0.7 + np.cumsum(rng.standard_normal(200) * 0.05)])
        traj = Trajectory(grid, pts[:, None], E1)
        v = np.diff(pts) / grid.dt
        phis = 0.5 * -0.5 * pts**2
        lhs = float(np.sum(w.masses * (eps / 4 * v**2 + np.maximum(phis[:-1], 0.0))))
        lhs += w.tail * max(phis[-1], 0.0)
        rhs = wed_value(pr, traj) + q_value(energy, E1, pr.x_bar)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


def test_direct_matches_closed_form_trajectory():
    eps = 0.1
    sol = minimize_wed(quad_problem(eps=eps))
    t = sol.trajectory.grid.nodes
    exact = np.exp(r_minus(eps) * t)
    assert sol.converged
    err = np.max(np.abs(sol.trajectory.points[:, 0] - exact))
    assert err <= 1e-3
    assert sol.objective == pytest.approx(kappa(eps), rel=1e-3)
    assert sol.trajectory.points[0, 0] == 1.0  # datum preserved exactly


def test_direct_refinement_is_first_order():
    eps = 0.1
    errs = {}
    for N in (500, 1000, 2000, 4000):
        sol = minimize_wed(quad_problem(eps=eps, N=N))
        t = sol.trajectory.grid.nodes
        errs[N] = np.max(np.abs(sol.trajectory.points[:, 0] - np.exp(r_minus(eps) * t)))
    for a, b in ((500, 1000), (1000, 2000), (2000, 4000)):
        assert 1.7 <= errs[a] / errs[b] <= 2.3


def test_euler_lagrange_matches_closed_form():
    eps = 0.1
    sol = solve_euler_lagrange(quad_problem(eps=eps, solver="euler_lagrange"))
    t = sol.trajectory.grid.nodes
    err = np.max(np.abs(sol.trajectory.points[:, 0] - np.exp(r_minus(eps) * t)))
    assert err <= 1e-4
    assert sol.gradient_norm <= 1e-8


def test_constant_energy_gives_constant_solution():
    pr = WedProblem(epsilon=0.1, T=1.0, N=200, space=E1, energy=quadratic([[0.0]]),
                    x_bar=point([0.4], E1), solver="euler_lagrange")
    sol = solve_euler_lagrange(pr)
    assert np.all(sol.trajectory.points == 0.4)
    assert np.all(sol.speed == 0.0)


def test_critical_point_stays_constant():
    pr = WedProblem(epsilon=0.1, T=2.0, N=1000, space=E1, energy=double_well(),
                    x_bar=point([1.0], E1))
    sol = minimize_wed(pr)
    assert np.max(np.abs(sol.trajectory.points - 1.0)) <= 1e-6
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_objective_never_exceeds_initial_energy():
    for solver in ("direct", "euler_lagrange"):
        pr = WedProblem(epsilon=0.05, T=2.0, N=1500, space=E1, energy=double_well(),
                        x_bar=point([0.3], E1), solver=solver)
        sol = minimize_wed(pr)
        phi0 = 0.25 * (0.3**2 - 1.0) ** 2
        assert sol.objective <= phi0 + 1e-12
        const = Trajectory(pr.grid(), np.full((pr.N + 1, 1), 0.3), E1)
        assert sol.objective <= wed_value(pr, const) + 1e-12


def test_objective_monotone_in_epsilon_double_well():
    # smaller eps -> larger value (both with horizon long enough that the
    # localized and infinite-horizon objectives agree at solver tolerance)
    objs = {}
    for eps in (0.1, 0.05):
        pr = WedProblem(epsilon=eps, T=25 * eps, N=4000, space=E1,
                        energy=double_well(), x_bar=point([0.3], E1),
                        grid_mode="exp_graded")
        objs[eps] = minimize_wed(pr).objective
    assert objs[0.05] >= objs[0.1] - 1e-10


def test_backends_cross_validate_on_double_well():
    eps = 0.05
    pr_d = WedProblem(epsilon=eps, T=2.0, N=2000, space=E1, energy=double_well(),
                      x_bar=point([0.3], E1))
    pr_e = WedProblem(epsilon=eps, T=2.0, N=2000, space=E1, energy=double_well(),
                      x_bar=point([0.3], E1), solver="euler_lagrange")
    sd = minimize_wed(pr_d)
    se = solve_euler_lagrange(pr_e)
    gap = np.max(np.abs(sd.trajectory.points - se.trajectory.points))
    assert gap <= 5e-3


def test_backends_agree_in_uniqueness_regime():
    # lambda >= 0: the two routes answer within ten times the (shared)
    # discretization tolerance
    tol = 1e-4
    sd = minimize_wed(quad_problem(grad_tol=tol))
    se = solve_euler_lagrange(quad_problem(solver="euler_lagrange", grad_tol=tol))
    gap = np.max(np.abs(sd.trajectory.points - se.trajectory.points))
    assert gap <= 10 * tol


def test_direct_matches_independent_banded_kkt_solve():
    # for quadratic energies the discrete objective is a QP; solve its
    # stationarity system independently with scipy's banded solver
    la = pytest.importorskip("scipy.linalg")
    eps, T, N, a = 0.1, 2.0, 1500, 1.0
    pr = quad_problem(eps=eps, T=T, N=N)
    sol = minimize_wed(pr)
    grid = pr.grid()
    w = np.exp(-grid.nodes / eps)
    m = w[:-1] - w[1:]
    tail = w[-1]
    dt = np.diff(grid.nodes)
    c = eps * m / dt**2
    ab = np.zeros((3, N))
    ab[1, : N - 1] = c[:-1] + c[1:] + m[1:] * a
    ab[1, N - 1] = c[N - 1] + tail * a
    ab[0, 1:] = -c[1:]
    ab[2, : N - 1] = -c[1:]
    rhs = np.zeros(N)
    rhs[0] = c[0] * 1.0
    u_free = la.solve_banded((1, 1), ab, rhs)
    assert np.max(np.abs(sol.trajectory.points[1:, 0] - u_free)) < 1e-11


def test_determinism_bitwise():
    a = minimize_wed(quad_problem(N=800))
    b = minimize_wed(quad_problem(N=800))
    assert np.array_equal(a.trajectory.points, b.trajectory.points)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
def test_nonconvergence_carries_best_iterate(solver):
    pr = WedProblem(epsilon=0.05, T=2.0, N=500, space=E1, energy=double_well(),
                    x_bar=point([0.3], E1), max_iter=1, solver=solver)
    with pytest.raises(NonConvergenceError) as info:
        minimize_wed(pr)
    best = info.value.best
    assert best is not None and np.array_equal(best[0], pr.x_bar.coords)
    assert len(info.value.trace) > 0


def test_euler_lagrange_passes_on_errors_other_than_domain(monkeypatch):
    # only DomainError means "no gradient here"; a bug must not read as an
    # infinite merit and a stalled search
    import wedflow.wed as wed

    calls = []

    def grad_many(spec, U):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("bug in the gradient")
        return np.asarray(U) ** 3 - np.asarray(U)

    monkeypatch.setattr(wed, "grad_many", grad_many)
    pr = WedProblem(epsilon=0.05, T=1.0, N=400, space=E1, energy=double_well(),
                    x_bar=point([0.3], E1), solver="euler_lagrange")
    with pytest.raises(RuntimeError, match="bug in the gradient"):
        minimize_wed(pr)


def test_unknown_grid_mode_rejected():
    with pytest.raises(InvalidInputError, match="grid mode"):
        quad_problem(grid_mode="nope")


def test_smallness_condition_enforced():
    energy = quadratic([[-0.5]])  # B = 1.5
    with pytest.raises(InvalidInputError):
        WedProblem(epsilon=1.0, T=1.0, N=10, space=E1, energy=energy,
                   x_bar=point([0.0], E1))


def test_direct_backend_on_quantile_coordinates():
    # block-tridiagonal path with the entropy barrier keeping monotonicity
    from wedflow import gaussian_quantiles, quantile_entropy_potential

    qs = SpaceSpec.quantile1d(8)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    x0 = gaussian_quantiles(qs, 1.0, 2.0)
    prd = WedProblem(epsilon=0.05, T=0.5, N=1200, space=qs, energy=spec, x_bar=x0)
    pre = WedProblem(epsilon=0.05, T=0.5, N=1200, space=qs, energy=spec, x_bar=x0,
                     solver="euler_lagrange")
    sd, se = minimize_wed(prd), solve_euler_lagrange(pre)
    assert np.all(np.diff(sd.trajectory.points, axis=1) > 0.0)
    gap = np.max(np.abs(sd.trajectory.points - se.trajectory.points))
    assert gap <= 5e-3
    assert sd.objective <= energy_eval_at(spec, x0) + 1e-12


def energy_eval_at(spec, x):
    from wedflow import energy_eval

    return energy_eval(spec, x)


def test_pnorm2_solve_matches_euclidean():
    s_p = SpaceSpec.pnorm(2, 2.0)
    s_e = SpaceSpec.euclidean(2)
    A = np.array([[1.0, 0.2], [0.2, 2.0]])
    for space in (s_p, s_e):
        pr = WedProblem(epsilon=0.1, T=1.0, N=400, space=space, energy=quadratic(A),
                        x_bar=Point(np.array([1.0, -0.5]), space))
        sol = minimize_wed(pr)
        if space is s_p:
            ref = sol.trajectory.points
        else:
            assert np.array_equal(sol.trajectory.points, ref)


def test_multidimensional_dirichlet_cross_validation():
    from wedflow import discrete_dirichlet

    spec = discrete_dirichlet(p=2.0, h=0.25, reaction=(0.0, 0.0, 1.0))
    s5 = SpaceSpec.euclidean(5)
    x0 = Point(np.array([1.0, 0.5, -0.2, 0.4, 0.8]), s5)
    prd = WedProblem(epsilon=0.05, T=0.5, N=400, space=s5, energy=spec, x_bar=x0)
    pre = WedProblem(epsilon=0.05, T=0.5, N=400, space=s5, energy=spec, x_bar=x0,
                     solver="euler_lagrange")
    sd, se = minimize_wed(prd), solve_euler_lagrange(pre)
    gap = np.max(np.abs(sd.trajectory.points - se.trajectory.points))
    assert gap <= 5e-3
    assert np.all(np.diff(sd.phi) <= 1e-10)  # convex energy decays along the solve


def test_inner_variation_constant_minimizer():
    pr = WedProblem(epsilon=0.1, T=2.0, N=500, space=E1, energy=double_well(),
                    x_bar=point([1.0], E1))
    rep = check_inner_variation(minimize_wed(pr))
    assert rep.max_residual <= 1e-10
    assert rep.boundary_residual <= 1e-12


def test_inner_variation_quadratic_residuals():
    eps = 0.1
    reps = {}
    for N in (2000, 4000):
        sol = minimize_wed(quad_problem(eps=eps, N=N))
        reps[N] = check_inner_variation(sol)
    for N, rep in reps.items():
        assert rep.max_residual <= 5e-2 * rep.speed_scale
    ratio = reps[2000].max_residual / reps[4000].max_residual
    assert 1.4 <= ratio <= 2.6  # first order, +-30% around halving
    sol = minimize_wed(quad_problem(eps=eps, N=4000))
    assert reps[4000].boundary_residual <= 1e-3 * abs(sol.objective)


def banded_system(rng, n, d):
    """Random block-diagonally dominant (sub, diag, sup, rhs) and its dense matrix;
    the off-diagonal blocks are diagonal, given by their (n - 1, d) diagonals."""
    sub = rng.standard_normal((max(n - 1, 0), d))
    sup = rng.standard_normal((max(n - 1, 0), d))
    diag = rng.standard_normal((n, d, d)) + 4.0 * d * np.eye(d)
    rhs = rng.standard_normal((n, d))
    M = np.zeros((n * d, n * d))
    for k in range(n):
        M[k * d:(k + 1) * d, k * d:(k + 1) * d] = diag[k]
        if k < n - 1:
            M[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = np.diag(sub[k])
            M[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.diag(sup[k])
    return sub, diag, sup, rhs, M


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 500])
def test_block_tridiag_matches_dense_solve(n, d):
    sub, diag, sup, rhs, M = banded_system(np.random.default_rng(n + 10 * d), n, d)
    x = solve_block_tridiag(sub, diag, sup, rhs)
    ref = np.linalg.solve(M, rhs.ravel()).reshape(n, d)
    assert x.shape == (n, d)
    assert np.max(np.abs(x - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("sub, diag, sup", [
    ([], [0.0], []),
    ([1.0], [1.0, 1.0], [1.0]),  # second pivot 1 - 1 * 1
])
def test_tridiag_zero_pivot_raises(sub, diag, sup):
    args = [np.array(v, dtype=float) for v in (sub, diag, sup)]
    with pytest.raises(ZeroDivisionError):
        solve_tridiag(*args, np.ones(len(diag)))
    with pytest.raises(ZeroDivisionError):
        solve_block_tridiag(args[0][:, None], args[1].reshape(-1, 1, 1), args[2][:, None],
                            np.ones((len(diag), 1)))


def solve_banded_ref(sub, diag, sup, rhs):
    """scipy's banded LU with partial pivoting (LAPACK gbsv), the reference."""
    la = pytest.importorskip("scipy.linalg")
    ab = np.zeros((3, diag.shape[0]))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    return la.solve_banded((1, 1), ab, rhs)


def rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3, 63, 500, 4000, 4001])
def test_tridiag_matches_solve_banded(n):
    # n = 63 is the Finsler curve size and 4000 a direct solve at N = 4000;
    # the reduction meets odd and even sizes on its way down
    sub, diag, sup, rhs, _ = banded_system(np.random.default_rng(7 * n), n, 1)
    bands = (sub[:, 0], diag[:, 0, 0], sup[:, 0], rhs[:, 0])
    x = solve_tridiag(*bands)
    assert x.shape == (n,)
    assert rel_err(x, solve_banded_ref(*bands)) <= 1e-13
    # strided views are read as they are
    wide = [np.repeat(b, 2)[::2] for b in bands]
    assert np.array_equal(solve_tridiag(*wide), x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
@example(n=64, seed=0)
@example(n=65, seed=0)
@example(n=127, seed=0)
@example(n=128, seed=0)
@example(n=129, seed=0)
def test_tridiag_matches_dense_solve(n, seed):
    # n = 2^k halves through even sizes only, 2^k + 1 through odd ones down to 3
    sub, diag, sup, rhs, M = banded_system(np.random.default_rng(seed), n, 1)
    x = solve_tridiag(sub[:, 0], diag[:, 0, 0], sup[:, 0], rhs[:, 0])
    assert rel_err(x, np.linalg.solve(M, rhs[:, 0])) <= 1e-13


@pytest.mark.parametrize("rho", [0.0, 1e-3, 1.0])
def test_tridiag_on_the_double_well_newton_matrix_near_the_hilltop(monkeypatch, rho):
    # phi'' < 0 at x_bar = 0.25: on the first step no row but the one next to
    # the pinned node is diagonally dominant, and the matrix has condition
    # number about 2.7e6; rho is a Levenberg shift (omega = 1).  The bound
    # sits below condition number x unit roundoff, 3e-10; measured against
    # solve_banded: at most 5.4e-12, where the Thomas sweep was at 5.3e-12
    import wedflow.wed as wed

    # the row-scaled systems of a direct solve, as `_newton_direction` hands
    # them to the solver
    systems, solve = [], wed.solve_block_tridiag

    def record(sub, diag, sup, rhs):
        systems.append((sub[:, 0].copy(), diag[:, 0, 0].copy(), sup[:, 0].copy(), rhs[:, 0].copy()))
        return solve(sub, diag, sup, rhs)

    monkeypatch.setattr(wed, "solve_block_tridiag", record)
    minimize_wed(WedProblem(epsilon=0.05, T=1.25, N=4000, space=E1, energy=double_well(),
                            x_bar=point([0.25], E1)))
    sub, diag, sup, _ = systems[0]
    off = np.append(0.0, np.abs(sub)) + np.append(np.abs(sup), 0.0)
    assert np.all(np.abs(diag[1:]) < off[1:])
    assert len(systems) >= 2
    for sub, diag, sup, rhs in systems:
        shifted = (sub, diag + rho, sup, rhs)
        assert rel_err(solve_tridiag(*shifted), solve_banded_ref(*shifted)) <= 1e-10


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
def test_double_well_solve_is_the_same_with_a_banded_lu(monkeypatch, solver):
    # swapping the reduction for LAPACK's pivoted banded solve changes the
    # Newton steps at roundoff only
    import wedflow.wed as wed

    pr = WedProblem(epsilon=0.05, T=1.25, N=4000, space=E1, energy=double_well(),
                    x_bar=point([0.25], E1), solver=solver)
    ours = minimize_wed(pr)
    monkeypatch.setattr(wed, "solve_tridiag", solve_banded_ref)
    ref = minimize_wed(pr)
    assert ours.iterations == ref.iterations
    assert np.max(np.abs(ours.trajectory.points - ref.trajectory.points)) <= 1e-12


def test_euler_lagrange_interpolates_onto_a_graded_grid():
    # both solves run on the same uniform computational grid, dt = T/N; the
    # graded one interpolates it linearly at its own nodes
    kw = dict(eps=0.05, T=1.0, N=800, solver="euler_lagrange")
    uniform = minimize_wed(quad_problem(**kw)).trajectory
    graded = minimize_wed(quad_problem(grid_mode="exp_graded", **kw)).trajectory
    want = np.interp(graded.grid.nodes, uniform.grid.nodes, uniform.points[:, 0])
    assert graded.grid.mode == "exp_graded"
    assert np.max(np.abs(graded.points[:, 0] - want)) <= 1e-13
