import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedflow import (
    Coercivity, EnergySpec, InvalidInputError, NonConvergenceError, Point, SpaceSpec, TimeGrid,
    Trajectory, WedProblem, Weights, check_inner_variation, double_well,
    minimize_wed, point, q_value, quadratic, solve_euler_lagrange, wed_value,
)
from wedflow import energies, wed
from wedflow.energies import QUANTILE_ENTROPY
from wedflow.newton import levenberg
from wedflow.wed import solve_block_tridiag, solve_tridiag

E1 = SpaceSpec.euclidean(1)


def kappa(eps, a=1.0):
    """Closed-form value coefficient: the positive root of 2 eps k^2 + k = a/2."""
    return (math.sqrt(1.0 + 4.0 * eps * a) - 1.0) / (4.0 * eps)


def r_minus(eps, a=1.0):
    """Integrable root of -eps r^2 + r + a = 0 (decaying optimality mode)."""
    return (1.0 - math.sqrt(1.0 + 4.0 * eps * a)) / (2.0 * eps)


def quad_problem(eps=0.1, T=2.0, N=4000, solver="direct", **kw):
    return WedProblem(
        epsilon=eps, T=T, N=N, space=E1, energy=quadratic([[1.0]]),
        x_bar=point([1.0], E1), solver=solver, **kw,
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
        rhs = wed_value(pr, traj) + q_value(energy, pr.x_bar)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


def test_direct_matches_closed_form_trajectory():
    eps = 0.1
    sol = minimize_wed(quad_problem(eps=eps))
    t = sol.trajectory.grid.nodes
    exact = np.exp(r_minus(eps) * t)
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
                        energy=double_well(), x_bar=point([0.3], E1))
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
    # lambda >= 0: the two routes answer within 1e-3, their discretizations'
    # difference
    sd = minimize_wed(quad_problem())
    se = solve_euler_lagrange(quad_problem(solver="euler_lagrange"))
    gap = np.max(np.abs(sd.trajectory.points - se.trajectory.points))
    assert gap <= 1e-3


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
def test_nonconvergence_carries_best_iterate(monkeypatch, solver):
    monkeypatch.setattr(wed, "MAX_ITER", 1)
    pr = WedProblem(epsilon=0.05, T=2.0, N=500, space=E1, energy=double_well(),
                    x_bar=point([0.3], E1), solver=solver)
    with pytest.raises(NonConvergenceError) as info:
        minimize_wed(pr)
    best = info.value.best
    assert best is not None and np.array_equal(best[0], pr.x_bar.coords)
    assert len(info.value.trace) > 0


def _dw_solve(solver):
    return lambda: minimize_wed(WedProblem(epsilon=0.05, T=1.0, N=400, space=E1,
                                           energy=double_well(), x_bar=point([0.3], E1),
                                           solver=solver))


@pytest.mark.parametrize("module, solve, trial_call", [
    (wed, _dw_solve("euler_lagrange"), 2),
    (wed, _dw_solve("direct"), 3),
    (energies, lambda: energies.prox(double_well(), E1, np.array([[0.7]]), 0.01), 2),
], ids=["euler_lagrange", "direct", "prox"])
def test_solvers_pass_on_errors_other_than_domain(monkeypatch, module, solve, trial_call):
    # only DomainError means "no gradient here"; a bug at a trial point must
    # not read as an infinite merit and a stalled search.  The start point
    # takes the first trial_call - 1 gradient calls (two per evaluation on
    # the direct backend)
    calls = []

    def grad_many(spec, U):
        calls.append(1)
        if len(calls) == trial_call:
            raise RuntimeError("bug in the gradient")
        return np.asarray(U) ** 3 - np.asarray(U)

    monkeypatch.setattr(module, "grad_many", grad_many)
    with pytest.raises(RuntimeError, match="bug in the gradient"):
        solve()
    assert len(calls) == trial_call


@pytest.mark.parametrize("field, kw", [
    ("epsilon", {"eps": 0.0}), ("T", {"T": -1.0}), ("N", {"N": 0}),
    ("solver", {"solver": "nope"}),
], ids=["epsilon", "T", "N", "solver"])
def test_problem_checks_name_their_field(field, kw):
    with pytest.raises(InvalidInputError) as info:
        quad_problem(**kw)
    assert info.value.field == field


def test_u_star_off_the_quantile_cone_is_an_error_of_the_energy_where_B_is_positive():
    qs = SpaceSpec.quantile1d(3)
    x_bar = point([-1.0, 0.0, 1.0], qs)
    energy = lambda B, u_star: EnergySpec(QUANTILE_ENTROPY, {"v2": 1.0, "v1": 0.0},
                                          coercivity=Coercivity(0.0, B, u_star))
    problem = lambda spec: WedProblem(epsilon=0.05, T=0.5, N=10, space=qs, energy=spec,
                                      x_bar=x_bar)
    with pytest.raises(InvalidInputError, match="quantile cone") as info:
        problem(energy(0.5, [3.0, 2.0, 1.0]))
    assert info.value.field == "energy"
    problem(energy(0.5, [1.0, 2.0, 3.0]))
    # with B = 0, Q is A and never reads u_star: a quadratic's default u_star
    # 0, off the cone, passes
    problem(energy(0.0, [3.0, 2.0, 1.0]))
    assert np.array_equal(quadratic(np.eye(3)).coercivity.u_star, np.zeros(3))
    problem(quadratic(np.eye(3)))


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
    assert rep.name == "inner" and rep.details["speed_scale"] == 0.0
    assert rep.max_residual <= 1e-10
    assert rep.details["boundary_residual"] <= 1e-12


def test_inner_variation_quadratic_residuals():
    # per-cell residuals relative to max |u'|^2, then the boundary identity
    # relative to the objective
    eps = 0.1
    reps = {}
    for N in (2000, 4000):
        sol = minimize_wed(quad_problem(eps=eps, N=N))
        reps[N] = check_inner_variation(sol)
    for N, rep in reps.items():
        assert rep.residuals.size == N + 1 and rep.passed and rep.tolerance == 5e-2
    ratio = np.max(reps[2000].residuals[:-1]) / np.max(reps[4000].residuals[:-1])
    assert 1.4 <= ratio <= 2.6  # first order, +-30% around halving
    sol = minimize_wed(quad_problem(eps=eps, N=4000))
    assert reps[4000].residuals[-1] <= 1e-3
    assert reps[4000].details["boundary_residual"] == pytest.approx(
        reps[4000].residuals[-1] * abs(sol.objective), rel=1e-12)


def dense_blocks(diag, off):
    """The symmetric tridiagonal blocks with bands diag (n, d) and off
    (n, d - 1), as an (n, d, d) array."""
    return np.array([np.diag(a) + np.diag(b, 1) + np.diag(b, -1) for a, b in zip(diag, off)])


def block_matrix(sub, diag, off, sup):
    """The dense matrix of a block system whose diagonal blocks have bands
    diag and off and whose off-diagonal blocks are diagonal."""
    blocks = dense_blocks(diag, off)
    n, d = diag.shape
    M = np.zeros((n * d, n * d))
    for k in range(n):
        M[k * d:(k + 1) * d, k * d:(k + 1) * d] = blocks[k]
        if k < n - 1:
            M[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = np.diag(sub[k])
            M[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.diag(sup[k])
    return M


def banded_system(rng, n, d):
    """Random block-diagonally dominant (sub, diag, off, sup, rhs) and its
    dense matrix: the off-diagonal blocks are diagonal, given by their
    (n - 1, d) diagonals, and the diagonal blocks symmetric tridiagonal,
    given by their bands diag (n, d) and off (n, d - 1), as the Newton
    systems have them.  Each row has two random couplings, and at d > 1 two
    more inside its block, against a shifted diagonal entry of 4 and 8."""
    sub = rng.standard_normal((max(n - 1, 0), d))
    sup = rng.standard_normal((max(n - 1, 0), d))
    diag = rng.standard_normal((n, d)) + (4.0 if d == 1 else 8.0)
    off = rng.standard_normal((n, d - 1))
    rhs = rng.standard_normal((n, d))
    return sub, diag, off, sup, rhs, block_matrix(sub, diag, off, sup)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 500])
def test_block_tridiag_matches_dense_solve(n, d):
    sub, diag, off, sup, rhs, M = banded_system(np.random.default_rng(n + 10 * d), n, d)
    x = solve_block_tridiag(sub, diag, off, sup, rhs)
    ref = np.linalg.solve(M, rhs.ravel()).reshape(n, d)
    assert x.shape == (n, d)
    assert np.max(np.abs(x - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("sub, diag, sup", [
    ([], [0.0], []),
    ([1.0], [1.0, 1.0], [1.0]),  # second pivot 1 - 1 * 1
])
def test_tridiag_zero_pivot_raises(sub, diag, sup):
    args = [np.array(v, dtype=float) for v in (sub, diag, sup)]
    with pytest.raises(np.linalg.LinAlgError):
        solve_tridiag(*args, np.ones(len(diag)))
    with pytest.raises(np.linalg.LinAlgError):
        solve_block_tridiag(args[0][:, None], args[1][:, None], np.zeros((len(diag), 0)),
                            args[2][:, None], np.ones((len(diag), 1)))


def test_zero_pivot_at_d1_takes_the_next_levenberg_shift():
    # [[1, 1], [1, 1]] has a zero second pivot: rho = 0 raises and rho = 1e-8
    # gives the step, as a singular block system at d > 1 does
    sub, sup = np.ones((1, 1)), np.ones((1, 1))
    diag, off = np.ones((2, 1)), np.zeros((2, 0))
    g = np.array([[-1.0], [0.0]])
    step = levenberg(lambda rho: solve_block_tridiag(sub, diag + rho, off, sup, -g), g, None)
    shifted = np.array([[1.0 + 1e-8, 1.0], [1.0, 1.0 + 1e-8]])
    assert step is not None
    assert np.allclose(step[:, 0], np.linalg.solve(shifted, -g[:, 0]), rtol=1e-6, atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 130), d=st.sampled_from([2, 3, 16, 24, 25, 32]),
       seed=st.integers(0, 2**32 - 1))
@example(n=127, d=2, seed=0)
@example(n=128, d=3, seed=0)
@example(n=129, d=16, seed=0)
@example(n=31, d=24, seed=0)
@example(n=32, d=25, seed=0)
@example(n=33, d=32, seed=0)
@example(n=17, d=64, seed=0)
@example(n=16, d=64, seed=0)
@example(n=1, d=16, seed=0)
def test_block_tridiag_matches_dense_solve_at_every_size(n, d, seed):
    # the block cyclic reduction: n = 2^k halves through even sizes only,
    # 2^k + 1 through odd ones.  It builds its own work array, and neither
    # it nor solve_block_tridiag writes its arguments.  These random blocks
    # fit no one Hessian, and their couplings differ across coordinates, so
    # at every d the solve is the reduction's; but one block (n = 1) fits
    # itself and has no couplings, and from KRYLOV_MIN_DIM on GMRES solves it
    sub, diag, off, sup, rhs, M = banded_system(np.random.default_rng(seed), n, d)
    dense = np.linalg.solve(M, rhs.ravel()).reshape(n, d)
    args = (sub, diag, off, sup, rhs)
    kept = [a.copy() for a in args]
    x = wed._block_reduction(*args)
    assert rel_err(x, dense) <= 1e-12
    y = solve_block_tridiag(*args)
    assert rel_err(y, dense) <= 1e-12
    assert np.array_equal(y, x) or (n == 1 and d >= wed.KRYLOV_MIN_DIM)
    assert all(np.array_equal(a, b) for a, b in zip(args, kept))


def thomas_routes(monkeypatch):
    """Whether the block solver inverted each level-0 pivot stack by Thomas
    elimination, recorded as it runs."""
    routes, inverts = [], wed._thomas_inverts

    def record(diag, off):
        routes.append(inverts(diag, off))
        return routes[-1]

    monkeypatch.setattr(wed, "_thomas_inverts", record)
    return routes


@pytest.mark.parametrize("blocks", ["dominant", "big_upper_entry", "big_lower_entry",
                                    "small_diagonal_entry"])
def test_level0_pivots_take_thomas_only_when_tridiagonal_and_dominant(monkeypatch, blocks):
    # level 0 inverts its odd-row pivot blocks by Thomas elimination on their
    # bands when all of them are strictly row diagonally dominant; one row
    # that is not sends the whole stack to LAPACK's LU on the blocks' dense
    # form.  A big off-diagonal entry at the top or the bottom of one pivot
    # block breaks two of its rows, a small diagonal entry one
    n, d = 65, 6
    sub, diag, off, sup, rhs, _ = banded_system(np.random.default_rng(5), n, d)
    if blocks == "big_upper_entry":
        off[1, 0] = 8.0 * d
    if blocks == "big_lower_entry":
        off[1, d - 2] = 8.0 * d
    if blocks == "small_diagonal_entry":
        diag[3, 2] = 0.5
        assert abs(off[3, 1]) + abs(off[3, 2]) > 0.5
    M = block_matrix(sub, diag, off, sup)
    routes = thomas_routes(monkeypatch)
    x = solve_block_tridiag(sub, diag, off, sup, rhs)
    assert routes == [blocks == "dominant"]
    assert rel_err(x, np.linalg.solve(M, rhs.ravel()).reshape(n, d)) <= 1e-12


def test_singular_odd_pivot_block_takes_the_next_levenberg_shift():
    # coordinate 0 of the last row has a zero row and column: the matrix is
    # singular and its shifted steps there are rhs / rho.  Level 0 of the
    # reduction inverts row 1's block and folds it into rows 0 and 2, then
    # level 1 meets row 2's pivot block, singular at rho = 0, and raises.
    # The reduction writes only its own work array: the bands stay as they
    # were
    d = 2
    sub = sup = np.array([[0.5, 0.5], [0.0, 0.5]])
    diag = np.array([[4.0, 4.0], [4.0, 4.0], [0.0, 4.0]])
    off = np.array([[1.0], [1.0], [0.0]])
    n = diag.shape[0]
    g = np.array([[-1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    kept = diag.copy()
    with pytest.raises(np.linalg.LinAlgError):
        wed._block_reduction(sub, diag, off, sup, -g)
    with pytest.raises(np.linalg.LinAlgError):
        solve_block_tridiag(sub, diag, off, sup, -g)
    step = levenberg(lambda rho: solve_block_tridiag(sub, diag + rho, off, sup, -g), g, None)
    assert np.array_equal(diag, kept)
    shifted = block_matrix(sub, diag + 1e-8, off, sup)
    assert step is not None
    assert step[2, 0] == pytest.approx(1e8, rel=1e-12)
    assert rel_err(step, np.linalg.solve(shifted, -g.ravel()).reshape(n, d)) <= 1e-12


def solve_banded_ref(sub, diag, sup, rhs):
    """scipy's banded LU with partial pivoting (LAPACK gbsv), the reference."""
    la = pytest.importorskip("scipy.linalg")
    ab = np.zeros((3, diag.shape[0]))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    return la.solve_banded((1, 1), ab, rhs)


def rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 63, 64, 65, 500, 4000, 4001])
def test_tridiag_matches_solve_banded(n):
    # n = 63 is 2^6 - 1 and 4000 a direct solve at N = 4000;
    # the reduction meets odd and even sizes on its way down.  Up to
    # DENSE_CUT = 32 unknowns the dense remainder solve is all there is;
    # 33, 64 and 65 take one reduction level before it
    sub, diag, _, sup, rhs, _ = banded_system(np.random.default_rng(7 * n), n, 1)
    bands = (sub[:, 0], diag[:, 0], sup[:, 0], rhs[:, 0])
    x = solve_tridiag(*bands)
    assert x.shape == (n,)
    assert rel_err(x, solve_banded_ref(*bands)) <= 1e-13
    # strided views are read as they are
    wide = [np.repeat(b, 2)[::2] for b in bands]
    assert np.array_equal(solve_tridiag(*wide), x)


@pytest.mark.parametrize("n", [32, 64])
def test_tridiag_zero_odd_pivot_raises_above_the_cut_only(n):
    # row 1's pivot is zero, though the matrix is regular.  At n = 64 row 1
    # is an odd row of level 0 and raises before the reduction reaches the
    # dense remainder; at n = 32 the remainder is the whole system, and its
    # pivoted LU solves it
    sub, sup, diag = np.ones(n - 1), np.ones(n - 1), np.full(n, 4.0)
    diag[1] = 0.0
    rhs = np.ones(n)
    assert np.linalg.matrix_rank(block_matrix(sub[:, None], diag[:, None], np.zeros((n, 0)),
                                              sup[:, None])) == n
    if n == 64:
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            solve_tridiag(sub, diag, sup, rhs)
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            wed._reduce_tridiag(sub, diag, sup, rhs, keep=True)
    else:
        bands = (sub, diag, sup, rhs)
        assert rel_err(solve_tridiag(*bands), solve_banded_ref(*bands)) <= 1e-13


def test_tridiag_singular_remainder_raises():
    # tridiag(-1, 2, -1) with 1 in both corners (a Neumann Laplacian) is
    # singular on the constants.  Level 0's odd pivots are all 2; its dyadic
    # entries reduce exactly to a 32-unknown remainder as singular, whose LU
    # meets an exactly zero pivot
    n = 64
    sub, sup, diag = -np.ones(n - 1), -np.ones(n - 1), np.full(n, 2.0)
    diag[0] = diag[-1] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="[Ss]ingular"):
        solve_tridiag(sub, diag, sup, np.ones(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
@example(n=64, seed=0)
@example(n=65, seed=0)
@example(n=127, seed=0)
@example(n=128, seed=0)
@example(n=129, seed=0)
def test_tridiag_matches_dense_solve(n, seed):
    # n = 2^k halves through even sizes only, 2^k + 1 through odd ones down to 3
    sub, diag, _, sup, rhs, M = banded_system(np.random.default_rng(seed), n, 1)
    x = solve_tridiag(sub[:, 0], diag[:, 0], sup[:, 0], rhs[:, 0])
    assert rel_err(x, np.linalg.solve(M, rhs[:, 0])) <= 1e-13


@pytest.mark.parametrize("rho", [0.0, 1e-3, 1.0])
def test_tridiag_on_the_double_well_newton_matrix_near_the_hilltop(monkeypatch, rho):
    # phi'' < 0 at x_bar = 0.25: on the first step no row but the one next to
    # the pinned node is diagonally dominant, and the matrix has condition
    # number about 2.7e6; rho is a Levenberg shift (omega = 1).  The bound
    # sits below condition number x unit roundoff, 3e-10; measured against
    # solve_banded: at most 5.4e-12, where the Thomas sweep was at 5.3e-12
    # the row-scaled systems of a direct solve, as its Newton direction hands
    # them to the solver
    systems, solve = [], wed.solve_block_tridiag

    def record(sub, diag, off, sup, rhs):
        systems.append((sub[:, 0].copy(), diag[:, 0].copy(), sup[:, 0].copy(), rhs[:, 0].copy()))
        return solve(sub, diag, off, sup, rhs)

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
    pr = WedProblem(epsilon=0.05, T=1.25, N=4000, space=E1, energy=double_well(),
                    x_bar=point([0.25], E1), solver=solver)
    ours = minimize_wed(pr)
    monkeypatch.setattr(wed, "solve_tridiag", solve_banded_ref)
    ref = minimize_wed(pr)
    assert ours.iterations == ref.iterations
    assert np.max(np.abs(ours.trajectory.points - ref.trajectory.points)) <= 1e-12


def solve_block_banded_ref(sub, diag, off, sup, rhs):
    """scipy's banded LU with partial pivoting (LAPACK gbsv) on the block
    system as a matrix of bandwidth (d, d), the reference."""
    la = pytest.importorskip("scipy.linalg")
    n, d = rhs.shape
    ab = np.zeros((2 * d + 1, n * d))
    a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    ab[d + a - b, np.arange(n)[:, None, None] * d + b] = dense_blocks(diag, off)
    ab[2 * d, :(n - 1) * d] = sub.ravel()
    ab[0, d:] = sup.ravel()
    return la.solve_banded((d, d), ab, rhs.ravel()).reshape(n, d)


def block_problem(name, solver):
    """A 16-quantile solve and three non-convex ones in 4 and 8 coordinates.
    The non-convex ones start where their energy is concave: in every row of
    their first Newton system but the one next to the pinned node, the
    smallest singular value of the diagonal block is below the sum of its
    couplings' norms, so those systems are not block-diagonally dominant."""
    from wedflow import discrete_dirichlet, gaussian_quantiles, quantile_entropy_potential

    if name == "quantile16":
        qs = SpaceSpec.quantile1d(16)
        return WedProblem(epsilon=0.05, T=0.5, N=400, space=qs,
                          energy=quantile_entropy_potential(v2=1.0, v1=0.0),
                          x_bar=gaussian_quantiles(qs, 1.0, 1.6), solver=solver)
    if name == "double_well_4d":
        E4 = SpaceSpec.euclidean(4)
        return WedProblem(epsilon=0.05, T=1.25, N=4000, space=E4, energy=double_well(),
                          x_bar=point([0.05, -0.02, 0.01, 0.03], E4), solver=solver)
    E8 = SpaceSpec.euclidean(8)
    if name == "dirichlet_concave_reaction":  # reaction -x^2 / 2
        return WedProblem(epsilon=0.05, T=1.0, N=1000, space=E8,
                          energy=discrete_dirichlet(2.0, 1.0, (0.0, 0.0, -0.5)),
                          x_bar=point(0.1 * np.sin(np.arange(8.0)), E8), solver=solver)
    # p = 3 with the double-well reaction (x^4 - 2 x^2) / 4
    return WedProblem(epsilon=0.05, T=1.0, N=1000, space=E8,
                      energy=discrete_dirichlet(3.0, 1.0, (0.0, 0.0, -0.5, 0.0, 0.25)),
                      x_bar=point(np.linspace(0.1, 0.8, 8), E8), solver=solver)


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
@pytest.mark.parametrize("name", ["quantile16", "double_well_4d", "dirichlet_concave_reaction",
                                  "dirichlet_double_well_reaction"])
def test_block_solve_is_the_same_with_a_banded_lu(monkeypatch, name, solver):
    # the block cyclic reduction against LAPACK's pivoted banded solve, on
    # convex and non-convex energies: the Newton steps differ at roundoff only
    pr = block_problem(name, solver)
    ours = minimize_wed(pr)
    monkeypatch.setattr(wed, "solve_block_tridiag", solve_block_banded_ref)
    ref = minimize_wed(pr)
    assert ours.iterations == ref.iterations
    assert np.max(np.abs(ours.trajectory.points - ref.trajectory.points)) <= 1e-12


def test_euler_lagrange_objective_is_the_weighted_cost():
    # the solution's objective comes from its own speed and phi arrays, by
    # wed_value's formula
    pr = quad_problem(eps=0.05, T=1.0, N=800, solver="euler_lagrange")
    sol = minimize_wed(pr)
    assert sol.objective == wed_value(pr, sol.trajectory)


@pytest.mark.parametrize("d", [1, 3])
def test_euler_lagrange_on_a_uniform_grid_is_its_window_bitwise(monkeypatch, d):
    # the solution on the problem grid is the first N+1 nodes of the
    # computational window, also where (T/N) N != T (T = 1, N = 49); the
    # window ends at T + 8 eps, so it has ceil(N (T + 8 eps) / T) free nodes,
    # also where T + 8 eps < 25 eps (T = 0.5)
    newton, windows = wed.damped_newton, []

    def spy(*args):
        out = newton(*args)
        windows.append(out[0])
        return out

    monkeypatch.setattr(wed, "damped_newton", spy)
    space = SpaceSpec.euclidean(d)
    A = np.eye(d) if d == 1 else [[2.0, 0.5, 0.3], [0.5, 1.5, 0.4], [0.3, 0.4, 1.0]]
    x_bar = point(np.linspace(1.0, 0.5, d), space)
    assert (1.0 / 49) * 49 != 1.0
    for T, N, free in ((1.0, 49, 69), (0.5, 800, 1440)):
        pr = WedProblem(epsilon=0.05, T=T, N=N, space=space, energy=quadratic(A),
                        x_bar=x_bar, solver="euler_lagrange")
        sol = minimize_wed(pr)
        V = windows.pop()
        assert V.shape[0] == free == math.ceil(N * (T + 8 * 0.05) / T)
        assert np.array_equal(sol.trajectory.points, np.vstack([x_bar.coords, V[:N]]))


@pytest.mark.parametrize("name", ["quantile16", "double_well", "quadratic", "dirichlet8"])
def test_euler_lagrange_solution_does_not_see_the_window_past_8_eps(name):
    # at T = 10 eps, the solve over (T, N) and the first N + 1 nodes of the
    # solve over (2T, 2N), whose end condition sits T further out, share
    # their nodes bit for bit and differ by at most 1e-5 in metric distance
    # (measured 3.7e-6 to 6.8e-6; the end layer is down by e^{-8} = 3.4e-4
    # at T)
    from wedflow import discrete_dirichlet
    from wedflow.spaces import row_distances

    if name == "quantile16":
        pr = block_problem(name, "euler_lagrange")
    else:
        space, energy, x_bar, N = {
            "double_well": (E1, double_well(), [0.3], 1000),
            "quadratic": (E1, quadratic([[1.0]]), [1.0], 1000),
            "dirichlet8": (SpaceSpec.euclidean(8),
                           discrete_dirichlet(3.0, 1.0 / 9.0, (0.0, 0.0, 1.0)),
                           np.sin(np.pi * np.arange(1, 9) / 9.0), 300),
        }[name]
        pr = WedProblem(epsilon=0.05, T=0.5, N=N, space=space, energy=energy,
                        x_bar=point(x_bar, space), solver="euler_lagrange")
    assert pr.T == 10 * pr.epsilon
    short = minimize_wed(pr).trajectory
    long = minimize_wed(replace(pr, T=2 * pr.T, N=2 * pr.N)).trajectory
    assert np.array_equal(short.grid.nodes, long.grid.nodes[:pr.N + 1])
    gap = row_distances(pr.space, short.points, long.points[:pr.N + 1])
    assert np.max(gap) <= 1e-5


def block_systems(monkeypatch):
    """The block systems (sub, diag, off, sup, rhs), copied as the solver gets
    them."""
    systems, solve = [], wed.solve_block_tridiag

    def record(*args):
        systems.append(tuple(a.copy() for a in args))
        return solve(*args)

    monkeypatch.setattr(wed, "solve_block_tridiag", record)
    return systems


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
@pytest.mark.parametrize("name", ["quantile16", "dirichlet_concave_reaction",
                                  "dirichlet_double_well_reaction"])
def test_block_solve_is_the_same_without_the_thomas_route(monkeypatch, name, solver):
    # every level-0 pivot stack of these solves is tridiagonal and dominant;
    # inverting it by LAPACK instead changes the Newton steps at roundoff only.
    # The concave reaction's Hessian is constant: the first step, taken in its
    # eigenbasis, is exact, and the solve makes no block solve at all.  The
    # 16-quantile blocks would go to GMRES: the threshold is raised past them,
    # so that the reduction solves them
    monkeypatch.setattr(wed, "KRYLOV_MIN_DIM", 17)
    pr = block_problem(name, solver)
    routes, systems = thomas_routes(monkeypatch), block_systems(monkeypatch)
    ours = minimize_wed(pr)
    if name == "dirichlet_concave_reaction":
        assert not systems and not routes and ours.iterations == 2
    else:
        assert len(systems) == ours.iterations - 2 and routes and all(routes)
    monkeypatch.setattr(wed, "_thomas_inverts", lambda diag, off: False)
    ref = minimize_wed(pr)
    assert ours.iterations == ref.iterations
    assert np.max(np.abs(ours.trajectory.points - ref.trajectory.points)) <= 1e-12


class FirstStep(Exception):
    pass


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
@pytest.mark.parametrize("name", ["quantile16", "double_well_4d", "dirichlet_concave_reaction",
                                  "dirichlet_double_well_reaction"])
def test_first_newton_step_is_the_banded_lu_step(monkeypatch, name, solver):
    # every solve starts at the constant trajectory, where all free nodes
    # share one Hessian: the first step is taken in its eigenbasis, with no
    # block solve, and matches LAPACK's pivoted banded LU on the assembled
    # block system within 1e-10 relative (measured 6.4e-13 to 2.8e-11; block
    # cyclic reduction 2.2e-13 to 6.6e-11).  The Euler-Lagrange system at
    # the double well's hilltop has condition number about 1e7, so unit
    # roundoff allows 1.1e-9 there: measured 1.09e-10, bounded by 2e-10
    steps = []

    def no_block_solve(*args):
        raise AssertionError("a block solve at the constant start")

    def first_step(x, start, evaluate, residual, done, direction, max_iter):
        steps.append(direction(x, start[1])[0])
        monkeypatch.setattr(wed, "_shared_hessian", lambda *args: None)
        monkeypatch.setattr(wed, "solve_block_tridiag", solve_block_banded_ref)
        steps.append(direction(x, start[1])[0])
        raise FirstStep

    monkeypatch.setattr(wed, "solve_block_tridiag", no_block_solve)
    monkeypatch.setattr(wed, "damped_newton", first_step)
    with pytest.raises(FirstStep):
        minimize_wed(block_problem(name, solver))
    ours, ref = steps
    assert rel_err(ours, ref) <= (2e-10 if (name, solver) == ("double_well_4d", "euler_lagrange")
                                  else 1e-10)


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
def test_dense_quadratic_takes_every_newton_step_in_its_eigenbasis(monkeypatch, solver):
    # a quadratic's Hessian is its A at every node, dense or not: each step
    # of a d > 1 solve, at the constant start or anywhere else, is taken in
    # A's eigenbasis, and no block system is ever made.  The first step
    # solves the linear Newton system exactly, and the second iteration
    # only tests convergence.  The three-coordinate quadratic of the CI
    # smoke test
    def no_block_solve(*args):
        raise AssertionError("a block solve of a quadratic")

    monkeypatch.setattr(wed, "solve_block_tridiag", no_block_solve)
    E3 = SpaceSpec.euclidean(3)
    A = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, 0.4], [0.3, 0.4, 1.0]])
    energy = quadratic(A, [0.2, -0.1, 0.3])
    pr = WedProblem(epsilon=0.05, T=1.0, N=800, space=E3, energy=energy,
                    x_bar=point([1.0, -0.5, 0.8], E3), solver=solver)
    assert minimize_wed(pr).iterations == 2
    V = np.random.default_rng(4).standard_normal((50, 3))
    lam, Q = wed._shared_hessian(energy, V, E3.metric_weights)
    assert np.array_equal(lam, np.linalg.eigh(A)[0]) and np.array_equal(Q, np.linalg.eigh(A)[1])


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
@pytest.mark.parametrize("name", ["quantile16", "double_well_4d", "dirichlet_double_well_reaction"])
def test_block_newton_steps_make_no_dense_hessian_stack(monkeypatch, name, solver):
    # d > 1 Newton steps read the Hessians as bands: the dense form is made
    # for one node only, the shared Hessian of the first step's eigenbasis
    rows, many = [], energies.hess_many

    def record(spec, U):
        rows.append(np.atleast_2d(U).shape[0])
        return many(spec, U)

    monkeypatch.setattr(wed, "hess_many", record)
    monkeypatch.setattr(energies, "hess_many", record)
    systems = block_systems(monkeypatch)
    sol = minimize_wed(block_problem(name, solver))
    assert rows == [1] and len(systems) == sol.iterations - 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 130), d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
@example(n=33, d=16, seed=0)
@example(n=128, d=2, seed=1)
def test_eigenbasis_solve_is_the_block_solve(n, d, seed):
    # blocks a_k H + b_k I with one symmetric tridiagonal H, indefinite in
    # general, and couplings that are multiples of the identity: the d
    # scalar systems in H's eigenbasis give the block solve's x.  b_k
    # outweighs a_k |H| and the couplings, so both eliminations are stable
    rng = np.random.default_rng(seed)
    hd, ho = rng.standard_normal(d), rng.standard_normal(d - 1)
    H = dense_blocks(hd[None], ho[None])[0]
    sub, sup = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    a = rng.uniform(0.1, 2.0, n)
    couplings = np.append(0.0, np.abs(sub)) + np.append(np.abs(sup), 0.0)
    b = a * np.max(np.abs(np.linalg.eigvalsh(H))) + couplings + rng.uniform(0.5, 2.0, n)
    rhs = rng.standard_normal((n, d))
    wide = [np.repeat(c[:, None], d, axis=1) for c in (sub, sup)]
    ref = solve_block_tridiag(wide[0], np.multiply.outer(a, hd) + b[:, None],
                              np.multiply.outer(a, ho), wide[1], rhs)
    x = wed._eigenbasis_solve(sub, a, b, sup, rhs, np.linalg.eigh(H))
    assert x.shape == (n, d)
    assert rel_err(x, ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 500, 4001])
def test_tridiag_columns_are_their_one_column_solves_bitwise(n):
    # one reduction solves the systems in rhs's columns, each bitwise as a
    # call with that system alone; bands of one column are shared
    rng = np.random.default_rng(3 * n)
    sub, diag, _, sup, rhs, _ = banded_system(rng, n, 1)
    bands = (sub[:, 0], diag[:, 0], sup[:, 0], rhs[:, 0])
    x = solve_tridiag(*bands)
    assert np.array_equal(solve_tridiag(sub, diag, sup, rhs), x[:, None])
    diags = diag + rng.uniform(0.0, 1.0, (n, 5))
    rhss = rng.standard_normal((n, 5))
    X = solve_tridiag(sub, diags, sup, rhss)
    for j in range(5):
        assert np.array_equal(X[:, j], solve_tridiag(sub[:, 0], diags[:, j], sup[:, 0], rhss[:, j]))


@pytest.mark.parametrize("n", [2, 32, 33, 64, 65, 1441])
@pytest.mark.parametrize("bands", ["one_system", "shared", "per_column", "broadcast_diag"])
def test_factored_tridiag_applies_are_fresh_solves_bitwise(n, bands):
    # one band pass, then its factors applied to the three other
    # right-hand sides and the first again: each apply is a fresh
    # solve_tridiag call bit for bit, and nothing writes its arguments.  The bands are (n,) with rhs (n,); one
    # shared column with rhs (n, c); c columns; and the Euler-Lagrange
    # first step's diagonal of shape (c,), the same at every row.  n runs
    # both sides of DENSE_CUT, odd and even
    rng = np.random.default_rng(n)
    c = 5
    sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1, c))
    diag = rng.uniform(2.5, 4.0, (n, c))
    rhss = rng.standard_normal((4, n, c))
    if bands == "one_system":
        sub, diag, sup, rhss = sub[:, 0], diag[:, 0], sup[:, 0], rhss[..., 0]
    elif bands == "shared":
        sub, diag, sup = sub[:, :1], diag[:, :1], sup[:, :1]
    elif bands == "broadcast_diag":
        sub, diag, sup = sub[:, :1], diag[0], sup[:, :1]
    kept = [a.copy() for a in (sub, diag, sup, rhss)]
    x, apply = wed._reduce_tridiag(sub, diag, sup, rhss[0], keep=True)
    assert x.shape == rhss[0].shape and np.array_equal(x, solve_tridiag(sub, diag, sup, rhss[0]))
    for r in (rhss[2], rhss[1], rhss[3], rhss[0]):
        assert np.array_equal(apply(r), solve_tridiag(sub, diag, sup, r))
    assert all(np.array_equal(a, b) for a, b in zip((sub, diag, sup, rhss), kept))


def quantile64_problem(solver, N=1000):
    """The acceptance gate's Ornstein-Uhlenbeck solve in 64 quantiles."""
    from wedflow import gaussian_quantiles, quantile_entropy_potential

    qs = SpaceSpec.quantile1d(64)
    return WedProblem(epsilon=0.02, T=0.5, N=N, space=qs,
                      energy=quantile_entropy_potential(v2=1.0, v1=0.0),
                      x_bar=gaussian_quantiles(qs, 1.0, 2.0), solver=solver)


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
@pytest.mark.parametrize("d", [16, 64])
def test_krylov_step_is_the_banded_lu_step(monkeypatch, d, solver):
    # every Newton system of a 16- and a 64-quantile solve after the first
    # step: GMRES, preconditioned in the eigenbasis of the blocks' mean,
    # reaches its tolerance and matches LAPACK's pivoted banded LU within
    # 1e-10 relative (measured 1.2e-13 to 2.2e-11; the block reduction 3.1e-15
    # to 1.7e-13).  The 64-quantile solve runs at N = 100, where the banded
    # LU of its (n d)-unknown systems takes about 10 MB
    pr = block_problem("quantile16", solver) if d == 16 else quantile64_problem(solver, N=100)
    systems = block_systems(monkeypatch)
    minimize_wed(pr)
    assert systems and all(s[4].shape[1] == d for s in systems)
    for system in systems:
        x = krylov_solve(*system)
        assert x is not None
        assert rel_err(x, solve_block_banded_ref(*system)) <= 1e-10


def krylov_solve(sub, diag, off, sup, rhs):
    """GMRES's answer for the block system; None where the system does not
    fit, or GMRES misses its tolerance."""
    squares = np.einsum("ki,ki->k", diag, diag) + 2.0 * np.einsum("ki,ki->k", off, off)
    solve = wed._krylov_solver(sub, diag, off, sup, squares)
    return None if solve is None else solve(rhs)


def preconditioner_applications(monkeypatch):
    """How GMRES applied its preconditioner, recorded as it runs: "factor"
    where a band pass factored it (and solved for its first right-hand
    side), "apply" where a later application applied those factors."""
    calls, reduce = [], wed._reduce_tridiag

    def factor(sub, diag, sup, rhs, keep):
        x, apply = reduce(sub, diag, sup, rhs, keep=keep)
        if apply is None:
            return x, None
        calls.append("factor")

        def counted(r):
            calls.append("apply")
            return apply(r)

        return x, counted

    monkeypatch.setattr(wed, "_reduce_tridiag", factor)
    return calls


def test_system_that_does_not_fit_takes_the_block_reduction_bitwise(monkeypatch):
    # Euler-Lagrange-like blocks at a coarse step, with the Hessians of a
    # p = 3 Dirichlet energy at scattered states: the blocks spread far from
    # any a_k H + b_k I, and the solve goes straight to the reduction, bit
    # for bit, without a GMRES iteration.  With the fit check off, GMRES
    # runs its whole budget, misses its tolerance and gives way to the
    # reduction, with the same result
    from wedflow import discrete_dirichlet

    d, n, eps, dt = 16, 200, 0.05, 1.0 / 50
    rng = np.random.default_rng(1)
    energy = discrete_dirichlet(3.0, 1.0 / (d + 1), (0.0, 0.0, -0.5, 0.0, 0.25))
    diag, off = energies.hess_bands(energy, 3.0 * rng.standard_normal((n, d)))
    diag += 2.0 * eps / dt**2
    sub = np.full((n - 1, d), -eps / dt**2 - 0.5 / dt)
    sup = np.full((n - 1, d), -eps / dt**2 + 0.5 / dt)
    rhs = rng.standard_normal((n, d))
    system = (sub, diag, off, sup, rhs)
    reduction = wed._block_reduction(*system)
    calls = preconditioner_applications(monkeypatch)
    assert d >= wed.KRYLOV_MIN_DIM
    assert krylov_solve(*system) is None and not calls
    assert np.array_equal(solve_block_tridiag(*system), reduction)
    assert not calls
    monkeypatch.setattr(wed, "KRYLOV_FIT", math.inf)
    assert krylov_solve(*system) is None
    assert len(calls) == wed.KRYLOV_BUDGET
    assert calls == ["factor"] + ["apply"] * (wed.KRYLOV_BUDGET - 1)
    assert np.array_equal(solve_block_tridiag(*system), reduction)


def fitting_system(rng, n, d, spread):
    """A block system (sub, diag, off, sup, rhs) whose blocks are a_k H + b_k
    I plus a perturbation that the fit leaves out, `spread` of the blocks'
    traceless parts, and whose couplings are the same for every coordinate,
    as a Newton system has them.  H and the perturbations are symmetric and
    tridiagonal, given by their bands; in the Frobenius inner product an
    off-diagonal band entry counts twice."""
    hd, ho = rng.standard_normal(d), rng.standard_normal(d - 1)
    hd -= hd.mean()
    hh = hd @ hd + 2.0 * ho @ ho
    a = rng.uniform(0.5, 2.0, n)
    ed, eo = rng.standard_normal((n, d)), rng.standard_normal((n, d - 1))
    ed -= ed.mean(axis=1, keepdims=True)
    along = (ed @ hd + 2.0 * eo @ ho) / hh
    ed -= np.multiply.outer(along, hd)
    eo -= np.multiply.outer(along, ho)
    scale = spread * np.linalg.norm(a) * math.sqrt(hh) / math.sqrt(
        np.sum(ed * ed) + 2.0 * np.sum(eo * eo))
    b = rng.uniform(1.0, 2.0, n) * np.sqrt(8.0 * d)
    diag = np.multiply.outer(a, hd) + scale * ed + b[:, None]
    off = np.multiply.outer(a, ho) + scale * eo
    sub = np.repeat(rng.standard_normal((n - 1, 1)), d, axis=1)
    sup = np.repeat(rng.standard_normal((n - 1, 1)), d, axis=1)
    return sub, diag, off, sup, rng.standard_normal((n, d))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), d=st.sampled_from([12, 16, 25]),
       spread=st.sampled_from([0.0, 1e-3, 5e-3]), seed=st.integers(0, 2**32 - 1))
def test_block_solve_of_a_fitting_system_is_gmres_to_its_tolerance(n, d, spread, seed):
    # the solve of a system that fits is GMRES's, its residual is below
    # KRYLOV_TOL |rhs|, and its 2-norm error against the dense solve is
    # below the bound that residual implies
    sub, diag, off, sup, rhs = fitting_system(np.random.default_rng(seed), n, d, spread)
    x = krylov_solve(sub, diag, off, sup, rhs)
    assert x is not None
    assert np.array_equal(solve_block_tridiag(sub, diag, off, sup, rhs), x)
    M = block_matrix(sub, diag, off, sup)
    residual = np.linalg.norm(rhs.ravel() - M @ x.ravel()) / np.linalg.norm(rhs)
    assert residual <= wed.KRYLOV_TOL
    dense = np.linalg.solve(M, rhs.ravel())
    error = np.linalg.norm(x.ravel() - dense) / np.linalg.norm(dense)
    assert error <= np.linalg.cond(M) * wed.KRYLOV_TOL


def test_refinement_reuses_the_fit_and_the_factored_preconditioner(monkeypatch):
    # with RESIDUAL_GATE at 0 no solution passes the gate: the solve refines
    # once and comes back as NaN.  Both GMRES runs precondition with the one
    # fit, eigendecomposition and factorization: the first application of
    # the first run factors, every other one applies the factors
    system = fitting_system(np.random.default_rng(2), 300, 16, 1e-3)
    fits, runs = [], []
    fit, gmres = wed._krylov_solver, wed._gmres
    monkeypatch.setattr(wed, "_krylov_solver", lambda *args: fits.append(1) or fit(*args))
    monkeypatch.setattr(wed, "_gmres", lambda *args: runs.append(1) or gmres(*args))
    calls = preconditioner_applications(monkeypatch)
    monkeypatch.setattr(wed, "RESIDUAL_GATE", 0.0)
    assert np.isnan(solve_block_tridiag(*system)).all()
    assert len(fits) == 1 and len(runs) == 2
    assert calls[0] == "factor" and calls.count("factor") == 1 and len(calls) > 2


@pytest.mark.parametrize("solver, iterations", [("direct", 4), ("euler_lagrange", 5)])
def test_quantile64_solve_keeps_its_newton_iterations_on_the_krylov_path(monkeypatch, solver,
                                                                        iterations):
    # the acceptance gate's solve takes as many Newton iterations as with the
    # block reduction, which none of its steps reaches
    def no_reduction(*args):
        raise AssertionError("a block reduction")

    monkeypatch.setattr(wed, "_block_reduction", no_reduction)
    assert minimize_wed(quantile64_problem(solver)).iterations == iterations


def test_nearly_singular_pivot_block_trips_the_residual_gate():
    # a well-conditioned system (condition number 8.1) whose odd pivot block
    # [[1, 1], [1, 1]] + rho I is nearly singular: the reduction, which does
    # not pivot across blocks, is off by order one at rho = 1e-8, with a
    # backward error of 0.44, and 0.17 after its one refinement.  The solve
    # comes back as NaN, and the Levenberg ladder takes shifts until a step
    # passes the gate
    rho = 1e-8
    diag = np.array([[0.5, 0.5], [1.0 + rho, 1.0 + rho], [0.5, 0.5]])
    off = np.array([[0.0], [1.0], [0.0]])
    sub = sup = np.ones((2, 2))
    rhs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    M = block_matrix(sub, diag, off, sup)
    assert np.linalg.cond(M) < 10.0
    x = wed._block_reduction(sub, diag, off, sup, rhs)
    assert rel_err(x, np.linalg.solve(M, rhs.ravel()).reshape(3, 2)) > 0.1
    assert np.isnan(solve_block_tridiag(sub, diag, off, sup, rhs)).all()
    shifts = []

    def solve(s):
        shifts.append(s)
        return solve_block_tridiag(sub, diag + s, off, sup, rhs)

    step = levenberg(solve, -rhs, None)
    assert step is not None and shifts[0] == 0.0 and len(shifts) > 1
    shifted = block_matrix(sub, diag + shifts[-1], off, sup)
    assert np.linalg.norm(shifted @ step.ravel() - rhs.ravel()) <= 1e-8 * np.linalg.norm(rhs)


def test_ill_conditioned_system_solved_to_roundoff_passes_the_residual_gate():
    # blocks Q diag(1, 1e-10) Q' with no couplings: condition number 1e10.
    # The reduction solves it to roundoff, but its residual is roundoff of
    # |A| |x|, 2.6e-7 of |rhs|; the gate reads the backward error, 7e-17,
    # and passes the solution as it is
    n, Q = 5, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    B = Q @ np.diag([1.0, 1e-10]) @ Q.T
    diag, off = np.tile(np.diagonal(B), (n, 1)), np.full((n, 1), B[0, 1])
    sub = sup = np.zeros((n - 1, 2))
    rhs = np.random.default_rng(0).standard_normal((n, 2))
    M = block_matrix(sub, diag, off, sup)
    assert np.linalg.cond(M) > 1e9
    x = wed._block_reduction(sub, diag, off, sup, rhs)
    residual = rhs - wed._block_matvec(sub, diag, off, sup, x)
    assert np.linalg.norm(residual) > 1e-8 * np.linalg.norm(rhs)
    assert rel_err(x, np.linalg.solve(M, rhs.ravel()).reshape(n, 2)) <= 1e-12
    assert np.array_equal(solve_block_tridiag(sub, diag, off, sup, rhs), x)


def test_euler_lagrange_stops_at_a_step_the_residual_gate_refuses(monkeypatch):
    # the Euler-Lagrange backend has no Levenberg ladder: a block solve that
    # comes back as NaN ends the solve, with the iterate it had reached
    monkeypatch.setattr(wed, "solve_block_tridiag",
                        lambda sub, diag, off, sup, rhs: np.full_like(rhs, np.nan))
    pr = block_problem("double_well_4d", "euler_lagrange")
    with pytest.raises(NonConvergenceError, match="residual gate") as info:
        minimize_wed(pr)
    assert np.array_equal(info.value.best[0], pr.x_bar.coords)
