import math

import numpy as np
import pytest

from wedflow import (
    Coercivity, EnergySpec, InvalidInputError, SpaceSpec, TimeGrid, ValueCache, ValueOptions,
    WedProblem, check_dpp, check_eps_monotonicity, check_fundamental_identity, check_hj,
    check_yosida_bound, conditioned_slope_estimate, convex_quartic, distance,
    discrete_dirichlet, double_well, energy_eval, finsler_distance, gaussian_quantiles,
    minimize_wed, point, q_value, quadratic, quantile_entropy_potential, value_along,
    value_function, wed_slope_compare, wed_value,
)
from wedflow.energies import eval_many

E1 = SpaceSpec.euclidean(1)
QUAD = quadratic([[1.0]])
DW = double_well()


def kappa(eps, a=1.0):
    return (math.sqrt(1.0 + 4.0 * eps * a) - 1.0) / (4.0 * eps)


def solve_quad(eps=0.1, T=2.0, N=4000):
    return minimize_wed(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=QUAD,
                                   x_bar=point([1.0], E1)))


def solve_dw(eps=0.05, T=1.0, N=4000):
    return minimize_wed(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=DW,
                                   x_bar=point([0.3], E1)))


# -- value function ---------------------------------------------------------------


def test_value_matches_closed_form_coefficient():
    for eps in (0.2, 0.1, 0.05):
        s = value_function(QUAD, point([1.0], E1), eps)
        assert s.V == pytest.approx(kappa(eps), rel=1e-3)
        # the numeric coefficient satisfies the defining algebra
        k_num = s.V
        assert abs(2 * eps * k_num**2 + k_num - 0.5) <= 1e-3


@pytest.mark.parametrize("eps, N", [(0.1, 4000), (0.05, 300)])
def test_value_solves_run_on_the_graded_grid_over_25_eps(eps, N):
    s = value_function(DW, point([0.3], E1), eps, ValueOptions(N=N))
    nodes = s.solve_ref.trajectory.grid.nodes
    assert np.array_equal(nodes, TimeGrid.exp_graded(eps, 25 * eps, N).nodes)


def test_value_at_global_minimizer_is_phi():
    s = value_function(DW, point([1.0], E1), 0.1)
    assert s.V == pytest.approx(0.0, abs=1e-10)
    assert s.G == 0.0
    assert s.phi == 0.0


def test_value_below_phi_and_sample_bounds():
    for x in (0.0, 0.3, 0.9, -1.4):
        s = value_function(DW, point([x], E1), 0.1)
        assert s.V <= s.phi
        assert s.G >= 0.0
        assert s.G == pytest.approx(math.sqrt(2 * max(0.0, s.phi - s.V) / 0.1), abs=1e-14)


def test_value_cache_hit_and_eviction():
    cache = ValueCache(capacity=2)
    opts = ValueOptions(N=500, cache=cache)
    a = value_function(QUAD, point([1.0], E1), 0.1, opts)
    b = value_function(QUAD, point([1.0], E1), 0.1, opts)
    assert a.solve_ref is b.solve_ref
    value_function(QUAD, point([0.5], E1), 0.1, opts)
    value_function(QUAD, point([0.25], E1), 0.1, opts)  # evicts the first key
    assert len(cache._data) == 2


def test_value_cache_key_includes_resolution():
    cache = ValueCache()
    x = point([1.0], E1)
    value_function(QUAD, x, 0.15, ValueOptions(N=50, cache=cache))
    fine = value_function(QUAD, x, 0.15, ValueOptions(N=400, cache=cache))
    assert fine.solve_ref.problem.N == 400


def test_value_cache_key_is_exact_in_coordinates():
    cache = ValueCache()
    opts = ValueOptions(N=50, cache=cache)
    a = value_function(QUAD, point([1.0], E1), 0.15, opts)
    b = value_function(QUAD, point([1.0 + 1e-13], E1), 0.15, opts)
    assert len(cache._data) == 2
    assert a.solve_ref is not b.solve_ref
    assert b.solve_ref.problem.x_bar.coords[0] == 1.0 + 1e-13


def test_value_cache_key_includes_the_coercivity_constants():
    # two double wells that differ only in their coercivity constants: the
    # second one's B = 10 makes a solve at eps 0.05 ill posed (1/(16 eps) <
    # B), so it must not read the first one's cached solve
    cache = ValueCache()
    opts = ValueOptions(N=200, cache=cache)
    x = point([0.3], E1)
    value_function(DW, x, 0.05, opts)
    steep = EnergySpec("double_well", coercivity=Coercivity(0.0, 10.0, [0.0]))
    with pytest.raises(InvalidInputError, match="well-posedness"):
        value_function(steep, x, 0.05, opts)
    assert len(cache._data) == 1


def _phi_cases():
    rng = np.random.default_rng(11)
    q16 = SpaceSpec.quantile1d(16)
    e8 = SpaceSpec.euclidean(8)
    dirichlet = discrete_dirichlet(p=3.0, h=1.0 / 9.0, reaction=[0.0, 0.0, 1.0])
    s = np.arange(1, 9) / 9.0
    cases = [(DW, point([u], E1)) for u in rng.uniform(-1.6, 1.6, 3)]
    cases += [(quantile_entropy_potential(), gaussian_quantiles(q16, m, sd))
              for m, sd in rng.uniform([-0.5, 0.8], [0.5, 1.6], (2, 2))]
    cases += [(dirichlet, point(a * np.sin(np.pi * s) + b * np.sin(2.0 * np.pi * s), e8))
              for a, b in rng.uniform([0.8, -0.3], [1.2, 0.3], (2, 2))]
    return cases


@pytest.mark.parametrize("energy, x", _phi_cases())
def test_sample_phi_is_energy_eval_on_miss_and_hit(energy, x):
    # phi is read off the solve; on these kinds it is bitwise phi(x)
    opts = ValueOptions(N=200, cache=ValueCache())
    want = energy_eval(energy, x).hex()
    miss = value_function(energy, x, 0.05, opts)
    hit = value_function(energy, x, 0.05, opts)
    assert hit.solve_ref is miss.solve_ref
    assert miss.phi.hex() == hit.phi.hex() == want


# -- value along a minimizer --------------------------------------------------------


def test_value_along_starts_at_objective():
    sol = solve_quad(N=1000)
    V = value_along(sol)
    assert V[0] == sol.objective


def test_value_along_dpp_and_wed_value_read_the_one_cell_cost_rule():
    # bit for bit: V past the first node is e^{t/eps} times the suffix sums of
    # Weights.cell_costs plus the tail term, the restart check's construction
    # residual reads their prefix sums, and wed_value is their total
    sol = solve_dw(N=1000)
    w = sol.weights
    cell = w.cell_costs(sol.speed, sol.phi)
    nodes = sol.trajectory.grid.nodes
    V = value_along(sol)
    suffix = np.append(np.cumsum(cell[::-1])[::-1], 0.0) + w.tail * sol.phi[-1]
    assert np.array_equal(V[1:], (np.exp(nodes / w.epsilon) * suffix)[1:])
    prefix = np.append(0.0, np.cumsum(cell))
    i = 100
    rep = check_dpp(sol, [nodes[i]], ValueOptions(N=500))
    assert rep.details["construction"] == [
        abs(V[0] - (prefix[i] + math.exp(-nodes[i] / w.epsilon) * V[i]))]
    total = float(np.sum(cell)) + w.tail * float(sol.phi[-1])
    assert wed_value(sol.problem, sol.trajectory) == total


def test_value_along_tracks_closed_form():
    eps = 0.1
    sol = solve_quad(eps=eps)
    V = value_along(sol)
    t = sol.trajectory.grid.nodes
    sel = t <= 10 * eps
    ref = kappa(eps) * sol.trajectory.points[:, 0] ** 2
    rel = np.abs(V[sel] - ref[sel]) / np.abs(ref[sel])
    assert np.max(rel) <= 1e-3


def test_value_along_nonincreasing():
    for sol in (solve_quad(N=2000), solve_dw(N=2000)):
        V = value_along(sol)
        dt = sol.trajectory.grid.dt
        scale = max(abs(V[0]), 1.0)
        assert np.max(np.diff(V) / dt) <= 1e-6 * scale / min(dt)


def test_value_along_fresh_solve_cross_check():
    eps = 0.1
    sol = solve_quad(eps=eps)
    V = value_along(sol)
    nodes = sol.trajectory.grid.nodes
    for tq in (eps, 3 * eps, 8 * eps):
        i = int(np.argmin(np.abs(nodes - tq)))
        fresh = value_function(QUAD, sol.trajectory.point_at(i), eps)
        assert abs(fresh.V - V[i]) / abs(V[i]) <= 5e-3


# -- restart identity ---------------------------------------------------------------


def test_dpp_trivial_horizon():
    sol = solve_quad(N=1000)
    rep = check_dpp(sol, [0.0])
    assert rep.details["construction"][0] <= 1e-12
    assert rep.max_residual <= 5e-3
    assert rep.max_residual == max(rep.residuals)
    assert check_dpp(sol, []).max_residual == 0.0


def test_dpp_quadratic_and_double_well():
    for sol, eps in ((solve_quad(0.1), 0.1), (solve_dw(0.05), 0.05)):
        rep = check_dpp(sol, [eps, 2 * eps, 5 * eps])
        assert rep.passed, rep.details
        assert max(rep.details["construction"]) <= 1e-10


# -- rate identity ------------------------------------------------------------------


def test_fundamental_identity_residuals_and_refinement():
    for make in (solve_quad, solve_dw):
        reps = {N: check_fundamental_identity(make(N=N)) for N in (2000, 4000)}
        assert reps[4000].passed
        assert reps[4000].max_residual <= 0.05
        ratio = reps[2000].max_residual / reps[4000].max_residual
        assert 1.4 <= ratio <= 2.6


def test_fundamental_identity_constant_minimizer():
    sol = minimize_wed(WedProblem(epsilon=0.1, T=1.0, N=500, space=E1, energy=DW,
                                  x_bar=point([1.0], E1)))
    rep = check_fundamental_identity(sol)
    assert rep.max_residual <= 1e-8


def test_chain_rule_and_apriori_bounds():
    # the dissipation bound int |u'|^2 <= 2 (V + Q) e^{2BT}, and the chain rule
    # |V(u_t) - V(u_0)| <= int (G^2 + |u'|^2)/2 along the solution, up to 5 %
    # of V's range
    for sol in (solve_quad(N=2000), solve_dw(N=2000)):
        pr, dt = sol.problem, sol.trajectory.grid.dt
        q = q_value(pr.energy, pr.x_bar)
        bound = 2.0 * (sol.objective + q) * math.exp(2.0 * pr.energy.coercivity.B * pr.T)
        assert float(np.sum(sol.speed**2 * dt)) <= bound
        V = value_along(sol)
        g2 = 2.0 * np.maximum(sol.phi[:-1] - V[:-1], 0.0) / pr.epsilon
        budget = np.concatenate([[0.0], np.cumsum(0.5 * (g2 + sol.speed**2) * dt)])
        scale = max(float(np.max(np.abs(V - V[0]))), 1e-12)
        assert np.max(np.abs(V - V[0]) - budget) / scale <= 0.05


# -- monotonicity in the weight parameter ---------------------------------------------


def test_eps_monotonicity_double_well_grid():
    xs = np.linspace(-0.7, 1.3, 5)
    for xv in xs:
        rep = check_eps_monotonicity(DW, point([xv], E1), [0.2, 0.1, 0.05, 0.025])
        assert rep.max_residual <= 1e-6, (xv, rep.details)
        gaps = rep.details["phi_gap"]
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[-1] <= gaps[0] + 1e-9  # phi - V shrinks as eps drops


def test_eps_monotonicity_quadratic_formula():
    rep = check_eps_monotonicity(QUAD, point([1.0], E1), [0.2, 0.1, 0.05])
    vs = rep.details["V"]
    for eps, v in zip(rep.details["eps"], vs):
        assert v == pytest.approx(kappa(eps), rel=1e-3)
    assert vs == sorted(vs)  # increasing as eps decreases


# -- inf-convolution lower bound -------------------------------------------------------


def test_yosida_bound_quadratic_closed_form_margin():
    # both sides in closed form: V = kappa, integral = int a/(2(1+t)) dmu;
    # the margin is small but genuinely positive
    rep = check_yosida_bound(QUAD, point([1.0], E1), 0.1)
    assert rep.passed
    assert rep.details["margin"] > 0.0
    # closed-form integral oracle at high resolution (exp(1/eps) E1(1/eps) form)
    eps = 0.1
    ts = np.linspace(0.0, 25 * eps, 10**5 + 1)
    dens = np.exp(-ts / eps) / eps
    vals = 1.0 / (2.0 * (1.0 + ts))
    oracle = float(np.trapezoid(vals * dens, ts))
    assert rep.details["integral"] == pytest.approx(oracle, rel=2e-3)


def test_yosida_bound_at_minimizer_is_tight():
    rep = check_yosida_bound(DW, point([1.0], E1), 0.1)
    assert rep.passed
    assert rep.details["V"] == pytest.approx(0.0, abs=1e-9)
    assert rep.details["integral"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("x", np.round(np.arange(0.20, 0.601, 0.05), 2))
def test_yosida_bound_double_well(x):
    # the compared right-endpoint sum stays below the left one, which V
    # undercuts by up to 3.6e-7 near x = 0.5 (eps 0.05, 2000 quadrature nodes)
    rep = check_yosida_bound(DW, point([x], E1), 0.05)
    assert rep.passed, rep.details
    assert rep.details["margin"] > 0.0
    assert rep.details["integral"] < rep.details["left_sum"]


# -- surrogate slope ---------------------------------------------------------------------


def test_slope_compare_quadratic_formula():
    eps_list = [0.2, 0.1, 0.05]
    rep = wed_slope_compare(QUAD, point([1.0], E1), eps_list)
    assert rep.passed
    for eps, g in zip(rep.details["eps"], rep.details["G"]):
        expected = math.sqrt((1.0 - 2.0 * kappa(eps)) / eps)
        assert g == pytest.approx(expected, rel=2e-3)
    assert rep.details["slope"] == pytest.approx(1.0, abs=1e-14)


def test_slope_compare_critical_point():
    rep = wed_slope_compare(DW, point([1.0], E1), [0.1, 0.05])
    assert rep.details["slope"] == 0.0
    assert max(rep.details["G"]) <= 1e-6


def test_slope_compare_double_well_sweep():
    rep = wed_slope_compare(DW, point([0.5], E1), [0.2, 0.1, 0.05, 0.025, 0.0125])
    assert rep.passed, rep.details
    assert all(g <= 0.375 + 1e-2 for g in rep.details["G"])
    assert abs(rep.details["G"][-1] - 0.375) <= 5e-2


# -- pointwise Hamilton-Jacobi identity ----------------------------------------------------


def test_hj_quadratic():
    rep = check_hj(QUAD, point([1.0], E1), 0.1)
    assert rep.passed, rep.details
    assert rep.details["slope_residual"] <= 1e-2
    # identity algebra: 2 eps kappa^2 + kappa = 1/2 makes both sides equal
    assert rep.details["G"] == pytest.approx(2 * kappa(0.1), rel=2e-3)


def test_hj_critical_point():
    rep = check_hj(DW, point([1.0], E1), 0.05)
    assert rep.details["estimate"] <= 1e-6
    assert rep.details["G"] <= 1e-6


def test_hj_convex_quartic():
    rep = check_hj(convex_quartic(), point([1.0], E1), 0.05)
    assert rep.passed, rep.details
    assert rep.details["slope_residual"] <= 5e-2


class CountingCache(ValueCache):
    def __init__(self):
        super().__init__(capacity=4096)
        self.asked = []

    def get(self, key):
        self.asked.append(key)
        return super().get(key)


def test_hj_1d_never_repeats_a_solve():
    cache = CountingCache()
    check_hj(QUAD, point([1.0], E1), 0.1, opts=ValueOptions(N=500, cache=cache))
    assert cache.asked
    assert len(set(cache.asked)) == len(cache.asked)


def test_hj_solves_two_rungs_at_each_flow_node(monkeypatch):
    # the center and its six reported rungs along the minimizer's move, then a
    # center and the two rungs the Richardson step reads at each of 3 flow nodes
    solves = []

    def counting(problem):
        solves.append(problem)
        return minimize_wed(problem)

    monkeypatch.setattr("wedflow.value.minimize_wed", counting)
    opts = ValueOptions(N=500)
    x = point([1.0], E1)
    rep = check_hj(QUAD, x, 0.1, opts=opts)
    assert len(solves) == 1 + 6 + 3 * (1 + 2)  # 16; the full ladders took 52
    assert len(rep.details["ladder"]) == 6
    assert len(rep.details["flow"]) == 3
    traj = value_function(QUAD, x, 0.1, opts).solve_ref.trajectory
    for f in rep.details["flow"]:
        (i,) = np.flatnonzero(traj.grid.nodes == f["t"])
        est, _, ladder = conditioned_slope_estimate(QUAD, traj.point_at(i), 0.1, opts=opts)
        assert len(ladder) == 6
        assert f["slope_est"] == est  # bitwise the full-ladder estimate


class SolveRequested(Exception):
    pass


Q8 = SpaceSpec.quantile1d(8)
QENT = quantile_entropy_potential(v2=1.0, v1=0.0)


@pytest.mark.parametrize("energy, x, N, solved_at", [
    (QENT, gaussian_quantiles(Q8, 1.0, 1.5), 4000, 1500),
    (QENT, gaussian_quantiles(Q8, 1.0, 1.5), 800, 800),
    (DW, point([0.5], E1), 4000, 4000),
], ids=["q8-N4000", "q8-N800", "e1-N4000"])
def test_probe_solves_above_four_dimensions_run_at_most_1500(monkeypatch, energy, x, N, solved_at):
    seen = []

    def record(problem):
        seen.append(problem.N)
        raise SolveRequested

    monkeypatch.setattr("wedflow.value.minimize_wed", record)
    with pytest.raises(SolveRequested):
        conditioned_slope_estimate(energy, x, 0.05, opts=ValueOptions(N=N))
    assert seen == [solved_at]


def test_hj_quantile_fixture():
    # 16-dimensional quantile state: the identity needs the flow-direction
    # probe; translation and dilation alone undershoot the slope
    x0 = gaussian_quantiles(SpaceSpec.quantile1d(16), 1.0, 1.5)
    est, center, _ = conditioned_slope_estimate(
        QENT, x0, 0.05, opts=ValueOptions(N=800, cache=ValueCache(1024))
    )
    assert abs(est - center.G) / center.G <= 5e-2


@pytest.mark.parametrize("energy, x, est, ladder, n_solves", [
    # the hilltop: the minimizer does not move, so plus and minus the axis
    (DW, point([0.0], E1), 5.779314804499336e-08,
     [0.05244101628490233, 0.026338610672108076, 0.013184092387685808,
      0.006593895336770572, 0.0032971788350799613, 0.0016486183141140032], 1 + 12),
    (quantile_entropy_potential(1.0, 0.5),
     gaussian_quantiles(SpaceSpec.quantile1d(8), 0.4, 1.7), 1.2805802589989967,
     [1.223273338003842, 1.251999995647759, 1.2663077551529418,
      1.273448152377196, 1.2770150298783778, 1.2787976444386873], 1 + 6),
    (quadratic([[2.0, 0.5, 0.3], [0.5, 1.5, 0.4], [0.3, 0.4, 1.0]], [0.2, -0.1, 0.3]),
     point([1.0, -0.5, 0.8], SpaceSpec.euclidean(3)), 1.7269854200321078,
     [1.629165394299401, 1.67807540716578, 1.702530413598966,
      1.714757916815568, 1.7208716684238823, 1.723928544227995], 1 + 6),
], ids=["dw-hilltop", "q8", "dense-e3"])
def test_slope_estimate_probes_the_minimizers_move(monkeypatch, energy, x, est, ladder, n_solves):
    # values of the ladder that also probed the axes, or translation and
    # dilation, and eight random directions: the move alone reproduces them
    solves = []

    def counting(problem):
        solves.append(problem)
        return minimize_wed(problem)

    monkeypatch.setattr("wedflow.value.minimize_wed", counting)
    got, _, got_ladder = conditioned_slope_estimate(energy, x, 0.05, opts=ValueOptions(N=1000))
    assert got == pytest.approx(est, rel=1e-12)
    assert [q for _, q in got_ladder] == pytest.approx(ladder, rel=1e-12)
    assert [h for h, _ in got_ladder] == [0.1 * 2.0**-k for k in range(6)]
    assert len(solves) == n_solves


def test_hj_sandwich_at_small_eps():
    # computed estimate at the smallest swept eps brackets the local slope
    # within the combined probe and solver tolerance
    est, center, _ = conditioned_slope_estimate(DW, point([0.5], E1), 0.0125)
    slope = 0.375
    delta = 5e-2
    assert slope - delta <= est <= slope + delta


# -- energy-induced distance ------------------------------------------------------------


def test_finsler_unit_weight_recovers_distance():
    s2 = SpaceSpec.euclidean(2)
    a, b = point([0.0, 0.0], s2), point([1.0, 2.0], s2)
    val = finsler_distance(lambda P: np.ones(len(P)), a, b)[0]
    assert val == pytest.approx(distance(a, b), abs=1e-6)


def test_finsler_returns_value_and_curve():
    # one return shape: the curve is the optimal polyline from u0 to u1, and a
    # zero distance has no curve
    a, b = point([0.0], E1), point([1.5], E1)
    val, curve = finsler_distance(lambda P: np.ones(len(P)), a, b)
    assert val == pytest.approx(1.5, abs=1e-6)
    assert np.array_equal(curve.points[[0, -1]], [a.coords, b.coords])
    assert finsler_distance(lambda P: np.ones(len(P)), a, point([0.0], E1)) == (0.0, None)


def test_finsler_constant_energy_scaling():
    # f = sqrt(c) on the segment: distance sqrt(c) |du|; brute force over
    # random discretized monotone curves can do no better
    c = 4.0
    a, b = point([0.0], E1), point([2.0], E1)
    val = finsler_distance(lambda P: np.full(len(P), math.sqrt(c)), a, b)[0]
    assert val == pytest.approx(math.sqrt(c) * 2.0, abs=1e-4)
    rng = np.random.default_rng(6)
    best = math.inf
    for _ in range(200):
        interior = np.sort(rng.uniform(0.0, 2.0, 15))
        pts = np.concatenate([[0.0], interior, [2.0]])
        best = min(best, math.sqrt(c) * float(np.sum(np.abs(np.diff(pts)))))
    assert val <= best + 1e-6


def test_finsler_lagrangian_equals_product_form():
    from wedflow import g_reparam, metric_speed

    f = lambda P: np.sqrt(np.maximum(1.0, eval_many(QUAD, P)))
    a, b = point([0.5], E1), point([3.0], E1)
    val, curve = finsler_distance(f, a, b)
    rep = g_reparam(curve, f)
    v = metric_speed(rep)
    mids = 0.5 * (rep.points[:-1] + rep.points[1:])
    fv = f(mids)
    product = float(np.sum(fv * v * rep.grid.dt))
    assert product == pytest.approx(val, rel=1e-3)
    assert val >= distance(a, b) - 1e-9


def test_finsler_rejects_weight_below_one():
    with pytest.raises(InvalidInputError):
        finsler_distance(lambda P: np.full(len(P), 0.5), point([0.0], E1), point([1.0], E1))


def test_finsler_weight_gets_float_row_arrays():
    s2 = SpaceSpec.euclidean(2)
    shapes = []

    def f(P):
        assert isinstance(P, np.ndarray) and P.dtype == np.float64 and P.ndim == 2
        shapes.append(P.shape)
        return np.sqrt(1.0 + P[:, 0] ** 2)

    finsler_distance(f, point([0.0, 0.0], s2), point([1.0, 2.0], s2))
    assert shapes[0] == (3, 2)  # u0, u1 and their midpoint
    # then the 64 segment midpoints, or their difference stencils, per call
    assert len(shapes) > 1 and set(shapes[1:]) == {(64, 2)}


@pytest.mark.parametrize("f", [
    lambda P: 1.0,
    lambda P: np.ones(len(P) + 1),
    lambda P: np.ones((len(P), 1)),
    lambda P: np.ones(3),  # right for the first call only
], ids=["scalar", "too_long", "column", "fixed_length"])
def test_finsler_weight_of_wrong_shape_raises(f):
    with pytest.raises(InvalidInputError, match="one value per row"):
        finsler_distance(f, point([0.0], E1), point([1.0], E1))


# reference distances, from the golden-section search over S that the closed form replaced
S2 = SpaceSpec.euclidean(2)
FINSLER_PINS = {
    "unit": (E1, lambda P: np.ones(len(P)), [0.0], [1.5], 1.5),
    "constant": (E1, lambda P: np.full(len(P), 2.0), [0.0], [2.0], 4.0),
    "double_well": (E1, lambda P: np.sqrt(np.maximum(1.0, eval_many(DW, P))), [0.0], [2.0],
                    2.065339831856094),
    "plane": (S2, lambda P: np.sqrt(1.0 + np.sum(P * P, axis=1)), [0.0, 0.0], [1.0, 2.0],
              3.5108177852032467),
}


@pytest.mark.parametrize("case", list(FINSLER_PINS))
def test_finsler_pinned_values(case):
    space, f, a, b, ref = FINSLER_PINS[case]
    val = finsler_distance(f, point(a, space), point(b, space))[0]
    assert val == pytest.approx(ref, rel=1e-12)


def test_finsler_pinned_value_of_the_kinked_weight():
    # f = sqrt(max(1, x^2/2)) has a kink at sqrt(2); its solves stop above the
    # stationarity tolerance, so the pin is looser
    f = lambda P: np.sqrt(np.maximum(1.0, eval_many(QUAD, P)))
    val = finsler_distance(f, point([0.5], E1), point([3.0], E1))[0]
    assert val == pytest.approx(3.389011373098585, rel=1e-7)


@pytest.mark.parametrize("energy, exact", [(QUAD, 1.5 * math.sqrt(2.0)),
                                           (DW, math.sqrt(3.0) + 1.0 / 3.0)])
def test_finsler_1d_distance_is_the_weight_integral(energy, exact):
    # in 1-D the distance from 0 to 2 is the integral of f over [0, 2]; the
    # README weight's descent stops at the iteration cap (residual 7.9e-4),
    # 3.65e-5 relative below it, the double well's converges 2.15e-5 below
    f = lambda P: np.sqrt(np.maximum(1.0, eval_many(energy, P)))
    val = finsler_distance(f, point([0.0], E1), point([2.0], E1))[0]
    assert val == pytest.approx(exact, rel=5e-5)


@pytest.mark.parametrize("case", ["double_well", "plane"])
def test_finsler_parameter_length_is_the_closed_form(case):
    space, f, a, b, _ = FINSLER_PINS[case]
    val, curve = finsler_distance(f, point(a, space), point(b, space))
    P, K = curve.points, curve.grid.n_cells
    dP = np.diff(P, axis=0)
    kin = 0.5 * float(np.sum(space.metric_weight * dP * dP))
    pot = 0.5 * float(np.sum(np.float_power(f(0.5 * (P[:-1] + P[1:])), 2)))
    S = curve.grid.T
    assert S == pytest.approx(K * math.sqrt(kin / pot), rel=1e-14)
    assert val == pytest.approx(2.0 * math.sqrt(kin * pot), rel=1e-14)
    for s in (S * (1.0 - 1e-3), S * (1.0 + 1e-3)):
        assert val < K * kin / s + s * pot / K


def test_finsler_weight_vanishing_at_every_midpoint_raises():
    # f = 1 at u0, u1 and their midpoint passes the f >= 1 check, but vanishes
    # at all 64 segment midpoints of the starting line
    f = lambda P: np.isin(P[:, 0], [0.0, 0.5, 1.0]).astype(float)
    with pytest.raises(InvalidInputError, match="vanishes"):
        finsler_distance(f, point([0.0], E1), point([1.0], E1))
