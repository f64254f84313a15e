import math

import numpy as np
import pytest

from wedflow import (
    InvalidInputError, SpaceSpec, ValueCache, ValueOptions, WedProblem,
    check_dpp, check_eps_monotonicity, check_fundamental_identity, check_hj,
    check_yosida_bound, conditioned_slope_estimate, convex_quartic, distance,
    double_well, finsler_distance, minimize_wed, point, quadratic,
    value_along, value_function, wed_slope_compare,
)
from wedflow.value import ProbeOptions, apriori_speed_bound, chain_rule_bound
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


# -- value along a minimizer --------------------------------------------------------


def test_value_along_starts_at_objective():
    sol = solve_quad(N=1000)
    V = value_along(sol)
    assert V[0] == sol.objective


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
    for sol in (solve_quad(N=2000), solve_dw(N=2000)):
        lhs, rhs = apriori_speed_bound(sol)
        assert lhs <= rhs
        assert chain_rule_bound(sol).passed


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
    rep = check_yosida_bound(DW, point([1.0], E1), 0.1, n_quad=500)
    assert rep.passed
    assert rep.details["V"] == pytest.approx(0.0, abs=1e-9)
    assert rep.details["integral"] == pytest.approx(0.0, abs=1e-9)


def test_yosida_bound_double_well():
    rep = check_yosida_bound(DW, point([0.3], E1), 0.05)
    assert rep.passed
    assert rep.details["margin"] > 0.0


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


def test_hj_quantile_fixture():
    # 32-dimensional quantile state: the identity needs the flow-direction
    # probe; translation/dilation/random alone undershoot the slope
    from wedflow import SpaceSpec, ValueCache, gaussian_quantiles, quantile_entropy_potential

    qs = SpaceSpec.quantile1d(16)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    x0 = gaussian_quantiles(qs, 1.0, 1.5)
    rep = check_hj(spec, x0, 0.05, probe=ProbeOptions(flow_nodes=0, solve_N=800),
                   opts=ValueOptions(N=800, cache=ValueCache(1024)))
    assert rep.passed, rep.details
    assert rep.details["slope_residual"] <= 5e-2


def test_hj_sandwich_at_small_eps():
    # computed estimate at the smallest swept eps brackets the local slope
    # within the combined probe and solver tolerance
    est, center, _ = conditioned_slope_estimate(
        DW, point([0.5], E1), 0.0125, ProbeOptions()
    )
    slope = 0.375
    delta = 5e-2
    assert slope - delta <= est <= slope + delta


# -- energy-induced distance ------------------------------------------------------------


def test_finsler_unit_weight_recovers_distance():
    s2 = SpaceSpec.euclidean(2)
    a, b = point([0.0, 0.0], s2), point([1.0, 2.0], s2)
    val = finsler_distance(s2, lambda P: np.ones(len(P)), a, b)
    assert val == pytest.approx(distance(s2, a, b), abs=1e-6)


def test_finsler_constant_energy_scaling():
    # f = sqrt(c) on the segment: distance sqrt(c) |du|; brute force over
    # random discretized monotone curves can do no better
    c = 4.0
    a, b = point([0.0], E1), point([2.0], E1)
    val = finsler_distance(E1, lambda P: np.full(len(P), math.sqrt(c)), a, b)
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
    val, curve = finsler_distance(E1, f, a, b, return_curve=True)
    rep = g_reparam(curve, f)
    v = metric_speed(rep)
    mids = 0.5 * (rep.points[:-1] + rep.points[1:])
    fv = f(mids)
    product = float(np.sum(fv * v * rep.grid.dt))
    assert product == pytest.approx(val, rel=1e-3)
    assert val >= distance(E1, a, b) - 1e-9


def test_finsler_rejects_weight_below_one():
    with pytest.raises(InvalidInputError):
        finsler_distance(E1, lambda P: np.full(len(P), 0.5), point([0.0], E1), point([1.0], E1))


def test_finsler_weight_gets_float_row_arrays():
    s2 = SpaceSpec.euclidean(2)
    shapes = []

    def f(P):
        assert isinstance(P, np.ndarray) and P.dtype == np.float64 and P.ndim == 2
        shapes.append(P.shape)
        return np.sqrt(1.0 + P[:, 0] ** 2)

    finsler_distance(s2, f, point([0.0, 0.0], s2), point([1.0, 2.0], s2))
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
        finsler_distance(E1, f, point([0.0], E1), point([1.0], E1))
