import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from wedflow import (
    DegenerateCurveError, DomainError, InvalidInputError, Point, SpaceSpec, TimeGrid, Trajectory,
    Weights, arclength_reparam, g_reparam, geodesic_point, metric_speed,
    poincare_witness, quadratic, spectral_check, weighted_ibp_check,
)
from wedflow.energies import eval_many

E1 = SpaceSpec.euclidean(1)
E2 = SpaceSpec.euclidean(2)


def line_traj(f, T, N, space=E1):
    grid = TimeGrid.uniform(T, N)
    pts = np.array([np.atleast_1d(f(t)) for t in grid.nodes])
    return Trajectory(grid, pts, space)


# -- grids and weights -------------------------------------------------------


def test_exp_graded_formula():
    eps, T, N = 0.3, 2.0, 64
    g = TimeGrid.exp_graded(eps, T, N)
    i = np.arange(N + 1)
    ref = -eps * np.log(1.0 - (i / N) * (1.0 - np.exp(-T / eps)))
    assert np.max(np.abs(g.nodes - ref)) < 1e-12
    assert g.nodes[0] == 0.0 and g.nodes[-1] == T


def test_weights_sum_exactly():
    for mode, grid in (("u", TimeGrid.uniform(3.0, 100)),
                       ("e", TimeGrid.exp_graded(0.25, 3.0, 100))):
        w = Weights.for_grid(grid, 0.25)
        assert np.sum(w.masses) == pytest.approx(1.0 - np.exp(-3.0 / 0.25), abs=1e-15)
        assert np.sum(w.masses) + w.tail == pytest.approx(1.0, abs=1e-14)
        assert np.all(w.masses > 0.0)


# -- speeds -------------------------------------------------------------------


def test_speed_constant_trajectory_is_zero():
    traj = line_traj(lambda t: 0.7, 1.0, 50)
    assert np.all(metric_speed(traj) == 0.0)


def test_speed_linear_curve():
    traj = line_traj(lambda t: 3.0 * t, 2.0, 40)
    assert np.allclose(metric_speed(traj), 3.0, atol=1e-12)


def test_speed_exponential_curve_matches_derivative():
    N = 1000
    traj = line_traj(lambda t: np.exp(-t), 1.0, N)
    v = metric_speed(traj)
    exact = np.exp(-traj.grid.nodes[:-1])
    assert np.max(np.abs(v - exact)) < 2e-3


def test_speed_of_geodesic_interpolation_is_constant():
    rng = np.random.default_rng(4)
    for space in (E2, SpaceSpec.quantile1d(6)):
        if space.kind == "quantile1d":
            a = Point(np.cumsum(rng.uniform(0.1, 1.0, 6)), space)
            b = Point(np.cumsum(rng.uniform(0.1, 1.0, 6)) + 0.5, space)
        else:
            a, b = Point(rng.standard_normal(2), space), Point(rng.standard_normal(2), space)
        grid = TimeGrid.uniform(1.0, 37)
        pts = np.array([geodesic_point(space, a, b, t).coords for t in grid.nodes])
        v = metric_speed(Trajectory(grid, pts, space))
        assert np.max(np.abs(v - v[0])) < 1e-12


def weighted_segment_lengths(space, P):
    """Segment lengths with the metric weights inside the sum."""
    diff = np.diff(P, axis=0)
    if space.kind == "pnorm":
        return np.sum(np.abs(diff) ** space.p, axis=1) ** (1.0 / space.p)
    return np.sqrt(np.sum(space.metric_weights * diff * diff, axis=1))


@pytest.mark.parametrize("space, bitwise", [
    (E1, True), (SpaceSpec.euclidean(3), True), (SpaceSpec.quantile1d(8), True),
    (SpaceSpec.quantile1d(16), True), (SpaceSpec.quantile1d(3), False),
    (SpaceSpec.quantile1d(10), False), (SpaceSpec.quantile1d(12), False),
    (SpaceSpec.pnorm(3, 3.0), False),
], ids=lambda v: f"{v.kind}{v.dim}" if isinstance(v, SpaceSpec) else str(v))
def test_speeds_are_the_weighted_segment_lengths(space, bitwise):
    # the weight 1/m inside or outside the sum, and the p-norm root by libm's
    # pow or numpy's, agree bitwise for m a power of two, else to a few ulp
    rng = np.random.default_rng(23)
    P = np.cumsum(rng.uniform(0.01, 1.0, (2001, space.dim)), axis=1)
    grid = TimeGrid.uniform(1.0, 2000)
    want = weighted_segment_lengths(space, P) / grid.dt
    got = metric_speed(Trajectory(grid, P, space))
    if bitwise:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want) / want) <= 4 * np.finfo(float).eps


# -- reparameterization ----------------------------------------------------------


def test_arclength_straight_segment():
    traj = line_traj(lambda t: np.array([2.0 * t, 0.0]), 1.0, 100, E2)
    out = arclength_reparam(traj)
    assert out.grid.T == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(metric_speed(out), 1.0, atol=1e-9)
    assert np.allclose(out.points[0], traj.points[0])
    assert np.allclose(out.points[-1], traj.points[-1])


def test_arclength_quadratic_curve():
    traj = line_traj(lambda t: np.array([t * t, 0.0]), 1.0, 2000, E2)
    out = arclength_reparam(traj)
    v = metric_speed(out)
    assert np.max(np.abs(v - 1.0)) < 1e-4
    # total length preserved
    assert out.grid.T == pytest.approx(np.sum(metric_speed(traj) * traj.grid.dt), abs=1e-10)


def test_arclength_idempotent():
    traj = line_traj(lambda t: np.array([t, 0.0]), 1.5, 64, E2)
    once = arclength_reparam(traj)
    twice = arclength_reparam(once)
    assert np.max(np.abs(once.grid.nodes - twice.grid.nodes)) < 1e-10
    assert np.max(np.abs(once.points - twice.points)) < 1e-10


def test_arclength_rejects_constant_curve():
    with pytest.raises(DegenerateCurveError):
        arclength_reparam(line_traj(lambda t: 1.0, 1.0, 8))


def test_unit_reparam_of_unit_speed_curve_is_identity():
    # arclength first, then unit-weight reparameterization: nothing moves
    # (a straight segment with nonuniform speed keeps the resampling exact)
    traj = line_traj(lambda t: np.array([2.0 * t * t, t * t]), 1.0, 500, E2)
    unit = arclength_reparam(traj)
    again = g_reparam(unit, lambda P: np.ones(len(P)))
    assert np.max(np.abs(unit.grid.nodes - again.grid.nodes)) < 1e-8
    assert np.max(np.abs(unit.points - again.points)) < 1e-8


def test_g_reparam_unit_g_is_arclength():
    traj = line_traj(lambda t: np.array([t * t, t]), 1.0, 500, E2)
    a = arclength_reparam(traj)
    b = g_reparam(traj, lambda P: np.ones(len(P)))
    assert np.max(np.abs(a.grid.nodes - b.grid.nodes)) < 1e-12
    assert np.max(np.abs(a.points - b.points)) < 1e-8


def test_g_reparam_constant_scaling():
    c = 2.5
    traj = line_traj(lambda t: np.array([3.0 * t, 0.0]), 1.0, 200, E2)  # length 3
    out = g_reparam(traj, lambda P: np.full(len(P), c))
    assert out.grid.T == pytest.approx(3.0 / c, abs=1e-12)
    assert np.allclose(metric_speed(out), c, atol=1e-9)


def test_g_reparam_speed_matches_g_along_curve():
    spec = quadratic([[1.0, 0.0], [0.0, 1.0]])
    g = lambda P: np.sqrt(np.maximum(1.0, eval_many(spec, P)))
    traj = line_traj(lambda t: np.array([2.0 * t, 1.0 - t]), 1.0, 800, E2)
    out = g_reparam(traj, g)
    v = metric_speed(out)
    gv = g(out.points[:-1])
    assert np.max(np.abs(v - gv) / gv) < 5e-3


def test_g_reparam_three_integral_identity():
    # both sides of the reparameterized-action identity against a 16x oracle
    spec = quadratic([[4.0, 0.0], [0.0, 4.0]])
    g = lambda P: np.sqrt(np.maximum(1.0, eval_many(spec, P)))
    N = 400
    traj = line_traj(lambda t: np.array([1.0 + t, 0.5 * t]), 1.0, N, E2)
    out = g_reparam(traj, g)
    v = metric_speed(out)
    dt = out.grid.dt
    mids = 0.5 * (out.points[:-1] + out.points[1:])
    gv = g(mids)
    int_g2 = float(np.sum(gv**2 * dt))
    int_v2 = float(np.sum(v**2 * dt))
    int_gv = float(np.sum(gv * v * dt))
    fine = line_traj(lambda t: np.array([1.0 + t, 0.5 * t]), 1.0, 16 * N, E2)
    vf = metric_speed(fine)
    fmids = 0.5 * (fine.points[:-1] + fine.points[1:])
    gf = g(fmids)
    oracle = float(np.sum(gf * vf * fine.grid.dt))
    for val in (int_g2, int_v2, int_gv):
        assert val == pytest.approx(oracle, rel=1e-3)


def test_g_reparam_calls_g_once_on_the_midpoint_rows():
    traj = line_traj(lambda t: np.array([t, 2.0 * t]), 1.0, 32, E2)
    seen = []

    def g(P):
        seen.append(P.copy())
        return np.ones(len(P))

    g_reparam(traj, g)
    assert len(seen) == 1
    assert seen[0].dtype == np.float64
    assert np.array_equal(seen[0], 0.5 * (traj.points[:-1] + traj.points[1:]))


@pytest.mark.parametrize("g", [lambda P: 2.0, lambda P: np.ones(len(P) - 1)],
                         ids=["scalar", "too_short"])
def test_g_reparam_rejects_g_of_wrong_shape(g):
    traj = line_traj(lambda t: np.array([t, 0.0]), 1.0, 32, E2)
    with pytest.raises(InvalidInputError, match="one value per row"):
        g_reparam(traj, g)


def test_g_reparam_rejects_nonpositive_g():
    traj = line_traj(lambda t: np.array([t, 0.0]), 1.0, 32, E2)
    with pytest.raises(DomainError):
        g_reparam(traj, lambda P: P[:, 0] - 0.5)


# -- weighted integration by parts ------------------------------------------------


def test_ibp_zero_function():
    t = TimeGrid.exp_graded(0.5, 5.0, 100).nodes
    assert weighted_ibp_check(t, np.zeros_like(t), 0.5) == 0.0


def test_ibp_linear_function():
    t = TimeGrid.exp_graded(0.5, 5.0, 4000).nodes
    resid = weighted_ibp_check(t, t.copy(), 0.5)
    assert resid <= 1e-3
    # analytic check of the continuum identity for w(t) = t:
    # eps (1 - e^{-T/eps}) = T e^{-T/eps} + [eps - (T + eps) e^{-T/eps}]
    eps, T = 0.5, 5.0
    lhs = eps * (1 - np.exp(-T / eps))
    rhs = T * np.exp(-T / eps) + (eps - (T + eps) * np.exp(-T / eps))
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_ibp_first_order_refinement():
    eps, T = 0.5, 5.0
    resid = {}
    for N in (2000, 4000):
        t = TimeGrid.exp_graded(eps, T, N).nodes
        resid[N] = weighted_ibp_check(t, np.sin(t), eps)
    ratio = resid[2000] / resid[4000]
    assert 1.7 <= ratio <= 2.3


# -- spectral comparison -----------------------------------------------------------


def test_spectral_zero_function():
    t = np.linspace(0.0, 4.0, 100)
    lhs, rhs, ratio = spectral_check(t, np.zeros_like(t), 0.5)
    assert (lhs, rhs, ratio) == (0.0, 0.0, 0.0)


def test_spectral_random_piecewise_linear_never_violates():
    rng = np.random.default_rng(99)
    for eps in (0.1, 1.0):
        for _ in range(500):
            n = int(rng.integers(4, 80))
            t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.6, n))])
            w = np.concatenate([[0.0], rng.standard_normal(n) * rng.uniform(0.1, 3.0)])
            lhs, rhs, ratio = spectral_check(t, w, eps)
            assert rhs <= lhs * (1.0 + 1e-12)
            assert ratio <= 1.0 + 1e-12


@given(st.integers(min_value=2, max_value=30), st.floats(min_value=0.05, max_value=2.0),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_spectral_property_random(n, eps, seed):
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))])
    w = np.concatenate([[0.0], rng.standard_normal(n)])
    lhs, rhs, _ = spectral_check(t, w, eps)
    assert rhs <= lhs * (1.0 + 1e-12)


def test_spectral_witness_near_sharp():
    # trapezoidal window times e^{t/2 eps}: ratio 0.925 at n = 50 (the
    # continuum value from the piecewise closed form; equality as n -> inf)
    n, eps = 50.0, 1.0
    t = np.linspace(0.0, 4 * n, 100_000 + 1)
    w = poincare_witness(n, eps, t)
    lhs, rhs, ratio = spectral_check(t, w, eps)
    assert ratio >= 0.9
    assert ratio == pytest.approx(0.925, abs=2e-3)
    assert rhs <= lhs


def test_spectral_cell_integrals_match_adaptive_quadrature():
    # the closed-form cell integrals are what guarantee the no-violation
    # property; check them against an adaptive oracle
    integrate = pytest.importorskip("scipy.integrate")
    from wedflow.trajectories import _cell_sq_integral

    rng = np.random.default_rng(12345)
    for _ in range(50):
        a, b = rng.standard_normal(2)
        t0, h, eps = rng.uniform(0.0, 3.0), rng.uniform(0.01, 2.0), rng.uniform(0.05, 1.5)
        got = _cell_sq_integral(a, b, t0, h, eps)
        ref, _ = integrate.quad(
            lambda tau: (a + b * tau) ** 2 * np.exp(-(t0 + tau) / eps) / eps, 0.0, h
        )
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_spectral_requires_zero_at_origin():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(Exception):
        spectral_check(t, np.ones_like(t), 0.5)
