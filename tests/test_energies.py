import math

import numpy as np
import pytest

from wedflow import (
    DomainError, InvalidInputError, Point, SpaceSpec, convex_quartic,
    discrete_dirichlet, distance, double_well, energy_eval, energy_grad,
    gaussian_quantiles, geodesic_point, local_slope, normal_quantile, point,
    q_value, quadratic, quantile_entropy_potential, yosida,
)
from wedflow.energies import (
    analytic_slope, analytic_slopes, eval_many, grad_many, hess_many, reference_point,
)
from wedflow.newton import damped_newton, golden_section, levenberg

E1 = SpaceSpec.euclidean(1)


def kind_fixtures(rng):
    """(spec, space, point sampler) per built-in kind, for sweep-style tests."""
    A = rng.standard_normal((3, 3))
    A = (A + A.T) / 2.0 + 3.0 * np.eye(3)
    qspace = SpaceSpec.quantile1d(8)

    def mono(r):
        return Point(np.cumsum(r.uniform(0.05, 0.8, 8)) - 2.0, qspace)

    return [
        (quadratic(A, rng.standard_normal(3)), SpaceSpec.euclidean(3),
         lambda r: Point(r.standard_normal(3), SpaceSpec.euclidean(3))),
        (convex_quartic(), SpaceSpec.euclidean(2),
         lambda r: Point(r.standard_normal(2), SpaceSpec.euclidean(2))),
        (double_well(), SpaceSpec.euclidean(2),
         lambda r: Point(r.standard_normal(2), SpaceSpec.euclidean(2))),
        (discrete_dirichlet(p=2.5, h=0.2, reaction=(0.0, 0.0, 1.0)), SpaceSpec.euclidean(5),
         lambda r: Point(r.standard_normal(5), SpaceSpec.euclidean(5))),
        (quantile_entropy_potential(v2=1.0, v1=0.3), qspace, mono),
    ]


def test_quadratic_eval_and_grad():
    spec = quadratic([[1.0]])
    assert energy_eval(spec, point([2.0], E1)) == pytest.approx(2.0, abs=1e-15)
    spec2 = quadratic([[2.0]], [1.0])
    assert energy_grad(spec2, point([3.0], E1))[0] == pytest.approx(5.0, abs=1e-15)


def test_double_well_values():
    dw = double_well()
    assert energy_eval(dw, point([1.0], E1)) == 0.0
    assert energy_eval(dw, point([-1.0], E1)) == 0.0
    assert energy_eval(dw, point([0.0], E1)) == pytest.approx(0.25, abs=1e-15)
    assert energy_grad(dw, point([2.0], E1))[0] == pytest.approx(6.0, abs=1e-14)


def test_quantile_entropy_matches_fine_resolution():
    # oracle: the same discretization evaluated at m = 2**14; the gap at
    # m = 64 is dominated by the two unresolved boundary half-cells of the
    # Gaussian entropy integrand, measured at 6.2e-2
    def entropy_potential_sum(qs):
        m = len(qs)
        return float(np.mean(qs**2) / 2.0 - np.sum(np.log(np.diff(qs) * m)) / m)

    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    coarse_space = SpaceSpec.quantile1d(64)
    coarse = energy_eval(spec, gaussian_quantiles(coarse_space))
    s_fine = (np.arange(2**14) + 0.5) / 2**14
    fine = entropy_potential_sum(normal_quantile(s_fine))
    assert coarse == pytest.approx(fine, abs=7e-2)
    # the continuum value is E[X^2]/2 + int rho log rho = 1/2 - log(2 pi e)/2
    assert fine == pytest.approx(0.5 - 0.5 * math.log(2.0 * math.pi * math.e), abs=2e-3)


def test_infinite_sentinel_for_nonmonotone():
    spec = quantile_entropy_potential()
    vals = eval_many(spec, np.array([[0.0, 1.0, 0.5]]))
    assert math.isinf(vals[0])
    with pytest.raises(DomainError):
        grad_many(spec, np.array([[0.0, 1.0, 0.5]]))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for spec, space, sample in kind_fixtures(rng):
        worst = 0.0
        for _ in range(200):
            x = sample(rng)
            g = energy_grad(spec, x)
            fd = np.empty_like(g)
            for j in range(len(fd)):
                h = 1e-6 * (1.0 + abs(x.coords[j]))
                up = x.coords.copy(); up[j] += h
                dn = x.coords.copy(); dn[j] -= h
                fd[j] = (eval_many(spec, up[None])[0] - eval_many(spec, dn[None])[0]) / (2 * h)
            scale = max(np.linalg.norm(g), 1.0)
            worst = max(worst, np.linalg.norm(fd - g) / scale)
        assert worst < 1e-6, spec.kind


def test_hessians_match_finite_differences():
    rng = np.random.default_rng(12)
    for spec, space, sample in kind_fixtures(rng):
        x = sample(rng)
        H = hess_many(spec, x.coords[None])[0]
        d = H.shape[0]
        fd = np.empty((d, d))
        for j in range(d):
            h = 1e-6 * (1.0 + abs(x.coords[j]))
            up = x.coords.copy(); up[j] += h
            dn = x.coords.copy(); dn[j] -= h
            fd[:, j] = (grad_many(spec, up[None])[0] - grad_many(spec, dn[None])[0]) / (2 * h)
        assert np.max(np.abs(H - fd)) < 1e-5 * max(1.0, np.max(np.abs(H))), spec.kind


def test_coercivity_bound_on_random_samples():
    rng = np.random.default_rng(13)
    for spec, space, sample in kind_fixtures(rng):
        u_star = reference_point(spec, space)
        co = spec.coercivity
        for _ in range(1000):
            x = sample(rng)
            lower = -co.B * distance(space, x, u_star) ** 2 - co.A
            assert energy_eval(spec, x) >= lower - 1e-12


def test_coercivity_of_indefinite_quadratic():
    spec = quadratic([[-0.5]])
    co = spec.coercivity
    assert co.B > 0.0
    rng = np.random.default_rng(5)
    for _ in range(1000):
        x = point(rng.standard_normal(1) * 5.0, E1)
        assert energy_eval(spec, x) >= -co.B * distance(E1, x, reference_point(spec, E1)) ** 2 - co.A


def test_lambda_convexity_along_geodesics():
    rng = np.random.default_rng(17)
    for spec, space, sample in kind_fixtures(rng):
        if spec.lam is None:
            continue
        for _ in range(50):
            a, b = sample(rng), sample(rng)
            d2 = distance(space, a, b) ** 2
            pa, pb = energy_eval(spec, a), energy_eval(spec, b)
            for th in (0.25, 0.5, 0.75):
                g = geodesic_point(space, a, b, th)
                bound = (1 - th) * pa + th * pb - 0.5 * spec.lam * th * (1 - th) * d2
                assert energy_eval(spec, g) <= bound + 1e-10


def test_yosida_quadratic_closed_form():
    # resolvent of a u^2/2: value a x^2 / (2 (1 + a t))
    spec = quadratic([[1.0]])
    val, arg = yosida(spec, E1, point([2.0], E1), 0.5)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert arg.coords[0] == pytest.approx(2.0 / 1.5, abs=1e-7)
    # grid-search oracle
    ys = np.linspace(-1.0, 3.0, 400001)
    brute = np.min((ys - 2.0) ** 2 / (2 * 0.5) + ys**2 / 2.0)
    assert val == pytest.approx(brute, abs=1e-8)


def test_yosida_below_phi_and_monotone_in_t():
    dw = double_well()
    x = point([0.3], E1)
    phi = energy_eval(dw, x)
    prev = -np.inf
    for k in range(9):  # t = 0.1 * 2^-k decreasing, values climb toward phi
        t = 0.1 * 2.0**-k
        val, _ = yosida(dw, E1, x, t)
        assert val <= phi + 1e-12
        assert val >= prev - 1e-12
        ys = np.linspace(-2.0, 2.0, 200001)
        brute = np.min((ys - 0.3) ** 2 / (2 * t) + (ys**2 - 1) ** 2 / 4.0)
        assert val == pytest.approx(brute, abs=1e-7)
        prev = val


def test_yosida_lower_bound_from_coercivity():
    spec = quadratic([[-0.5]])
    co = spec.coercivity
    x = point([1.3], E1)
    t = 0.4 / co.B / 2.0  # 1/(2t) >= B
    val, _ = yosida(spec, E1, x, t)
    assert val >= -q_value(spec, E1, x) - 1e-10


def test_yosida_rejects_noncoercive_inner_problem():
    spec = quadratic([[-0.5]])
    yosida(spec, E1, point([0.4], E1), 1.0)  # 1/t + lam > 0: fine
    with pytest.raises(InvalidInputError):
        yosida(spec, E1, point([0.4], E1), 2.5)  # unbounded below


def test_yosida_multidimensional_newton():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    spec = quadratic(A)
    s2 = SpaceSpec.euclidean(2)
    x = point([1.0, -2.0], s2)
    t = 0.7
    val, arg = yosida(spec, s2, x, t)
    # closed form: argmin solves (I/t + A) y = x/t
    y = np.linalg.solve(np.eye(2) / t + A, x.coords / t)
    assert np.allclose(arg.coords, y, atol=1e-9)
    assert val == pytest.approx(np.sum((y - x.coords) ** 2) / (2 * t) + 0.5 * y @ A @ y, abs=1e-10)


def array_yosida_1d(spec, x, t):
    """The 1-D proximal step on numpy values: the Newton branch on (1, 1)
    arrays through the row kernels and np.linalg.solve, the bracket branch
    on numpy scalars, one eval_many call per point."""
    lam = spec.lam
    if lam is not None and (lam >= 0.0 or 2.0 * t * abs(lam) < 0.9):
        w, xc = np.ones(1), np.array([x])
        obj = lambda z: float(np.sum(w * (z - xc) ** 2)) / (2.0 * t) + float(
            eval_many(spec, z[None, :])[0])
        grad_at = lambda z: w * (z - xc) / t + grad_many(spec, z[None, :])[0]
        sup_norm = lambda g: float(np.max(np.abs(g)))
        shift = np.diag(w / t)

        def direction(y, g):
            H = hess_many(spec, y[None])[0] + shift
            step = levenberg(lambda rho: np.linalg.solve(H + rho * shift, -g), g, -g * t / w)
            return step, float(step @ g)

        gtol = 1e-12 * (1.0 + abs(obj(xc))) * (1.0 + 1.0 / t)
        y, f, _, _, _ = damped_newton(xc.copy(), obj, grad_at, sup_norm,
                                      lambda g: sup_norm(g) <= gtol, direction, 200)
        return f, y[0]
    obj = lambda y: (y - x) ** 2 / (2.0 * t) + float(eval_many(spec, np.array([[y]]))[0])
    span = 2.0 * (1.0 + abs(x)) * max(1.0, math.sqrt(t))
    grid = np.linspace(x - span, x + span, 257)
    j = int(np.argmin(np.array([obj(y) for y in grid])))
    y = golden_section(obj, grid[max(j - 1, 0)], grid[min(j + 1, 256)], 0.0, 90)
    return obj(y), y


PROX_CASES = [
    # double well (lambda = -1): Newton below t = 0.45, the bracket from there
    *[(double_well(), t) for t in (4e-5, 0.01, 0.3, 0.45, 0.8, 3.0)],
    *[(convex_quartic(), t) for t in (1e-3, 0.5)],
    # lambda = -1.5: Newton below t = 0.3, the bracket up to 1/|lambda|
    *[(quadratic([[-1.5]], [0.25]), t) for t in (0.1, 0.4)],
    # no modulus: always the bracket
    (discrete_dirichlet(p=4.5, h=0.3, reaction=(0.5, -1.0, 0.25)), 0.05),
]


@pytest.mark.parametrize("spec, t", PROX_CASES,
                         ids=[f"{spec.kind}-t{t}" for spec, t in PROX_CASES])
def test_yosida_1d_is_bitwise_the_array_iteration(spec, t):
    for x in (-1.3, -0.2, 0.0, 0.37, 1.9):
        val, arg = yosida(spec, E1, point([x], E1), t)
        ref_val, ref_arg = array_yosida_1d(spec, x, t)
        assert type(val) is float
        assert (val, arg.coords[0]) == (ref_val, ref_arg)
        assert np.array([val, arg.coords[0]]).tobytes() == np.array([ref_val, ref_arg]).tobytes()


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_yosida_1d_overflow_gives_inf_as_numpy_does(t):
    # far out, the bracket's squares overflow: numpy scalars give inf where
    # Python's ** raises OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        val, arg = yosida(double_well(), E1, point([1e160], E1), t)
        ref_val, ref_arg = array_yosida_1d(double_well(), 1e160, t)
    assert val == ref_val == math.inf
    assert arg.coords[0] == ref_arg


def test_local_slope_analytic():
    spec = quadratic([[1.0]])
    assert local_slope(spec, E1, point([2.0], E1)).value == pytest.approx(2.0, abs=1e-14)
    dw = double_well()
    assert local_slope(dw, E1, point([1.0], E1)).value == 0.0


def numpy_scalar_slope(spec, space, x):
    """|dphi|(x) from the gradient of one point, on numpy scalars."""
    g = energy_grad(spec, x)
    if space.kind == "pnorm":
        q = space.p / (space.p - 1.0)
        return float(np.sum(np.abs(g) ** q) ** (1.0 / q))
    if space.kind == "quantile1d":
        return float(np.sqrt(space.dim * np.sum(g * g)))
    return float(np.sqrt(np.sum(g * g)))


def slope_cases():
    # no quadratic in d > 1: its gradient is a matrix product, which may
    # round differently on many rows than on one
    rng = np.random.default_rng(31)
    return [
        (double_well(), E1, rng.uniform(-3.0, 3.0, (2000, 1))),
        (discrete_dirichlet(p=2.5, h=0.2, reaction=(0.0, 0.0, 1.0)), SpaceSpec.euclidean(3),
         rng.standard_normal((2000, 3))),
        (quantile_entropy_potential(v2=1.0, v1=0.3), SpaceSpec.quantile1d(10),
         np.cumsum(rng.uniform(0.05, 0.8, (2000, 10)), axis=1) - 2.0),
        (double_well(), SpaceSpec.pnorm(3, 3.0), rng.uniform(-3.0, 3.0, (2000, 3))),
    ]


@pytest.mark.parametrize("spec, space, U", slope_cases(),
                         ids=["euclidean1", "euclidean3", "quantile10", "pnorm3"])
def test_analytic_slopes_are_bitwise_one_point_slopes(spec, space, U):
    want = np.array([numpy_scalar_slope(spec, space, Point(u, space)) for u in U])
    assert analytic_slopes(spec, space, U).tobytes() == want.tobytes()
    assert all(analytic_slope(spec, space, Point(u, space)) == w for u, w in zip(U[:50], want))


def test_local_slope_yosida_duality():
    dw = double_well()
    est = local_slope(dw, E1, point([0.5], E1), method="yosida_duality")
    assert est.value == pytest.approx(0.375, abs=1e-3)
    assert len(est.diagnostics) == 10  # nine quotients plus the extrapolate


def test_local_slope_duality_quotient_closed_form():
    # (phi - phi_t)/t = a^2 x^2 / (2 (1 + a t)) for the quadratic
    spec = quadratic([[1.0]])
    x = point([2.0], E1)
    est = local_slope(spec, E1, x, method="yosida_duality")
    for t, q in est.diagnostics:
        if t > 0.0:
            assert q == pytest.approx(4.0 / (2.0 * (1.0 + t)), abs=1e-7)
    assert est.value == pytest.approx(2.0, abs=1e-4)


def test_local_slope_lambda_representation():
    dw = double_well()
    x = point([0.5], E1)
    analytic = local_slope(dw, E1, x).value
    est = local_slope(dw, E1, x, method="lambda_representation")
    assert est.value >= analytic - 1e-3
    assert est.value <= analytic + 5e-2
    # quotients at shrinking radii approach the analytic slope
    assert abs(est.diagnostics[-1][1] - analytic) < 1e-3


def test_energy_json_roundtrip():
    rng = np.random.default_rng(23)
    for spec, _, _ in kind_fixtures(rng):
        back = type(spec).from_json(spec.to_json())
        assert back.kind == spec.kind
        assert back.lam == pytest.approx(spec.lam)
        x = np.abs(rng.standard_normal(3)) if spec.kind == "quadratic" else None
        if x is not None:
            assert eval_many(back, x[None])[0] == pytest.approx(eval_many(spec, x[None])[0])


def test_dimension_mismatch_raises():
    spec = quadratic(np.eye(2))
    with pytest.raises(InvalidInputError):
        energy_eval(spec, point([1.0], E1))


def hess_fixtures():
    """(spec, U) with n > 1 rows per built-in kind and d in (1, 3), plus a
    16-quantile batch; quantile rows are increasing."""
    rng = np.random.default_rng(31)
    cases = []
    for d in (1, 3):
        A = rng.standard_normal((d, d))
        cases += [
            (quadratic((A + A.T) / 2.0 + 3.0 * np.eye(d), rng.standard_normal(d)),
             rng.standard_normal((7, d))),
            (convex_quartic(), rng.standard_normal((7, d))),
            (double_well(), rng.standard_normal((7, d))),
            (discrete_dirichlet(p=2.5, h=0.2, reaction=(0.0, 0.0, 1.0)),
             rng.standard_normal((7, d))),
        ]
    for d in (1, 3, 16):
        cases.append((quantile_entropy_potential(v2=1.0, v1=0.3),
                      np.cumsum(rng.uniform(0.05, 0.8, (7, d)), axis=1) - 2.0))
    return cases


HESS_IDS = [f"{spec.kind}-d{U.shape[1]}" for spec, U in hess_fixtures()]


@pytest.mark.parametrize("spec, U", hess_fixtures(), ids=HESS_IDS)
def test_hess_many_rows_are_one_point_hessians(spec, U):
    H = hess_many(spec, U)
    assert H.shape == (U.shape[0], U.shape[1], U.shape[1])
    for k in range(U.shape[0]):
        assert np.array_equal(H[k], hess_many(spec, U[k:k + 1])[0])


@pytest.mark.parametrize("spec, U", hess_fixtures(), ids=HESS_IDS)
def test_hess_many_matches_central_differences(spec, U):
    H = hess_many(spec, U)
    n, d = U.shape
    fd = np.empty((n, d, d))
    for j in range(d):
        h = 1e-6 * (1.0 + np.abs(U[:, j:j + 1]))
        up, dn = U.copy(), U.copy()
        up[:, j:j + 1] += h
        dn[:, j:j + 1] -= h
        fd[:, :, j] = (grad_many(spec, up) - grad_many(spec, dn)) / (2 * h)
    assert np.max(np.abs(H - fd)) < 1e-5 * max(1.0, np.max(np.abs(H))), spec.kind


@pytest.mark.parametrize("row", [0, 3, 6])
def test_hess_many_rejects_any_nonmonotone_quantile_row(row):
    U = np.tile(np.linspace(-1.0, 1.0, 16), (7, 1))
    U[row, [4, 5]] = U[row, [5, 4]]
    with pytest.raises(DomainError):
        hess_many(quantile_entropy_potential(), U)


def test_hess_many_quadratic_is_a_writable_copy():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = quadratic(A)
    H = hess_many(spec, np.zeros((3, 2)))
    H *= 10.0
    H[:, 0, 0] += 1.0
    assert np.array_equal(spec.params["A"], A)
    assert np.array_equal(hess_many(spec, np.zeros((1, 2)))[0], A)
