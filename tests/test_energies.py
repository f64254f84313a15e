import math

import numpy as np
import pytest

from wedflow import (
    DomainError, InvalidInputError, Point, SpaceSpec, convex_quartic, discrete_dirichlet,
    distance, double_well, energy_eval, gaussian_quantiles, normal_quantile, point, q_value,
    quadratic, quantile_entropy_potential,
)
from wedflow.cli import _energy
from wedflow.energies import (
    PARAMS, QUADRATIC, analytic_slope, analytic_slopes, eval_many, grad_many, hess_bands, hess_many,
    prox, reference_point,
)
from wedflow.spaces import EUCLIDEAN, QUANTILE1D, probe_directions

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
    assert grad_many(spec2, point([3.0], E1).coords[None])[0][0] == pytest.approx(5.0, abs=1e-15)


def test_double_well_values():
    dw = double_well()
    assert energy_eval(dw, point([1.0], E1)) == 0.0
    assert energy_eval(dw, point([-1.0], E1)) == 0.0
    assert energy_eval(dw, point([0.0], E1)) == pytest.approx(0.25, abs=1e-15)
    assert grad_many(dw, point([2.0], E1).coords[None])[0][0] == pytest.approx(6.0, abs=1e-14)


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
            g = grad_many(spec, x.coords[None])[0]
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
            lower = -co.B * distance(x, u_star) ** 2 - co.A
            assert energy_eval(spec, x) >= lower - 1e-12


def test_coercivity_of_indefinite_quadratic():
    spec = quadratic([[-0.5]])
    co = spec.coercivity
    assert co.B > 0.0
    rng = np.random.default_rng(5)
    for _ in range(1000):
        x = point(rng.standard_normal(1) * 5.0, E1)
        assert energy_eval(spec, x) >= -co.B * distance(x, reference_point(spec, E1)) ** 2 - co.A


def test_lambda_convexity_along_geodesics():
    rng = np.random.default_rng(17)
    for spec, space, sample in kind_fixtures(rng):
        if spec.lam is None:
            continue
        for _ in range(50):
            a, b = sample(rng), sample(rng)
            d2 = distance(a, b) ** 2
            pa, pb = energy_eval(spec, a), energy_eval(spec, b)
            for th in (0.25, 0.5, 0.75):
                g = Point(a.coords + th * (b.coords - a.coords), space)  # the segment
                bound = (1 - th) * pa + th * pb - 0.5 * spec.lam * th * (1 - th) * d2
                assert energy_eval(spec, g) <= bound + 1e-10


def test_yosida_quadratic_closed_form():
    # resolvent of a u^2/2: value a x^2 / (2 (1 + a t))
    spec = quadratic([[1.0]])
    (val,), (arg,) = prox(spec, E1, point([2.0], E1).coords[None], 0.5)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert arg[0] == pytest.approx(2.0 / 1.5, abs=1e-7)
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
        (val,), _ = prox(dw, E1, x.coords[None], t)
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
    (val,), _ = prox(spec, E1, x.coords[None], t)
    assert val >= -q_value(spec, x) - 1e-10


def test_yosida_rejects_noncoercive_inner_problem():
    spec = quadratic([[-0.5]])
    prox(spec, E1, point([0.4], E1).coords[None], 1.0)  # 1/t + lam > 0: fine
    with pytest.raises(InvalidInputError):
        prox(spec, E1, point([0.4], E1).coords[None], 2.5)  # unbounded below


def test_yosida_multidimensional_newton():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    spec = quadratic(A)
    s2 = SpaceSpec.euclidean(2)
    x = point([1.0, -2.0], s2)
    t = 0.7
    (val,), (arg,) = prox(spec, s2, x.coords[None], t)
    # closed form: argmin solves (I/t + A) y = x/t
    y = np.linalg.solve(np.eye(2) / t + A, x.coords / t)
    assert np.allclose(arg, y, atol=1e-9)
    assert val == pytest.approx(np.sum((y - x.coords) ** 2) / (2 * t) + 0.5 * y @ A @ y, abs=1e-10)


PROX_CASES = [
    # double well (lambda = -1): Newton from x below t = 0.45, from the scan
    # from there
    *[(double_well(), t) for t in (4e-5, 0.01, 0.3, 0.45, 0.8, 3.0)],
    *[(convex_quartic(), t) for t in (1e-3, 0.5)],
    # lambda = -1.5: Newton from x below t = 0.3, from the scan up to 1/|lambda|
    *[(quadratic([[-1.5]], [0.25]), t) for t in (0.1, 0.4)],
    # no modulus: always from the scan
    (discrete_dirichlet(p=4.5, h=0.3, reaction=(0.5, -1.0, 0.25)), 0.05),
]
PROX_IDS = [f"{spec.kind}-t{t}" for spec, t in PROX_CASES]
PROX_XS = (-1.3, -0.2, 0.0, 0.37, 1.9)


def best_scan_value(spec, x, t):
    """The least inner objective over the 257 scanned points around x."""
    span = 2.0 * (1.0 + abs(x)) * max(1.0, math.sqrt(t))
    ys = np.linspace(x - span, x + span, 257)
    return float(np.min((ys - x) ** 2 / (2.0 * t) + eval_many(spec, ys[:, None])))


@pytest.mark.parametrize("spec, t", PROX_CASES, ids=PROX_IDS)
def test_stacked_prox_rows_meet_their_stop_tests(spec, t):
    X = np.array(PROX_XS)[:, None]
    values, Y = prox(spec, E1, X, t)
    for k, x in enumerate(PROX_XS):
        y = Y[k:k + 1]
        grad = (y[0] - x) / t + grad_many(spec, y)[0]
        gtol = 1e-12 * (1.0 + abs(eval_many(spec, X[k:k + 1])[0])) * (1.0 + 1.0 / t)
        assert np.max(np.abs(grad)) <= gtol
        assert values[k] == (y[0, 0] - x) ** 2 / (2.0 * t) + eval_many(spec, y)[0]


@pytest.mark.parametrize("spec, t", PROX_CASES, ids=PROX_IDS)
def test_stacked_prox_rows_are_one_row_calls(spec, t):
    values, Y = prox(spec, E1, np.array(PROX_XS)[:, None], t)
    for k, x in enumerate(PROX_XS):
        value, y = prox(spec, E1, np.array([[x]]), t)
        assert abs(values[k] - value[0]) <= 1e-14 * abs(value[0])
        assert values[k] <= best_scan_value(spec, x, t)


def test_prox_takes_one_time_per_row():
    # the Yosida quadrature's shape: one state, times from the Newton into
    # the scan regime of the double well
    ts = np.geomspace(1e-5, 3.0, 40)
    values, Y = prox(double_well(), E1, np.full((40, 1), 0.3), ts)
    for k, t in enumerate(ts.tolist()):
        value, y = prox(double_well(), E1, np.array([[0.3]]), t)
        assert abs(values[k] - value[0]) <= 1e-14 * abs(value[0])
        assert values[k] <= best_scan_value(double_well(), 0.3, t)


def test_prox_needs_a_stack_of_rows():
    with pytest.raises(InvalidInputError, match="stack"):
        prox(double_well(), E1, np.array([0.3]), 0.1)


@pytest.mark.parametrize("x", [2.0, 1.0, 0.5])
def test_yosida_follows_a_minimizer_outside_the_scanned_window(x):
    # phi = -0.75 y^2 - 0.25 y at t = 0.6: the inner problem is convex (1/t
    # > 1.5) with its minimizer (x/t + 1/4) / (1/t - 3/2) far beyond the
    # scanned x +- 2 (1 + |x|); at x = 2 it is y = 21.5, value -35.1875
    t = 0.6
    y = (x / t + 0.25) / (1.0 / t - 1.5)
    expected = (y - x) ** 2 / (2.0 * t) - 0.75 * y * y - 0.25 * y
    (val,), (arg,) = prox(quadratic([[-1.5]], [0.25]), E1, point([x], E1).coords[None], t)
    assert arg[0] == pytest.approx(y, rel=1e-12)
    assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_yosida_1d_overflow_gives_inf_as_numpy_does(t):
    # far out the squares overflow to inf, from x (t = 0.01) and from the
    # scan (t = 1) alike
    with np.errstate(over="ignore", invalid="ignore"):
        (val,), _ = prox(double_well(), E1, point([1e160], E1).coords[None], t)
    assert val == math.inf


def test_local_slope_analytic():
    spec = quadratic([[1.0]])
    assert analytic_slope(spec, point([2.0], E1)) == pytest.approx(2.0, abs=1e-14)
    dw = double_well()
    assert analytic_slope(dw, point([1.0], E1)) == 0.0


def numpy_scalar_slope(spec, space, x):
    """|dphi|(x) from the gradient of one point, on numpy scalars."""
    g = grad_many(spec, x.coords[None])[0]
    if space.kind == "quantile1d":
        return float(np.sqrt(space.dim * np.sum(g * g)))
    return float(np.sqrt(np.sum(g * g)))


def slope_cases():
    rng = np.random.default_rng(31)
    return [
        (double_well(), E1, rng.uniform(-3.0, 3.0, (2000, 1))),
        (discrete_dirichlet(p=2.5, h=0.2, reaction=(0.0, 0.0, 1.0)), SpaceSpec.euclidean(3),
         rng.standard_normal((2000, 3))),
        (quantile_entropy_potential(v2=1.0, v1=0.3), SpaceSpec.quantile1d(10),
         np.cumsum(rng.uniform(0.05, 0.8, (2000, 10)), axis=1) - 2.0),
        # dense quadratics: a matrix product of all rows would round some
        # rows differently than one row alone
        (quadratic([[2.0, 0.5, 0.3], [0.5, 1.5, 0.4], [0.3, 0.4, 1.0]], [0.2, -0.1, 0.3]),
         SpaceSpec.euclidean(3), rng.standard_normal((2000, 3))),
        (quadratic([[2.0, 0.7], [0.7, 1.0]], [0.3, -0.4]), SpaceSpec.euclidean(2),
         rng.standard_normal((2000, 2))),
    ]


SLOPE_IDS = ["euclidean1", "euclidean3", "quantile10", "quadratic3", "quadratic2"]


@pytest.mark.parametrize("spec, space, U", slope_cases(), ids=SLOPE_IDS)
def test_analytic_slopes_are_bitwise_one_point_slopes(spec, space, U):
    want = np.array([numpy_scalar_slope(spec, space, Point(u, space)) for u in U])
    assert analytic_slopes(spec, space, U).tobytes() == want.tobytes()
    assert all(analytic_slope(spec, Point(u, space)) == w for u, w in zip(U[:50], want))


@pytest.mark.parametrize("spec, space, U", slope_cases(), ids=SLOPE_IDS)
def test_eval_many_rows_are_one_point_values(spec, space, U):
    want = np.array([energy_eval(spec, Point(u, space)) for u in U])
    assert eval_many(spec, U).tobytes() == want.tobytes()


def yosida_duality(spec, space, x):
    """The Yosida quotients (phi(x) - phi_t(x)) / t at t = 0.1 / 2^k, k < 9,
    from one ``prox`` call, and the slope sqrt(2 L) by the duality
    |dphi|^2 / 2 = lim (phi - phi_t) / t, L their limit by one Richardson
    step on the two smallest t (the quotients are L - C t + O(t^2))."""
    ts = 0.1 * 2.0 ** -np.arange(9.0)
    q = (energy_eval(spec, x) - prox(spec, space, np.repeat(x.coords[None], 9, axis=0), ts)[0]) / ts
    return ts, q, math.sqrt(2.0 * max(2.0 * q[-1] - q[-2], 0.0))


def test_local_slope_yosida_duality():
    _, _, slope = yosida_duality(double_well(), E1, point([0.5], E1))
    assert slope == pytest.approx(0.375, abs=1e-3)


def test_local_slope_duality_quotient_closed_form():
    # (phi - phi_t)/t = a^2 x^2 / (2 (1 + a t)) for the quadratic
    ts, qs, slope = yosida_duality(quadratic([[1.0]]), E1, point([2.0], E1))
    for t, q in zip(ts, qs):
        assert q == pytest.approx(4.0 / (2.0 * (1.0 + t)), abs=1e-7)
    assert slope == pytest.approx(2.0, abs=1e-4)


def loop_lambda_representation(spec, x):
    """The lambda-representation slope sup over v of ((phi(x) - phi(v)) / d +
    lambda/2 d)^+ on the probes v = x + r e, r = 2^-k for k < 13 and e the
    ``probe_directions``, one radius at a time: (r, that radius's sup) pairs.
    Probes off the quantile cone are skipped; d is the weighted l2 norm of
    r e."""
    space = x.space
    phi_x = energy_eval(spec, x)
    diag = []
    for k in range(13):
        r, q_r = 2.0**-k, 0.0
        for e in probe_directions(space, at=x.coords):
            coords = x.coords + r * e
            if space.kind == "quantile1d" and not np.all(np.diff(coords) > 0.0):
                continue
            dv = float(np.sqrt(np.sum(space.metric_weights * (r * e) ** 2)))
            phi_v = energy_eval(spec, Point(coords, space))
            if math.isfinite(phi_v):
                q_r = max(q_r, (phi_x - phi_v) / dv + 0.5 * spec.lam * dv)
        diag.append((r, q_r))
    return diag


def test_local_slope_lambda_representation():
    dw = double_well()
    x = point([0.5], E1)
    analytic = analytic_slope(dw, x)
    diag = loop_lambda_representation(dw, x)
    est = max(q for _, q in diag)
    assert est >= analytic - 1e-3
    assert est <= analytic + 5e-2
    # quotients at shrinking radii approach the analytic slope
    assert abs(diag[-1][1] - analytic) < 1e-3


@pytest.mark.parametrize("spec, x", [
    (double_well(), point([0.3, -0.8, 1.4], SpaceSpec.euclidean(3))),
    (quantile_entropy_potential(v2=1.0, v1=0.5),
     gaussian_quantiles(SpaceSpec.quantile1d(8), 0.4, 1.7)),
], ids=["dw-3d", "q8"])
def test_lambda_representation_stays_below_slope(spec, x):
    # lambda-convexity bounds every probe quotient by the slope
    analytic = analytic_slope(spec, x)
    diag = loop_lambda_representation(spec, x)
    assert all(q <= analytic + 1e-12 for _, q in diag)
    assert max(q for _, q in diag) <= analytic + 1e-12


def config_object(spec):
    """``spec`` as the ``energy`` object of a config."""
    co = spec.coercivity
    return {"kind": spec.kind, "lambda": spec.lam,
            "params": {k: np.asarray(v).tolist() for k, v in spec.params.items()},
            "coercivity": None if co is None else {
                "A": co.A, "B": co.B, "u_star": None if co.u_star is None else co.u_star.tolist()}}


def test_energy_json_roundtrip():
    rng = np.random.default_rng(23)
    for spec, _, _ in kind_fixtures(rng):
        back = _energy(config_object(spec))
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


def central_differences(spec, U):
    """Each row's Hessian by central differences of ``grad_many``, (n, d, d)."""
    n, d = U.shape
    fd = np.empty((n, d, d))
    for j in range(d):
        h = 1e-6 * (1.0 + np.abs(U[:, j:j + 1]))
        up, dn = U.copy(), U.copy()
        up[:, j:j + 1] += h
        dn[:, j:j + 1] -= h
        fd[:, :, j] = (grad_many(spec, up) - grad_many(spec, dn)) / (2 * h)
    return fd


@pytest.mark.parametrize("spec, U", hess_fixtures(), ids=HESS_IDS)
def test_hess_many_matches_central_differences(spec, U):
    H = hess_many(spec, U)
    fd = central_differences(spec, U)
    assert np.max(np.abs(H - fd)) < 1e-5 * max(1.0, np.max(np.abs(H))), spec.kind


BAND_FIXTURES = [(spec, U) for spec, U in hess_fixtures() if spec.kind != QUADRATIC]
BAND_IDS = [f"{spec.kind}-d{U.shape[1]}" for spec, U in BAND_FIXTURES]


@pytest.mark.parametrize("spec, U", BAND_FIXTURES, ids=BAND_IDS)
def test_hess_bands_densify_to_hess_many_bitwise(spec, U):
    # the trajectory solvers read the bands and prox the dense blocks: one
    # formula per kind serves both
    diag, off = hess_bands(spec, U)
    n, d = U.shape
    assert diag.shape == (n, d) and off.shape == (n, d - 1)
    dense = np.array([np.diag(a) + np.diag(b, 1) + np.diag(b, -1) for a, b in zip(diag, off)])
    assert np.array_equal(hess_many(spec, U), dense)


@pytest.mark.parametrize("spec, U", BAND_FIXTURES, ids=BAND_IDS)
def test_hess_bands_match_central_differences(spec, U):
    # the diagonal and both off-diagonals of the difference quotients are
    # the bands, and every entry off them vanishes
    diag, off = hess_bands(spec, U)
    fd = central_differences(spec, U)
    tol = 1e-5 * max(1.0, np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0))
    assert np.max(np.abs(np.diagonal(fd, 0, 1, 2) - diag)) < tol, spec.kind
    for k in (1, -1):
        assert np.max(np.abs(np.diagonal(fd, k, 1, 2) - off), initial=0.0) < tol, spec.kind
    far = np.abs(np.subtract.outer(np.arange(U.shape[1]), np.arange(U.shape[1]))) > 1
    assert np.max(np.abs(fd[:, far]), initial=0.0) < tol, spec.kind


def test_hess_bands_of_a_quadratic_are_those_of_its_a():
    # a quadratic's Hessian is A at every row: a tridiagonal A, and every
    # 1 x 1 one, has bands; an A with an entry off them has none, and the
    # trajectory solvers take such a quadratic in A's eigenbasis instead
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.4], [0.0, 0.4, 1.0]])
    diag, off = hess_bands(quadratic(A), np.zeros((4, 3)))
    assert np.array_equal(diag, np.tile([2.0, 1.5, 1.0], (4, 1)))
    assert np.array_equal(off, np.tile([0.5, 0.4], (4, 1)))
    diag, off = hess_bands(quadratic([[3.0]]), np.zeros((2, 1)))
    assert np.array_equal(diag, [[3.0], [3.0]]) and off.shape == (2, 0)
    assert diag.flags.writeable and off.flags.writeable  # the solvers assemble in place
    A[0, 2] = A[2, 0] = 0.3
    with pytest.raises(InvalidInputError, match="not tridiagonal"):
        hess_bands(quadratic(A), np.zeros((4, 3)))


@pytest.mark.parametrize("spec, U", hess_fixtures(), ids=HESS_IDS)
def test_hess_many_blocks_are_bitwise_symmetric(spec, U):
    # the Newton step at the constant start diagonalizes one block with
    # eigh, which reads one triangle; it falls back to the block solve where
    # a block is not exactly symmetric.  The fixtures hold every kind
    assert {s.kind for s, _U in hess_fixtures()} == set(PARAMS)
    H = hess_many(spec, U)
    assert np.array_equal(H, np.swapaxes(H, 1, 2)), spec.kind


@pytest.mark.parametrize("kind", [EUCLIDEAN, QUANTILE1D])
def test_metric_weights_are_uniform_in_every_space_kind(kind):
    # the same invariant of the constant-start Newton step: each coupling of
    # its block system is then a multiple of the identity
    for dim in range(1, 33):
        w = SpaceSpec(kind, dim).metric_weights
        assert w.shape == (dim,) and np.all(w == w[0]) and w[0] > 0.0


def test_quadratic_a_is_stored_symmetric():
    # an A asymmetric at 1e-13 is accepted and stored as (A + A')/2, the
    # part phi = x'Ax/2 sees: its gradient is (A + A')x/2
    rng = np.random.default_rng(43)
    S = rng.standard_normal((4, 4))
    S = S + S.T
    A = S + 1e-13 * np.triu(np.ones((4, 4)), 1)
    assert 0.0 < np.max(np.abs(A - A.T)) <= 1e-12
    spec = quadratic(A)
    stored = spec.params["A"]
    assert np.array_equal(stored, (A + A.T) / 2.0)
    assert np.array_equal(stored, stored.T)
    X = rng.standard_normal((5, 4))
    assert np.allclose(grad_many(spec, X), X @ ((A + A.T) / 2.0).T, rtol=0.0, atol=1e-14)
    H = hess_many(spec, X)
    assert np.array_equal(H, np.swapaxes(H, 1, 2))
    # an exactly symmetric A is stored bit for bit
    assert np.array_equal(quadratic(S).params["A"], S)


def test_hess_many_is_zero_off_the_tridiagonal_band():
    # every built-in kind but the quadratic has tridiagonal Hessians, which
    # the block solver inverts by Thomas elimination
    rng = np.random.default_rng(37)
    U = rng.standard_normal((7, 8))
    cases = [
        convex_quartic(), double_well(),
        discrete_dirichlet(p=2.5, h=0.2, reaction=(0.0, 0.0, 1.0)),
        discrete_dirichlet(p=3.0, h=1.0 / 9.0, reaction=(0.0, 0.0, -0.5, 0.0, 0.25)),
    ]
    rows = [U] * len(cases) + [np.cumsum(rng.uniform(0.05, 0.8, (7, 8)), axis=1) - 2.0]
    cases.append(quantile_entropy_potential(v2=1.0, v1=0.3))
    assert {spec.kind for spec in cases} == set(PARAMS) - {QUADRATIC}
    far = np.abs(np.subtract.outer(np.arange(8), np.arange(8))) > 1
    for spec, V in zip(cases, rows):
        H = hess_many(spec, V)
        assert np.all(H[:, far] == 0.0), spec.kind


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
