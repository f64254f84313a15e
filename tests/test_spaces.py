import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedflow import (
    InvalidInputError, Point, SpaceSpec, distance, gaussian_quantiles,
    geodesic_point, normal_quantile, point,
)
from wedflow.spaces import row_distances

SPACES = [
    SpaceSpec.euclidean(3),
    SpaceSpec.pnorm(3, 3.0),
    SpaceSpec.quantile1d(8),
]


def random_point(space, rng):
    if space.kind == "quantile1d":
        return Point(np.sort(rng.standard_normal(space.dim)) + np.arange(space.dim) * 1e-3, space)
    return Point(rng.standard_normal(space.dim), space)


def test_pythagorean():
    s = SpaceSpec.euclidean(2)
    assert distance(s, point([0, 0], s), point([3, 4], s)) == pytest.approx(5.0, abs=1e-15)


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(0)
    for space in SPACES:
        a = random_point(space, rng)
        assert distance(space, a, a) == 0.0
        b = random_point(space, rng)
        assert distance(space, a, b) > 0.0


def test_wasserstein_distance_of_translated_gaussians():
    # W2 between N(0,1) and N(1,1) is the mean shift; in quantile coordinates
    # the translated vector gives it exactly at any resolution
    s = SpaceSpec.quantile1d(64)
    a = gaussian_quantiles(s, 0.0, 1.0)
    b = gaussian_quantiles(s, 1.0, 1.0)
    assert distance(s, a, b) == pytest.approx(1.0, abs=1e-3)


def test_wasserstein_gaussian_scale_against_quadrature():
    # brute-force quantile quadrature of W2^2 between N(0,1) and N(0,4)
    m = 64
    s = SpaceSpec.quantile1d(m)
    a = gaussian_quantiles(s, 0.0, 1.0)
    b = gaussian_quantiles(s, 0.0, 2.0)
    grid = (np.arange(m) + 0.5) / m
    brute = np.sqrt(np.mean((2.0 * normal_quantile(grid) - normal_quantile(grid)) ** 2))
    assert distance(s, a, b) == pytest.approx(brute, rel=1e-12)
    assert distance(s, a, b) == pytest.approx(1.0, abs=2e-2)  # exact value as m -> inf


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for space in SPACES:
        for _ in range(1000):
            a, b, c = (random_point(space, rng) for _ in range(3))
            dab = distance(space, a, b)
            assert dab == distance(space, b, a)
            dac, dcb = distance(space, a, c), distance(space, c, b)
            assert dab <= (dac + dcb) * (1.0 + 1e-12)


@pytest.mark.parametrize("space", SPACES + [
    SpaceSpec.euclidean(1), SpaceSpec.pnorm(1, 4.5), SpaceSpec.quantile1d(16),
    SpaceSpec.euclidean(17),
], ids=lambda s: f"{s.kind}{s.dim}")
def test_row_distances_are_bitwise_distance(space):
    rng = np.random.default_rng(13)
    pts = [random_point(space, rng) for _ in range(200)]
    A = np.array([p.coords for p in pts[:-1]])
    B = np.array([p.coords for p in pts[1:]])
    want = [distance(space, a, b) for a, b in zip(pts[:-1], pts[1:])]
    assert row_distances(space, A, B).tobytes() == np.array(want).tobytes()


def numpy_scalar_distance(space, a, b):
    """d(a, b) of one pair on numpy scalars."""
    diff = a.coords - b.coords
    if space.kind == "pnorm":
        return float(np.sum(np.abs(diff) ** space.p) ** (1.0 / space.p))
    if space.kind == "quantile1d":
        return float(np.sqrt(np.sum(diff * diff) / space.dim))
    return float(np.sqrt(np.sum(diff * diff)))


@pytest.mark.parametrize("space", SPACES + [
    SpaceSpec.euclidean(1), SpaceSpec.pnorm(1, 4.5), SpaceSpec.quantile1d(10),
], ids=lambda s: f"{s.kind}{s.dim}")
def test_distance_is_bitwise_the_numpy_scalar_formula(space):
    rng = np.random.default_rng(17)
    pts = [random_point(space, rng) for _ in range(2001)]
    for a, b in zip(pts[:-1], pts[1:]):
        assert distance(space, a, b) == numpy_scalar_distance(space, a, b)


def test_geodesic_endpoints_exact():
    rng = np.random.default_rng(1)
    for space in SPACES:
        a, b = random_point(space, rng), random_point(space, rng)
        assert np.array_equal(geodesic_point(space, a, b, 0.0).coords, a.coords)
        assert np.array_equal(geodesic_point(space, a, b, 1.0).coords, b.coords)


def test_geodesic_linearity_1d():
    s = SpaceSpec.euclidean(1)
    g = geodesic_point(s, point([0.0], s), point([2.0], s), 0.25)
    assert g.coords[0] == pytest.approx(0.5, abs=1e-15)


def test_geodesic_constant_speed():
    # d(g(s), g(t)) = |t - s| d(a, b) on an exhaustive parameter grid
    rng = np.random.default_rng(2)
    thetas = np.linspace(0.0, 1.0, 11)
    for space in SPACES:
        a, b = random_point(space, rng), random_point(space, rng)
        dab = distance(space, a, b)
        for s in thetas:
            for t in thetas:
                gs = geodesic_point(space, a, b, s)
                gt = geodesic_point(space, a, b, t)
                assert distance(space, gs, gt) == pytest.approx(abs(t - s) * dab, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_geodesic_preserves_quantile_monotonicity(theta):
    s = SpaceSpec.quantile1d(16)
    rng = np.random.default_rng(3)
    a = Point(np.cumsum(rng.uniform(0.05, 1.0, 16)), s)
    b = Point(np.cumsum(rng.uniform(0.05, 1.0, 16)) - 4.0, s)
    g = geodesic_point(s, a, b, theta)
    assert np.all(np.diff(g.coords) > 0.0)


def test_invalid_inputs():
    s = SpaceSpec.euclidean(2)
    with pytest.raises(InvalidInputError):
        point([1.0], s)
    with pytest.raises(InvalidInputError):
        Point(np.array([1.0, 0.5]), SpaceSpec.quantile1d(2))  # decreasing
    a, b = point([0, 0], s), point([1, 1], s)
    with pytest.raises(InvalidInputError):
        geodesic_point(s, a, b, 1.5)
    with pytest.raises(InvalidInputError):
        distance(SpaceSpec.euclidean(3), a, b)
    with pytest.raises(InvalidInputError):
        SpaceSpec.pnorm(2, 1.0)


def test_normal_quantile_accuracy():
    scipy_special = pytest.importorskip("scipy.special")
    p = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    ours = normal_quantile(p)
    ref = scipy_special.ndtri(p)
    assert np.max(np.abs(ours - ref) / (1.0 + np.abs(ref))) < 2e-9


def test_space_json_roundtrip():
    for space in SPACES:
        assert SpaceSpec.from_json(space.to_json()) == space
