import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedflow import (
    InvalidInputError, Point, SpaceSpec, distance, gaussian_quantiles, normal_quantile, point,
)
from wedflow.cli import _space
from wedflow.spaces import admissible, row_distances

SPACES = [
    SpaceSpec.euclidean(3),
    SpaceSpec.quantile1d(8),
]


def random_point(space, rng):
    if space.kind == "quantile1d":
        return Point(np.sort(rng.standard_normal(space.dim)) + np.arange(space.dim) * 1e-3, space)
    return Point(rng.standard_normal(space.dim), space)


def test_pythagorean():
    s = SpaceSpec.euclidean(2)
    assert distance(point([0, 0], s), point([3, 4], s)) == pytest.approx(5.0, abs=1e-15)


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(0)
    for space in SPACES:
        a = random_point(space, rng)
        assert distance(a, a) == 0.0
        b = random_point(space, rng)
        assert distance(a, b) > 0.0


def test_wasserstein_distance_of_translated_gaussians():
    # W2 between N(0,1) and N(1,1) is the mean shift; in quantile coordinates
    # the translated vector gives it exactly at any resolution
    s = SpaceSpec.quantile1d(64)
    a = gaussian_quantiles(s, 0.0, 1.0)
    b = gaussian_quantiles(s, 1.0, 1.0)
    assert distance(a, b) == pytest.approx(1.0, abs=1e-3)


def test_wasserstein_gaussian_scale_against_quadrature():
    # brute-force quantile quadrature of W2^2 between N(0,1) and N(0,4)
    m = 64
    s = SpaceSpec.quantile1d(m)
    a = gaussian_quantiles(s, 0.0, 1.0)
    b = gaussian_quantiles(s, 0.0, 2.0)
    grid = (np.arange(m) + 0.5) / m
    brute = np.sqrt(np.mean((2.0 * normal_quantile(grid) - normal_quantile(grid)) ** 2))
    assert distance(a, b) == pytest.approx(brute, rel=1e-12)
    assert distance(a, b) == pytest.approx(1.0, abs=2e-2)  # exact value as m -> inf


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for space in SPACES:
        for _ in range(1000):
            a, b, c = (random_point(space, rng) for _ in range(3))
            dab = distance(a, b)
            assert dab == distance(b, a)
            dac, dcb = distance(a, c), distance(c, b)
            assert dab <= (dac + dcb) * (1.0 + 1e-12)


@pytest.mark.parametrize("space", SPACES + [
    SpaceSpec.euclidean(1), SpaceSpec.quantile1d(16), SpaceSpec.euclidean(17),
], ids=lambda s: f"{s.kind}{s.dim}")
def test_row_distances_are_bitwise_distance(space):
    rng = np.random.default_rng(13)
    pts = [random_point(space, rng) for _ in range(200)]
    A = np.array([p.coords for p in pts[:-1]])
    B = np.array([p.coords for p in pts[1:]])
    want = [distance(a, b) for a, b in zip(pts[:-1], pts[1:])]
    assert row_distances(space, A, B).tobytes() == np.array(want).tobytes()


def numpy_scalar_distance(space, a, b):
    """d(a, b) of one pair on numpy scalars."""
    diff = a.coords - b.coords
    if space.kind == "quantile1d":
        return float(np.sqrt(np.sum(diff * diff) / space.dim))
    return float(np.sqrt(np.sum(diff * diff)))


@pytest.mark.parametrize("space", SPACES + [
    SpaceSpec.euclidean(1), SpaceSpec.quantile1d(10),
], ids=lambda s: f"{s.kind}{s.dim}")
def test_distance_is_bitwise_the_numpy_scalar_formula(space):
    rng = np.random.default_rng(17)
    pts = [random_point(space, rng) for _ in range(2001)]
    for a, b in zip(pts[:-1], pts[1:]):
        assert distance(a, b) == numpy_scalar_distance(space, a, b)


def test_geodesic_constant_speed():
    # the segment g(t) = a + t (b - a) is a constant-speed geodesic:
    # d(g(s), g(t)) = |t - s| d(a, b) on an exhaustive parameter grid
    rng = np.random.default_rng(2)
    thetas = np.linspace(0.0, 1.0, 11)
    for space in SPACES:
        a, b = random_point(space, rng), random_point(space, rng)
        dab = distance(a, b)
        for s in thetas:
            for t in thetas:
                gs = Point(a.coords + s * (b.coords - a.coords), space)
                gt = Point(a.coords + t * (b.coords - a.coords), space)
                assert distance(gs, gt) == pytest.approx(abs(t - s) * dab, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_geodesic_preserves_quantile_monotonicity(theta):
    s = SpaceSpec.quantile1d(16)
    rng = np.random.default_rng(3)
    a = Point(np.cumsum(rng.uniform(0.05, 1.0, 16)), s)
    b = Point(np.cumsum(rng.uniform(0.05, 1.0, 16)) - 4.0, s)
    g = a.coords + theta * (b.coords - a.coords)  # the segment from a to b
    assert np.all(np.diff(g) > 0.0)


def test_invalid_inputs():
    s = SpaceSpec.euclidean(2)
    with pytest.raises(InvalidInputError):
        point([1.0], s)
    with pytest.raises(InvalidInputError):
        Point(np.array([1.0, 0.5]), SpaceSpec.quantile1d(2))  # decreasing
    with pytest.raises(InvalidInputError, match="different spaces"):
        distance(point([0, 0], s), point([0, 0, 0], SpaceSpec.euclidean(3)))
    with pytest.raises(InvalidInputError):
        SpaceSpec("pnorm", 2)


def test_admissible_on_a_row_and_on_a_stack():
    q3 = SpaceSpec.quantile1d(3)
    rows = np.array([[-1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
    assert np.array_equal(admissible(q3, rows), [True, False, False])
    assert [bool(admissible(q3, r)) for r in rows] == [True, False, False]
    # every row of a vector space is admissible
    assert np.array_equal(admissible(SpaceSpec.euclidean(3), rows), [True] * 3)
    assert admissible(SpaceSpec.euclidean(3), rows[2]).shape == ()
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        Point(rows[1], q3)


def test_normal_quantile_accuracy():
    scipy_special = pytest.importorskip("scipy.special")
    p = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    ours = normal_quantile(p)
    ref = scipy_special.ndtri(p)
    assert np.max(np.abs(ours - ref) / (1.0 + np.abs(ref))) < 1e-14


def test_a_euclidean_solve_never_imports_statistics():
    # normal_quantile imports statistics (and with it decimal and fractions)
    # on first use only, so runs without quantile coordinates do not load it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wedflow

    code = ("import sys, wedflow as wf; e = wf.SpaceSpec.euclidean(1); "
            "s = wf.minimize_wed(wf.WedProblem(epsilon=0.05, T=1.0, N=50, space=e, "
            "energy=wf.double_well(), x_bar=wf.point([0.3], e))); "
            "wf.q_value(s.problem.energy, s.problem.x_bar); "
            "print('statistics' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(wedflow.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_space_json_roundtrip():
    # each space's config object reads back to the space
    objs = [{"kind": "euclidean", "dim": 3}, {"kind": "quantile1d", "m": 8}]
    for space, obj in zip(SPACES, objs):
        assert _space(obj) == space
