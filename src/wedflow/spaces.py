"""Finite-dimensional metric state spaces.

Two space kinds are supported: Euclidean R^n, and the set of one-dimensional
probability measures represented by m quantile values sampled at the
midpoints s_j = (j - 1/2)/m.  In quantile coordinates the 2-Wasserstein
distance is the L^2([0,1]) distance of quantile functions, so every space is
R^n with the l^2 norm weighted by one number, ``SpaceSpec.metric_weight``,
and has straight-line constant-speed geodesics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

EUCLIDEAN = "euclidean"
QUANTILE1D = "quantile1d"


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a metric state space.

    ``dim`` is the length of coordinate vectors; for ``quantile1d`` it is the
    number of quantile nodes m.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, QUANTILE1D):
            raise InvalidInputError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidInputError("space dimension must be >= 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def euclidean(dim: int) -> "SpaceSpec":
        return SpaceSpec(EUCLIDEAN, dim)

    @staticmethod
    def quantile1d(m: int) -> "SpaceSpec":
        return SpaceSpec(QUANTILE1D, m)

    # -- geometry ----------------------------------------------------------

    @property
    def metric_weight(self) -> float:
        """The one weight w of the metric tensor in coordinates: the norm of
        a displacement v is sqrt(w sum v^2), and solvers take ``w`` times
        the identity as their kinetic quadratic form.

        The weight 1/m for quantile vectors makes the coordinate l^2 norm
        coincide with the L^2([0,1]) (= W_2) distance.
        """
        return 1.0 / self.dim if self.kind == QUANTILE1D else 1.0

    @property
    def quantile_nodes(self) -> np.ndarray:
        """Midpoint nodes s_j = (j - 1/2)/m of the quantile grid."""
        if self.kind != QUANTILE1D:
            raise InvalidInputError("quantile_nodes only defined for quantile1d")
        return (np.arange(self.dim) + 0.5) / self.dim


@dataclass(frozen=True)
class Point:
    """A state vector inside a given space."""

    coords: np.ndarray
    space: SpaceSpec = field(compare=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 1 or coords.shape[0] != self.space.dim:
            raise InvalidInputError(
                f"coords length {coords.shape} does not match space dim {self.space.dim}"
            )
        if not admissible(self.space, coords):
            raise InvalidInputError("quantile points must be strictly increasing")

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.space == other.space
            and np.array_equal(self.coords, other.coords)
        )


def admissible(space: SpaceSpec, coords: np.ndarray) -> np.ndarray:
    """Whether coordinate rows lie in the space, as a boolean per row (0-d for
    one row): quantile vectors must increase strictly, with zero tolerance
    (rejected, never projected)."""
    if space.kind != QUANTILE1D:
        return np.ones(coords.shape[:-1], dtype=bool)
    return np.all(np.diff(coords) > 0.0, axis=-1)


def point(coords, space: SpaceSpec) -> Point:
    """Build a Point from any array-like, validating against the space."""
    return Point(np.asarray(coords, dtype=float), space)


def distance(a: Point, b: Point) -> float:
    """Metric distance d(a, b) in the points' space; W_2 for quantile vectors
    (``row_distances`` on one row)."""
    if a.space != b.space:
        raise InvalidInputError("points live in different spaces")
    return float(row_distances(a.space, a.coords[None], b.coords[None])[0])


def row_distances(space: SpaceSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The distances of the rows of A and B, pair by pair, each bitwise the
    distance of its pair on numpy scalars."""
    diff = A - B
    if space.kind == QUANTILE1D:
        return np.sqrt(np.sum(diff * diff, axis=1) / space.dim)
    return np.sqrt(np.sum(diff * diff, axis=1))


def probe_directions(space: SpaceSpec, at: np.ndarray) -> np.ndarray:
    """Unit-metric-length probe directions at the state ``at``, a (2k, d)
    array of plus and minus each of k directions: the coordinate axes, or, in
    quantile coordinates with d > 1, translation and dilation of ``at``."""
    d = space.dim
    if space.kind == QUANTILE1D and d > 1:
        # translation and dilation span the directions the confined flows
        # move in; coordinate probes would mostly leave the monotone cone
        V = np.stack([np.ones(d), at - float(np.mean(at))])
    else:
        V = np.eye(d)
    V = V / row_distances(space, V, 0.0)[:, None]
    return np.stack([V, -V], axis=1).reshape(-1, d)


# -- standard normal quantile -------------------------------------------------


def normal_quantile(p):
    """Standard normal quantile function, vectorized over p in (0, 1): the
    standard library's ``NormalDist().inv_cdf`` (Wichura's AS241) entry by
    entry, within a few ulp of the true quantile."""
    # imported here: statistics loads decimal and fractions, which a 1-D run,
    # never reaching this, would pay for in peak RSS (about 0.5 MiB)
    from statistics import NormalDist

    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InvalidInputError("normal_quantile needs 0 < p < 1")
    inv_cdf = NormalDist().inv_cdf
    x = np.array([inv_cdf(q) for q in p.ravel().tolist()]).reshape(p.shape)
    return x if x.ndim else float(x)


def gaussian_quantiles(space: SpaceSpec, mean: float = 0.0, std: float = 1.0) -> Point:
    """Quantile vector of N(mean, std^2) at the space's midpoint nodes."""
    if space.kind != QUANTILE1D:
        raise InvalidInputError("gaussian_quantiles needs a quantile1d space")
    return Point(mean + std * normal_quantile(space.quantile_nodes), space)
