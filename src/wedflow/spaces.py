"""Finite-dimensional metric state spaces.

Three space kinds are supported: Euclidean R^n, R^n with an l^p norm
(1 < p < infinity), and the set of one-dimensional probability measures
represented by m quantile values sampled at the midpoints s_j = (j - 1/2)/m.
In quantile coordinates the 2-Wasserstein distance is the L^2([0,1]) distance
of quantile functions, so all three kinds reduce to weighted vector norms and
share straight-line constant-speed geodesics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

EUCLIDEAN = "euclidean"
PNORM = "pnorm"
QUANTILE1D = "quantile1d"


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a metric state space.

    ``dim`` is the length of coordinate vectors; for ``quantile1d`` it is the
    number of quantile nodes m.  ``p`` is only meaningful for ``pnorm``.
    """

    kind: str
    dim: int
    p: float | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, PNORM, QUANTILE1D):
            raise InvalidInputError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidInputError("space dimension must be >= 1")
        if self.kind == PNORM:
            if self.p is None or not (1.0 < self.p < np.inf):
                raise InvalidInputError("pnorm requires 1 < p < inf")
        elif self.p is not None:
            raise InvalidInputError("p is only valid for pnorm spaces")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def euclidean(dim: int) -> "SpaceSpec":
        return SpaceSpec(EUCLIDEAN, dim)

    @staticmethod
    def pnorm(dim: int, p: float) -> "SpaceSpec":
        return SpaceSpec(PNORM, dim, float(p))

    @staticmethod
    def quantile1d(m: int) -> "SpaceSpec":
        return SpaceSpec(QUANTILE1D, m)

    # -- geometry ----------------------------------------------------------

    @property
    def metric_weights(self) -> np.ndarray:
        """Diagonal of the metric tensor in coordinates.

        Uniform weights 1/m for quantile vectors make the coordinate l^2
        norm coincide with the L^2([0,1]) (= W_2) distance.  For pnorm the
        distance is not induced by an inner product; the weights are still
        used by solvers as the kinetic quadratic form (only p = 2 is accepted
        there).
        """
        if self.kind == QUANTILE1D:
            return np.full(self.dim, 1.0 / self.dim)
        return np.ones(self.dim)

    @property
    def quantile_nodes(self) -> np.ndarray:
        """Midpoint nodes s_j = (j - 1/2)/m of the quantile grid."""
        if self.kind != QUANTILE1D:
            raise InvalidInputError("quantile_nodes only defined for quantile1d")
        return (np.arange(self.dim) + 0.5) / self.dim

    def to_json(self) -> dict:
        if self.kind == QUANTILE1D:
            return {"kind": QUANTILE1D, "m": self.dim}
        if self.kind == PNORM:
            return {"kind": PNORM, "dim": self.dim, "p": self.p}
        return {"kind": EUCLIDEAN, "dim": self.dim}

    @staticmethod
    def from_json(obj: dict) -> "SpaceSpec":
        kind = obj.get("kind")
        if kind == QUANTILE1D:
            return SpaceSpec.quantile1d(int(obj["m"]))
        if kind == PNORM:
            return SpaceSpec.pnorm(int(obj["dim"]), float(obj["p"]))
        if kind == EUCLIDEAN:
            return SpaceSpec.euclidean(int(obj["dim"]))
        raise InvalidInputError(f"unknown space kind in config: {kind!r}")


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
        if self.space.kind == QUANTILE1D and not np.all(np.diff(coords) > 0.0):
            # strictly increasing, zero tolerance: reject rather than project
            raise InvalidInputError("quantile points must be strictly increasing")

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.space == other.space
            and np.array_equal(self.coords, other.coords)
        )


def point(coords, space: SpaceSpec) -> Point:
    """Build a Point from any array-like, validating against the space."""
    return Point(np.asarray(coords, dtype=float), space)


def _check_same_space(a: Point, b: Point):
    if a.space != b.space:
        raise InvalidInputError("points live in different spaces")


def distance(space: SpaceSpec, a: Point, b: Point) -> float:
    """Metric distance d(a, b); W_2 for quantile vectors (``row_distances``
    on one row)."""
    _check_same_space(a, b)
    if a.space != space:
        raise InvalidInputError("points do not belong to the given space")
    return float(row_distances(space, a.coords[None], b.coords[None])[0])


def row_distances(space: SpaceSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The distances of the rows of A and B, pair by pair.  Each is bitwise
    the distance of its pair on numpy scalars: float_power takes the p-norm
    root with the libm pow of numpy's scalar ``**``."""
    diff = A - B
    if space.kind == PNORM:
        return np.float_power(np.sum(np.abs(diff) ** space.p, axis=1), 1.0 / space.p)
    if space.kind == QUANTILE1D:
        return np.sqrt(np.sum(diff * diff, axis=1) / space.dim)
    return np.sqrt(np.sum(diff * diff, axis=1))


def geodesic_point(space: SpaceSpec, a: Point, b: Point, theta: float) -> Point:
    """Point at parameter theta on the constant-speed segment from a to b.

    Straight segments are geodesics for every supported kind (norms, and
    displacement interpolation in quantile coordinates).  Endpoints are
    returned exactly.
    """
    _check_same_space(a, b)
    if not 0.0 <= theta <= 1.0:
        raise InvalidInputError(f"theta={theta} outside [0, 1]")
    if theta == 0.0:
        return Point(a.coords.copy(), space)
    if theta == 1.0:
        return Point(b.coords.copy(), space)
    return Point((1.0 - theta) * a.coords + theta * b.coords, space)


# -- standard normal quantile -------------------------------------------------

# Acklam's rational approximation of the inverse normal CDF.  Relative error
# below 1.2e-9 over (0, 1), which is finer than every tolerance used here.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_quantile(p):
    """Standard normal quantile function, vectorized over p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InvalidInputError("normal_quantile needs 0 < p < 1")
    x = np.empty_like(p)
    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num * q / den
    for sel, tail in ((lo, p[lo]), (hi, 1.0 - p[hi])):
        if not np.any(sel):
            continue
        q = np.sqrt(-2.0 * np.log(tail))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        x[sel] = num / den
    x[hi] = -x[hi]
    return x if x.ndim else float(x)


def gaussian_quantiles(space: SpaceSpec, mean: float = 0.0, std: float = 1.0) -> Point:
    """Quantile vector of N(mean, std^2) at the space's midpoint nodes."""
    if space.kind != QUANTILE1D:
        raise InvalidInputError("gaussian_quantiles needs a quantile1d space")
    return Point(mean + std * normal_quantile(space.quantile_nodes), space)
