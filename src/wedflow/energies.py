"""Energy functionals: evaluation, derivatives, inf-convolution, slopes.

Built-in kinds
    quadratic                 0.5 x'Ax - b'x on R^n
    convex_quartic            sum_i x_i^4 / 4
    double_well               sum_i (x_i^2 - 1)^2 / 4
    discrete_dirichlet        1-D p-Dirichlet energy with zero boundary and a
                              polynomial reaction, mesh width h
    quantile_entropy_potential  quadratic confinement plus Boltzmann entropy of
                              a 1-D measure in quantile coordinates

Values are plain floats with math.inf as the absorbing out-of-domain
sentinel (non-monotone quantile vectors).  Gradients and Hessians raise
DomainError there instead.  The ``*_many`` kernels work row-wise on (n, d)
arrays: a trajectory solver gets all Hessians of a Newton step from one
``hess_many`` call, the descent check all slopes of a curve from one
``analytic_slopes`` call.  The proximal step ``prox`` runs a one-dimensional,
non-quantile state on Python floats through ``EnergySpec.one_point``, with
the row kernels' arithmetic: the results are bitwise those of the ``*_many``
kernels on one row, without numpy's per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, InvalidInputError, NonConvergenceError, NotAvailableError
from .newton import damped_newton, golden_section, levenberg
from .spaces import PNORM, QUANTILE1D, Point, SpaceSpec, normal_quantile, probe_directions

QUADRATIC = "quadratic"
CONVEX_QUARTIC = "convex_quartic"
DOUBLE_WELL = "double_well"
DISCRETE_DIRICHLET = "discrete_dirichlet"
QUANTILE_ENTROPY = "quantile_entropy_potential"

_KINDS = (QUADRATIC, CONVEX_QUARTIC, DOUBLE_WELL, DISCRETE_DIRICHLET, QUANTILE_ENTROPY)


@dataclass(frozen=True)
class Coercivity:
    """Constants of the quadratic lower bound phi(u) >= -B d^2(u, u_star) - A.

    ``u_star`` may be left None, in which case the kind's natural reference
    point is materialized per space (see ``reference_point``).
    """

    A: float
    B: float
    u_star: np.ndarray | None = None

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise InvalidInputError("coercivity constants must be nonnegative")
        if self.u_star is not None:
            object.__setattr__(self, "u_star", np.asarray(self.u_star, dtype=float))

    def q_of(self, dist_to_star: float) -> float:
        """Q(v) = B d^2(v, u_star) + A."""
        return self.B * dist_to_star**2 + self.A


@dataclass(frozen=True)
class EnergySpec:
    kind: str
    params: dict = field(default_factory=dict)
    lam: float | None = None
    coercivity: Coercivity | None = None
    # (phi, dphi, ddphi) of the coordinate of a one-dimensional state, as
    # Python floats (see the one-point kernels below)
    one_point: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown energy kind {self.kind!r}")
        if self.kind == QUADRATIC:
            A = np.atleast_2d(np.asarray(self.params["A"], dtype=float))
            b = np.atleast_1d(np.asarray(self.params.get("b", np.zeros(A.shape[0])), dtype=float))
            if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
                raise InvalidInputError("quadratic needs square A and matching b")
            if np.max(np.abs(A - A.T)) > 1e-12:
                raise InvalidInputError("quadratic A must be symmetric (1e-12)")
            object.__setattr__(self, "params", {"A": A, "b": b})
        elif self.kind == DISCRETE_DIRICHLET:
            p = float(self.params.get("p", 2.0))
            h = float(self.params.get("h", 1.0))
            if p < 2.0 or h <= 0.0:
                raise InvalidInputError("discrete_dirichlet needs p >= 2 and h > 0")
            reac = np.asarray(self.params.get("reaction", [0.0]), dtype=float)
            object.__setattr__(self, "params", {"p": p, "h": h, "reaction": reac})
        elif self.kind == QUANTILE_ENTROPY:
            v2 = float(self.params.get("v2", 1.0))
            v1 = float(self.params.get("v1", 0.0))
            object.__setattr__(self, "params", {"v2": v2, "v1": v1})
        if self.lam is None:
            object.__setattr__(self, "lam", _default_lambda(self))
        if self.coercivity is None:
            object.__setattr__(self, "coercivity", _default_coercivity(self))
        object.__setattr__(self, "one_point", _one_point(self))

    def key(self) -> tuple:
        """Stable hashable identity, used by the value-function cache."""
        items = []
        for k in sorted(self.params):
            v = self.params[k]
            items.append((k, v.tobytes() if isinstance(v, np.ndarray) else v))
        return (self.kind, tuple(items), self.lam)

    def to_json(self) -> dict:
        params = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.params.items()
        }
        co = self.coercivity
        u_star = None if co is None or co.u_star is None else co.u_star.tolist()
        codict = None if co is None else {"A": co.A, "B": co.B, "u_star": u_star}
        return {"kind": self.kind, "params": params, "lambda": self.lam, "coercivity": codict}

    @staticmethod
    def from_json(obj: dict) -> "EnergySpec":
        co = obj.get("coercivity")
        coercivity = None
        if co is not None:
            u_star = None if co.get("u_star") is None else np.asarray(co["u_star"], dtype=float)
            coercivity = Coercivity(float(co["A"]), float(co["B"]), u_star)
        return EnergySpec(
            kind=obj["kind"],
            params=dict(obj.get("params", {})),
            lam=obj.get("lambda"),
            coercivity=coercivity,
        )


def quadratic(A, b=None, lam=None) -> EnergySpec:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.zeros(A.shape[0]) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    return EnergySpec(QUADRATIC, {"A": A, "b": b}, lam=lam)


def convex_quartic() -> EnergySpec:
    return EnergySpec(CONVEX_QUARTIC)


def double_well() -> EnergySpec:
    return EnergySpec(DOUBLE_WELL)


def discrete_dirichlet(p=2.0, h=1.0, reaction=(0.0,)) -> EnergySpec:
    return EnergySpec(DISCRETE_DIRICHLET, {"p": p, "h": h, "reaction": np.asarray(reaction, float)})


def quantile_entropy_potential(v2=1.0, v1=0.0) -> EnergySpec:
    return EnergySpec(QUANTILE_ENTROPY, {"v2": v2, "v1": v1})


def _default_lambda(spec: EnergySpec):
    # desk-scale fixtures have known geodesic-convexity moduli
    if spec.kind == QUADRATIC:
        return float(np.min(np.linalg.eigvalsh(spec.params["A"])))
    if spec.kind == CONVEX_QUARTIC:
        return 0.0
    if spec.kind == DOUBLE_WELL:
        return -1.0
    if spec.kind == QUANTILE_ENTROPY:
        return spec.params["v2"]
    return None


def _default_coercivity(spec: EnergySpec) -> Coercivity | None:
    if spec.kind == QUADRATIC:
        A, b = spec.params["A"], spec.params["b"]
        lmin = float(np.min(np.linalg.eigvalsh(A)))
        if lmin > 1e-12:
            u_star = np.linalg.solve(A, b)
            # min phi = -b'A^{-1}b/2, attained at u_star
            return Coercivity(max(0.0, 0.5 * float(b @ u_star)), 0.0, u_star)
        if np.all(b == 0.0) and lmin >= 0.0:
            return Coercivity(0.0, 0.0, np.zeros(A.shape[0]))
        # phi >= 0.5*lmin|x|^2 - |b||x| >= -(1 - lmin)/2 |x|^2 - |b|^2/2,
        # doubled to the two-point constant B of Q(v) = B d^2(v,u*) + A
        return Coercivity(0.5 * float(b @ b), 1.0 - min(lmin, 0.0), np.zeros(A.shape[0]))
    if spec.kind in (CONVEX_QUARTIC, DOUBLE_WELL):
        return Coercivity(0.0, 0.0)
    if spec.kind == QUANTILE_ENTROPY:
        v2, v1 = spec.params["v2"], spec.params["v1"]
        if v2 > 0.0:
            return Coercivity(1.0 + (abs(v1) + 64.0) ** 2 / v2, 0.0)
        return None
    if spec.kind == DISCRETE_DIRICHLET:
        # valid when the reaction is bounded below by 0; otherwise supply constants
        return Coercivity(0.0, 0.0)
    return None


def reference_point(spec: EnergySpec, space: SpaceSpec) -> Point:
    """Materialize the coercivity reference point u_star inside a space."""
    co = spec.coercivity
    if co is not None and co.u_star is not None and co.u_star.shape[0] == space.dim:
        return Point(co.u_star, space)
    if space.kind == QUANTILE1D:
        if spec.kind == QUANTILE_ENTROPY and spec.params["v2"] > 0.0:
            v2, v1 = spec.params["v2"], spec.params["v1"]
            mean, std = -v1 / v2, 1.0 / math.sqrt(v2)
        else:
            mean, std = 0.0, 1.0
        return Point(mean + std * normal_quantile(space.quantile_nodes), space)
    return Point(np.zeros(space.dim), space)


def q_value(spec: EnergySpec, space: SpaceSpec, x: Point) -> float:
    """Q(x) = B d^2(x, u_star) + A from the stored coercivity constants."""
    from .spaces import distance

    co = spec.coercivity
    if co is None:
        raise InvalidInputError("energy provides no coercivity constants")
    if co.B == 0.0:
        return co.A
    return co.q_of(distance(space, x, reference_point(spec, space)))


# -- evaluation ---------------------------------------------------------------


def _poly(c, u):
    out = np.zeros_like(u)
    for ck in c[::-1]:
        out = out * u + ck
    return out


def _poly_d(c):
    return np.array([k * c[k] for k in range(1, len(c))]) if len(c) > 1 else np.zeros(1)


def _quadratic_params(spec: EnergySpec, U: np.ndarray):
    A, b = spec.params["A"], spec.params["b"]
    if U.shape[1] != A.shape[0]:
        raise InvalidInputError("dimension mismatch with quadratic energy", "energy")
    return A, b


def energy_eval(spec: EnergySpec, x: Point) -> float:
    """phi(x); math.inf for out-of-domain points.  ``eval_many`` on one row."""
    return float(eval_many(spec, x.coords[None, :])[0])


def eval_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    """phi row-wise on an (n, d) array of coordinate vectors."""
    U = np.atleast_2d(U)
    k = spec.kind
    if k == QUADRATIC:
        A, b = _quadratic_params(spec, U)
        return 0.5 * np.einsum("ni,ij,nj->n", U, A, U) - U @ b
    if k == CONVEX_QUARTIC:
        S = U * U
        return np.sum(S * S, axis=1) / 4.0
    if k == DOUBLE_WELL:
        return np.sum((U**2 - 1.0) ** 2, axis=1) / 4.0
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        Z = np.zeros((U.shape[0], 1))
        g = np.diff(np.hstack([Z, U, Z]), axis=1)  # zero Dirichlet boundary
        return (h / p) * np.sum(np.abs(g / h) ** p, axis=1) + h * np.sum(_poly(reac, U), axis=1)
    if k == QUANTILE_ENTROPY:
        v2, v1 = spec.params["v2"], spec.params["v1"]
        m = U.shape[1]
        gaps = np.diff(U, axis=1)
        pot = np.mean(0.5 * v2 * U**2 + v1 * U, axis=1)
        out = np.full(U.shape[0], math.inf)
        ok = np.all(gaps > 0.0, axis=1)
        if np.any(ok):
            out[ok] = pot[ok] - np.sum(np.log(gaps[ok] * m), axis=1) / m
        return out
    raise NotAvailableError(spec.kind)


def energy_grad(spec: EnergySpec, x: Point) -> np.ndarray:
    """Coordinate gradient of phi (the L^2 gradient in quantile coordinates).
    ``grad_many`` on one row."""
    return grad_many(spec, x.coords[None, :])[0]


def grad_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    U = np.atleast_2d(U)
    k = spec.kind
    if k == QUADRATIC:
        A, b = _quadratic_params(spec, U)
        return U @ A.T - b
    if k == CONVEX_QUARTIC:
        return U * U * U
    if k == DOUBLE_WELL:
        return U * U * U - U
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        Z = np.zeros((U.shape[0], 1))
        g = np.diff(np.hstack([Z, U, Z]), axis=1) / h
        flux = np.abs(g) ** (p - 1.0) * np.sign(g)
        return flux[:, :-1] - flux[:, 1:] + h * _poly(_poly_d(reac), U)
    if k == QUANTILE_ENTROPY:
        v2, v1 = spec.params["v2"], spec.params["v1"]
        m = U.shape[1]
        gaps = np.diff(U, axis=1)
        if np.any(gaps <= 0.0):
            raise DomainError("non-monotone quantile point has no gradient")
        inv = 1.0 / gaps
        out = (v2 * U + v1) / m
        out[:, :-1] += inv / m
        out[:, 1:] -= inv / m
        return out
    raise NotAvailableError(spec.kind)


def hess_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    """Hessians of phi row-wise on an (n, d) array, as dense (n, d, d) blocks.

    Built-in kinds other than quadratics have tridiagonal Hessians.  The
    blocks are always a fresh array, so callers may assemble in place.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n, d = U.shape
    k = spec.kind
    if k == QUADRATIC:
        return np.repeat(_quadratic_params(spec, U)[0][None], n, axis=0)
    off = None  # the sub- and superdiagonal, where nonzero
    if k == CONVEX_QUARTIC:
        diag = 3.0 * U**2
    elif k == DOUBLE_WELL:
        diag = 3.0 * U**2 - 1.0
    elif k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        g = np.diff(U, axis=1, prepend=0.0, append=0.0) / h  # zero Dirichlet boundary
        w = (p - 1.0) * np.abs(g) ** (p - 2.0) / h
        diag = w[:, :-1] + w[:, 1:] + h * _poly(_poly_d(_poly_d(reac)), U)
        off = -w[:, 1:-1]
    elif k == QUANTILE_ENTROPY:
        v2 = spec.params["v2"]
        gaps = np.diff(U, axis=1)
        if np.any(gaps <= 0.0):
            raise DomainError("non-monotone quantile point has no Hessian")
        w = 1.0 / (d * gaps**2)
        diag = np.full((n, d), v2 / d)
        diag[:, :-1] += w
        diag[:, 1:] += w
        off = -w
    else:
        raise NotAvailableError(spec.kind)
    H = np.zeros((n, d, d))
    i = np.arange(d)
    H[:, i, i] = diag
    if off is not None:
        H[:, i[1:], i[:-1]] = off
        H[:, i[:-1], i[1:]] = off
    return H


# -- one-point kernels -----------------------------------------------------------
#
# phi, dphi and ddphi of a one-coordinate state u on Python floats.  Each
# repeats its row kernel's operations in the same order, down to the 0.0 that
# starts a numpy sum (it turns a -0.0 term into 0.0), so the results are
# bitwise those of eval_many, grad_many and hess_many on u[None, None].
# Cubes and fourth powers are products, as in the row kernels; the Dirichlet
# exponents go through numpy's ``power`` ufunc: its SIMD loops need not round
# like the libm ``pow`` behind Python's ``**``.


def _pow(x: float, e) -> float:
    return float(np.power(x, e))


def _sign(x: float) -> float:
    # np.sign, nan included
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0 if x == 0.0 else x


def _horner(c: tuple, u: float) -> float:
    out = 0.0
    for ck in reversed(c):
        out = out * u + ck
    return out


def _quadratic_phi(a, b, u):
    return 0.5 * (0.0 + u * a * u) - (0.0 + u * b)


def _quadratic_dphi(a, b, u):
    return (0.0 + u * a) - b


def _quadratic_ddphi(a, b, u):
    return a


def _quartic_phi(u):
    s = u * u
    return s * s / 4.0


def _quartic_dphi(u):
    return u * u * u


def _quartic_ddphi(u):
    return 3.0 * (u * u)


def _well_phi(u):
    s = u * u - 1.0
    return s * s / 4.0


def _well_dphi(u):
    return u * u * u - u


def _well_ddphi(u):
    return 3.0 * (u * u) - 1.0


# the differences to the zero boundary values are u - 0.0 (which is u) and
# 0.0 - u; c holds the reaction coefficients, differentiated as the kernel needs


def _dirichlet_phi(p, h, c, u):
    return (h / p) * (_pow(abs(u / h), p) + _pow(abs((0.0 - u) / h), p)) \
        + h * (0.0 + _horner(c, u))


def _dirichlet_dphi(p, h, c, u):
    f0, f1 = (_pow(abs(g), p - 1.0) * _sign(g) for g in (u / h, (0.0 - u) / h))
    return f0 - f1 + h * _horner(c, u)


def _dirichlet_ddphi(p, h, c, u):
    w0, w1 = ((p - 1.0) * _pow(abs(g), p - 2.0) / h for g in (u / h, (0.0 - u) / h))
    return w0 + w1 + h * _horner(c, u)


def _row_phi(spec, u):
    return float(eval_many(spec, [[u]])[0])


def _row_dphi(spec, u):
    return float(grad_many(spec, [[u]])[0, 0])


def _row_ddphi(spec, u):
    return float(hess_many(spec, [[u]])[0, 0, 0])


def _one_point(spec: EnergySpec) -> tuple:
    """The (phi, dphi, ddphi) kernels of ``spec`` on one float coordinate."""
    k = spec.kind
    if k == QUADRATIC and spec.params["A"].shape == (1, 1):
        ab = (float(spec.params["A"][0, 0]), float(spec.params["b"][0]))
        return tuple(partial(f, *ab) for f in (_quadratic_phi, _quadratic_dphi, _quadratic_ddphi))
    if k == CONVEX_QUARTIC:
        return _quartic_phi, _quartic_dphi, _quartic_ddphi
    if k == DOUBLE_WELL:
        return _well_phi, _well_dphi, _well_ddphi
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        dreac = _poly_d(reac)
        return tuple(partial(f, p, h, tuple(c.tolist())) for f, c in (
            (_dirichlet_phi, reac), (_dirichlet_dphi, dreac), (_dirichlet_ddphi, _poly_d(dreac))))
    # the quantile kind, and quadratics of another size (which raise), run
    # through the row kernels
    return partial(_row_phi, spec), partial(_row_dphi, spec), partial(_row_ddphi, spec)


# -- metric-aware helpers ------------------------------------------------------


def analytic_slopes(spec: EnergySpec, space: SpaceSpec, U: np.ndarray) -> np.ndarray:
    """|dphi| row-wise on an (n, d) array: the metric (dual) norm of each row's
    gradient, from one ``grad_many`` call.  Bitwise ``analytic_slope`` per row
    but for quadratics with d > 1, whose matrix product may round differently
    on many rows.  The p-norm root is float_power's, the libm pow of ``**``."""
    G = grad_many(spec, U)
    if space.kind == PNORM:
        q = space.p / (space.p - 1.0)
        return np.float_power(np.sum(np.abs(G) ** q, axis=1), 1.0 / q)
    if space.kind == QUANTILE1D:
        # metric gradient m*g measured in the (1/m)-weighted l2 norm
        return np.sqrt(space.dim * np.sum(G * G, axis=1))
    return np.sqrt(np.sum(G * G, axis=1))


def analytic_slope(spec: EnergySpec, space: SpaceSpec, x: Point) -> float:
    """|dphi|(x): ``analytic_slopes`` on one row."""
    return float(analytic_slopes(spec, space, x.coords[None])[0])


# -- Moreau-Yosida regularization ---------------------------------------------


def prox(spec: EnergySpec, space: SpaceSpec, coords: np.ndarray, t: float):
    """The proximal step at the coordinate row ``coords``: returns
    (phi_t(x), argmin row) for phi_t(x) = inf_y d^2(y,x)/(2t) + phi(y).

    Smooth kinds use damped Newton; one-dimensional, non-quantile states run
    on Python floats, and fall back to a bracketed scan plus golden-section
    refinement where the inner problem may be nonconvex (double_well with
    large t).  This is the one place that decides when a state runs on
    floats.
    """
    if t <= 0.0:
        raise InvalidInputError("yosida needs t > 0")
    lam = spec.lam
    if spec.kind == QUADRATIC and lam is not None and lam < 0.0 and t * abs(lam) >= 1.0:
        # quadratics have no growth beyond their curvature: the inner problem
        # is unbounded below once 1/t + lambda_min <= 0
        raise InvalidInputError("inner problem not coercive: need t < 1/|lambda|")
    if space.dim == 1 and space.kind != QUANTILE1D:
        xv = float(coords[0])
        if lam is not None and (lam >= 0.0 or 2.0 * t * abs(lam) < 0.9):
            # strongly convex inner problem: Newton is exact and much cheaper;
            # otherwise scan a bracket to ride out multiple local minima
            value, y = _yosida_newton(spec, space, xv, t)
        else:
            value, y = _yosida_1d(spec, xv, t)
        return value, np.array([y])
    return _yosida_newton(spec, space, coords.copy(), t)


def yosida(spec: EnergySpec, space: SpaceSpec, x: Point, t: float):
    """phi_t(x) = inf_y d^2(y,x)/(2t) + phi(y); returns (value, argmin Point).
    ``prox`` at the coordinates of ``x``."""
    value, y = prox(spec, space, x.coords, t)
    return value, Point(y, space)


def _yosida_1d(spec, xv, t):
    phi = spec.one_point[0]

    def obj(y):
        try:
            sq = (y - xv) ** 2  # the libm pow of numpy's scalar **
        except OverflowError:  # where numpy gives inf
            sq = math.inf
        return sq / (2.0 * t) + phi(y)

    span = 2.0 * (1.0 + abs(xv)) * max(1.0, math.sqrt(t))
    grid = np.linspace(xv - span, xv + span, 257)
    # obj on every grid point at once; float_power rounds like the libm pow
    # behind ``**``, where numpy's power and square need not
    vals = np.float_power(grid - xv, 2) / (2.0 * t) + eval_many(spec, grid[:, None])
    j = int(np.argmin(vals))
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    y = golden_section(obj, float(a), float(b), 0.0, 90)
    return obj(y), y


def _yosida_newton(spec, space, x0, t):
    """Damped Newton on the inner problem from ``x0``: a coordinate array, or
    a Python float for a one-dimensional, non-quantile state, whose whole
    iteration then runs on floats.  Returns (value, argmin) in that type."""
    if space.kind == PNORM and space.p != 2.0:
        raise NotAvailableError("yosida in pnorm spaces needs p = 2")
    if isinstance(x0, float):
        # the array iteration below with metric weight 1, one operation for
        # one; the 1 x 1 solve is the division
        phi, dphi, ddphi = spec.one_point
        shift = 1.0 / t
        obj = lambda z: (z - x0) * (z - x0) / (2.0 * t) + phi(z)
        grad_at = lambda z: (z - x0) / t + dphi(z)
        sup_norm = abs

        def direction(y, g):
            H = ddphi(y) + shift
            step = levenberg(lambda rho: -g / (H + rho * shift), g, -g * t)
            return step, step * g
    else:
        w = space.metric_weights
        obj = lambda z: float(np.sum(w * (z - x0) ** 2)) / (2.0 * t) + float(
            eval_many(spec, z[None, :])[0]
        )
        grad_at = lambda z: w * (z - x0) / t + grad_many(spec, z[None, :])[0]
        sup_norm = lambda g: float(np.max(np.abs(g)))
        shift = np.diag(w / t)

        def direction(y, g):
            H = hess_many(spec, y[None])[0] + shift
            step = levenberg(lambda rho: np.linalg.solve(H + rho * shift, -g), g, -g * t / w)
            return step, float(step @ g)

    def evaluate(z):
        # the gradient also where obj overflowed; none off the quantile cone
        try:
            return obj(z), grad_at(z)
        except DomainError:
            return math.inf, None

    start = evaluate(x0)
    # gradient entries scale with the 1/t proximal curvature, so the stop
    # threshold must carry that factor to stay reachable at tiny steps
    gtol = 1e-12 * (1.0 + abs(start[0])) * (1.0 + 1.0 / t)
    y, f, g, _, trace = damped_newton(x0, start, evaluate, sup_norm,
                                      lambda g: sup_norm(g) <= gtol, direction, 200)
    if sup_norm(g) <= max(gtol, 1e-9 * (1.0 + abs(f)) * (1.0 + 1.0 / t)):
        return f, y
    raise NonConvergenceError("yosida inner Newton stalled", best=np.atleast_1d(y), trace=trace)


# -- local slope ---------------------------------------------------------------


@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    method: str
    diagnostics: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise InvalidInputError("slope estimate must be finite and nonnegative")
        if self.method != "analytic" and len(self.diagnostics) == 0:
            raise InvalidInputError("non-analytic slope estimates carry diagnostics")


def local_slope(spec: EnergySpec, space: SpaceSpec, x: Point, method="analytic") -> SlopeEstimate:
    """Descending slope of phi at x.

    analytic              metric norm of the gradient
    lambda_representation sup over sampled v of ((phi(x)-phi(v))/d + lam/2 d)^+
                          on concentric geodesic spheres
    yosida_duality        sqrt(2 L), L the Richardson limit of (phi-phi_t)/t
    """
    if method == "analytic":
        return SlopeEstimate(analytic_slope(spec, space, x), "analytic")
    if method == "lambda_representation":
        if spec.lam is None:
            raise InvalidInputError("lambda_representation needs the convexity modulus")
        phi_x = energy_eval(spec, x)
        dirs = probe_directions(space, 20210, at=x.coords)
        best = 0.0
        diag = []
        for k in range(13):
            r = 1.0 * 2.0**-k
            q_r = 0.0
            for e in dirs:
                v = Point(x.coords + r * e, space) if _admissible(space, x.coords + r * e) else None
                if v is None:
                    continue
                dv = float(np.sqrt(np.sum(space.metric_weights * (r * e) ** 2)))
                if space.kind == PNORM:
                    dv = float(np.sum(np.abs(r * e) ** space.p) ** (1.0 / space.p))
                phi_v = energy_eval(spec, v)
                if not math.isfinite(phi_v):
                    continue
                q = (phi_x - phi_v) / dv + 0.5 * spec.lam * dv
                q_r = max(q_r, q)
            diag.append((r, q_r))
            best = max(best, q_r)
        return SlopeEstimate(max(best, 0.0), "lambda_representation", tuple(diag))
    if method == "yosida_duality":
        phi_x = energy_eval(spec, x)
        quotients = []
        for k in range(9):
            t = 0.1 * 2.0**-k
            val, _ = yosida(spec, space, x, t)
            quotients.append((t, (phi_x - val) / t))
        # quotient is L - C t + O(t^2); one Richardson step removes the O(t)
        richardson = 2.0 * quotients[-1][1] - quotients[-2][1]
        diag = tuple(quotients) + ((0.0, richardson),)
        if not math.isfinite(richardson):
            raise NonConvergenceError("divergent yosida quotient sequence", trace=list(diag))
        return SlopeEstimate(math.sqrt(2.0 * max(richardson, 0.0)), "yosida_duality", diag)
    raise InvalidInputError(f"unknown slope method {method!r}")


def _admissible(space, coords):
    return space.kind != QUANTILE1D or bool(np.all(np.diff(coords) > 0.0))

