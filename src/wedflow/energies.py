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
``hess_many`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, NonConvergenceError, NotAvailableError
from .newton import damped_newton, golden_section, levenberg
from .spaces import PNORM, QUANTILE1D, Point, SpaceSpec, normal_quantile

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


def energy_eval(spec: EnergySpec, x: Point) -> float:
    """phi(x); math.inf for out-of-domain points."""
    return float(eval_many(spec, x.coords[None, :])[0])


def eval_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    """phi row-wise on an (n, d) array of coordinate vectors."""
    U = np.atleast_2d(U)
    k = spec.kind
    if k == QUADRATIC:
        A, b = spec.params["A"], spec.params["b"]
        if U.shape[1] != A.shape[0]:
            raise InvalidInputError("dimension mismatch with quadratic energy")
        return 0.5 * np.einsum("ni,ij,nj->n", U, A, U) - U @ b
    if k == CONVEX_QUARTIC:
        return np.sum(U**4, axis=1) / 4.0
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
    """Coordinate gradient of phi (the L^2 gradient in quantile coordinates)."""
    return grad_many(spec, x.coords[None, :])[0]


def grad_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    U = np.atleast_2d(U)
    k = spec.kind
    if k == QUADRATIC:
        A, b = spec.params["A"], spec.params["b"]
        return U @ A.T - b
    if k == CONVEX_QUARTIC:
        return U**3
    if k == DOUBLE_WELL:
        return U**3 - U
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


def hess_dense(spec: EnergySpec, u: np.ndarray) -> np.ndarray:
    """Hessian of phi at coordinates u as a dense (d, d) matrix."""
    return hess_many(spec, np.asarray(u, dtype=float)[None, :])[0]


def hess_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    """Hessians of phi row-wise on an (n, d) array, as dense (n, d, d) blocks.

    Built-in kinds other than quadratics have tridiagonal Hessians.  The
    blocks are always a fresh array, so callers may assemble in place.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n, d = U.shape
    k = spec.kind
    if k == QUADRATIC:
        return np.repeat(spec.params["A"][None], n, axis=0)
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


# -- metric-aware helpers ------------------------------------------------------


def metric_grad(spec: EnergySpec, space: SpaceSpec, x: Point) -> np.ndarray:
    """Gradient with respect to the space metric (drives the metric flow)."""
    g = energy_grad(spec, x)
    if space.kind == QUANTILE1D:
        return g * space.dim  # inverse of the 1/m metric weights
    if space.kind == PNORM and space.p != 2.0:
        raise NotAvailableError("metric gradient only for inner-product metrics")
    return g


def analytic_slope(spec: EnergySpec, space: SpaceSpec, x: Point) -> float:
    """|dphi|(x) as the metric (dual) norm of the gradient."""
    g = energy_grad(spec, x)
    if space.kind == PNORM:
        q = space.p / (space.p - 1.0)
        return float(np.sum(np.abs(g) ** q) ** (1.0 / q))
    if space.kind == QUANTILE1D:
        # metric gradient m*g measured in the (1/m)-weighted l2 norm
        return float(np.sqrt(space.dim * np.sum(g * g)))
    return float(np.sqrt(np.sum(g * g)))


# -- Moreau-Yosida regularization ---------------------------------------------


def yosida(spec: EnergySpec, space: SpaceSpec, x: Point, t: float):
    """phi_t(x) = inf_y d^2(y,x)/(2t) + phi(y); returns (value, argmin Point).

    Smooth kinds use damped Newton; one-dimensional states fall back to a
    bracketed scan plus golden-section refinement, which also rides out the
    nonconvex inner problems (double_well with large t).
    """
    if t <= 0.0:
        raise InvalidInputError("yosida needs t > 0")
    if spec.kind == QUADRATIC and spec.lam is not None and spec.lam < 0.0 \
            and t * abs(spec.lam) >= 1.0:
        # quadratics have no growth beyond their curvature: the inner problem
        # is unbounded below once 1/t + lambda_min <= 0
        raise InvalidInputError("inner problem not coercive: need t < 1/|lambda|")
    if space.dim == 1 and space.kind != QUANTILE1D:
        # strongly convex inner problem: Newton is exact and much cheaper;
        # otherwise scan a bracket to ride out multiple local minima
        lam = spec.lam
        if lam is not None and (lam >= 0.0 or 2.0 * t * abs(lam) < 0.9):
            return _yosida_newton(spec, space, x, t)
        return _yosida_1d(spec, space, x, t)
    return _yosida_newton(spec, space, x, t)


def _yosida_1d(spec, space, x, t):
    xv = float(x.coords[0])
    phi = lambda y: float(eval_many(spec, np.array([[y]]))[0])
    obj = lambda y: (y - xv) ** 2 / (2.0 * t) + phi(y)
    span = 2.0 * (1.0 + abs(xv)) * max(1.0, math.sqrt(t))
    grid = np.linspace(xv - span, xv + span, 257)
    vals = np.array([obj(y) for y in grid])
    j = int(np.argmin(vals))
    y = golden_section(obj, grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)], 0.0, 90)
    return obj(y), Point(np.array([y]), space)


def _yosida_newton(spec, space, x, t):
    w = space.metric_weights
    if space.kind == PNORM and space.p != 2.0:
        raise NotAvailableError("yosida in pnorm spaces needs p = 2")
    obj = lambda z: float(np.sum(w * (z - x.coords) ** 2)) / (2.0 * t) + float(
        eval_many(spec, z[None, :])[0]
    )
    grad_at = lambda z: w * (z - x.coords) / t + grad_many(spec, z[None, :])[0]
    sup_norm = lambda g: float(np.max(np.abs(g)))
    shift = np.diag(w / t)

    def direction(y, g):
        H = hess_dense(spec, y) + shift
        step = levenberg(lambda rho: np.linalg.solve(H + rho * shift, -g), g, -g * t / w)
        return step, float(step @ g)

    # gradient entries scale with the 1/t proximal curvature, so the stop
    # threshold must carry that factor to stay reachable at tiny steps
    gtol = 1e-12 * (1.0 + abs(obj(x.coords))) * (1.0 + 1.0 / t)
    y, f, g, _, trace = damped_newton(x.coords.copy(), obj, grad_at, sup_norm,
                                      lambda g: sup_norm(g) <= gtol, direction, 200)
    if sup_norm(g) <= max(gtol, 1e-9 * (1.0 + abs(f)) * (1.0 + 1.0 / t)):
        return f, Point(y, space)
    raise NonConvergenceError("yosida inner Newton stalled", best=y, trace=trace)


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
        dirs = _probe_directions(space, seed=20210)
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


def _probe_directions(space: SpaceSpec, seed: int):
    d = space.dim
    dirs = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        dirs.extend([e, -e])
    if d > 1:
        rng = np.random.default_rng(seed)
        for _ in range(8):
            v = rng.standard_normal(d)
            dirs.append(v / np.linalg.norm(v))
    return dirs
