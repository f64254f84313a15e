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
arrays: a trajectory solver gets all Hessians of a Newton step, as bands,
from one ``hess_bands`` call, the descent check all slopes of a curve from
one ``analytic_slopes`` call, and the proximal step ``prox`` all inner
problems of a stack of coordinate rows from one damped-Newton run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, NonConvergenceError
from .newton import damped_newton, levenberg
from .spaces import QUANTILE1D, Point, SpaceSpec, distance, gaussian_quantiles

QUADRATIC = "quadratic"
CONVEX_QUARTIC = "convex_quartic"
DOUBLE_WELL = "double_well"
DISCRETE_DIRICHLET = "discrete_dirichlet"
QUANTILE_ENTROPY = "quantile_entropy_potential"

# each kind's parameters, with the list levels a config gives each (0 a
# number, 1 a vector, 2 a matrix); only the quadratic's A has no default
PARAMS = {QUADRATIC: {"A": 2, "b": 1}, CONVEX_QUARTIC: {}, DOUBLE_WELL: {},
          DISCRETE_DIRICHLET: {"p": 0, "h": 0, "reaction": 1},
          QUANTILE_ENTROPY: {"v2": 0, "v1": 0}}


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
        if not (0 <= self.A < math.inf and 0 <= self.B < math.inf):
            raise InvalidInputError("coercivity constants must be finite and nonnegative")
        if self.u_star is not None:
            object.__setattr__(self, "u_star", np.asarray(self.u_star, dtype=float))


@dataclass(frozen=True)
class EnergySpec:
    kind: str
    params: dict = field(default_factory=dict)
    lam: float | None = None
    coercivity: Coercivity | None = None

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise InvalidInputError(f"unknown energy kind {self.kind!r}")
        if self.kind == QUADRATIC:
            A = np.atleast_2d(np.asarray(self.params["A"], dtype=float))
            b = np.atleast_1d(np.asarray(self.params.get("b", np.zeros(A.shape[0])), dtype=float))
            if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
                raise InvalidInputError("quadratic needs square A and matching b")
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
        if not all(np.all(np.isfinite(v)) for v in [*self.params.values(), self.lam]
                   if isinstance(v, (float, np.ndarray))):
            raise InvalidInputError("energy parameters must be finite")
        # after the finiteness test, where inf - inf cannot warn
        A = self.params.get("A")
        if self.kind == QUADRATIC:
            if np.max(np.abs(A - A.T)) > 1e-12:
                raise InvalidInputError("quadratic A must be symmetric (1e-12)")
            # phi = x'Ax/2 has gradient (A + A')x/2, and the Newton steps'
            # eigh reads one triangle: store that part, bitwise A where A is
            # exactly symmetric
            self.params["A"] = (A + A.T) / 2.0
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


def quadratic(A, b=None, lam=None) -> EnergySpec:
    """x'Ax/2 - b'x; ``EnergySpec`` makes A a matrix and b (default 0) a vector."""
    return EnergySpec(QUADRATIC, {"A": A} if b is None else {"A": A, "b": b}, lam=lam)


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
    # the discrete Dirichlet energy: valid when the reaction is bounded below
    # by 0; otherwise supply constants
    return Coercivity(0.0, 0.0)


def reference_point(spec: EnergySpec, space: SpaceSpec) -> Point:
    """Materialize the coercivity reference point u_star inside a space."""
    co = spec.coercivity
    if co is not None and co.u_star is not None:
        return Point(co.u_star, space)
    if space.kind == QUANTILE1D:
        if spec.kind == QUANTILE_ENTROPY and spec.params["v2"] > 0.0:
            v2, v1 = spec.params["v2"], spec.params["v1"]
            mean, std = -v1 / v2, 1.0 / math.sqrt(v2)
        else:
            mean, std = 0.0, 1.0
        return gaussian_quantiles(space, mean, std)
    return Point(np.zeros(space.dim), space)


def q_value(spec: EnergySpec, x: Point) -> float:
    """Q(x) = B d^2(x, u_star) + A from the stored coercivity constants."""
    co = spec.coercivity
    if co is None:
        raise InvalidInputError("energy provides no coercivity constants")
    if co.B == 0.0:
        return co.A
    return co.B * distance(x, reference_point(spec, x.space))**2 + co.A


# -- evaluation ---------------------------------------------------------------


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
        return 0.5 * np.einsum("ni,ni->n", np.einsum("ij,nj->ni", A, U), U) \
            - np.einsum("nj,j->n", U, b)
    if k == CONVEX_QUARTIC:
        S = U * U
        return np.sum(S * S, axis=1) / 4.0
    if k == DOUBLE_WELL:
        return np.sum((U**2 - 1.0) ** 2, axis=1) / 4.0
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        Z = np.zeros((U.shape[0], 1))
        g = np.diff(np.hstack([Z, U, Z]), axis=1)  # zero Dirichlet boundary
        reaction = np.polyval(reac[::-1], U)  # reac holds ascending powers
        return (h / p) * np.sum(np.abs(g / h) ** p, axis=1) + h * np.sum(reaction, axis=1)
    # the quantile entropy potential
    v2, v1 = spec.params["v2"], spec.params["v1"]
    m = U.shape[1]
    gaps = np.diff(U, axis=1)
    pot = np.mean(0.5 * v2 * U**2 + v1 * U, axis=1)
    out = np.full(U.shape[0], math.inf)
    ok = np.all(gaps > 0.0, axis=1)
    if np.any(ok):
        out[ok] = pot[ok] - np.sum(np.log(gaps[ok] * m), axis=1) / m
    return out


def grad_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    U = np.atleast_2d(U)
    k = spec.kind
    if k == QUADRATIC:
        A, b = _quadratic_params(spec, U)
        return np.einsum("ij,nj->ni", A, U) - b
    if k == CONVEX_QUARTIC:
        return U * U * U
    if k == DOUBLE_WELL:
        return U * U * U - U
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        Z = np.zeros((U.shape[0], 1))
        g = np.diff(np.hstack([Z, U, Z]), axis=1) / h
        flux = np.abs(g) ** (p - 1.0) * np.sign(g)
        return flux[:, :-1] - flux[:, 1:] + h * np.polyval(np.polyder(reac[::-1]), U)
    # the quantile entropy potential
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


def hess_bands(spec: EnergySpec, U: np.ndarray):
    """Hessians of phi row-wise on an (n, d) array, as the bands of
    symmetric tridiagonal blocks: (diag (n, d), off (n, d - 1)), where
    off[k, i] is both the (i, i + 1) and the (i + 1, i) entry of row k's
    Hessian.

    Every built-in kind but the quadratic has tridiagonal Hessians, and
    this is where their formulas live.  A quadratic's Hessian is its A at
    every row: its bands, where A has no entry off them (at d = 1 always),
    and InvalidInputError otherwise.  Both arrays are fresh, so callers
    may assemble in place.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n, d = U.shape
    k = spec.kind
    if k == QUADRATIC:
        A = _quadratic_params(spec, U)[0]
        if np.triu(A, 2).any():
            raise InvalidInputError("quadratic A is not tridiagonal: its Hessian has no bands",
                                    "energy")
        return tuple(np.repeat(np.diagonal(A, k)[None], n, axis=0) for k in (0, 1))
    if k == CONVEX_QUARTIC:
        return 3.0 * U**2, np.zeros((n, d - 1))
    if k == DOUBLE_WELL:
        return 3.0 * U**2 - 1.0, np.zeros((n, d - 1))
    if k == DISCRETE_DIRICHLET:
        p, h, reac = spec.params["p"], spec.params["h"], spec.params["reaction"]
        g = np.diff(U, axis=1, prepend=0.0, append=0.0) / h  # zero Dirichlet boundary
        w = (p - 1.0) * np.abs(g) ** (p - 2.0) / h
        return w[:, :-1] + w[:, 1:] + h * np.polyval(np.polyder(reac[::-1], 2), U), -w[:, 1:-1]
    # the quantile entropy potential
    v2 = spec.params["v2"]
    gaps = np.diff(U, axis=1)
    if np.any(gaps <= 0.0):
        raise DomainError("non-monotone quantile point has no Hessian")
    w = 1.0 / (d * gaps**2)
    diag = np.full((n, d), v2 / d)
    diag[:, :-1] += w
    diag[:, 1:] += w
    return diag, -w


def tridiag_blocks(diag, off, out=None):
    """The symmetric tridiagonal d x d blocks with diagonals ``diag`` (n, d)
    and off-diagonals ``off`` (n, d - 1), as an (n, d, d) array.  Where
    ``out`` is given, an (n, d * d) array whose rows may be strided (each
    row one block, flat), the blocks are written into it, and the result is
    a view of it."""
    n, d = diag.shape
    flat = np.empty((n, d * d)) if out is None else out
    flat[...] = 0.0
    flat[:, ::d + 1] = diag
    flat[:, 1::d + 1] = off
    flat[:, d::d + 1] = off
    return flat.reshape(n, d, d)


def hess_many(spec: EnergySpec, U: np.ndarray) -> np.ndarray:
    """Hessians of phi row-wise on an (n, d) array, as dense (n, d, d) blocks:
    a quadratic's A at every row, and every other kind's ``hess_bands``
    densified.  The blocks are always a fresh array, so callers may
    assemble in place.  The trajectory solvers read the bands; the
    proximal step ``prox`` solves with these blocks.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if spec.kind == QUADRATIC:
        return np.repeat(_quadratic_params(spec, U)[0][None], U.shape[0], axis=0)
    return tridiag_blocks(*hess_bands(spec, U))


# -- metric-aware helpers ------------------------------------------------------


def analytic_slopes(spec: EnergySpec, space: SpaceSpec, U: np.ndarray) -> np.ndarray:
    """|dphi| row-wise on an (n, d) array: the dual norm of each row's
    gradient under the weighted l^2 metric, sqrt(sum g^2 / w), from one
    ``grad_many`` call, bitwise ``analytic_slope`` per row."""
    G = grad_many(spec, U)
    if space.kind == QUANTILE1D:
        # metric gradient m*g measured in the (1/m)-weighted l2 norm
        return np.sqrt(space.dim * np.sum(G * G, axis=1))
    return np.sqrt(np.sum(G * G, axis=1))


def analytic_slope(spec: EnergySpec, x: Point) -> float:
    """|dphi|(x) in x's space: ``analytic_slopes`` on one row."""
    return float(analytic_slopes(spec, x.space, x.coords[None])[0])


# -- Moreau-Yosida regularization ---------------------------------------------


def prox(spec: EnergySpec, space: SpaceSpec, coords: np.ndarray, t):
    """The proximal step on a stack of coordinate rows: for each row x_r of
    the (n, d) array ``coords`` and its time t_r (``t`` a scalar or an (n,)
    array), phi_t(x_r) = inf_y d^2(y, x_r)/(2 t_r) + phi(y).  Returns
    (values (n,), argmins (n, d)).

    The inner problems are separable: one damped-Newton run minimizes their
    sum.  Each row keeps its own stop test and verdict, and takes a zero step
    once it meets the test.  The other rows' Newton directions come from one
    batched solve; a row whose direction is not a finite descent step climbs
    the Levenberg ladder on its own.  Where the inner problem may be
    nonconvex (one non-quantile coordinate, and no modulus or 2 t_r |lambda|
    >= 0.9) the row starts from the best of 257 points around x_r, and Newton
    refines it from there, inside the scanned window or not.
    """
    X = np.asarray(coords, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.dim:
        raise InvalidInputError("prox needs an (n, d) stack of coordinate rows")
    n, d = X.shape
    t = np.asarray(t, dtype=float)
    if t.shape != (n,):
        t = np.full(n, t)
    if not (t > 0.0).all():
        raise InvalidInputError("yosida needs t > 0")
    lam = spec.lam
    if spec.kind == QUADRATIC and lam is not None and lam < 0.0 and (t * abs(lam) >= 1.0).any():
        # quadratics have no growth beyond their curvature: the inner problem
        # is unbounded below once 1/t + lambda_min <= 0
        raise InvalidInputError("inner problem not coercive: need t < 1/|lambda|")
    w = space.metric_weights
    tc = t[:, None]
    S = (w / tc)[:, :, None] * np.eye(d)  # the proximal curvature diag(w)/t_r

    def objective(Y):
        D = Y - X
        F = (w * D**2).sum(axis=1) / (2.0 * t) + eval_many(spec, Y)
        return F, w * D / tc + grad_many(spec, Y)

    def state(F, G):
        # damped_newton's g: the rows' values and gradients, and the sup norm of
        # each gradient still above its row's stop threshold (0 once below)
        R = np.abs(G).max(axis=1)
        return F, G, np.where(R <= gtol, 0.0, R)

    def evaluate(Y):
        F, G = objective(Y)
        return float(F.sum()), state(F, G)

    def direction(Y, g):
        _, G, R = g
        H = hess_many(spec, Y) + S
        try:
            P = np.linalg.solve(H, -G[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            P = np.full_like(Y, np.nan)  # every row climbs the ladder
        done = R == 0.0
        P[done] = 0.0
        descends = np.isfinite(P).all(axis=1) & ((P * G).sum(axis=1) < 0.0)
        for r in np.flatnonzero(~(descends | done)):
            P[r] = levenberg(lambda rho: np.linalg.solve(H[r] + rho * S[r], -G[r]), G[r],
                             -G[r] * t[r] / w)
        return P, float(P.ravel() @ G.ravel())

    Y0 = X.copy()
    scan = np.zeros(n, dtype=bool)
    if d == 1 and space.kind != QUANTILE1D:
        # strongly convex inner problems need no scan: Newton is exact there
        scan[:] = lam is None or (lam < 0.0) & (2.0 * t * abs(lam) >= 0.9)
    scanning = scan.any()
    if scanning:
        Y0[scan, 0] = _scan_starts(spec, X[scan, 0], t[scan])
    F0, G0 = objective(Y0)
    phi_x = F0.copy()
    if scanning:
        phi_x[scan] = eval_many(spec, X[scan])
    # gradient entries scale with the 1/t proximal curvature, so the stop
    # threshold must carry that factor to stay reachable at tiny steps
    gtol = 1e-12 * (1.0 + np.abs(phi_x)) * (1.0 + 1.0 / t)
    Y, _, (F, G, R), _, trace = damped_newton(
        Y0, (float(F0.sum()), state(F0, G0)), evaluate, lambda g: float(g[2].max()),
        lambda g: not g[2].any(), direction, 200)
    if not R.any() or (np.abs(G).max(axis=1) <= np.maximum(
            gtol, 1e-9 * (1.0 + np.abs(F)) * (1.0 + 1.0 / t))).all():
        return F, Y
    raise NonConvergenceError("yosida inner Newton stalled", best=Y, trace=trace)


def _scan_starts(spec, x, t):
    """Per row, the best of 257 points spread evenly over x +- 2 (1 + |x|)
    max(1, sqrt t), for one-coordinate states x with times t."""
    span = 2.0 * (1.0 + np.abs(x)) * np.maximum(1.0, np.sqrt(t))
    grid = np.linspace(x - span, x + span, 257, axis=1)
    vals = (grid - x[:, None]) ** 2 / (2.0 * t[:, None]) \
        + eval_many(spec, grid.reshape(-1, 1)).reshape(grid.shape)
    return grid[np.arange(len(x)), np.argmin(vals, axis=1)]
