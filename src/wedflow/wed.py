"""Weighted energy-dissipation minimization over discrete trajectories.

Two backends produce the same minimizer by different routes:

* ``minimize_wed`` descends the discrete weighted objective directly
  (damped Newton on the exact block-tridiagonal Hessian, row-scaled by the
  per-node mass so the elimination stays well conditioned across the
  exponentially decaying weights);
* ``solve_euler_lagrange`` discretizes the second-order optimality system
  -eps u'' + u' + grad phi(u) = 0 with an initial value at 0 and a zero-slope
  condition at the far end of the computational window, T + 8 eps.

Both initialize at the constant trajectory, which always has finite cost
equal to phi of the initial point.  Each Newton step of either backend
solves one kind of block-tridiagonal system, built by ``_newton_system``:
diagonal blocks a Hessian of phi times a scalar plus a multiple of the
identity, and couplings a scalar per node times the identity, since every
space's metric is one weight times the coordinate l^2 norm.  Where d > 1
and every free node has one Hessian (at the constant start, and anywhere
for a quadratic's A), the step is taken in its eigenbasis as d scalar
tridiagonal systems.  Every other step solves the block system, whose
blocks are symmetric tridiagonal and stay as their bands
(``energies.hess_bands``) through the assembly, the block products, the
residual gate and the first level of the block reduction.  Where its blocks
fit one Hessian up to scale and shift, iterative refinement on the
eigenbasis solve fitted to them solves it; otherwise (or where the
refinement stalls or misses its tolerance) block cyclic reduction does.  A
residual gate refuses, with LinAlgError, a reduction's answer whose
backward error is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import (
    QUADRATIC, EnergySpec, eval_many, grad_many, hess_bands, hess_many, tridiag_blocks,
)
from .errors import InvalidInputError, NonConvergenceError
from .newton import damped_newton, levenberg
from .spaces import Point, SpaceSpec, admissible
from .trajectories import TimeGrid, Trajectory, Weights, metric_speed

DIRECT = "direct"
EULER_LAGRANGE = "euler_lagrange"
SOLVERS = (DIRECT, EULER_LAGRANGE)

# With the horizon at least this multiple of eps the tail weight is below
# 1.4e-11 and the truncated problem is indistinguishable from the
# infinite-horizon one at solver tolerance.
HORIZON_FACTOR = 25.0

# Both backends stop once their stationarity residual is below GRAD_TOL, and
# fail after MAX_ITER Newton iterations.
GRAD_TOL = 1e-8
MAX_ITER = 100


def default_horizon(eps: float, t_obs: float) -> float:
    return max(t_obs, HORIZON_FACTOR * eps)


@dataclass(frozen=True)
class WedProblem:
    epsilon: float
    T: float
    N: int
    space: SpaceSpec
    energy: EnergySpec
    x_bar: Point
    solver: str = DIRECT

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise InvalidInputError("need epsilon > 0", "epsilon")
        if self.T <= 0.0:
            raise InvalidInputError("need T > 0", "T")
        if self.N < 1:
            raise InvalidInputError("need N >= 1", "N")
        if self.solver not in SOLVERS:
            raise InvalidInputError(f"unknown solver {self.solver!r}", "solver")
        co = self.energy.coercivity
        if co is None:
            raise InvalidInputError("energy provides no coercivity constants", "energy")
        if 1.0 / (16.0 * self.epsilon) < co.B:
            raise InvalidInputError(
                f"well-posedness requires 1/(16 eps) >= B: eps={self.epsilon}, B={co.B}",
                "epsilon",
            )
        if self.x_bar.space != self.space:
            raise InvalidInputError("x_bar does not live in the problem space", "x_bar")
        if not math.isfinite(float(eval_many(self.energy, self.x_bar.coords[None, :])[0])):
            raise InvalidInputError("x_bar must have finite energy", "x_bar")
        if co.u_star is not None and co.u_star.shape != (self.space.dim,):
            raise InvalidInputError(f"coercivity u_star of shape {co.u_star.shape} is not a point "
                                    f"of the {self.space.dim}-dimensional space", "energy")
        # q_value reads u_star only where B > 0; there it must be a point of the space
        if co.B > 0.0 and co.u_star is not None and not admissible(self.space, co.u_star):
            raise InvalidInputError("coercivity u_star lies off the quantile cone", "energy")

    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.T, self.N)


@dataclass(frozen=True)
class WedSolution:
    problem: WedProblem
    trajectory: Trajectory
    objective: float
    speed: np.ndarray
    phi: np.ndarray
    iterations: int
    gradient_norm: float

    @property
    def weights(self) -> Weights:
        return Weights.for_grid(self.trajectory.grid, self.problem.epsilon)


def wed_value(problem: WedProblem, traj: Trajectory) -> float:
    """Discrete weighted cost of a trajectory starting at the problem datum."""
    grid = problem.grid()
    if traj.grid.nodes.shape != grid.nodes.shape or np.max(
        np.abs(traj.grid.nodes - grid.nodes)
    ) > 1e-12 * max(1.0, grid.T):
        raise InvalidInputError("trajectory grid does not match the problem grid")
    if not np.array_equal(traj.points[0], problem.x_bar.coords):
        raise InvalidInputError("trajectory must start at x_bar")
    return _weighted_cost(problem.epsilon, traj.grid, metric_speed(traj),
                          eval_many(problem.energy, traj.points))


def _weighted_cost(eps, grid, v, phis) -> float:
    """The discrete cost from a trajectory's cell speeds and node energies."""
    if not np.all(np.isfinite(phis)):
        return math.inf
    w = Weights.for_grid(grid, eps)
    return float(np.sum(w.cell_costs(v, phis))) + w.tail * float(phis[-1])


# -- banded linear algebra -------------------------------------------------------


# the scalar reduction stops at this many unknowns: below it each level costs
# more in numpy call overhead than one dense LU solve of the whole remainder
DENSE_CUT = 32

# block systems go first to iterative refinement on the eigenbasis solve
# fitted to their blocks, where those fit one Hessian up to scale and shift:
# the fit leaves out at most KRYLOV_FIT of the blocks' traceless parts, in
# the Frobenius norm.  Gaussian quantile starts leave out 3e-4 to 3e-3 and
# take 4-6 applications of the fitted solve; p = 3 Dirichlet chains and
# non-Gaussian quantile starts leave out 0.04-0.4 (README "Solvers")
KRYLOV_FIT = 0.01
# the refinement stops at this relative residual, and hands the system to
# the block reduction once its residual stops falling, or after
# KRYLOV_BUDGET applications of the fitted solve
KRYLOV_TOL = 1e-10
KRYLOV_BUDGET = 30
# a block reduction's answer whose normwise backward error is above this is
# refused, and the Levenberg ladder takes the next shift
RESIDUAL_GATE = 1e-8


def solve_tridiag(sub, diag, sup, rhs):
    """Odd-even cyclic reduction for scalar tridiagonal systems.

    Row k reads ``sub[k-1] x[k-1] + diag[k] x[k] + sup[k] x[k+1] = rhs[k]``.
    ``rhs`` is (n,), one system, or (n, c), c independent systems in its
    columns, all reduced at once; each band then has c columns or one, which
    every system shares, and ``diag`` may be one (c,) row that every row
    shares.
    Each level divides the odd rows by their pivots and eliminates x[1],
    x[3], ... from the even rows, which leaves a tridiagonal system in x[0],
    x[2], ... of half the size.  Once ``DENSE_CUT`` or fewer unknowns are
    left, one ``np.linalg.solve`` (LAPACK's partially pivoted LU) solves the
    remainder as a dense matrix, and back substitution fills in the odd
    unknowns level by level.  Every level is a few numpy operations on whole
    rows (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  The
    reduction does not pivot: it is stable on diagonally dominant systems
    (Heller, SIAM J. Numer. Anal. 13, 1976).  An exactly zero odd pivot of a
    level, or a singular remainder, raises LinAlgError; overflow gives
    non-finite entries.

    A call is one band pass of ``_factor_tridiag`` and one application of
    its factors to ``rhs``; where one system meets many right-hand sides
    (``_eigenbasis_solver``), the band pass runs once.
    """
    return _factor_tridiag(sub, diag, sup)(rhs)


@np.errstate(over="ignore", invalid="ignore")
def _factor_tridiag(sub, diag, sup):
    """``solve_tridiag``'s band pass, which reads the bands alone: the apply
    that solves the system for a right-hand side.

    The pass keeps each level's odd pivots, the multipliers L[0] and L[1] of
    the odd unknowns' neighbours, the couplings of the even rows it folds the
    odd rows into, and the remainder's dense matrix, and raises LinAlgError
    at an exactly zero odd pivot.  The apply divides its right-hand side's
    odd entries by the kept pivots, folds them into the even entries with two
    multiply-adds a level, solves the remainder with ``np.linalg.solve``
    (LinAlgError where it is singular) and back-substitutes, the deepest
    level first.  It writes none of its arguments, and each call is the same
    arithmetic on its right-hand side, bitwise.
    """
    n = sub.shape[0] + 1
    # S[:, k] holds row k as S[2, k] x[k] = rhs[k] + S[0, k] x[k-1] + S[1, k] x[k+1]
    S = np.empty((3,) + np.broadcast_shapes((n,) + sub.shape[1:], diag.shape))
    S[0, :1] = S[1, -1:] = 0.0
    np.negative(sub, out=S[0, 1:])
    np.negative(sup, out=S[1, :-1])
    S[2] = diag
    # each level's L, its odd pivots, and the couplings of its even rows to
    # their left and right
    levels = []
    while n > DENSE_CUT:
        odd, even = S[:, 1::2], S[:, ::2]
        if not odd[2].all():
            raise np.linalg.LinAlgError("zero pivot")
        # x[2i+1] = t[i] + L[0, i] x[2i] + L[1, i] x[2i+2], t[i] = rhs[2i+1] / S[2, 2i+1]
        L = odd[:2] / odd[2]
        me, mo = even.shape[1], L.shape[1]
        levels.append((L, odd[2], even[0, 1:], even[1, :mo]))
        # the first even row has no odd row on its left, and the last one
        # none on its right when n is odd; their zero couplings carry over
        S = even.copy()
        left = even[0, 1:] * L[:, :me - 1]
        S[0, 1:] = left[0]
        S[2, 1:] -= left[1]
        right = even[1, :mo] * L
        S[1, :mo] = right[1]
        S[2, :mo] -= right[0]
        n = me
    # one dense matrix per system, flat; the transposes put each system's
    # rows last
    M = np.zeros(S.shape[2:] + (n * n,))
    M[..., ::n + 1] = S[2].T
    M[..., 1::n + 1] = -S[1, :-1].T
    M[..., n::n + 1] = -S[0, 1:].T
    M = M.reshape(M.shape[:-1] + (n, n))

    def apply(r):
        odds = []  # each level's odd right-hand sides over their pivots
        with np.errstate(over="ignore", invalid="ignore"):
            for _, piv, left, right in levels:
                t = r[1::2] / piv
                odds.append(t)
                r = r[::2].copy()
                r[1:] += left * t[:r.shape[0] - 1]
                r[:t.shape[0]] += right * t
            x = np.linalg.solve(M, r.T[..., None])[..., 0].T
            for (L, *_), t in zip(reversed(levels), reversed(odds)):
                me, mo = x.shape[0], t.shape[0]
                odd = t + L[0] * x[:mo]
                odd[:me - 1] += L[1, :me - 1] * x[1:]
                out = np.empty((me + mo,) + x.shape[1:])
                out[::2], out[1::2] = x, odd
                x = out
        return x

    return apply


def _matvec(M, v):
    return (M @ v[..., None])[..., 0]


def _thomas_inverts(diag, off) -> bool:
    """Whether every symmetric tridiagonal block with bands ``diag`` (m, d)
    and ``off`` (m, d - 1) is strictly row diagonally dominant, so that
    ``_thomas_inverse`` inverts it stably."""
    b, a = np.abs(diag), np.abs(off)
    rest = np.zeros_like(b)  # each row's off-diagonal sum
    rest[:, 1:] += a
    rest[:, :-1] += a
    return bool(np.all(b > rest))


def _thomas_inverse(diag, off, out):
    """Write into the stack ``out`` (m, d, d) the inverses of the symmetric
    tridiagonal blocks with bands ``diag`` (m, d) and ``off`` (m, d - 1).

    Thomas elimination without pivoting on the identity, one row of all m
    blocks at a time: O(m d^2) against LAPACK's O(m d^3).  Row i of the
    forward sweep has nonzeros in columns 0..i only; back substitution fills
    in the rest.  Stable on strictly row diagonally dominant blocks, where
    every pivot exceeds its row's off-diagonal sum (``_thomas_inverts``).
    """
    m, d = diag.shape
    out[...] = 0.0
    cp = np.empty((m, d - 1))  # the eliminated superdiagonal
    r = 1.0 / diag[:, 0]  # each row's reciprocal pivot
    out[:, 0, 0] = r
    for i in range(1, d):
        cp[:, i - 1] = off[:, i - 1] * r
        r = 1.0 / (diag[:, i] - off[:, i - 1] * cp[:, i - 1])
        np.multiply(out[:, i - 1, :i], (-off[:, i - 1] * r)[:, None], out=out[:, i, :i])
        out[:, i, i] = r
    for i in range(d - 2, -1, -1):
        out[:, i] -= cp[:, i, None] * out[:, i + 1]


@np.errstate(over="ignore", invalid="ignore")
def solve_block_tridiag(sub, diag, off, sup, rhs):
    """Solve a block-tridiagonal system with symmetric tridiagonal diagonal
    blocks and scalar couplings.

    The diagonal blocks are given by their bands, ``diag`` (n, d) and
    ``off`` (n, d - 1), off[k, i] both the (i, i + 1) and the (i + 1, i)
    entry of block k, as ``energies.hess_bands`` gives them; the
    off-diagonal blocks are multiples of the identity, given by their
    factors ``sub`` and ``sup`` (n - 1,); ``rhs`` is (n, d).  Row k reads
    ``sub[k-1] x[k-1] + B[k] x[k] + sup[k] x[k+1] = rhs[k]``, B[k] the block
    with bands diag[k] and off[k].  At d = 1 this is ``solve_tridiag``.  At
    d > 1 the fit alone routes the system: one whose blocks fit one Hessian
    goes to iterative refinement on the eigenbasis solve fitted to them
    (``_krylov_solve``), whose answer, at relative residual ``KRYLOV_TOL``,
    comes back as it is; every other system, and one that the refinement
    cannot solve, goes to the block cyclic reduction (``_block_reduction``).
    No argument is written.

    The call returns a solution or raises LinAlgError, its one refusal.  A
    residual gate checks the reduction's answer: the reduction does not
    pivot across blocks and loses accuracy on a nearly singular pivot block.
    The gate reads the normwise backward error |rhs - A x| / (|A| |x| +
    |rhs|) (2-norms of the vectors; |A| the largest Frobenius norm of a
    block row, between |A|_2 / sqrt(3) and sqrt(d) |A|_2), which a
    backward-stable solve keeps near roundoff at any condition number.  A
    solution whose backward error exceeds ``RESIDUAL_GATE``, or whose
    residual is not finite, raises LinAlgError at once: the gate checks and
    does not repair, and the Levenberg ladder takes the next shift.  The
    refinement's answer needs no gate: its stop test, ``KRYLOV_TOL`` |rhs|,
    lies inside the gate's bound.  Each block's squared Frobenius norm,
    summed once on the bands, serves both the fit and the gate.  An exactly
    singular pivot raises LinAlgError too; at d = 1 overflow gives
    non-finite entries.
    """
    d = rhs.shape[1]
    if d == 1:
        return solve_tridiag(sub, diag[:, 0], sup, rhs[:, 0])[:, None]
    squares = np.einsum("ki,ki->k", diag, diag)
    squares += 2.0 * np.einsum("ki,ki->k", off, off)
    x = _krylov_solve(sub, diag, off, sup, squares, rhs)
    if x is not None:
        return x
    x = _block_reduction(sub, diag, off, sup, rhs)
    # the block rows' squared Frobenius norms
    squares[1:] += d * (sub * sub)
    squares[:-1] += d * (sup * sup)
    residual = np.linalg.norm(rhs - _block_matvec(sub, diag, off, sup, x))
    bound = RESIDUAL_GATE * (math.sqrt(squares.max()) * np.linalg.norm(x) + np.linalg.norm(rhs))
    if not (math.isfinite(residual) and residual <= bound):
        raise np.linalg.LinAlgError("backward error above the residual gate")
    return x


def _block_matvec(sub, diag, off, sup, x):
    """The block-tridiagonal product, row k ``sub[k-1] x[k-1] + B[k] x[k] +
    sup[k] x[k+1]``, with ``solve_block_tridiag``'s layout: on the bands,
    O(n d)."""
    y = diag * x
    y[:, 1:] += off * x[:, :-1]
    y[:, :-1] += off * x[:, 1:]
    y[1:] += sub[:, None] * x[:-1]
    y[:-1] += sup[:, None] * x[1:]
    return y


@np.errstate(over="ignore", invalid="ignore")
def _krylov_solve(sub, diag, off, sup, squares, rhs):
    """The block system's solution for ``rhs`` by iterative refinement on
    its fit in one eigenbasis; None where the system does not fit, or where
    the refinement hands it over.  ``squares`` holds each block's squared
    Frobenius norm.

    Each block B_k is fitted to a_k H + b_k I by least squares in the
    Frobenius norm, H the traceless part of the blocks' mean, tridiagonal
    and symmetric as they are: H and I are orthogonal, so b_k is the
    block's mean diagonal entry, a_k = <B_k, H>/<H, H>, and the fit leaves
    out |B_k|^2 - a_k^2 |H|^2 - d b_k^2 of the block's traceless part's
    |B_k|^2 - d b_k^2, all sums over the bands; only H is made dense, for
    its ``eigh``.  A system whose fit leaves out more than ``KRYLOV_FIT`` of
    the traceless parts is left to the reduction.  The fitted system M,
    solved by ``_eigenbasis_solver`` (O(n d) where the block reduction
    costs O(n d^3)), preconditions a Richardson iteration (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., ch. 4): x = M^-1 rhs, then
    x += M^-1 r with the residual r = rhs - A x, each step multiplying the
    error by I - M^-1 A, small where M leaves out little of A.  It returns
    x once |r| <= ``KRYLOV_TOL`` |rhs| (2-norms), and hands the system over
    where |r| is not finite, where it is not below the previous step's |r|
    (refinement has stalled at the fitted solve's accuracy), or where
    ``KRYLOV_BUDGET`` applications of M^-1, the first included, leave it
    above the tolerance.  Each step makes one block product, its residual.
    The fit, H's eigendecomposition and the scalar reduction's factors are
    made once per system.
    """
    n, d = diag.shape
    hd, ho = diag.mean(axis=0), off.mean(axis=0)  # H's bands
    hd -= hd.sum() / d
    hh = float(hd @ hd) + 2.0 * float(ho @ ho)
    b = diag.sum(axis=1) / d
    a = (diag @ hd + 2.0 * (off @ ho)) / hh if hh > 0.0 else np.zeros(n)
    traceless = float(squares.sum()) - d * float(b @ b)
    if traceless - hh * float(a @ a) > KRYLOV_FIT**2 * traceless:
        return None
    tol = KRYLOV_TOL * np.linalg.norm(rhs)
    try:
        lam, Q = np.linalg.eigh(tridiag_blocks(hd[None], ho[None])[0])
        solve = _eigenbasis_solver(sub, a[:, None], b[:, None], sup, lam, Q)
        x, last = solve(rhs), math.inf
        for applied in range(1, KRYLOV_BUDGET + 1):
            r = rhs - _block_matvec(sub, diag, off, sup, x)
            norm_r = np.linalg.norm(r)
            if not norm_r < last:  # not finite, or stalled
                return None
            if norm_r <= tol:
                return x
            if applied == KRYLOV_BUDGET:
                return None
            last = norm_r
            x += solve(r)
    except np.linalg.LinAlgError:
        return None


@np.errstate(over="ignore", invalid="ignore")
def _block_reduction(sub, diag, off, sup, rhs):
    """Block odd-even cyclic reduction for ``solve_block_tridiag``'s system at
    d > 1, with its blocks' bands ``diag`` and ``off``, which it only reads.

    Each level inverts its odd-row pivot blocks B_j in one batched call, keeps
    the inverses in their slots of the work array and folds the odd rows
    into the even ones: B_k -= A_k B_j^-1 C_j (left) and C_k B_j^-1 A_j
    (right), with the new couplings -A_k B_j^-1 A_j and -C_k B_j^-1 C_j,
    which leaves a block-tridiagonal system of half the size in the even
    unknowns.  The work array (n, d, d) is the one dense block stack of a
    solve: level 0 builds its even rows from the bands, and its odd rows
    take the pivots' inverses; the fill-in makes every block below level 0
    dense.  Level 0's couplings are the diagonal bands, so its products are
    elementwise; the dense couplings of the levels below live in two buffers
    of ceil(n/2) blocks, where each level writes its even rows' new
    couplings over their old ones and its odd rows' B^-1 A and B^-1 C, which
    back substitution reads, over theirs.  Level 0 inverts its pivot blocks
    on their bands by one batched Thomas elimination when all of them are
    strictly row diagonally dominant (``_thomas_inverts``); otherwise, and
    at every level below, LAPACK's partially pivoted LU inverts them.  Rows
    never swap across blocks: the elimination is stable on block-diagonally
    dominant systems (Heller, SIAM J. Numer. Anal. 13, 1976).  An exactly
    singular pivot block raises LinAlgError; overflow gives non-finite
    entries.
    """
    n, d = rhs.shape
    x = np.array(rhs, dtype=float)  # reduced, then solved, in place
    work = np.empty((n, d * d))
    tridiag_blocks(diag[::2], off[::2], out=work[::2])
    D = work.reshape(n, d, d)
    levels = []  # each level's (D, x, A, C) views; A = C = None at level 0
    X, A, C = x, None, None
    while D.shape[0] > 1:
        m = D.shape[0]
        mo = m // 2
        L = m - mo - 1  # even rows with an odd row on their left
        levels.append((D, X, A, C))
        Bi = D[1::2]
        if A is not None:
            Bi[...] = np.linalg.inv(Bi)
        elif _thomas_inverts(diag[1::2], off[1::2]):
            _thomas_inverse(diag[1::2], off[1::2], Bi)
        else:
            tridiag_blocks(diag[1::2], off[1::2], out=work[1::2])
            Bi[...] = np.linalg.inv(Bi)
        X[1::2] = _matvec(Bi, X[1::2])
        if A is None:
            # A_k = sub[k-1] I and C_k = sup[k] I: ak, cj pair the even row
            # k = 2i + 2 with the odd row on its left, ck, aj the even row
            # k = 2i with the odd row on its right.  Running level 0
            # through the dense branch below, on couplings built as diagonal
            # d x d blocks, raised solve-blocks' peak RSS from 51.8 to 57.2
            # MiB and its round from 0.182 to 0.204 s (medians of 10 pairs)
            ak, aj, ck, cj = sub[1::2, None], sub[::2, None], sup[::2, None], sup[1::2, None]
            X[2::2] -= ak * X[1::2][:L]
            X[:2 * mo:2] -= ck * X[1::2]
            A = np.empty((m - mo, d, d))
            C = np.empty((m - mo, d, d))
            # each buffer serves as scratch for its side's diagonal update
            # before it takes the new couplings
            t = A[1:]
            np.multiply(Bi[:L], cj[:, None, :], out=t)
            t *= ak[:, :, None]
            D[2::2] -= t
            np.multiply(Bi[:L], aj[:L, None, :], out=t)
            t *= -ak[:, :, None]
            t = C[:mo]
            np.multiply(Bi, aj[:, None, :], out=t)
            t *= ck[:, :, None]
            D[:2 * mo:2] -= t
            np.multiply(Bi[:L], cj[:, None, :], out=C[:L])
            C[:L] *= -ck[:L, :, None]
            C[L:] = 0.0  # the last row has no right neighbour
        else:
            X[2::2] -= _matvec(A[2::2], X[1::2][:L])
            X[:2 * mo:2] -= _matvec(C[:2 * mo:2], X[1::2])
            # one scratch buffer P of half the level takes each product in turn
            P = Bi @ A[1::2]
            A[1::2] = P
            np.matmul(Bi, C[1::2], out=P)
            C[1::2] = P
            np.matmul(A[2::2], C[1::2][:L], out=P[:L])
            D[2::2] -= P[:L]
            np.matmul(A[2::2], A[1::2][:L], out=P[:L])
            np.negative(P[:L], out=A[2::2])
            np.matmul(C[:2 * mo:2], A[1::2], out=P)
            D[:2 * mo:2] -= P
            np.matmul(C[:2 * mo:2], C[1::2], out=P)
            np.negative(P, out=C[:2 * mo:2])
            A, C = A[::2], C[::2]
        D, X = D[::2], X[::2]
    X[0] = np.linalg.solve(D[0], X[0])
    for D, X, A, C in reversed(levels):
        mo = D.shape[0] // 2
        L = D.shape[0] - mo - 1
        if A is None:
            t = sub[::2, None] * X[:2 * mo:2]
            t[:L] += sup[1::2, None] * X[2::2]
            X[1::2] -= _matvec(D[1::2], t)
        else:
            X[1::2] -= _matvec(A[1::2], X[:2 * mo:2])
            X[1::2][:L] -= _matvec(C[1::2][:L], X[2::2])
    return x


def _eigenbasis_solver(sub, a, b, sup, lam, Q):
    """A solve, for any (n, d) right-hand side, of the block-tridiagonal
    system with diagonal blocks a[k] H + b[k] I and couplings sub[k] I and
    sup[k] I, in the eigenbasis of H = Q diag(lam) Q'.

    The unknowns y = x Q (rows of the (n, d) array x) decouple into d scalar
    tridiagonal systems, column j with diagonal a[k] lam[j] + b[k], and one
    scalar reduction solves all of them: the fast diagonalization of a
    Kronecker sum (Lynch, Rice and Thomas, Numer. Math. 6, 1964), O(n d)
    where the block reduction costs O(n d^3).  ``a`` and ``b`` are (n, 1)
    columns or scalars, ``sub`` and ``sup`` (n - 1,) arrays.  The band pass
    runs here, once (``_factor_tridiag``), and every call of the solve
    applies its factors; either may raise LinAlgError.
    """
    apply = _factor_tridiag(sub[:, None], a * lam + b, sup[:, None])
    return lambda v: apply(v @ Q) @ Q.T


def _newton_system(energy, V, sub, sup, rhs, alpha, beta, scale, shift):
    """A backend's Newton system at the free nodes V, as its solve for a
    Levenberg shift rho: ``solve(rho)`` is the (n, d) solution, or raises
    LinAlgError where the system is refused.

    Row k's diagonal block is (alpha[k] H_k + beta[k] I) / scale[k] + rho
    shift I, H_k the Hessian of phi at V[k]; its couplings are sub[k - 1] I
    and sup[k] I.  ``alpha``, ``beta`` and ``scale`` are (n, 1) columns or
    scalars.  Where d > 1 and every node has one Hessian H, a quadratic's A
    at any V and any other kind's where the nodes coincide (as at the
    constant start), the blocks are a[k] H + b[k] I with a = alpha / scale
    and b = beta / scale + rho shift, and the system is solved in H's
    eigenbasis (``_eigenbasis_solver``); H is exactly symmetric either way,
    A stored so and the other kinds' Hessians made from their bands.
    Otherwise the blocks' bands (``energies.hess_bands``) are scaled in
    place, shifted, and ``solve_block_tridiag`` solves them.
    """
    if V.shape[1] > 1 and (energy.kind == QUADRATIC or (V == V[0]).all()):
        H = energy.params["A"] if energy.kind == QUADRATIC else hess_many(energy, V[:1])[0]
        lam, Q = np.linalg.eigh(H)
        a, b = alpha / scale, beta / scale
        return lambda rho: _eigenbasis_solver(sub, a, b + rho * shift, sup, lam, Q)(rhs)
    diag, off = hess_bands(energy, V)
    diag *= alpha
    diag += beta
    diag /= scale
    off *= alpha
    off /= scale
    return lambda rho: solve_block_tridiag(sub, diag + rho * shift, off, sup, rhs)


# -- direct minimization ---------------------------------------------------------


def minimize_wed(problem: WedProblem) -> WedSolution:
    if problem.solver == EULER_LAGRANGE:
        return solve_euler_lagrange(problem)
    grid = problem.grid()
    w = Weights.for_grid(grid, problem.epsilon)
    eps, m, tail, dt = problem.epsilon, w.masses, w.tail, grid.dt
    omega = problem.space.metric_weight
    N = grid.n_cells
    c = eps * m / dt**2  # kinetic coupling per cell
    pw = np.concatenate([m[:-1] + m[1:], [m[-1] + tail]])
    nodew = np.concatenate([m[1:], [tail]])  # energy weight per free node

    full = lambda V: np.concatenate([problem.x_bar.coords[None, :], V])  # U[0] = x_bar is pinned
    # the constant parts of the row-scaled Newton matrix: the kinetic coupling
    # to the cells on both sides of a node (the last node has one), with row k
    # scaled by its preconditioner weight pw[k] to tame the mass decay
    opw = omega * pw[:, None]  # the stopping norms' scale
    kin = np.append(c[:-1] + c[1:], c[-1]) * omega
    sub = -c[1:] * omega
    sup = sub / pw[:-1]
    sub /= pw[1:]

    def evaluate(V):
        U = full(V)
        dU = np.diff(U, axis=0)
        phis = eval_many(problem.energy, U)
        kin = 0.5 * eps * np.sum(m * np.sum(omega * dU * dU, axis=1) / dt**2)
        ke = (c[:, None] * dU) * omega
        g = np.zeros_like(U)
        g[:-1] -= ke
        g[1:] += ke
        G = grad_many(problem.energy, U)
        g[:-1] += m[:, None] * G[:-1]
        g[-1] += tail * G[-1]
        return kin + float(np.sum(m * phis[:-1]) + tail * phis[-1]), g[1:]

    def dual_norm(g):
        return float(np.sqrt(np.sum(g * g / opw)))

    def row_max(g):
        # per-node stationarity residual in the mass-normalized (EL) scale;
        # keeps the near-zero-mass tail honest even though it cannot move
        # the objective above roundoff
        return float(np.max(np.abs(g) / opw))

    def direction(V, g):
        # row-scaled Newton step with a deterministic Levenberg ladder: the
        # blocks are (nodew H + kin I)/pw + rho omega I
        solve = _newton_system(problem.energy, V, sub, sup, -g / pw[:, None], nodew[:, None],
                               kin[:, None], pw[:, None], omega)
        step = levenberg(solve, g, -(g / omega) / pw[:, None])
        return step, float(np.sum(g * step))

    V0 = np.tile(problem.x_bar.coords, (N, 1))
    start = evaluate(V0)
    gn0, rmax0 = dual_norm(start[1]), row_max(start[1])
    row_tol = 1e-6 * (1.0 + rmax0)
    V, f, g, it, _ = damped_newton(
        V0, start, evaluate, row_max,
        lambda g: dual_norm(g) <= GRAD_TOL and row_max(g) <= row_tol,
        direction, MAX_ITER,
    )
    U = full(V)
    gn, rmax = dual_norm(g), row_max(g)
    converged = gn <= max(GRAD_TOL, 1e-7 * (1.0 + gn0)) and rmax <= max(
        row_tol, 1e-4 * (1.0 + rmax0)
    )
    if not converged:
        raise NonConvergenceError(
            f"direct minimization stalled at gradient norm {gn:.3e} "
            f"(row residual {rmax:.3e})",
            best=U,
            trace=[("iterations", it), ("gradient_norm", gn), ("row_residual", rmax)],
        )
    return _solution(problem, grid, U, f, it, gn)


def _solution(problem, grid, pts, objective, iterations, gradient_norm) -> WedSolution:
    """The converged solution with points ``pts`` on ``grid``; an objective of
    None is the weighted cost of that trajectory."""
    traj = Trajectory(grid, pts, problem.space)
    speed, phi = metric_speed(traj), eval_many(problem.energy, pts)
    if objective is None:
        objective = _weighted_cost(problem.epsilon, grid, speed, phi)
    return WedSolution(problem, traj, objective, speed, phi, iterations, gradient_norm)


# -- Euler-Lagrange backend -------------------------------------------------------


def solve_euler_lagrange(problem: WedProblem) -> WedSolution:
    """Damped Newton on the finite-difference optimality system.

    The computational window extends to T + 8 eps with the uniform spacing
    T/N, so that the artificial zero-slope end condition sits eight
    boundary-layer widths past the reported horizon.  The solution
    is the window's first N + 1 nodes, on the problem grid
    ``TimeGrid.uniform(T, N)``.
    """
    eps = problem.epsilon
    dt = problem.T / problem.N
    # clear the reporting window by eight boundary-layer widths (the layer
    # of the artificial end condition decays no slower than e^{-(T_ext-t)/eps})
    t_ext = problem.T + 8.0 * eps
    n_c = int(math.ceil(t_ext / dt - 1e-12))
    omega = problem.space.metric_weight
    d = problem.space.dim
    full = lambda V: np.concatenate([problem.x_bar.coords[None, :], V])  # U[0] = x_bar is pinned
    lo = np.full(n_c - 1, -eps / dt**2 - 1.0 / (2.0 * dt))
    up = np.full(n_c - 1, -eps / dt**2 + 1.0 / (2.0 * dt))
    lo[-1] = -2.0 * eps / dt**2
    kin = 2.0 * eps * omega / dt**2  # the kinetic diagonal, times omega

    sup_norm = lambda F: float(np.max(np.abs(F)))

    def evaluate(V):
        # the residual F and its size max|F|
        U = full(V)
        G = grad_many(problem.energy, U[1:]) / omega
        F = np.empty((n_c, d))
        upp = U[2:] - 2.0 * U[1:-1] + U[:-2]
        F[:-1] = -eps * upp / dt**2 + (U[2:] - U[:-2]) / (2.0 * dt) + G[:-1]
        # ghost-node zero-slope closure at the far end (second order)
        F[-1] = -2.0 * eps * (U[-2] - U[-1]) / dt**2 + G[-1]
        return sup_norm(F), F

    def direction(V, F):
        # the blocks, (H + kin I)/omega, stay symmetric; no Levenberg shift
        try:
            step = _newton_system(problem.energy, V, lo, up, -F, 1.0, kin, omega, omega)(0.0)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"Jacobian solve refused: {exc}", best=full(V))
        return step, -sup_norm(F)

    V0 = np.tile(problem.x_bar.coords, (n_c, 1))
    V, fn, _, it, trace = damped_newton(
        V0, evaluate(V0), evaluate, sup_norm,
        lambda F: sup_norm(F) <= GRAD_TOL, direction, MAX_ITER,
    )
    U = full(V)
    if fn > GRAD_TOL:
        raise NonConvergenceError(
            f"Euler-Lagrange Newton stopped at residual {fn:.3e} after {it} iterations",
            best=U, trace=trace,
        )
    return _solution(problem, problem.grid(), U[:problem.N + 1], None, it, fn)
