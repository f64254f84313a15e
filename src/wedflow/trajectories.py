"""Time grids, the exponential weight measure, curve speeds, reparameterization.

The weight measure on [0, infinity) has density exp(-t/eps)/eps.  Cell masses
are always the exact closed form exp(-t_i/eps) - exp(-t_{i+1}/eps) (plus the
tail mass exp(-T/eps) beyond the horizon), never a quadrature of the density,
so that sum identities hold to machine precision.  Pointwise integrands are
sampled at the left node of each cell, consistent with forward-difference
speeds; this makes all weighted quadratures first-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurveError, DomainError, InvalidInputError
from .spaces import Point, SpaceSpec, row_distances


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.shape[0] < 2:
            raise InvalidInputError("a time grid needs at least two nodes")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise InvalidInputError("grid nodes must start at 0 and increase strictly")

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)

    @staticmethod
    def uniform(T: float, N: int) -> "TimeGrid":
        if T <= 0.0 or N < 1:
            raise InvalidInputError("uniform grid needs T > 0 and N >= 1")
        return TimeGrid(np.linspace(0.0, T, N + 1))

    @staticmethod
    def exp_graded(eps: float, T: float, N: int) -> "TimeGrid":
        if eps <= 0.0 or T <= 0.0 or N < 1:
            raise InvalidInputError("exp_graded grid needs eps, T > 0 and N >= 1")
        i = np.arange(1, N)
        interior = -eps * np.log1p(-(i / N) * (1.0 - np.exp(-T / eps)))
        return TimeGrid(np.concatenate([[0.0], interior, [T]]))  # exact endpoints


@dataclass(frozen=True)
class Weights:
    """Exact cell masses of the exponential probability measure."""

    masses: np.ndarray
    tail: float
    epsilon: float

    def __post_init__(self):
        if np.any(self.masses <= 0.0):
            raise InvalidInputError("cell masses must be positive")
        total = float(np.sum(self.masses)) + self.tail
        if abs(total - 1.0) > 1e-14 * max(1.0, total):
            raise InvalidInputError("masses plus tail must sum to 1")

    @staticmethod
    def for_grid(grid: TimeGrid, eps: float) -> "Weights":
        w = np.exp(-grid.nodes / eps)
        return Weights(w[:-1] - w[1:], float(w[-1]), eps)

    def cell_costs(self, speed: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The discrete cost's cell terms m_i (eps/2 v_i^2 + phi(u_i)), from the
        cell speeds and the node energies sampled at each cell's left node.
        The cost is their sum plus the tail term ``tail * phi[-1]``."""
        return self.masses * (0.5 * self.epsilon * speed**2 + phi[:-1])


@dataclass(frozen=True)
class Trajectory:
    """A discrete curve: one point per grid node, all in one space."""

    grid: TimeGrid
    points: np.ndarray  # (N+1, d) coordinate rows
    space: SpaceSpec

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] != self.grid.nodes.shape[0]:
            raise InvalidInputError("one point per grid node required")
        if pts.shape[1] != self.space.dim:
            raise InvalidInputError("point dimension does not match the space")

    def point_at(self, i: int) -> Point:
        return Point(self.points[i], self.space)


def metric_speed(traj: Trajectory) -> np.ndarray:
    """Forward-difference speeds v_i = d(u_i, u_{i+1}) / dt_i, one per cell."""
    return row_distances(traj.space, traj.points[:-1], traj.points[1:]) / traj.grid.dt


def row_values(f, P: np.ndarray) -> np.ndarray:
    """``f(P)``, checked to be one value per row of the (n, d) array P."""
    vals = np.asarray(f(P), dtype=float)
    if vals.shape != (P.shape[0],):
        raise InvalidInputError(f"need one value per row of {P.shape}, got shape {vals.shape}")
    return vals


def g_reparam(traj: Trajectory, g) -> Trajectory:
    """Reparameterize so the curve's speed matches g along it.

    ``g`` maps an (n, d) array of coordinate rows to n values (``row_values``);
    it is called once, on the segment midpoints, and must be strictly positive
    there.  The output parameter interval is [0, S] with S = sum of
    segment_length / g.
    """
    P = traj.points
    seg = row_distances(traj.space, P[:-1], P[1:])
    gvals = row_values(g, 0.5 * (P[:-1] + P[1:]))
    if np.any(~np.isfinite(gvals)) or np.any(gvals <= 0.0):
        raise DomainError("g must be positive and finite along the curve")
    increments = seg / gvals
    S = float(np.sum(increments))
    if S <= 0.0:
        raise DegenerateCurveError("g-reparameterization of a constant curve")
    return _resample(traj, increments, S)


def _resample(traj: Trajectory, increments: np.ndarray, total: float) -> Trajectory:
    """Invert the cumulative parameter map onto a uniform grid with the same N.

    Flat stretches of the cumulative map (zero-speed cells) are inverted to
    their left-most preimage.
    """
    N = traj.grid.n_cells
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    cum[-1] = total
    s_new = np.linspace(0.0, total, N + 1)
    idx = np.searchsorted(cum, s_new, side="left")
    idx = np.clip(idx, 1, N)
    frac = np.zeros(N + 1)
    width = cum[idx] - cum[idx - 1]
    pos = width > 0.0
    frac[pos] = (s_new[pos] - cum[idx - 1][pos]) / width[pos]
    frac = np.clip(frac, 0.0, 1.0)
    pts = traj.points[idx - 1] + frac[:, None] * (traj.points[idx] - traj.points[idx - 1])
    pts[0] = traj.points[0]
    pts[-1] = traj.points[-1]
    return Trajectory(TimeGrid(s_new), pts, traj.space)


def _cell_sq_integral(a: float, b: float, t0: float, h: float, eps: float) -> float:
    """Exact integral of (a + b*tau)^2 exp(-(t0+tau)/eps)/eps over tau in [0, h]."""
    e = np.exp(-h / eps)
    i0 = eps * (1.0 - e)
    i1 = -h * eps * e + eps * i0
    i2 = -(h**2) * eps * e + 2.0 * eps * i1
    return np.exp(-t0 / eps) / eps * (a * a * i0 + 2.0 * a * b * i1 + b * b * i2)


def spectral_terms(t: np.ndarray, w: np.ndarray, eps: float):
    """Per-cell terms of ``spectral_check``'s two integrals, cells along the
    last axis: ``(dirichlet, l2)``, the weighted Dirichlet and the weighted L2
    integral of each cell, l2 not yet scaled by 1/(4 eps^2).

    A cell reads only its two end nodes, so the cells of a long profile can be
    evaluated a chunk at a time, each chunk of nodes one node longer than its
    chunk of cells; w(0) = 0 is not checked here.
    """
    dt = np.diff(t)
    v = np.divide(np.diff(w), dt, out=np.zeros_like(dt), where=dt != 0.0)
    ew = np.exp(-t / eps)
    dirichlet = v * v * (ew[..., :-1] - ew[..., 1:])
    return dirichlet, _cell_sq_integral(w[..., :-1], v, t[..., :-1], dt, eps)


def spectral_totals(dirichlet: np.ndarray, l2: np.ndarray, eps: float):
    """``spectral_check``'s (lhs, rhs, ratio) from the per-cell terms of
    ``spectral_terms``, summed along the last axis."""
    lhs = np.sum(dirichlet, axis=-1)
    rhs = np.sum(l2, axis=-1) / (4.0 * eps * eps)
    ratio = np.divide(rhs, lhs, out=np.zeros_like(lhs), where=lhs > 0.0)
    if dirichlet.ndim == 1:
        return float(lhs), float(rhs), float(ratio)
    return lhs, rhs, ratio


def spectral_check(t: np.ndarray, w: np.ndarray, eps: float):
    """Weighted Poincare comparison for w with w(0) = 0.

    Integrals are evaluated exactly for the piecewise-linear interpolant of
    the samples, so the returned pair always satisfies lhs >= rhs: the
    continuum inequality applies verbatim to the interpolant.

    Returns (lhs, rhs, ratio) with lhs the weighted Dirichlet integral, rhs
    the weighted L2 integral scaled by 1/(4 eps^2), and ratio = rhs/lhs
    (defined as 0.0 for a vanishing lhs).  On 2-D ``t`` and ``w`` each row
    is one profile and the three are arrays, one entry a row.  A cell of
    zero length adds nothing to either integral, so profiles of different
    lengths share one call when their rows are padded with zeros past their
    last node, in the time increments and in w.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    if t.shape != w.shape:
        raise InvalidInputError("t and w must have matching shapes")
    if np.any(w[..., 0] != 0.0):
        raise InvalidInputError("spectral check needs w(0) = 0")
    return spectral_totals(*spectral_terms(t, w, eps), eps)


def poincare_witness(n: float, eps: float, t: np.ndarray) -> np.ndarray:
    """The near-extremal profile for the spectral check: a trapezoidal window
    on [0, 2n] carried by the growing exponential exp(t/(2 eps)) that turns
    the inequality into an equality as n grows."""
    ramp = np.clip(n - np.abs(np.asarray(t, dtype=float) - n), 0.0, 1.0)
    return ramp * np.exp(t / (2.0 * eps))
