"""Correctness oracles computed by the benchmark itself, with no wedflow calls.

* closed forms of the 1-D quadratic phi = x^2/2: V = kappa(eps) x^2 and
  G = |x| sqrt((1 - 2 kappa)/eps), kappa the positive root of
  2 eps k^2 + k = 1/2;
* hand-written energies and gradients of the fixtures;
* the discrete weighted objective of a trajectory and its gradient with
  respect to the free nodes, with exact cell masses
  exp(-t_i/eps) - exp(-t_{i+1}/eps), left-node sampling and the tail term
  exp(-T/eps) phi(u_N).
"""

from __future__ import annotations

import math

import numpy as np


def kappa(eps: float) -> float:
    return (math.sqrt(1.0 + 4.0 * eps) - 1.0) / (4.0 * eps)


def quadratic_value(x: float, eps: float) -> float:
    return kappa(eps) * x * x


def quadratic_G(x: float, eps: float) -> float:
    return abs(x) * math.sqrt((1.0 - 2.0 * kappa(eps)) / eps)


# -- energies, row-wise on (n, d) arrays ------------------------------------------


def _quadratic(U):
    return 0.5 * np.sum(U * U, axis=1), U


def _double_well(U):
    return 0.25 * np.sum((U * U - 1.0) ** 2, axis=1), U**3 - U


def _quantile_entropy(U, v2, v1):
    m = U.shape[1]
    gaps = np.diff(U, axis=1)
    if np.any(gaps <= 0.0):
        raise ValueError("quantile trajectory left the monotone cone")
    phi = np.sum(0.5 * v2 * U * U + v1 * U, axis=1) / m - np.sum(np.log(m * gaps), axis=1) / m
    grad = (v2 * U + v1) / m
    grad[:, :-1] += 1.0 / (m * gaps)  # d/du_j of -log(u_{j+1} - u_j)/m
    grad[:, 1:] -= 1.0 / (m * gaps)
    return phi, grad


def _dirichlet(U, p, h, reaction):
    n, d = U.shape
    W = np.zeros((n, d + 2))
    W[:, 1:-1] = U  # zero boundary values on both sides
    g = (W[:, 1:] - W[:, :-1]) / h
    c = np.asarray(reaction, dtype=float)
    powers = U[:, :, None] ** np.arange(len(c))
    dpowers = np.zeros_like(powers)
    dpowers[:, :, 1:] = np.arange(1, len(c)) * U[:, :, None] ** np.arange(len(c) - 1)
    phi = (h / p) * np.sum(np.abs(g) ** p, axis=1) + h * np.sum(powers @ c, axis=1)
    flux = np.abs(g) ** (p - 1.0) * np.sign(g)
    grad = flux[:, :-1] - flux[:, 1:] + h * (dpowers @ c)
    return phi, grad


def energy(kind: str, params: dict):
    """phi and its coordinate gradient as one function of an (n, d) array."""
    if kind == "quadratic":
        return _quadratic
    if kind == "double_well":
        return _double_well
    if kind == "quantile_entropy_potential":
        return lambda U: _quantile_entropy(U, params["v2"], params["v1"])
    if kind == "discrete_dirichlet":
        return lambda U: _dirichlet(U, params["p"], params["h"], params["reaction"])
    raise ValueError(f"no oracle for energy kind {kind!r}")


def metric_weights(space: tuple) -> np.ndarray:
    kind, dim = space
    return np.full(dim, 1.0 / dim) if kind == "quantile1d" else np.ones(dim)


# -- the discrete weighted objective ----------------------------------------------


def wed_objective(fn, omega, nodes, eps, U):
    """(J, gradient over the free nodes U[1:], row scale of each free node)."""
    e = np.exp(-nodes / eps)
    m, tail, dt = e[:-1] - e[1:], e[-1], np.diff(nodes)
    dU = np.diff(U, axis=0)
    phi, dphi = fn(U)
    J = 0.5 * eps * np.sum(m * np.sum(omega * dU * dU, axis=1) / dt**2) \
        + np.sum(m * phi[:-1]) + tail * phi[-1]
    kinetic = (eps * m / dt**2)[:, None] * omega * dU
    grad = np.zeros_like(U)
    grad[1:] += kinetic
    grad[:-1] -= kinetic
    grad[:-1] += m[:, None] * dphi[:-1]
    grad[-1] += tail * dphi[-1]
    # mass next to each free node: its two cells, or the last cell and the tail
    scale = np.append(m[:-1] + m[1:], m[-1] + tail)
    return float(J), grad[1:], scale


def stationarity(fn, omega, nodes, eps, U):
    """Largest per-node residual |dJ/du_k| / (omega * adjacent mass)."""
    _, g, scale = wed_objective(fn, omega, nodes, eps, U)
    return float(np.max(np.abs(g) / omega / scale[:, None]))
