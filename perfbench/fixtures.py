"""Seeded inputs of the three workloads.

Every input is drawn from ``numpy.random.default_rng([seed, stream, ...])``,
so the same seed gives the same configs, initial points and query streams.
The ranges are narrow on purpose: every check passes on all of them, and
the work of a round stays within a band.

This module holds numbers and plain dicts only; ``workloads`` turns them into
wedflow objects.
"""

from __future__ import annotations

import numpy as np

# stream tags of the seeded generators
_CHECK, _SOLVE, _POOL, _STREAM = 1, 2, 3, 4

SUITES = ("spectral", "inner", "dpp", "fundamental", "monotone", "yosida",
          "hj", "lambda", "convergence", "finsler")


def rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


# -- check-1d -------------------------------------------------------------------


def check_config(seed: int, k: int) -> dict:
    """The pinned 1-D double-well config with a seeded initial point.

    epsilon = 0.05 keeps 1 + 8 lambda eps > 0.5, which the lambda suite needs
    for lambda = -1; x_bar stays between the hilltop and the well bottom,
    where the Hamilton-Jacobi slope test is well conditioned.  The yosida
    suite compares at tolerance 0; its margin is 2.4e-6 at x_bar = 0.22 and
    1.8e-6 at 0.34, and it falls below 0 from about 0.46.
    """
    r = rng(seed, _CHECK, k)
    return {
        "space": {"kind": "euclidean", "dim": 1},
        "energy": {"kind": "double_well"},
        "x_bar": [round(float(r.uniform(0.22, 0.34)), 4)],
        "epsilon": 0.05,
        "eps_list": [0.1, 0.05, 0.025, 0.0125],
        "t_obs": 1.0,
        "N": 4000,
        "grid_mode": "uniform",
        "solver": "direct",
        "probe_seed": int(r.integers(1, 2**31 - 1)),
        "suites": list(SUITES),
    }


# -- solve-blocks ---------------------------------------------------------------

SOLVE_FIXTURES = ("dw1d", "q16", "dirichlet8")
BACKENDS = ("direct", "euler_lagrange")
BACKEND_TAGS = {"direct": "direct", "euler_lagrange": "el"}


# strides of the rounds' draws: fractional parts of square roots of primes
_WEYL = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0]) % 1.0


def _spread(seed: int, k: int) -> list:
    """Five numbers in [0, 1) for round k of solve-blocks.

    Each is a Weyl sequence, start + k * stride mod 1, from a seeded start.
    The rounds of any run then cover [0, 1) evenly, whatever the seed, so
    the median round of a run varies little from seed to seed; independent
    draws each round had the solve time of a round vary by 18 %.
    """
    return ((rng(seed, _SOLVE).random(_WEYL.size) + k * _WEYL) % 1.0).tolist()


def solve_fixtures(seed: int, k: int) -> list:
    """Round k of solve-blocks: three (name, spec) pairs, one per fixture.

    A spec is a plain dict: space and energy parameters, x_bar, eps, T, N.
    """
    u = _spread(seed, k)
    dw = {
        "space": ("euclidean", 1),
        "energy": ("double_well", {}),
        "x_bar": [0.3 + 0.2 * u[0]],
        "eps": 0.05, "T": 1.25, "N": 4000,
    }
    mean, std = 0.8 + 0.4 * u[1], 1.4 + 0.4 * u[2]
    q16 = {
        "space": ("quantile1d", 16),
        "energy": ("quantile_entropy_potential", {"v2": 1.0, "v1": 0.0}),
        "gaussian": (mean, std),
        "eps": 0.05, "T": 0.5, "N": 800,
    }
    s = np.arange(1, 9) / 9.0
    a, b = 0.8 + 0.4 * u[3], -0.3 + 0.6 * u[4]
    dirichlet = {
        "space": ("euclidean", 8),
        "energy": ("discrete_dirichlet", {"p": 3.0, "h": 1.0 / 9.0, "reaction": [0.0, 0.0, 1.0]}),
        "x_bar": (a * np.sin(np.pi * s) + b * np.sin(2.0 * np.pi * s)).tolist(),
        "eps": 0.05, "T": 0.5, "N": 600,
    }
    return list(zip(SOLVE_FIXTURES, (dw, q16, dirichlet)))


# -- value-reuse ----------------------------------------------------------------

POOL_EPS = (0.2, 0.1, 0.05)  # one eps ladder per pool point
POOL_N = 800
# anchors of the pool points; the seed jitters each by up to 0.05
POOL_ANCHORS = {"quadratic": (-1.2, -0.5, 0.6, 1.3), "double_well": (-1.6, -0.4, 0.35, 1.5)}
STREAM_LEN = 8000  # pool queries per round

# Mixed-resolution requests: V(x) at a coarse N, then at a finer N, on the
# round's cache.  Their eps lie off POOL_EPS, so their keys never meet a pool
# key, and they do not depend on the seed.
MIXED = ((1.0, 0.15), (1.0, 0.3))
MIXED_N = (50, 400)


def value_pool(seed: int) -> list:
    """[(energy_kind, x, eps)]: 2 energies x 4 points x 3 eps = 24 entries."""
    r = rng(seed, _POOL)
    pool = []
    for kind, anchors in POOL_ANCHORS.items():
        for x0 in anchors:
            x = round(x0 + float(r.uniform(-0.05, 0.05)), 6)
            pool.extend((kind, x, eps) for eps in POOL_EPS)
    return pool


def value_stream(seed: int, k: int, pool_size: int) -> np.ndarray:
    """Pool indices of round k: every entry at least once, the rest repeats."""
    r = rng(seed, _STREAM, k)
    idx = np.concatenate([np.arange(pool_size),
                          r.integers(0, pool_size, STREAM_LEN - pool_size)])
    return r.permutation(idx)
