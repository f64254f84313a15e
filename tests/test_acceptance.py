"""Acceptance gate: every graded claim at its stated tolerance.

Each test prints one PASS line with the measured numbers (run with -s to see
them); a failed assertion is the corresponding FAIL.  Runtime-limited checks
measure wall time.
"""

import math
import time

import numpy as np
import pytest

from wedflow import (
    SpaceSpec, StudyOptions, WedProblem, check_dpp,
    check_eps_monotonicity, check_fundamental_identity, check_hj,
    check_yosida_bound, convergence_study, convex_quartic, distance,
    double_well, exact_flow, finsler_distance, gaussian_quantiles, g_reparam,
    lambda_diagnostics, metric_speed, minimize_wed, point, poincare_witness,
    quadratic, quantile_entropy_potential, solve_euler_lagrange,
    spectral_check, wed_slope_compare,
)
from wedflow.energies import eval_many

E1 = SpaceSpec.euclidean(1)
QUAD = quadratic([[1.0]])
DW = double_well()


def kappa(eps):
    return (math.sqrt(1.0 + 4.0 * eps) - 1.0) / (4.0 * eps)


def r_minus(eps):
    return (1.0 - math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)


def ok(n, msg):
    print(f"[PASS] criterion {n:2d}: {msg}")


@pytest.fixture(scope="module")
def quad_sol():
    return minimize_wed(WedProblem(epsilon=0.1, T=2.0, N=4000, space=E1,
                                   energy=QUAD, x_bar=point([1.0], E1)))


@pytest.fixture(scope="module")
def dw_sol():
    return minimize_wed(WedProblem(epsilon=0.05, T=1.0, N=4000, space=E1,
                                   energy=DW, x_bar=point([0.3], E1)))


def test_criterion_01_quadratic_closed_form_both_solvers():
    eps, T, N = 0.1, 2.0, 4000
    exact = lambda t: np.exp(r_minus(eps) * t)
    t0 = time.perf_counter()
    sd = minimize_wed(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=QUAD,
                                 x_bar=point([1.0], E1)))
    t_direct = time.perf_counter() - t0
    err_d = float(np.max(np.abs(sd.trajectory.points[:, 0]
                                - exact(sd.trajectory.grid.nodes))))
    t0 = time.perf_counter()
    se = solve_euler_lagrange(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=QUAD,
                                         x_bar=point([1.0], E1),
                                         solver="euler_lagrange"))
    t_el = time.perf_counter() - t0
    err_e = float(np.max(np.abs(se.trajectory.points[:, 0]
                                - exact(se.trajectory.grid.nodes))))
    assert err_d <= 1e-3
    assert err_e <= 1e-4
    assert t_direct < 5.0 and t_el < 5.0
    ok(1, f"sup error direct {err_d:.2e} <= 1e-3, euler-lagrange {err_e:.2e} <= 1e-4 "
          f"({t_direct:.2f}s / {t_el:.2f}s < 5s)")


def test_criterion_02_value_function_closed_form():
    worst_rel, worst_alg = 0.0, 0.0
    for eps in (0.2, 0.1, 0.05):
        from wedflow import value_function

        s = value_function(QUAD, point([1.0], E1), eps)
        worst_rel = max(worst_rel, abs(s.V - kappa(eps)) / kappa(eps))
        worst_alg = max(worst_alg, abs(2 * eps * s.V**2 + s.V - 0.5))
    assert worst_rel <= 1e-3
    assert worst_alg <= 1e-3
    ok(2, f"value vs closed form rel {worst_rel:.2e} <= 1e-3, "
          f"quadratic algebra residual {worst_alg:.2e} <= 1e-3")


def test_criterion_03_weighted_poincare():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for eps in (0.1, 1.0):
        for _ in range(500):
            n = int(rng.integers(4, 64))
            t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, n))])
            w = np.concatenate([[0.0], rng.standard_normal(n)])
            lhs, rhs, _ = spectral_check(t, w, eps)
            worst = max(worst, (rhs - lhs) / max(lhs, 1e-300))
    nw, epsw = 50.0, 1.0
    tg = np.linspace(0.0, 4 * nw, 100_000 + 1)
    _, _, ratio = spectral_check(tg, poincare_witness(nw, epsw, tg), epsw)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert ratio >= 0.9
    assert elapsed < 10.0
    ok(3, f"1000 random profiles, worst violation {worst:.2e} <= 1e-12; "
          f"witness ratio {ratio:.4f} >= 0.9 ({elapsed:.1f}s < 10s)")


def test_criterion_04_fundamental_identity_with_refinement(quad_sol, dw_sol):
    lines = []
    for label, sol, make in (
        ("quadratic", quad_sol,
         lambda N: WedProblem(epsilon=0.1, T=2.0, N=N, space=E1, energy=QUAD,
                              x_bar=point([1.0], E1))),
        ("double-well", dw_sol,
         lambda N: WedProblem(epsilon=0.05, T=1.0, N=N, space=E1, energy=DW,
                              x_bar=point([0.3], E1))),
    ):
        fine = check_fundamental_identity(sol)
        coarse = check_fundamental_identity(minimize_wed(make(2000)))
        assert fine.passed and fine.max_residual <= 0.05, label
        ratio = coarse.max_residual / fine.max_residual
        assert 1.4 <= ratio <= 2.6, (label, ratio)
        lines.append(f"{label} {fine.max_residual:.2e} (ratio {ratio:.2f})")
    ok(4, "max residual <= 5% of scale, halving +-30%: " + "; ".join(lines))


def test_criterion_05_restart_identity(quad_sol, dw_sol):
    worst = 0.0
    for sol, eps in ((quad_sol, 0.1), (dw_sol, 0.05)):
        rep = check_dpp(sol, [eps, 2 * eps, 5 * eps])
        assert rep.passed, rep.details
        worst = max(worst, rep.max_residual)
    assert worst <= 5e-3
    ok(5, f"fresh-solve restart residuals {worst:.2e} <= 5e-3 on both fixtures")


def test_criterion_06_eps_monotonicity_double_well():
    worst = 0.0
    for xv in np.linspace(-1.5, 1.5, 20):
        rep = check_eps_monotonicity(DW, point([xv], E1), [0.2, 0.1, 0.05, 0.025])
        worst = max(worst, rep.max_residual)
    assert worst <= 1e-6
    ok(6, f"20-point grid, 4 eps values: worst monotonicity violation {worst:.2e} <= 1e-6")


def test_criterion_07_yosida_lower_bound():
    margins = []
    for energy, xv, eps in ((QUAD, 1.0, 0.1), (DW, 0.3, 0.05), (DW, 0.3, 0.1)):
        rep = check_yosida_bound(energy, point([xv], E1), eps)
        assert rep.passed
        assert rep.details["margin"] > 0.0
        margins.append(rep.details["margin"])
    ok(7, "positive margins on all tested (x, eps): "
          + ", ".join(f"{m:.2e}" for m in margins))


def test_criterion_08_slope_comparison():
    rep = wed_slope_compare(DW, point([0.5], E1), [0.2, 0.1, 0.05, 0.025, 0.0125])
    assert rep.passed, rep.details
    over = max(g - 0.375 for g in rep.details["G"])
    final_gap = rep.details["final_gap"]
    assert all(g <= 0.375 + 1e-2 for g in rep.details["G"])
    assert final_gap <= 5e-2
    ok(8, f"G <= slope + 1e-2 across the sweep (max over {over:+.2e}); "
          f"final gap {final_gap:.2e} <= 5e-2")


def test_criterion_09_lambda_diagnostics():
    quartic_sol = minimize_wed(WedProblem(epsilon=0.05, T=2.0, N=4000, space=E1,
                                          energy=convex_quartic(),
                                          x_bar=point([1.5], E1)))
    rep0 = lambda_diagnostics(quartic_sol, lam=0.0)
    assert rep0.passed, rep0.details
    eps = 0.02
    assert 1.0 + 8.0 * (-1.0) * eps > 0.5
    dw_small = minimize_wed(WedProblem(epsilon=eps, T=1.0, N=4000, space=E1,
                                       energy=DW, x_bar=point([0.3], E1)))
    rep1 = lambda_diagnostics(dw_small, lam=-1.0, lam_prime=-1.25)
    assert rep1.passed, rep1.details
    ok(9, f"convex-modulus suite (quartic) and weighted-speed suite (double well, "
          f"lam'=-1.25, eps=0.02) pass; worst normalized violations "
          f"{rep0.max_residual:.2e}, {rep1.max_residual:.2e}")


def test_criterion_10_hamilton_jacobi_identity():
    t0 = time.perf_counter()
    resids = []
    for energy in (QUAD, convex_quartic()):
        rep = check_hj(energy, point([1.0], E1), 0.05)
        assert rep.passed, rep.details
        resids.append(rep.details["slope_residual"])
    elapsed = time.perf_counter() - t0
    assert max(resids) <= 5e-2
    assert elapsed < 60.0
    ok(10, f"probe slope vs G rel residuals {resids[0]:.2e}, {resids[1]:.2e} <= 5e-2 "
           f"({elapsed:.1f}s < 60s)")


def test_criterion_11_small_parameter_convergence():
    table = convergence_study(QUAD, point([1.0], E1), [0.1, 0.05, 0.025, 0.0125], 1.0)
    errs = table.sup_errors
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(1.6 <= r <= 2.4 for r in ratios), ratios
    qs = SpaceSpec.quantile1d(64)
    spec = quantile_entropy_potential(v2=1.0, v1=0.0)
    x0 = gaussian_quantiles(qs, 1.0, 2.0)
    sol = minimize_wed(WedProblem(epsilon=0.02, T=0.5, N=1000, space=qs, energy=spec,
                                  x_bar=x0, solver="euler_lagrange"))
    nodes = sol.trajectory.grid.nodes
    w2 = []
    for tq in (0.1, 0.5):
        i = int(np.argmin(np.abs(nodes - tq)))
        w2.append(distance(qs, sol.trajectory.point_at(i),
                           exact_flow(spec, x0, float(nodes[i]))))
    assert max(w2) <= 2e-2
    dw_small = convergence_study(DW, point([0.3], E1), [0.025, 0.0125], 1.0,
                                 StudyOptions(N=2000))
    assert dw_small.rows[-1].lsc_residual <= 5e-2
    ok(11, f"sup-error ratios {['%.2f' % r for r in ratios]} in [1.6, 2.4]; "
           f"quantile fixture W2 errors {w2[0]:.2e}, {w2[1]:.2e} <= 2e-2; "
           f"descent residual {dw_small.rows[-1].lsc_residual:.2e} <= 5e-2")


def test_criterion_12_finsler_distance():
    s2 = SpaceSpec.euclidean(2)
    a2, b2 = point([0.0, 0.0], s2), point([1.0, 2.0], s2)
    plain = finsler_distance(s2, lambda P: np.ones(len(P)), a2, b2)
    err_plain = abs(plain - distance(s2, a2, b2))
    assert err_plain <= 1e-6
    c = 4.0
    a1, b1 = point([0.0], E1), point([2.0], E1)
    const = finsler_distance(E1, lambda P: np.full(len(P), math.sqrt(c)), a1, b1)
    err_const = abs(const - math.sqrt(c) * 2.0)
    assert err_const <= 1e-4
    f = lambda P: np.sqrt(np.maximum(1.0, eval_many(QUAD, P)))
    val, curve = finsler_distance(E1, f, point([0.5], E1), point([3.0], E1),
                                  return_curve=True)
    rep = g_reparam(curve, f)
    v = metric_speed(rep)
    mids = 0.5 * (rep.points[:-1] + rep.points[1:])
    fv = f(mids)
    product = float(np.sum(fv * v * rep.grid.dt))
    rel = abs(product - val) / val
    assert rel <= 1e-3
    ok(12, f"unit weight error {err_plain:.1e} <= 1e-6; constant-energy error "
           f"{err_const:.1e} <= 1e-4; action/length agreement {rel:.1e} <= 1e-3")
