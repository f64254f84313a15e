"""The damped-Newton driver against the two-callback iteration it replaced.

``reference_damped_newton`` is that iteration written out: separate merit and
derivative callbacks, a line search that halves t down to 1e-16 however
early ``x + t*p`` rounds to ``x`` or the merit goes blind to the step, and a
failed search counted as a stall, so that a first one is repeated from the
same x.  The driver must give the same iterates, merits and gradients, bit
for bit, on every solver that runs through it, and the same iteration counts
but for that repeat.
"""

import importlib
import math

import numpy as np
import pytest

from wedflow import (
    DomainError, NonConvergenceError, SpaceSpec, ValueOptions, WedProblem, double_well,
    finsler_distance, gaussian_quantiles, minimize_wed, point, quantile_entropy_potential,
    value_function,
)
from wedflow.energies import eval_many, grad_many, prox
from wedflow.newton import damped_newton, levenberg

E1 = SpaceSpec.euclidean(1)
Q16 = SpaceSpec.quantile1d(16)
QENT = quantile_entropy_potential(v2=1.0, v1=0.0)
DRIVER_MODULES = [importlib.import_module(f"wedflow.{m}") for m in ("wed", "energies", "value")]

_EPS_F = 8.0 * np.finfo(float).eps


def reference_damped_newton(x, merit, derivs, residual, done, direction, max_iter):
    f = merit(x)
    g = derivs(x)
    r = residual(g)
    trace = []
    it = stalls = 0
    for it in range(1, max_iter + 1):
        if done(g):
            break
        p, slope = direction(x, g)
        t = 1.0
        while t >= 1e-16:
            xn = x + t * p
            fn = merit(xn)
            pred = 1e-4 * t * slope
            if math.isfinite(fn) and abs(pred) >= _EPS_F * (1.0 + abs(f)):
                ok = fn <= f + pred
            else:
                ok = math.isfinite(fn) and residual(derivs(xn)) < r
            if ok:
                break
            t *= 0.5
        trace.append((it, f, t))
        if not ok:
            stalls += 1
        else:
            stalls += int(abs(f - fn) <= _EPS_F * (1.0 + abs(f))
                          and residual(derivs(xn)) >= 0.5 * r)
            x, f = xn, fn
        g = derivs(x)
        r = residual(g)
        if stalls >= 2:
            break
    return x, f, g, it, trace


def reference_driver(x, start, evaluate, residual, done, direction, max_iter):
    # evaluates x itself, as the iteration it replaced did; a point off the
    # domain (DomainError) has merit inf and no derivatives
    def total(z):
        try:
            return evaluate(z)
        except DomainError:
            return math.inf, None

    return reference_damped_newton(x, lambda z: total(z)[0], lambda z: total(z)[1],
                                   residual, done, direction, max_iter)


def run_with(monkeypatch, driver, solve):
    """``solve()`` with every solver module calling ``driver``; returns its
    result (or NonConvergenceError) and the driver's returns, in call order."""
    returns = []

    def recording(*args):
        out = driver(*args)
        returns.append(out)
        return out

    for module in DRIVER_MODULES:
        monkeypatch.setattr(module, "damped_newton", recording)
    try:
        result = solve()
    except NonConvergenceError as exc:
        result = exc
    monkeypatch.undo()
    return result, returns


def bits(v):
    if isinstance(v, tuple):  # the proximal step's (values, gradients)
        return tuple(map(bits, v))
    return type(v), np.asarray(v, dtype=float).tobytes()


def repeats_a_failed_search(rtrace):
    """Whether the reference's last two iterations are failed searches (t
    below 1e-16), the second from the x the first left unchanged."""
    return len(rtrace) >= 2 and rtrace[-2][2] < 1e-16 and rtrace[-1][2] < 1e-16


def assert_same_runs(new, ref):
    """Same x, merit and gradient; the same iterations, except that the driver
    stops at a failed search the reference repeats; traces equal but for the
    last t of a failed search, which the driver ends where the merit goes
    blind or the step rounds away and the reference halves below 1e-16."""
    assert len(new) == len(ref) > 0
    for (x, f, g, it, trace), (rx, rf, rg, rit, rtrace) in zip(new, ref):
        assert bits(x) == bits(rx)
        assert bits(f) == bits(rf)
        assert bits(g) == bits(rg)
        if repeats_a_failed_search(rtrace):
            rit, rtrace = rit - 1, rtrace[:-1]
        assert it == rit
        assert len(trace) == len(rtrace)
        for (i, fi, t), (ri, rfi, rt) in zip(trace, rtrace):
            assert (i, bits(fi)) == (ri, bits(rfi))
            assert t == rt or (rt < 1e-16 and t > rt)


def compare(monkeypatch, solve):
    new_result, new = run_with(monkeypatch, damped_newton, solve)
    ref_result, ref = run_with(monkeypatch, reference_driver, solve)
    assert_same_runs(new, ref)
    return new_result, ref_result, ref


def test_double_well_value_solve_ending_in_failed_searches(monkeypatch):
    new, ref, runs = compare(monkeypatch, lambda: value_function(
        double_well(), point([1.5], E1), 0.05, ValueOptions(N=4000)))
    assert bits(new.V) == bits(ref.V) and bits(new.G) == bits(ref.G)
    assert repeats_a_failed_search(runs[0][4])  # the reference repeats a failed search


def test_quantile_euler_lagrange_solve(monkeypatch):
    pr = WedProblem(epsilon=0.05, T=0.5, N=800, space=Q16, energy=QENT,
                    x_bar=gaussian_quantiles(Q16, 1.0, 1.5), solver="euler_lagrange")
    new, ref, _ = compare(monkeypatch, lambda: minimize_wed(pr))
    assert np.array_equal(new.trajectory.points, ref.trajectory.points)
    assert (new.objective, new.iterations) == (ref.objective, ref.iterations)


@pytest.mark.parametrize("xv, t", [(0.7, 0.01), (-1.3, 4e-5), (2.0, 0.3)])
def test_float_prox(monkeypatch, xv, t):
    new, ref, _ = compare(monkeypatch, lambda: prox(double_well(), E1, np.array([[xv]]), t))
    assert bits(new[0]) == bits(ref[0]) and bits(new[1]) == bits(ref[1])


def test_quantile_prox(monkeypatch):
    x = gaussian_quantiles(Q16, 1.0, 1.5)
    new, ref, _ = compare(monkeypatch, lambda: prox(QENT, Q16, x.coords[None], 0.01))
    assert new[0][0] == ref[0][0] and np.array_equal(new[1][0], ref[1][0])


def test_finsler_inner_solves(monkeypatch):
    f = lambda P: 1.0 + np.sum(P * P, axis=1)
    new, ref, _ = compare(monkeypatch, lambda: finsler_distance(
        f, point([-0.5], E1), point([0.8], E1)))
    assert bits(new[0]) == bits(ref[0]) and bits(new[1].points) == bits(ref[1].points)


@pytest.mark.parametrize("solver", ["direct", "euler_lagrange"])
def test_one_iteration_failure_and_its_best(monkeypatch, solver):
    pr = WedProblem(epsilon=0.05, T=1.0, N=4000, space=E1, energy=double_well(),
                    x_bar=point([0.3], E1), solver=solver)

    def solve():
        # set in each run: run_with undoes every patch after its run
        monkeypatch.setattr("wedflow.wed.MAX_ITER", 1)
        return minimize_wed(pr)

    new, ref, _ = compare(monkeypatch, solve)
    assert isinstance(new, NonConvergenceError) and isinstance(ref, NonConvergenceError)
    assert str(new) == str(ref)
    assert np.array_equal(new.best, ref.best)


# -- when the driver evaluates ------------------------------------------------------


def counting_driver(seen):
    """The driver, failing if it evaluates the current iterate again."""

    def driver(x, start, evaluate, residual, done, direction, max_iter):
        current = []

        def counted(z):
            assert not (current and np.array_equal(z, current[-1]))
            seen.append(z)
            return evaluate(z)

        def recorded(z, g):
            current.append(z)
            return direction(z, g)

        return damped_newton(x, start, counted, residual, done, recorded, max_iter)

    return driver


@pytest.mark.parametrize("solve", [
    lambda: value_function(double_well(), point([1.5], E1), 0.05, ValueOptions(N=4000)),
    lambda: prox(double_well(), E1, np.array([[0.7]]), 0.01),
    lambda: minimize_wed(WedProblem(epsilon=0.05, T=0.5, N=800, space=Q16, energy=QENT,
                                    x_bar=gaussian_quantiles(Q16, 1.0, 1.5),
                                    solver="euler_lagrange")),
], ids=["dw-value", "float-prox", "q16-el"])
def test_current_iterate_is_never_evaluated_again(monkeypatch, solve):
    seen = []
    run_with(monkeypatch, counting_driver(seen), solve)
    assert seen


def run_one_search(x0, p, slope, evaluate):
    """One damped_newton iteration along ``p`` from ``x0``, residual |g| and
    never done: (its trace, the points it evaluated after x0)."""
    points = []

    def recorded(z):
        points.append(z)
        return evaluate(z)

    x, f, g, it, trace = damped_newton(x0, evaluate(x0), recorded, abs, lambda g: False,
                                       lambda z, g: (p, slope), 1)
    assert not any(np.array_equal(z, x0) for z in points)
    return trace, points


@pytest.mark.parametrize("x0, p", [
    (1.0, 1.0),
    # the second coordinate rounds away from t = 2^-51, the first only at 2^-53
    (np.array([1.0, 4.0]), np.array([1.0, 1.0])),
])
def test_failed_search_stops_where_the_step_rounds_away(x0, p):
    # an ascent direction claimed as descent with slope -1: every search
    # fails.  The merit f = sum(x) has roundoff 8 eps (1 + f), 2^-48 at f = 1
    # and 1.5 * 2^-46 at f = 5; the first t with t * |slope| below it, 2^-49
    # and 2^-47, is a blind trial whose residual |g| = 1 does not drop: the
    # search fails there, long before x + t*p rounds to x at 2^-53
    f0 = float(np.sum(x0))
    x, f, g, it, trace = damped_newton(x0, (f0, 1.0), lambda z: (float(np.sum(z)), 1.0), abs,
                                       lambda g: False, lambda z, g: (p, -1.0), 10)
    assert x is x0 and f == f0 and it == 1  # the failed search ends the run
    t_end = {1.0: 2.0**-49, 5.0: 2.0**-47}[f0]
    assert trace == [(1, f, t_end)]
    trace, points = run_one_search(x0, p, -1.0, lambda z: (float(np.sum(z)), 1.0))
    assert len(points) == 1 - round(math.log2(t_end))  # t = 1, 1/2, ..., t_end


def test_failed_search_stops_where_x_plus_tp_rounds_to_x_before_the_merit_is_blind():
    # a flat merit claimed to fall steeply: t * |slope| stays far above the
    # merit's roundoff, but 2^40 + 2^-13 rounds (to even) to 2^40
    x0 = 2.0**40
    trace, points = run_one_search(x0, 1.0, -1e6, lambda z: (1.0, 1.0))
    assert trace == [(1, 1.0, 2.0**-13)]
    assert len(points) == 13  # t = 1, ..., 2^-12


@pytest.mark.parametrize("finite_below", [None, 2.0**-50])
def test_non_finite_trials_halve_past_the_blind_merit(finite_below):
    # off the domain (merit inf) a trial says nothing of the merit's
    # roundoff: the search halves on below 2^-49, where a finite blind trial
    # would end it, and accepts a finite trial there whose residual drops
    def evaluate(z):
        if z == 1.0:
            return 1.0, 1.0
        if finite_below is None or z - 1.0 > finite_below:
            return math.inf, None
        return float(z), 0.5

    trace, points = run_one_search(1.0, 1.0, -1.0, evaluate)
    if finite_below is None:
        # every trial is off the domain: 1 + 2^-53 rounds to 1 and fails
        assert trace == [(1, 1.0, 2.0**-53)] and len(points) == 53
    else:
        assert trace == [(1, 1.0, finite_below)] and len(points) == 51


@pytest.mark.parametrize("off_domain", ["raises", "inf"])
def test_domain_error_trials_halve_back_inside(off_domain):
    # past z = 1.5 evaluate cannot form the merit: raising DomainError there
    # is a trial of merit inf, so t = 1 and 1/2 fail and t = 1/4 lands inside
    def evaluate(z):
        if z > 1.5:
            if off_domain == "raises":
                raise DomainError("off the domain")
            return math.inf, None
        return -float(z), 1.0

    trace, points = run_one_search(0.0, 4.0, -4.0, evaluate)
    assert trace == [(1, 0.0, 0.25)]
    assert points == [4.0, 2.0, 1.0]


# -- the Levenberg shift ladder ------------------------------------------------------


def shifts_tried(solve):
    """levenberg on ``solve`` with g = [1] and fallback [-7]: (step, rhos tried)."""
    seen = []

    def recorded(rho):
        seen.append(rho)
        return solve(rho)

    return levenberg(recorded, np.ones(1), np.array([-7.0])), seen


def test_levenberg_shifts_past_a_raise_at_zero():
    def singular_at_zero(rho):
        if rho == 0.0:
            raise np.linalg.LinAlgError("singular")
        return np.array([-1.0])

    step, seen = shifts_tried(singular_at_zero)
    assert step == [-1.0] and seen == [0.0, 1e-8]


def test_levenberg_shifts_past_non_descent_steps():
    # H = -1: ascent below rho = 1, a singular system at 1, descent from 10 on
    step, seen = shifts_tried(lambda rho: np.linalg.solve([[-1.0 + rho]], [-1.0]))
    assert step == [-1.0 / 9.0]
    assert seen[0] == 0.0 and seen[-2:] == [1.0, 10.0] and len(seen) == 11


def test_levenberg_falls_back_after_1e12():
    step, seen = shifts_tried(lambda rho: np.ones(1))  # never a descent step
    assert step == [-7.0]
    assert seen[0] == 0.0 and seen[-1] == 1e12 and len(seen) == 22


def test_two_dimensional_prox_climbs_the_ladder(monkeypatch):
    # at the hilltop of a 2-D double well with t = 2 the proximal Hessian
    # 3x^2 - 1 + 1/t is negative: only the shifts up to rho = 1 descend
    E2 = SpaceSpec.euclidean(2)
    x = point([0.05, 0.05], E2)
    rhos = []

    def recording(solve, g, fallback):
        def recorded(rho):
            rhos.append(rho)
            return solve(rho)

        return levenberg(recorded, g, fallback)

    monkeypatch.setattr("wedflow.energies.levenberg", recording)
    (value,), (y,) = prox(double_well(), E2, x.coords[None], 2.0)
    assert max(rhos) == 1.0
    assert np.allclose(y, 0.7309, atol=1e-4)
    grad = (y - x.coords) / 2.0 + grad_many(double_well(), y[None])[0]
    assert np.max(np.abs(grad)) <= 1e-12
    assert value < eval_many(double_well(), x.coords[None])[0]
