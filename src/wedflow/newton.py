"""Iterations shared by the trajectory, proximal and Finsler solvers, which
keep their own problems and convergence verdicts.  Iterates, steps and
gradients are numpy arrays; a one-coordinate proximal step is a (1, 1)
stack like any other."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_EPS_F = 8.0 * np.finfo(float).eps


def levenberg(solve, g, fallback):
    """First finite descent step ``solve(rho)`` for rho = 0, 1e-8, 1e-7, ...,
    1e12 (``solve`` may raise on a singular system), else ``fallback``.  Steps
    and gradients are arrays of one shape."""
    rho = 0.0
    while rho <= 1e12:
        try:
            step = solve(rho)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and bool(np.all(np.isfinite(step))) and float(np.sum(step * g)) < 0.0:
            return step
        rho = max(10.0 * rho, 1e-8)
    return fallback


def damped_newton(x, start, evaluate, residual, done, direction, max_iter):
    """Descend a merit from ``x`` along ``p, slope = direction(x, g)``.

    ``evaluate(x)`` returns ``(merit, g)``, g the gradient or residual vector
    (with whatever else the callbacks need: the proximal step's g also holds
    each row's value); ``residual(g)`` is its size and ``done(g)`` the stop
    test.  A trial where ``evaluate`` raises DomainError (off the domain, as
    off the quantile cone) is a trial of merit inf and no g; every other
    exception propagates.
    ``start`` is ``evaluate(x)``, which the caller has formed for its own
    tolerances: the iteration evaluates only trial points, each once, and the
    accepted point's g serves the stall test and the next step.  Step
    lengths t = 1, 1/2, ..., 1e-16 are tried until merit drops by 1e-4 t slope
    or, where that is below the merit's roundoff, the residual drops.  The
    search fails at the first finite trial whose whole first-order change
    t slope is below that roundoff and whose residual does not drop: the
    merit is blind to it and to every smaller step.  Trials where the merit
    is not finite (off the domain) halve on, and the search also fails at the
    first t where ``x + t*p`` rounds to ``x`` (every smaller t does too).
    A failed search stops the run: ``direction`` is a function of x and g,
    which it leaves unchanged, so a repeat would fail alike.  Two accepted
    roundoff-level steps that do not halve the residual stop it too.  Returns
    ``(x, merit, g, iterations, trace)``, trace holding (iteration, merit, t).
    """
    f, g = start
    r = residual(g)
    trace = []
    it = stalls = 0
    for it in range(1, max_iter + 1):
        if done(g):
            break
        p, slope = direction(x, g)
        t = 1.0
        ok = False
        while t >= 1e-16:
            xn = x + t * p
            if np.array_equal(xn, x):
                break
            try:
                fn, gn = evaluate(xn)
            except DomainError:
                fn, gn = math.inf, None
            if math.isfinite(fn):
                pred = 1e-4 * t * slope
                floor = _EPS_F * (1.0 + abs(f))
                if abs(pred) >= floor:
                    ok = fn <= f + pred
                else:
                    # merit change below roundoff: accept on residual descent
                    ok = residual(gn) < r
                # the merit is blind to the whole first-order change t slope:
                # smaller steps cannot change the answer
                if ok or abs(t * slope) < floor:
                    break
            t *= 0.5
        trace.append((it, f, t))
        if not ok:
            break
        rn = residual(gn)
        stalls += int(abs(f - fn) <= _EPS_F * (1.0 + abs(f)) and rn >= 0.5 * r)
        x, f, g, r = xn, fn, gn, rn
        if stalls >= 2:
            break
    return x, f, g, it, trace
