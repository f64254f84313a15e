"""Iterations shared by the trajectory, proximal and Finsler solvers, which
keep their own problems and convergence verdicts."""

from __future__ import annotations

import math

import numpy as np

_EPS_F = 8.0 * np.finfo(float).eps

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def levenberg(solve, g, fallback):
    """First finite descent step ``solve(rho)`` for rho = 0, 1e-8, 1e-7, ...,
    1e12 (``solve`` may raise on a singular system), else ``fallback``.  Steps
    and gradients are arrays, or Python floats for one-coordinate problems."""
    rho = 0.0
    while rho <= 1e12:
        try:
            step = solve(rho)
        except (ZeroDivisionError, np.linalg.LinAlgError):
            step = None
        if step is not None and _descends(step, g):
            return step
        rho = max(10.0 * rho, 1e-8)
    return fallback


def _descends(step, g) -> bool:
    if isinstance(step, float):
        return math.isfinite(step) and step * g < 0.0
    return bool(np.all(np.isfinite(step))) and float(np.sum(step * g)) < 0.0


def damped_newton(x, start, evaluate, residual, done, direction, max_iter):
    """Descend a merit from ``x`` along ``p, slope = direction(x, g)``.

    ``evaluate(x)`` returns ``(merit, g)``, g the gradient or residual vector,
    or None where it cannot be formed (the merit is then inf); ``residual(g)``
    is its size and ``done(g)`` the stop test.  ``start`` is ``evaluate(x)``,
    which the caller has formed for its own tolerances: the driver evaluates
    only trial points, each once, and the accepted point's g serves the stall
    test and the next step.  Step
    lengths t = 1, 1/2, ..., 1e-16 are tried until merit drops by 1e-4 t slope
    or, where that is below roundoff, the residual drops; the search fails at
    the first t where ``x + t*p`` rounds to ``x`` (every smaller t does too).
    A failed search, or a roundoff-level step that does not halve the
    residual, is a stall; two stalls stop.  Returns ``(x, merit, g,
    iterations, trace)``, trace holding (iteration, merit, t).
    """
    same = (lambda a, b: a == b) if isinstance(x, float) else np.array_equal
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
            if same(xn, x):
                break
            fn, gn = evaluate(xn)
            pred = 1e-4 * t * slope
            if math.isfinite(fn) and abs(pred) >= _EPS_F * (1.0 + abs(f)):
                ok = fn <= f + pred
            else:
                # merit change below roundoff: accept on residual descent
                ok = math.isfinite(fn) and residual(gn) < r
            if ok:
                break
            t *= 0.5
        trace.append((it, f, t))
        if not ok:
            stalls += 1
        else:
            rn = residual(gn)
            stalls += int(abs(f - fn) <= _EPS_F * (1.0 + abs(f)) and rn >= 0.5 * r)
            x, f, g, r = xn, fn, gn, rn
        if stalls >= 2:
            break
    return x, f, g, it, trace


def golden_section(fn, a, b, tol, max_iter):
    """Midpoint of ``[a, b]`` narrowed around a minimum of ``fn`` to width ``tol``
    or for ``max_iter`` steps."""
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)
