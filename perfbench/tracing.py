"""Spans around wedflow's public functions, for the traced run only.

``install()`` wraps every public function defined in the traced modules and
rebinds the wrapper on every module name and module-level dict entry the
function is bound to (``hess_dense`` is imported into ``wedflow.wed``,
``minimize_wed`` into ``value``, ``reference`` and ``cli``, the suite
functions sit in ``cli._SUITE_FN``).  Importing this module wraps nothing.

A span records its id, its parent span, its thread, start, end and, for
functions returning a solution, the solver's iteration count.  Functions
called millions of times per run (the energy kernels and metric helpers)
are folded: each thread keeps, per (parent span, function), a call count and
the summed seconds.  Calls made inside another folded call are counted
separately as nested, so self times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import types

from fixtures import SUITES

MODULES = ("spaces", "energies", "trajectories", "wed", "value", "reference", "cli")
# not folded although they live in folded modules: few calls, and they have
# children worth attributing
UNFOLDED = {"energies.yosida", "energies.local_slope"}
FOLDED_MODULES = ("spaces", "energies")
FOLDED = {"trajectories.metric_speed"}

_ids = itertools.count(1)
_local = threading.local()
_threads: list = []
_threads_lock = threading.Lock()
_wrappers: dict = {}  # original function -> its wrapper
_bindings: list = []  # (namespace, name, original) replaced by install()


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = [0]  # 0: no enclosing span
        self.folding = 0  # depth of folded calls in progress
        self.spans = []
        self.folded = {}


def _state() -> _ThreadState:
    try:
        return _local.state
    except AttributeError:
        with _threads_lock:
            st = _ThreadState(len(_threads))
            _threads.append(st)
        _local.state = st
        return st


def _fold(st, name, seconds):
    key = (st.stack[-1], name, st.folding == 0)
    rec = st.folded.get(key)
    if rec is None:
        st.folded[key] = [1, seconds]
    else:
        rec[0] += 1
        rec[1] += seconds


def _folded_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _state()
        st.folding += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            st.folding -= 1
            _fold(st, name, dt)
    return wrapper


def _span_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _state()
        if st.folding:  # inside a folded call: count it there
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _fold(st, name, time.perf_counter() - t0)
        sid = next(_ids)
        parent = st.stack[-1]
        st.stack.append(sid)
        result, ok = None, False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans.append((sid, parent, st.index, name, t0, t1, ok,
                             getattr(result, "iterations", None)))
    return wrapper


def install() -> None:
    """Put wrappers on the public functions of the traced modules."""
    if _bindings:
        return
    package = importlib.import_module("wedflow")
    modules = {short: importlib.import_module(f"wedflow.{short}") for short in MODULES}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not isinstance(obj, types.FunctionType) \
                    or obj.__module__ != mod.__name__ or obj in _wrappers:
                continue
            name = f"{short}.{attr}"
            folded = name not in UNFOLDED and (short in FOLDED_MODULES or name in FOLDED)
            _wrappers[obj] = (_folded_wrapper if folded else _span_wrapper)(name, obj)
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            namespaces = [(vars(mod), attr, obj)]
            if isinstance(obj, dict):
                namespaces = [(obj, key, val) for key, val in obj.items()]
            for ns, key, val in namespaces:
                if isinstance(val, types.FunctionType) and val in _wrappers:
                    ns[key] = _wrappers[val]
                    _bindings.append((ns, key, val))


def uninstall() -> None:
    """Put the original functions back; recorded spans stay."""
    while _bindings:
        ns, key, original = _bindings.pop()
        ns[key] = original


def snapshot() -> dict:
    """Every span and folded count recorded so far, as plain lists."""
    spans, folded = [], []
    for st in list(_threads):
        spans.extend(st.spans)
        folded.extend([parent, name, outer, n, s]
                      for (parent, name, outer), (n, s) in st.folded.items())
    spans.sort(key=lambda sp: sp[0])
    return {"threads": len(_threads), "spans": [list(sp) for sp in spans], "folded": folded}


def write(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


# -- per-layer metrics ----------------------------------------------------------

TIMED = (
    "energies.hess_dense", "energies.eval_many", "energies.grad_many", "energies.yosida",
    "reference.minimizing_movements", "reference.convergence_study",
    "wed.minimize_wed", "wed.solve_euler_lagrange", "wed.solve_tridiag",
    "wed.solve_block_tridiag", "value.value_function", "value.conditioned_slope_estimate",
    "value.finsler_distance", "trajectories.spectral_check", "cli.write_report",
)
COUNTED = ("energies.analytic_slope", "spaces.distance")
SELF_TIMED = ("wed.minimize_wed", "wed.solve_euler_lagrange")
SOLVERS = ("wed.minimize_wed", "wed.solve_euler_lagrange")
LINEAR = ("wed.solve_block_tridiag", "wed.solve_tridiag")


def metric_names() -> list:
    names = []
    for n in TIMED:
        names += [f"{n}.calls", f"{n}.s"]
    names += [f"{n}.calls" for n in COUNTED]
    names += [f"{n}.self_s" for n in SELF_TIMED]
    names += ["wed.newton_iterations", "wed.linear_solves_per_newton_step",
              "value.cache.hits", "value.cache.misses", "value.cache.hit_ratio"]
    names += [f"cli.suite.{s}.s" for s in SUITES]
    return names


def layer_metrics(data: dict, rounds: int) -> dict:
    """Per-layer metrics of ``rounds`` traced rounds, as per-round means.

    Counts and seconds are divided by the number of rounds; ratios are not.
    """
    spans = data["spans"]
    folded = data["folded"]
    calls, secs = {}, {}
    child_s = {}  # span id -> seconds covered by its direct children
    children = {}  # span id -> names of its direct child spans
    by_id = {}
    for sid, parent, _thread, name, t0, t1, _ok, _it in spans:
        by_id[sid] = name
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (t1 - t0)
        child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        children.setdefault(parent, []).append(name)
    for parent, name, outer, n, s in folded:
        calls[name] = calls.get(name, 0) + n
        secs[name] = secs.get(name, 0.0) + s
        if outer:
            child_s[parent] = child_s.get(parent, 0.0) + s

    out = {}
    for n in TIMED:
        out[f"{n}.calls"] = calls.get(n, 0) / rounds
        out[f"{n}.s"] = secs.get(n, 0.0) / rounds
    for n in COUNTED:
        out[f"{n}.calls"] = calls.get(n, 0) / rounds
    for n in SELF_TIMED:
        own = sum((t1 - t0) - child_s.get(sid, 0.0)
                  for sid, _p, _th, name, t0, t1, _ok, _it in spans if name == n)
        out[f"{n}.self_s"] = own / rounds

    # a solve started through minimize_wed reports its iterations there; the
    # Euler-Lagrange span below it returns the same solution
    iterations = steps = linear = 0
    for sid, parent, _th, name, _t0, _t1, ok, it in spans:
        if name in SOLVERS and ok and it is not None \
                and not (name == "wed.solve_euler_lagrange" and by_id.get(parent) in SOLVERS):
            iterations += it
            steps += max(it - 1, 0)  # the last iteration only tests convergence
        if name in LINEAR and by_id.get(parent) in SOLVERS:
            linear += 1
    out["wed.newton_iterations"] = iterations / rounds
    out["wed.linear_solves_per_newton_step"] = linear / steps if steps else 0.0

    values = [sid for sid, *_rest in spans if by_id[sid] == "value.value_function"]
    misses = sum(1 for sid in values if "wed.minimize_wed" in children.get(sid, ()))
    out["value.cache.hits"] = (len(values) - misses) / rounds
    out["value.cache.misses"] = misses / rounds
    out["value.cache.hit_ratio"] = (len(values) - misses) / len(values) if values else 0.0
    return out

