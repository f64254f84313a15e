"""Experiment orchestration: config parsing, suites, artifact emission.

A config JSON fixes one fixture (space, energy, initial point, solver
parameters) plus a list of identity suites to run; a key outside ``KEYS``, or
outside its kind's keys in ``space`` and ``energy``, is a config error at its
JSON pointer.  Every suite writes a
``report_<name>.json`` with the schema

    {"identity": ..., "max_residual": ..., "tolerance": ..., "pass": ...,
     "residuals_file": ...}

and its residual vector as CSV.  Suites run one after another in the listed
order.  A run keeps no value cache: every value solve is made afresh and freed
once its readers are done.  ``manifest.json`` at the output root echoes the
config, records wall times, the pass/fail summary and, for a run stopped by an
error, that error; a solve that did not converge adds its trace there and
writes its best iterate to ``best.csv``.  Exit codes: 0 all selected suites
pass, 2 at least one suite failed, 1 usage, execution or validation error.
Progress goes to stderr; data only to files and stdout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .energies import PARAMS, Coercivity, EnergySpec, eval_many
from .errors import NonConvergenceError, WedflowError
from .reference import convergence_study, lambda_diagnostics, minimizing_movements
from .spaces import EUCLIDEAN, QUANTILE1D, Point, SpaceSpec, distance
from .trajectories import (
    g_reparam, metric_speed, poincare_witness, spectral_check, spectral_terms, spectral_totals,
)
from .value import (
    IdentityReport, check_dpp, check_eps_monotonicity, check_fundamental_identity,
    check_hj, check_inner_variation, check_yosida_bound, finsler_distance, value_along,
    value_function,
)
from .wed import DIRECT, WedProblem, default_horizon, minimize_wed


class ConfigError(WedflowError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"config {pointer}: {message}" if pointer else f"config: {message}")
        self.pointer = pointer


_REQUIRED = object()


def _real(v) -> float:
    """A JSON number as a float: an int past the float range is inf, as a
    float literal past it reads."""
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        return math.inf if v > 0 else -math.inf
    return float(v)


def _need(cfg: dict, key, typ, pointer: str = "", default=_REQUIRED):
    """``cfg[key]`` as a ``typ``, or ``default`` (if given) when it is absent or
    null; ints pass as floats, integral floats as ints, booleans as neither,
    and a float must be finite."""
    val = cfg.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(f"{pointer}/{key}", "missing required key")
        return default
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = _real(val)
    elif typ is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"{pointer}/{key}", f"expected {typ.__name__}")
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"{pointer}/{key}", "must be finite")
    return val


def _floats(cfg: dict, key: str, default: list) -> list:
    vals = _need(cfg, key, list, default=default)
    return [_need(dict(enumerate(vals)), i, float, f"/{key}") for i in range(len(vals))]


def _numbers(obj: dict, key: str, pointer: str, ndim: int, default=_REQUIRED):
    """``obj[key]`` as a float (``ndim`` 0) or a float array of ``ndim`` list
    levels, or ``default`` (if given) when it is absent or null.  NaN and inf
    pass: the energy that reads them rejects them."""
    if obj.get(key) is None:
        return _need(obj, key, float, pointer, default)  # the missing-key error, or default
    val = np.array(obj[key], dtype=object)
    leaves = val.ravel().tolist()
    if val.ndim != ndim or any(type(v) not in (int, float) for v in leaves):
        raise ConfigError(f"{pointer}/{key}", "expected " + (
            "a number", "a list of numbers", "a list of lists of numbers")[ndim])
    vals = np.array(list(map(_real, leaves))).reshape(val.shape)
    return vals if ndim else float(vals)


def _known(obj: dict, keys, pointer: str = "") -> None:
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{pointer}/{key}", "unknown key")


# every key a config may set; ``run`` reads ``suites``, ``Experiment`` the rest
KEYS = ("space", "energy", "x_bar", "epsilon", "eps_list", "T", "t_obs", "N", "grid_mode",
        "solver", "probe_seed", "suites")
# the keys of each space kind's object; an energy's are in ``energies.PARAMS``
SPACE_KEYS = {EUCLIDEAN: ("dim",), QUANTILE1D: ("m",)}


def _space(obj: dict) -> SpaceSpec:
    """The config's ``space`` object as a space."""
    kind = _need(obj, "kind", str, "/space")
    if kind not in SPACE_KEYS:
        raise ConfigError("/space/kind", f"unknown space kind {kind!r}")
    _known(obj, ("kind", *SPACE_KEYS[kind]), "/space")
    return SpaceSpec(kind, _need(obj, SPACE_KEYS[kind][0], int, "/space"))


def _energy(obj: dict) -> EnergySpec:
    """The config's ``energy`` object as an energy."""
    kind = _need(obj, "kind", str, "/energy")
    if kind not in PARAMS:
        raise ConfigError("/energy/kind", f"unknown energy kind {kind!r}")
    _known(obj, ("kind", "params", "lambda", "coercivity"), "/energy")
    raw = _need(obj, "params", dict, "/energy", {})
    _known(raw, PARAMS[kind], "/energy/params")
    params = {k: _numbers(raw, k, "/energy/params", ndim)
              for k, ndim in PARAMS[kind].items() if raw.get(k) is not None or k == "A"}
    co = _need(obj, "coercivity", dict, "/energy", None)
    if co is not None:
        _known(co, ("A", "B", "u_star"), "/energy/coercivity")
        co = Coercivity(_numbers(co, "A", "/energy/coercivity", 0),
                        _numbers(co, "B", "/energy/coercivity", 0),
                        _numbers(co, "u_star", "/energy/coercivity", 1, None))
    return EnergySpec(kind, params, _numbers(obj, "lambda", "/energy", 0, None), co)


def _at(pointer: str, build, *args):
    """``build(*args)``, with a package error raised in it as a config error
    at ``pointer``, unless it is one already."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except WedflowError as exc:
        raise ConfigError(pointer, str(exc))


class Experiment:
    """Validated config, its trajectory problem, and the lazily solved minimizer."""

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            raise ConfigError("", "expected a JSON object")
        _known(cfg, KEYS)
        space, energy = _need(cfg, "space", dict), _need(cfg, "energy", dict)
        x_bar = np.asarray(_floats(cfg, "x_bar", _REQUIRED))
        self.space = _at("/space", _space, space)
        self.energy = _at("/energy", _energy, energy)
        self.x_bar = _at("/x_bar", Point, x_bar, self.space)
        self.epsilon = _need(cfg, "epsilon", float)
        self.N = _need(cfg, "N", int, default=4000)
        T = _need(cfg, "T", float, default=None)
        self.t_obs = _need(cfg, "t_obs", float, default=T if T is not None else 1.0)
        self.probe_seed = _need(cfg, "probe_seed", int, default=20240)
        # the one problem grid; the key stays for configs that name it
        if _need(cfg, "grid_mode", str, default="uniform") != "uniform":
            raise ConfigError("/grid_mode", 'must be "uniform"')
        solver = _need(cfg, "solver", str, default=DIRECT)
        horizon = T if T is not None else default_horizon(self.epsilon, self.t_obs)
        try:
            self._problem = WedProblem(epsilon=self.epsilon, T=horizon, N=self.N, space=self.space,
                                       energy=self.energy, x_bar=self.x_bar, solver=solver)
        except WedflowError as exc:
            field = getattr(exc, "field", None)
            raise ConfigError(f"/{field}" if field else "", str(exc))
        # after the problem: with T <= 0 and no t_obs, T is at fault
        if self.t_obs <= 0.0:
            raise ConfigError("/t_obs", "must be positive")
        self.eps_list = _floats(cfg, "eps_list",
                                [self.epsilon, self.epsilon / 2.0, self.epsilon / 4.0])
        for i, e in enumerate(self.eps_list):
            if e <= 0.0:
                raise ConfigError(f"/eps_list/{i}", "must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("/eps_list", "must decrease strictly")
        self._solution = None

    def problem(self) -> WedProblem:
        return self._problem

    def solution(self):
        if self._solution is None:
            self._solution = minimize_wed(self._problem)
        return self._solution


# -- emission helpers ---------------------------------------------------------


def write_csv(path: Path, header, rows) -> None:
    """``header`` and ``rows``, tuples of Python numbers or None, as CSV in
    one string and one write: a float cell is its repr (the shortest string
    that reads back to it), an int its digits, None an empty cell.  Callers
    pass numpy data through ``tolist()``."""
    line = ",".join(["%r"] * len(header)) + "\n"
    # None's repr is the only cell text that spells "None"
    body = "".join([line % row for row in rows]).replace("None", "")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)


def write_report(outdir: Path, report: IdentityReport) -> dict:
    resid_file = outdir / f"residuals_{report.name}.csv"
    write_csv(resid_file, ("index", "residual"),
              enumerate(np.asarray(report.residuals, dtype=float).tolist()))
    payload = {
        "identity": report.name,
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "pass": report.passed,
        "residuals_file": resid_file.name,
        "details": report.details,
    }
    _write_json(outdir / f"report_{report.name}.json", payload)
    return payload


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON with sorted keys; numpy arrays and scalars are
    written as lists and numbers."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


# -- suites --------------------------------------------------------------------


# The spectral suite works in chunks of these sizes.  Whole, the 100 001-node
# witness's temporaries set a ten-suite check's peak memory: 40.9 MiB of RSS
# on the check-1d config, with numpy.random loaded for the profiles, against
# 33.3 MiB in chunks and with the standard library's generator.
WITNESS_CELLS = 4096
PROFILE_ROWS = 50


def spectral_profiles(rng: random.Random, rows: int) -> tuple:
    """``rows`` random profiles of the spectral suite as ``(t, w)``, each a
    row of 64 nodes: n of 8 to 63 cells, time steps uniform on [0.01, 0.5),
    w(0) = 0 and standard normal w (Box-Muller) at the other n nodes.  Rows
    are zero-padded past their last node, in the time steps and in w."""
    n = np.array([rng.randrange(8, 64) for _ in range(rows)])
    live = np.arange(1, 64) <= n[:, None]
    bits = np.frombuffer(rng.randbytes(24 * int(n.sum())), dtype="<u8")
    u = (bits >> 11).reshape(3, -1) * 2.0**-53  # uniforms on [0, 1), 53 bits each
    dt, w = np.zeros((2, rows, 64))
    dt[:, 1:][live] = 0.01 + 0.49 * u[0]
    w[:, 1:][live] = np.sqrt(-2.0 * np.log1p(-u[1])) * np.cos(2.0 * np.pi * u[2])
    return np.cumsum(dt, axis=1), w


def suite_spectral(exp: Experiment, outdir: Path) -> IdentityReport:
    n_w, eps_w = 50.0, 1.0
    t = np.linspace(0.0, 4 * n_w, 100_000 + 1)
    dirichlet, l2 = np.empty((2, len(t) - 1))
    for a in range(0, len(t) - 1, WITNESS_CELLS):
        cells = slice(a, a + WITNESS_CELLS)
        nodes = t[a:a + WITNESS_CELLS + 1]
        w = poincare_witness(n_w, eps_w, nodes)
        dirichlet[cells], l2[cells] = spectral_terms(nodes, w, eps_w)
    _, _, ratio = spectral_totals(dirichlet, l2, eps_w)
    rng = random.Random(exp.probe_seed)
    violations = []
    for eps in (0.1, 1.0):
        for _ in range(500 // PROFILE_ROWS):
            lhs, rhs, _ = spectral_check(*spectral_profiles(rng, PROFILE_ROWS), eps)
            violations.extend(np.maximum(0.0, rhs - lhs) / np.maximum(lhs, 1e-300))
    resid = np.asarray(violations + [max(0.0, 0.9 - ratio)])
    return IdentityReport(
        name="spectral", residuals=resid,
        tolerance=1e-12, details={"witness_ratio": ratio},
    )


def suite_inner(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_inner_variation(exp.solution())


def suite_dpp(exp: Experiment, outdir: Path) -> IdentityReport:
    eps = exp.epsilon
    return check_dpp(exp.solution(), [eps, 2 * eps, 5 * eps])


def suite_fundamental(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_fundamental_identity(exp.solution())


def _sweep_points(exp: Experiment) -> list:
    """The 20 points from x_bar - 1 to x_bar + 1 of 1-D ``monotone`` and ``sweep``."""
    x0 = exp.x_bar.coords[0]
    return [Point(np.array([xv]), exp.space) for xv in np.linspace(x0 - 1.0, x0 + 1.0, 20)]


def suite_monotone(exp: Experiment, outdir: Path) -> IdentityReport:
    if exp.space.dim != 1:
        return check_eps_monotonicity(exp.energy, exp.x_bar, exp.eps_list)
    worst = None
    for x in _sweep_points(exp):
        rep = check_eps_monotonicity(exp.energy, x, exp.eps_list)
        if worst is None or rep.max_residual > worst.max_residual:
            worst = rep
    return worst


def suite_yosida(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_yosida_bound(exp.energy, exp.x_bar, exp.epsilon)


def suite_hj(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_hj(exp.energy, exp.x_bar, exp.epsilon)


def suite_lambda(exp: Experiment, outdir: Path) -> IdentityReport:
    if exp.energy.lam is None:  # before the solve
        raise ConfigError("/energy/lambda", "lambda suite needs a convexity modulus")
    return lambda_diagnostics(exp.solution())


def suite_convergence(exp: Experiment, outdir: Path) -> IdentityReport:
    table = convergence_study(exp.energy, exp.x_bar, exp.eps_list, exp.t_obs, exp.N)
    write_csv(outdir / "convergence.csv", ("epsilon", "sup_err", "lsc_residual", "runtime_s"),
              [(r.epsilon, r.sup_err, r.lsc_residual, r.runtime_s) for r in table.rows])
    errs = table.sup_errors
    resid = [max(0.0, errs[i + 1] - 1.1 * errs[i]) for i in range(len(errs) - 1)]
    resid.append(max(0.0, table.rows[-1].lsc_residual - 5e-2))
    if exp.energy.kind == "quadratic" and exp.space.kind == EUCLIDEAN:
        # first-order rate is a sharp claim only when the reference flow has
        # no discretization floor of its own (closed form in the same space)
        for i in range(len(errs) - 1):
            ratio = errs[i] / max(errs[i + 1], 1e-300)
            resid.append(max(0.0, 1.6 - ratio) + max(0.0, ratio - 2.4))
    resid = np.asarray(resid)
    return IdentityReport(
        name="convergence", residuals=resid,
        tolerance=0.0,
        details={"sup_err": errs.tolist(),
                 "lsc": [r.lsc_residual for r in table.rows]},
    )


def suite_finsler(exp: Experiment, outdir: Path) -> IdentityReport:
    space = SpaceSpec.euclidean(exp.space.dim if exp.space.kind == EUCLIDEAN else 1)
    a = Point(np.zeros(space.dim), space)
    b_coords = np.zeros(space.dim)
    b_coords[0] = 1.5
    b = Point(b_coords, space)
    d_plain = finsler_distance(lambda P: np.ones(len(P)), a, b)[0]
    resid = [abs(d_plain - distance(a, b)) / 1e-6]
    s1 = SpaceSpec.euclidean(1)
    c_val = 4.0
    da = Point(np.array([0.0]), s1)
    db = Point(np.array([2.0]), s1)
    d_const = finsler_distance(lambda P: np.full(len(P), math.sqrt(c_val)), da, db)[0]
    resid.append(abs(d_const - math.sqrt(c_val) * 2.0) / 1e-4)
    if exp.space.dim == 1 and exp.space.kind == EUCLIDEAN:
        f_phi = lambda P: np.sqrt(np.maximum(1.0, eval_many(exp.energy, P)))
    else:
        f_phi = lambda P: np.sqrt(np.maximum(1.0, np.float_power(P[:, 0], 2)))
    val, curve = finsler_distance(f_phi, da, db)
    rep_curve = g_reparam(curve, f_phi)
    mids = 0.5 * (rep_curve.points[:-1] + rep_curve.points[1:])
    product = float(np.sum(f_phi(mids) * metric_speed(rep_curve) * rep_curve.grid.dt))
    resid.append(abs(product - val) / max(val, 1e-9) / 1e-3)
    resid = np.asarray(resid)
    return IdentityReport(
        name="finsler", residuals=resid,
        tolerance=1.0,
        details={"plain": d_plain, "const": d_const, "lagrangian": val, "product": product},
    )


_SUITE_FN = {
    "spectral": suite_spectral, "inner": suite_inner, "dpp": suite_dpp,
    "fundamental": suite_fundamental, "monotone": suite_monotone,
    "yosida": suite_yosida, "hj": suite_hj, "lambda": suite_lambda,
    "convergence": suite_convergence, "finsler": suite_finsler,
}
SUITES = tuple(_SUITE_FN)


# -- tasks beyond suites ---------------------------------------------------------


def emit_solve(exp: Experiment, outdir: Path) -> dict:
    sol = exp.solution()
    fund = check_fundamental_identity(sol)
    inner = check_inner_variation(sol)
    pts = sol.trajectory.points
    # one row per node; per-cell quantities on the cell's left-node row, blank
    # past the last cell, and the rate residuals (fund's first third) blank
    # past the five-eps cut
    column = lambda a: a.tolist() + [None] * (len(pts) - len(a))
    write_csv(outdir / "trajectory.csv",
              ["t", *(f"x{j}" for j in range(pts.shape[1])), "speed", "phi", "V", "resid_fund",
               "resid_inner"],
              zip(sol.trajectory.grid.nodes.tolist(), *pts.T.tolist(), column(sol.speed),
                  sol.phi.tolist(), value_along(sol).tolist(),
                  column(fund.residuals[:fund.residuals.size // 3]), column(inner.residuals[:-1])))
    payload = {
        "objective": sol.objective,
        "iterations": sol.iterations,
        "gradient_norm": sol.gradient_norm,
        "converged": True,  # a solve that does not converge raises; readers check the key
        "residuals": {
            "inner_variation": inner.max_residual,
            "fundamental": fund.max_residual,
        },
    }
    _write_json(outdir / "report.json", payload)
    return payload


def emit_value(exp: Experiment, outdir: Path, xs=None) -> None:
    rows = []
    for x in [exp.x_bar] if xs is None else xs:
        for eps in exp.eps_list:
            s = value_function(exp.energy, x, eps)
            rows.append((*x.coords.tolist(), *map(float, (eps, s.V, s.G, s.phi))))
    write_csv(outdir / "value.csv",
              [*(f"x{j}" for j in range(exp.space.dim)), "epsilon", "V", "G", "phi"], rows)


def emit_sweep(exp: Experiment, outdir: Path) -> None:
    if exp.space.dim != 1:
        raise ConfigError("/space", "sweep currently expects a one-dimensional space")
    emit_value(exp, outdir, _sweep_points(exp))


def emit_mm(exp: Experiment, outdir: Path) -> None:
    tau = exp.epsilon**2 / 4.0
    mm = minimizing_movements(exp.x_bar, tau, math.ceil(exp.t_obs / tau), exp.energy)
    pts = mm.trajectory.points
    write_csv(outdir / "mm.csv",
              ["k", "t", *(f"x{j}" for j in range(pts.shape[1])), "phi", "movement"],
              zip(range(len(pts)), mm.trajectory.grid.nodes.tolist(), *pts.T.tolist(),
                  eval_many(exp.energy, pts).tolist(), [None, *mm.movements.tolist()]))


_TASK_FN = {"solve": emit_solve, "value": emit_value, "sweep": emit_sweep, "mm": emit_mm}


# -- driver -----------------------------------------------------------------------


def run(cfg: dict, out: Path, suites=None, quiet=False, tasks=()) -> int:
    """Run ``tasks``, then the selected suites in the listed order: ``suites``
    when given (``()`` runs none), else the config's ``suites`` when it names
    any, else all of them."""
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    results = {}
    times = {}
    error = exp = trace = None
    out.mkdir(parents=True, exist_ok=True)
    try:
        exp = Experiment(cfg)
        selected = list(suites if suites is not None
                        else _need(cfg, "suites", list, default=None) or SUITES)
        for s in selected:
            if s not in SUITES:
                raise ConfigError("/suites", f"unknown suite {s!r}")
        for task in tasks:
            t = time.perf_counter()
            _TASK_FN[task](exp, out)
            times[task] = time.perf_counter() - t
            if not quiet:
                print(f"task {task}: done in {times[task]:.2f}s", file=sys.stderr)
        for name in selected:
            t = time.perf_counter()
            rep = _SUITE_FN[name](exp, out)
            times[name] = time.perf_counter() - t
            results[name] = rep
            write_report(out, rep)
            if not quiet:
                verdict = "pass" if rep.passed else "FAIL"
                print(f"suite {name}: {verdict} (max residual "
                      f"{rep.max_residual:.3e}, {times[name]:.2f}s)", file=sys.stderr)
    except WedflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = str(exc)
        if isinstance(exc, NonConvergenceError):
            trace = exc.trace
            if exc.best is not None:  # coordinate rows
                best = np.atleast_2d(exc.best)
                write_csv(out / "best.csv", [f"x{j}" for j in range(best.shape[1])],
                          map(tuple, best.tolist()))

    summary = {name: rep.passed for name, rep in results.items()}
    manifest = {
        "tool": "wedflow",
        "version": __version__,
        "config": cfg,
        "started_utc": started.isoformat(),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "task_wall_times_s": times,
        "probe_seed": None if exp is None else exp.probe_seed,
        "summary": summary,
        "error": error,
        "trace": trace,  # a non-converged solve's, whose best iterate is best.csv
    }
    _write_json(out / "manifest.json", manifest)
    if error is not None:
        return 1
    return 0 if all(summary.values()) else 2


# command -> (suites, tasks); None: the --suite names, else as ``run`` resolves it
COMMANDS = {"solve": ((), ("solve",)), "value": ((), ("value",)), "sweep": ((), ("sweep",)),
            "check": (None, ()), "mm": ((), ("mm",)), "finsler": (("finsler",), ()),
            "all": (SUITES, ("solve", "value", "mm"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wedflow",
                                     description="weighted energy-dissipation experiments")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--suite", action="append", default=None,
                        help="suite name for 'check' (repeatable)")
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    suites, tasks = COMMANDS[args.command]
    return run(cfg, Path(args.out), args.suite if suites is None else suites, args.quiet, tasks)


if __name__ == "__main__":
    raise SystemExit(main())
