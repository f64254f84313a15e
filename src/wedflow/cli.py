"""Experiment orchestration: config parsing, suites, artifact emission.

A config JSON fixes one fixture (space, energy, initial point, solver
parameters) plus a list of identity suites to run.  Every suite writes a
``report_<name>.json`` with the schema

    {"identity": ..., "max_residual": ..., "tolerance": ..., "pass": ...,
     "residuals_file": ...}

and its residual vector as CSV.  Suites run one after another in the listed
order and share one value cache per run.  ``manifest.json`` at the output
root echoes the config, records wall times, the pass/fail summary and, for a
run stopped by an error, that error.  Exit codes: 0 all selected suites pass,
2 at least one suite failed, 1 usage, execution or validation error.
Progress goes to stderr; data only to files and stdout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .energies import EnergySpec, eval_many
from .errors import WedflowError
from .reference import (
    StudyOptions, convergence_study, lambda_diagnostics, minimizing_movements,
)
from .spaces import EUCLIDEAN, Point, SpaceSpec, distance
from .trajectories import (
    GRID_MODES, UNIFORM, g_reparam, metric_speed, poincare_witness, spectral_check,
)
from .value import (
    IdentityReport, ProbeOptions, ValueCache, ValueOptions, check_dpp,
    check_eps_monotonicity, check_fundamental_identity, check_hj,
    check_yosida_bound, finsler_distance, value_along, value_function,
)
from .wed import (
    DIRECT, SOLVERS, WedProblem, check_inner_variation, default_horizon, minimize_wed,
)

SUITES = ("spectral", "inner", "dpp", "fundamental", "monotone", "yosida",
          "hj", "lambda", "convergence", "finsler")


class ConfigError(WedflowError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"config {pointer}: {message}" if pointer else f"config: {message}")
        self.pointer = pointer


_REQUIRED = object()


def _need(cfg: dict, key, typ, pointer: str = "", default=_REQUIRED):
    """``cfg[key]`` as a ``typ``, or ``default`` (if given) when it is absent or
    null; ints pass as floats, integral floats as ints, booleans as neither."""
    val = cfg.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(f"{pointer}/{key}", "missing required key")
        return default
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    elif typ is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"{pointer}/{key}", f"expected {typ.__name__}")
    return val


def _floats(cfg: dict, key: str, default: list) -> list:
    vals = _need(cfg, key, list, default=default)
    return [_need(dict(enumerate(vals)), i, float, f"/{key}") for i in range(len(vals))]


class Experiment:
    """Validated config plus lazily computed shared objects."""

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            raise ConfigError("", "expected a JSON object")
        self.cfg = cfg
        space, energy = _need(cfg, "space", dict), _need(cfg, "energy", dict)
        x_bar = np.asarray(_floats(cfg, "x_bar", _REQUIRED))
        try:
            self.space = SpaceSpec.from_json(space)
        except WedflowError as exc:
            raise ConfigError("/space", str(exc))
        try:
            self.energy = EnergySpec.from_json(energy)
        except WedflowError as exc:
            raise ConfigError("/energy", str(exc))
        try:
            self.x_bar = Point(x_bar, self.space)
        except WedflowError as exc:
            raise ConfigError("/x_bar", str(exc))
        self.epsilon = _need(cfg, "epsilon", float)
        if self.epsilon <= 0.0:
            raise ConfigError("/epsilon", "must be positive")
        self.eps_list = _floats(cfg, "eps_list",
                                [self.epsilon, self.epsilon / 2.0, self.epsilon / 4.0])
        for i, e in enumerate(self.eps_list):
            if e <= 0.0:
                raise ConfigError(f"/eps_list/{i}", "must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("/eps_list", "must decrease strictly")
        self.N = _need(cfg, "N", int, default=4000)
        if self.N < 1:
            raise ConfigError("/N", "must be at least 1")
        self.T = _need(cfg, "T", float, default=None)
        if self.T is not None and self.T <= 0.0:
            raise ConfigError("/T", "must be positive")
        self.t_obs = _need(cfg, "t_obs", float, default=self.T if self.T is not None else 1.0)
        self.grid_mode = _need(cfg, "grid_mode", str, default=UNIFORM)
        self.solver = _need(cfg, "solver", str, default=DIRECT)
        for key, allowed in (("grid_mode", GRID_MODES), ("solver", SOLVERS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"/{key}", f"expected one of {', '.join(allowed)}")
        self.grad_tol = _need(cfg, "grad_tol", float, default=1e-8)
        self.max_iter = _need(cfg, "max_iter", int, default=100)
        self.probe_seed = _need(cfg, "probe_seed", int, default=20240)
        capacity = _need(cfg, "cache_capacity", int, default=256)
        if capacity < 0:
            raise ConfigError("/cache_capacity", "must be nonnegative")
        self.cache = ValueCache(capacity)
        self._solution = None

    def problem(self, epsilon=None, T=None) -> WedProblem:
        eps = self.epsilon if epsilon is None else epsilon
        horizon = T if T is not None else (
            self.T if self.T is not None else default_horizon(eps, self.t_obs)
        )
        try:
            return WedProblem(
                epsilon=eps, T=horizon, N=self.N, space=self.space, energy=self.energy,
                x_bar=self.x_bar, grid_mode=self.grid_mode, solver=self.solver,
                grad_tol=self.grad_tol, max_iter=self.max_iter,
            )
        except WedflowError as exc:
            field = getattr(exc, "field", None)
            raise ConfigError(f"/{field}" if field else "", str(exc))

    def solution(self):
        if self._solution is None:
            self._solution = minimize_wed(self.problem())
        return self._solution

    def value_opts(self) -> ValueOptions:
        """The config's ``grad_tol`` and ``max_iter`` and the run's cache; value
        solves keep ``ValueOptions``' own ``N=4000``, ``exp_graded`` grid and
        ``direct`` solver, whatever the config's ``N``, ``grid_mode``, ``solver``."""
        return ValueOptions(cache=self.cache, grad_tol=self.grad_tol,
                            max_iter=self.max_iter)


# -- emission helpers ---------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def write_residuals_csv(path: Path, residuals) -> None:
    with open(path, "w") as fh:
        fh.write("index,residual\n")
        for i, r in enumerate(np.asarray(residuals, dtype=float)):
            fh.write(f"{i},{_fmt(r)}\n")


def write_report(outdir: Path, report: IdentityReport) -> dict:
    resid_file = outdir / f"residuals_{report.name}.csv"
    write_residuals_csv(resid_file, report.residuals)
    payload = {
        "identity": report.name,
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "pass": report.passed,
        "residuals_file": resid_file.name,
        "details": _jsonable(report.details),
    }
    with open(outdir / f"report_{report.name}.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_trajectory_csv(path: Path, sol, V=None, resid_fund=None, resid_inner=None) -> None:
    """One row per node; per-cell quantities (speed, residuals) at the cell's
    left node, blank on the final row."""
    pts = sol.trajectory.points
    nodes = sol.trajectory.grid.nodes
    d = pts.shape[1]
    V = value_along(sol) if V is None else V
    with open(path, "w") as fh:
        cols = ["t"] + [f"x{j}" for j in range(d)] + ["speed", "phi", "V",
                                                      "resid_fund", "resid_inner"]
        fh.write(",".join(cols) + "\n")
        n_cell = len(nodes) - 1
        for i, t in enumerate(nodes):
            row = [_fmt(t)] + [_fmt(c) for c in pts[i]]
            row.append(_fmt(sol.speed[i]) if i < n_cell else "")
            row.append(_fmt(sol.phi[i]))
            row.append(_fmt(V[i]))
            row.append(_fmt(resid_fund[i]) if resid_fund is not None and i < len(resid_fund) else "")
            row.append(_fmt(resid_inner[i]) if resid_inner is not None and i < len(resid_inner) else "")
            fh.write(",".join(row) + "\n")


# -- suites --------------------------------------------------------------------


def suite_spectral(exp: Experiment, outdir: Path) -> IdentityReport:
    rng = np.random.default_rng(exp.probe_seed)
    violations = []
    for eps in (0.1, 1.0):
        for _ in range(500):
            n = int(rng.integers(8, 64))
            t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, n))])
            w = np.concatenate([[0.0], rng.standard_normal(n)])
            lhs, rhs, _ = spectral_check(t, w, eps)
            violations.append(max(0.0, rhs - lhs) / max(lhs, 1e-300))
    n_w, eps_w = 50.0, 1.0
    t = np.linspace(0.0, 4 * n_w, 100_000 + 1)
    _, _, ratio = spectral_check(t, poincare_witness(n_w, eps_w, t), eps_w)
    resid = np.asarray(violations + [max(0.0, 0.9 - ratio)])
    return IdentityReport(
        name="spectral", residuals=resid, max_residual=float(np.max(resid)),
        tolerance=1e-12, details={"witness_ratio": ratio},
    )


def suite_inner(exp: Experiment, outdir: Path) -> IdentityReport:
    sol = exp.solution()
    rep = check_inner_variation(sol)
    scale = max(rep.speed_scale, 1e-12)
    resid = np.append(rep.residuals / scale, rep.boundary_residual / max(abs(sol.objective), 1e-9))
    return IdentityReport(
        name="inner", residuals=resid, max_residual=float(np.max(resid)),
        tolerance=5e-2,
        details={"boundary_residual": rep.boundary_residual, "speed_scale": rep.speed_scale},
    )


def suite_dpp(exp: Experiment, outdir: Path) -> IdentityReport:
    eps = exp.epsilon
    horizons = _floats(exp.cfg, "horizons", [eps, 2 * eps, 5 * eps])
    return check_dpp(exp.solution(), horizons, exp.value_opts())


def suite_fundamental(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_fundamental_identity(exp.solution())


def _sweep_points(exp: Experiment) -> list:
    """The 20 points from x_bar - 1 to x_bar + 1 of 1-D ``monotone`` and ``sweep``."""
    x0 = exp.x_bar.coords[0]
    return [Point(np.array([xv]), exp.space) for xv in np.linspace(x0 - 1.0, x0 + 1.0, 20)]


def suite_monotone(exp: Experiment, outdir: Path) -> IdentityReport:
    if exp.space.dim != 1:
        return check_eps_monotonicity(exp.energy, exp.x_bar, exp.eps_list, exp.value_opts())
    worst = None
    for x in _sweep_points(exp):
        rep = check_eps_monotonicity(exp.energy, x, exp.eps_list, exp.value_opts())
        if worst is None or rep.max_residual > worst.max_residual:
            worst = rep
    return worst


def suite_yosida(exp: Experiment, outdir: Path) -> IdentityReport:
    return check_yosida_bound(exp.energy, exp.x_bar, exp.epsilon, opts=exp.value_opts())


def suite_hj(exp: Experiment, outdir: Path) -> IdentityReport:
    probe = ProbeOptions(seed=exp.probe_seed)
    return check_hj(exp.energy, exp.x_bar, exp.epsilon, probe, exp.value_opts())


def suite_lambda(exp: Experiment, outdir: Path) -> IdentityReport:
    lam = exp.energy.lam
    if lam is None:
        raise ConfigError("/energy/lambda", "lambda suite needs a convexity modulus")
    lam_prime = _need(exp.cfg, "lambda_prime", float, default=lam - 0.25 if lam < 0 else None)
    return lambda_diagnostics(exp.solution(), lam, lam_prime)


def suite_convergence(exp: Experiment, outdir: Path) -> IdentityReport:
    opts = StudyOptions(N=exp.N, grad_tol=exp.grad_tol, max_iter=exp.max_iter)
    table = convergence_study(exp.energy, exp.x_bar, exp.eps_list, exp.t_obs, opts)
    with open(outdir / "convergence.csv", "w") as fh:
        fh.write("epsilon,sup_err,lsc_residual,runtime_s\n")
        for r in table.rows:
            fh.write(f"{_fmt(r.epsilon)},{_fmt(r.sup_err)},{_fmt(r.lsc_residual)},"
                     f"{_fmt(r.runtime_s)}\n")
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
        name="convergence", residuals=resid, max_residual=float(np.max(resid)),
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
    d_plain = finsler_distance(space, lambda P: np.ones(len(P)), a, b)
    resid = [abs(d_plain - distance(space, a, b)) / 1e-6]
    s1 = SpaceSpec.euclidean(1)
    c_val = 4.0
    da = Point(np.array([0.0]), s1)
    db = Point(np.array([2.0]), s1)
    d_const = finsler_distance(s1, lambda P: np.full(len(P), math.sqrt(c_val)), da, db)
    resid.append(abs(d_const - math.sqrt(c_val) * 2.0) / 1e-4)
    if exp.space.dim == 1 and exp.space.kind == EUCLIDEAN:
        f_phi = lambda P: np.sqrt(np.maximum(1.0, eval_many(exp.energy, P)))
    else:
        f_phi = lambda P: np.sqrt(np.maximum(1.0, np.float_power(P[:, 0], 2)))
    val, curve = finsler_distance(s1, f_phi, da, db, return_curve=True)
    rep_curve = g_reparam(curve, f_phi)
    mids = 0.5 * (rep_curve.points[:-1] + rep_curve.points[1:])
    product = float(np.sum(f_phi(mids) * metric_speed(rep_curve) * rep_curve.grid.dt))
    resid.append(abs(product - val) / max(val, 1e-9) / 1e-3)
    resid = np.asarray(resid)
    return IdentityReport(
        name="finsler", residuals=resid, max_residual=float(np.max(resid)),
        tolerance=1.0,
        details={"plain": d_plain, "const": d_const, "lagrangian": val, "product": product},
    )


_SUITE_FN = {
    "spectral": suite_spectral, "inner": suite_inner, "dpp": suite_dpp,
    "fundamental": suite_fundamental, "monotone": suite_monotone,
    "yosida": suite_yosida, "hj": suite_hj, "lambda": suite_lambda,
    "convergence": suite_convergence, "finsler": suite_finsler,
}


# -- tasks beyond suites ---------------------------------------------------------


def emit_solve(exp: Experiment, outdir: Path) -> dict:
    sol = exp.solution()
    fund = check_fundamental_identity(sol)
    inner = check_inner_variation(sol)
    n_rate = sol.speed.shape[0]
    write_trajectory_csv(outdir / "trajectory.csv", sol,
                         resid_fund=fund.residuals[:n_rate],
                         resid_inner=inner.residuals)
    payload = {
        "objective": sol.objective,
        "iterations": sol.iterations,
        "gradient_norm": sol.gradient_norm,
        "converged": sol.converged,
        "residuals": {
            "inner_variation": inner.max_residual,
            "fundamental": fund.max_residual,
        },
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload


def emit_value(exp: Experiment, outdir: Path, xs=None) -> None:
    xs = [exp.x_bar] if xs is None else xs
    with open(outdir / "value.csv", "w") as fh:
        d = exp.space.dim
        fh.write(",".join([f"x{j}" for j in range(d)] + ["epsilon", "V", "G", "phi"]) + "\n")
        for x in xs:
            for eps in exp.eps_list:
                s = value_function(exp.energy, x, eps, exp.value_opts())
                row = [_fmt(c) for c in x.coords] + [_fmt(eps), _fmt(s.V), _fmt(s.G), _fmt(s.phi)]
                fh.write(",".join(row) + "\n")


def emit_sweep(exp: Experiment, outdir: Path) -> None:
    if exp.space.dim != 1:
        raise ConfigError("/space", "sweep currently expects a one-dimensional space")
    emit_value(exp, outdir, _sweep_points(exp))


def emit_mm(exp: Experiment, outdir: Path) -> None:
    tau = _need(exp.cfg, "mm_tau", float, default=exp.epsilon**2 / 4.0)
    steps = _need(exp.cfg, "mm_steps", int, default=math.ceil(exp.t_obs / tau))
    mm = minimizing_movements(exp.x_bar, tau, steps, exp.energy, exp.space)
    phis = eval_many(exp.energy, mm.trajectory.points)
    with open(outdir / "mm.csv", "w") as fh:
        d = exp.space.dim
        fh.write(",".join(["k", "t"] + [f"x{j}" for j in range(d)] + ["phi", "movement"]) + "\n")
        for k, t in enumerate(mm.trajectory.grid.nodes):
            row = [str(k), _fmt(t)] + [_fmt(c) for c in mm.trajectory.points[k]]
            row.append(_fmt(phis[k]))
            row.append(_fmt(mm.movements[k - 1]) if k >= 1 else "")
            fh.write(",".join(row) + "\n")


# -- driver -----------------------------------------------------------------------


def run(cfg: dict, out: Path, suites=None, quiet=False, tasks=()) -> int:
    """Run ``tasks``, then the selected suites in the listed order."""
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    results = {}
    times = {}
    error = None
    out.mkdir(parents=True, exist_ok=True)
    try:
        exp = Experiment(cfg)
        selected = list(suites if suites is not None else _need(cfg, "suites", list, default=[]))
        for s in selected:
            if s not in SUITES:
                raise ConfigError("/suites", f"unknown suite {s!r}")
        exp.problem()  # fail configs violating well-posedness before any work
        for task in tasks:
            t = time.perf_counter()
            if task == "solve":
                emit_solve(exp, out)
            elif task == "value":
                emit_value(exp, out)
            elif task == "sweep":
                emit_sweep(exp, out)
            elif task == "mm":
                emit_mm(exp, out)
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

    summary = {name: rep.passed for name, rep in results.items()}
    manifest = {
        "tool": "wedflow",
        "version": __version__,
        "config": _jsonable(cfg),
        "started_utc": started.isoformat(),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "task_wall_times_s": times,
        "probe_seed": cfg.get("probe_seed", 20240) if isinstance(cfg, dict) else None,
        "summary": summary,
        "error": error,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if error is not None:
        return 1
    return 0 if all(summary.values()) else 2


# command -> (suites, tasks); None: the --suite names, else the config's
# suites, else all of them
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
    if suites is None:
        suites = args.suite or (cfg.get("suites") if isinstance(cfg, dict) else None) or SUITES
    return run(cfg, Path(args.out), suites, args.quiet, tasks)


if __name__ == "__main__":
    raise SystemExit(main())
